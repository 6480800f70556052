//! Routing: the unique tree path between any two nodes.

use crate::graph::{LinkId, NodeId, SwitchId, Topology};
use std::ops::Deref;

/// Links a [`Route`] holds without touching the heap: three trunk levels
/// on each side of the lowest common ancestor. Routes on the paper's
/// testbed and on `campus` clusters have at most four links.
const INLINE_LINKS: usize = 8;

/// The ordered links of one tree path (see [`Topology::route`]).
///
/// Held inline, so building one does not allocate, unless the path is
/// longer than the inline buffer; deeper trees spill to a `Vec`. Derefs
/// to `[LinkId]`.
#[derive(Debug, Clone)]
pub struct Route {
    len: usize,
    inline: [LinkId; INLINE_LINKS],
    spill: Vec<LinkId>,
}

impl Deref for Route {
    type Target = [LinkId];
    fn deref(&self) -> &[LinkId] {
        if self.len > INLINE_LINKS {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }
}

impl Topology {
    /// Ordered links on the unique path from `u` to `v`.
    ///
    /// Empty when `u == v`. The path is `u`'s access link, trunks up to the
    /// lowest common ancestor switch, trunks back down, and `v`'s access link.
    pub fn route(&self, u: NodeId, v: NodeId) -> Route {
        let mut route = Route {
            len: 0,
            inline: [LinkId(0); INLINE_LINKS],
            spill: Vec::new(),
        };
        if u == v {
            return route;
        }
        let (su, sv) = (self.switch_of(u), self.switch_of(v));
        let parent = |s: SwitchId| self.parent(s).expect("non-root switch has a parent");
        let uplink = |s: SwitchId| self.uplink(s).expect("non-root switch has an uplink");
        // lowest common ancestor: lift the deeper switch to the other's
        // depth, then lift both until they meet
        let (mut a, mut b) = (su, sv);
        while self.depth(a) > self.depth(b) {
            a = parent(a);
        }
        while self.depth(b) > self.depth(a) {
            b = parent(b);
        }
        while a != b {
            a = parent(a);
            b = parent(b);
        }
        let up = (self.depth(su) - self.depth(a)) as usize;
        let down = (self.depth(sv) - self.depth(a)) as usize;
        route.len = up + down + 2;
        let links: &mut [LinkId] = if route.len > INLINE_LINKS {
            route.spill = vec![LinkId(0); route.len];
            &mut route.spill
        } else {
            &mut route.inline[..route.len]
        };
        links[0] = self.access_link(u);
        let mut s = su;
        for link in &mut links[1..=up] {
            *link = uplink(s);
            s = parent(s);
        }
        // walking up from v's switch visits the down leg back to front
        let mut s = sv;
        for link in links[up + 1..=up + down].iter_mut().rev() {
            *link = uplink(s);
            s = parent(s);
        }
        links[up + down + 1] = self.access_link(v);
        route
    }

    /// Number of links on the path (the paper's "hops": 2 within a switch,
    /// up to 4 across the core).
    pub fn hops(&self, u: NodeId, v: NodeId) -> usize {
        self.route(u, v).len()
    }

    /// Sum of base latencies along the path, in seconds.
    pub fn base_latency(&self, u: NodeId, v: NodeId) -> f64 {
        self.route(u, v)
            .iter()
            .map(|&l| self.link(l).params.latency_s)
            .sum()
    }

    /// Minimum raw capacity along the path, in bits/s (0 for `u == v`,
    /// meaning "no network involved").
    pub fn path_capacity(&self, u: NodeId, v: NodeId) -> f64 {
        self.route(u, v)
            .iter()
            .map(|&l| self.link(l).params.capacity_bps)
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{LinkParams, NodeId, Topology};

    fn star() -> Topology {
        // switch 0 core (2 nodes), switches 1,2 leaves (2 nodes each)
        Topology::star_of_switches(&[2, 2, 2], LinkParams::gigabit(), LinkParams::gigabit())
    }

    #[test]
    fn same_node_empty_path() {
        let t = star();
        assert!(t.route(NodeId(0), NodeId(0)).is_empty());
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn same_switch_two_hops() {
        let t = star();
        // nodes 0,1 on the core switch
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 2);
        // nodes 2,3 on leaf switch 1
        assert_eq!(t.hops(NodeId(2), NodeId(3)), 2);
    }

    #[test]
    fn leaf_to_core_three_hops() {
        let t = star();
        // node 2 (leaf sw1) to node 0 (core sw0): access + trunk + access
        assert_eq!(t.hops(NodeId(2), NodeId(0)), 3);
    }

    #[test]
    fn leaf_to_leaf_four_hops() {
        let t = star();
        // node 2 (sw1) to node 4 (sw2): access + trunk up + trunk down + access
        assert_eq!(t.hops(NodeId(2), NodeId(4)), 4);
    }

    #[test]
    fn path_is_symmetric_in_link_set() {
        let t = star();
        let mut p1 = t.route(NodeId(2), NodeId(4)).to_vec();
        let mut p2 = t.route(NodeId(4), NodeId(2)).to_vec();
        p1.sort();
        p2.sort();
        assert_eq!(p1, p2);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let t = star();
        let per_hop = LinkParams::gigabit().latency_s;
        let lat = t.base_latency(NodeId(2), NodeId(4));
        assert!((lat - 4.0 * per_hop).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_bottleneck() {
        let t = Topology::star_of_switches(
            &[1, 1],
            LinkParams::gigabit(),
            LinkParams {
                capacity_bps: 0.5e9,
                latency_s: 10e-6,
            },
        );
        assert_eq!(t.path_capacity(NodeId(0), NodeId(1)), 0.5e9);
    }

    #[test]
    fn deep_chain_routing() {
        // chain of switches: 0 <- 1 <- 2, node 0 on sw0, node 1 on sw2
        let t = Topology::tree(
            &[None, Some(0), Some(1)],
            &[0, 2],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        // access + two trunks + access
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 4);
    }

    #[test]
    fn sibling_subtrees_route_through_lca_not_root() {
        // root 0; children 1, 2; 1's children 3, 4. Nodes on 3 and 4.
        let t = Topology::tree(
            &[None, Some(0), Some(0), Some(1), Some(1)],
            &[3, 4],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        // path: access + up(3->1) + down(1->4) + access = 4 hops (LCA is 1, not root)
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 4);
    }
}
