//! Topology data model: nodes, switches, links, and tree builders.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a compute node (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a switch (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwitchId(pub u32);

/// Identifier of a link (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl SwitchId {
    /// Index into dense per-switch arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// Index into dense per-link arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Capacity/latency pair describing one physical link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Raw capacity in bits per second.
    pub capacity_bps: f64,
    /// One-way propagation + switching latency in seconds.
    pub latency_s: f64,
}

impl LinkParams {
    /// Gigabit Ethernet with a typical store-and-forward hop latency.
    pub fn gigabit() -> Self {
        LinkParams {
            capacity_bps: 1e9,
            latency_s: 50e-6,
        }
    }

    /// 10 GbE trunk.
    pub fn ten_gigabit() -> Self {
        LinkParams {
            capacity_bps: 10e9,
            latency_s: 30e-6,
        }
    }
}

/// What a link connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A compute node's NIC.
    Node(NodeId),
    /// A switch port.
    Switch(SwitchId),
}

/// A physical link between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Link id (index into [`Topology::links`]).
    pub id: LinkId,
    /// One end.
    pub a: Endpoint,
    /// Other end.
    pub b: Endpoint,
    /// Capacity/latency.
    pub params: LinkParams,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SwitchRec {
    parent: Option<SwitchId>,
    /// Link to the parent switch, when `parent` is set.
    uplink: Option<LinkId>,
    /// Trunk hops from this switch up to the root (the root has depth 0).
    depth: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct NodeRec {
    switch: SwitchId,
    access_link: LinkId,
}

/// An immutable cluster topology: a tree of switches with nodes at the leaves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    switches: Vec<SwitchRec>,
    nodes: Vec<NodeRec>,
    links: Vec<Link>,
}

impl Topology {
    /// Build a topology from explicit structure.
    ///
    /// * `switch_parents[i]` — parent of switch `i` (exactly one root = `None`).
    /// * `node_switches[j]` — switch node `j` attaches to.
    /// * `access` — params for node↔switch links.
    /// * `trunk` — params for switch↔switch links.
    pub fn tree(
        switch_parents: &[Option<usize>],
        node_switches: &[usize],
        access: LinkParams,
        trunk: LinkParams,
    ) -> Topology {
        let roots = switch_parents.iter().filter(|p| p.is_none()).count();
        assert_eq!(roots, 1, "topology must have exactly one root switch");
        let mut links = Vec::new();
        let mut switches = Vec::with_capacity(switch_parents.len());
        for (i, parent) in switch_parents.iter().enumerate() {
            let uplink = parent.map(|p| {
                assert!(
                    p < switch_parents.len(),
                    "switch {i} has invalid parent {p}"
                );
                assert!(p != i, "switch {i} cannot be its own parent");
                let id = LinkId(links.len() as u32);
                links.push(Link {
                    id,
                    a: Endpoint::Switch(SwitchId(i as u32)),
                    b: Endpoint::Switch(SwitchId(p as u32)),
                    params: trunk,
                });
                id
            });
            switches.push(SwitchRec {
                parent: parent.map(|p| SwitchId(p as u32)),
                uplink,
                depth: 0,
            });
        }
        let mut nodes = Vec::with_capacity(node_switches.len());
        for (j, &sw) in node_switches.iter().enumerate() {
            assert!(
                sw < switches.len(),
                "node {j} attaches to invalid switch {sw}"
            );
            let id = LinkId(links.len() as u32);
            links.push(Link {
                id,
                a: Endpoint::Node(NodeId(j as u32)),
                b: Endpoint::Switch(SwitchId(sw as u32)),
                params: access,
            });
            nodes.push(NodeRec {
                switch: SwitchId(sw as u32),
                access_link: id,
            });
        }
        let mut topo = Topology {
            switches,
            nodes,
            links,
        };
        topo.assert_tree_and_set_depths();
        topo
    }

    /// Star-of-switches: switch 0 is the core; switches 1..k hang off it;
    /// `nodes_per_switch[i]` nodes attach to switch `i`. This is the paper's
    /// "4 switches, 10–15 nodes each" shape.
    ///
    /// ```
    /// use nlrm_topology::{LinkParams, NodeId, Topology};
    ///
    /// let topo = Topology::star_of_switches(
    ///     &[2, 2],
    ///     LinkParams::gigabit(),
    ///     LinkParams::gigabit(),
    /// );
    /// assert_eq!(topo.num_nodes(), 4);
    /// // same switch: two access hops; across the star: four
    /// assert_eq!(topo.hops(NodeId(0), NodeId(1)), 2);
    /// assert_eq!(topo.hops(NodeId(0), NodeId(2)), 3);
    /// ```
    pub fn star_of_switches(
        nodes_per_switch: &[usize],
        access: LinkParams,
        trunk: LinkParams,
    ) -> Topology {
        assert!(!nodes_per_switch.is_empty());
        let parents: Vec<Option<usize>> = (0..nodes_per_switch.len())
            .map(|i| if i == 0 { None } else { Some(0) })
            .collect();
        let mut node_switches = Vec::new();
        for (sw, &count) in nodes_per_switch.iter().enumerate() {
            node_switches.extend(std::iter::repeat_n(sw, count));
        }
        Topology::tree(&parents, &node_switches, access, trunk)
    }

    /// A single switch with `n` nodes — the smallest useful topology.
    pub fn single_switch(n: usize, access: LinkParams) -> Topology {
        Topology::star_of_switches(&[n], access, access)
    }

    fn assert_tree_and_set_depths(&mut self) {
        // Walking parents from every switch must reach the root without
        // cycling; the number of steps is the switch's depth.
        for s in 0..self.switches.len() {
            let mut seen = 0;
            let mut cur = SwitchId(s as u32);
            while let Some(p) = self.switches[cur.index()].parent {
                cur = p;
                seen += 1;
                assert!(
                    seen <= self.switches.len(),
                    "cycle in switch tree at switch {s}"
                );
            }
            self.switches[s].depth = seen as u32;
        }
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The switch a node attaches to.
    pub fn switch_of(&self, node: NodeId) -> SwitchId {
        self.nodes[node.index()].switch
    }

    /// The node's access link.
    pub fn access_link(&self, node: NodeId) -> LinkId {
        self.nodes[node.index()].access_link
    }

    /// The uplink of a switch towards its parent, if any.
    pub fn uplink(&self, sw: SwitchId) -> Option<LinkId> {
        self.switches[sw.index()].uplink
    }

    /// Nodes attached to a switch, in id order.
    pub fn nodes_of_switch(&self, sw: SwitchId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.switch_of(n) == sw)
            .collect()
    }

    /// Nodes ordered by (switch, id): the "physically sequential" ordering
    /// the paper's `sequential` baseline walks through.
    pub fn sequential_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = self.node_ids().collect();
        order.sort_by_key(|&n| (self.switch_of(n), n));
        order
    }

    /// The parent of a switch (`None` for the root).
    pub(crate) fn parent(&self, sw: SwitchId) -> Option<SwitchId> {
        self.switches[sw.index()].parent
    }

    /// Trunk hops from a switch up to the root.
    pub(crate) fn depth(&self, sw: SwitchId) -> u32 {
        self.switches[sw.index()].depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_shape_counts() {
        let t =
            Topology::star_of_switches(&[2, 3, 4], LinkParams::gigabit(), LinkParams::gigabit());
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.num_switches(), 3);
        // links: 2 trunks + 9 access
        assert_eq!(t.num_links(), 11);
    }

    #[test]
    fn switch_assignment_follows_counts() {
        let t = Topology::star_of_switches(&[2, 3], LinkParams::gigabit(), LinkParams::gigabit());
        assert_eq!(t.switch_of(NodeId(0)), SwitchId(0));
        assert_eq!(t.switch_of(NodeId(1)), SwitchId(0));
        assert_eq!(t.switch_of(NodeId(2)), SwitchId(1));
        assert_eq!(t.nodes_of_switch(SwitchId(1)).len(), 3);
    }

    #[test]
    fn sequential_order_groups_by_switch() {
        let t = Topology::star_of_switches(&[2, 2], LinkParams::gigabit(), LinkParams::gigabit());
        let order = t.sequential_order();
        let switches: Vec<u32> = order.iter().map(|&n| t.switch_of(n).0).collect();
        let mut sorted = switches.clone();
        sorted.sort();
        assert_eq!(switches, sorted);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn two_roots_rejected() {
        Topology::tree(
            &[None, None],
            &[0, 1],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
    }

    #[test]
    fn deep_tree_depths() {
        // chain: 2 -> 1 -> 0
        let t = Topology::tree(
            &[None, Some(0), Some(1)],
            &[2, 2],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        let depths: Vec<u32> = (0..3).map(|s| t.depth(SwitchId(s))).collect();
        assert_eq!(depths, vec![0, 1, 2]);
        assert_eq!(t.parent(SwitchId(2)), Some(SwitchId(1)));
        assert_eq!(t.parent(SwitchId(0)), None);
    }
}
