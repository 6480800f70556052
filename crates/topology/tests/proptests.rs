//! Property-based tests for topology routing on arbitrary trees.

use nlrm_topology::{LinkId, LinkParams, NodeId, SwitchId, Topology};
use proptest::prelude::*;

fn build(parents: &[Option<usize>], node_counts: &[usize]) -> Topology {
    let mut node_switches = Vec::new();
    for (sw, &count) in node_counts.iter().enumerate() {
        node_switches.extend(std::iter::repeat_n(sw, count));
    }
    Topology::tree(
        parents,
        &node_switches,
        LinkParams::gigabit(),
        LinkParams::ten_gigabit(),
    )
}

/// Strategy: a random tree of up to 8 switches (parent < child index, so
/// it is always a valid rooted tree) with 1–5 nodes per switch.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (1usize..8)
        .prop_flat_map(|num_switches| {
            let parents = (1..num_switches)
                .map(|i| (0..i).prop_map(Some).boxed())
                .collect::<Vec<_>>();
            let node_counts = proptest::collection::vec(1usize..5, num_switches);
            (parents, node_counts)
        })
        .prop_map(|(parent_tail, node_counts)| {
            let mut parents: Vec<Option<usize>> = vec![None];
            parents.extend(parent_tail);
            build(&parents, &node_counts)
        })
}

/// Strategy: deep, narrow trees of 14–28 switches, each hanging below
/// one of the two switches before it. The last switch is at least 7 trunks
/// below the root, so some paths run past a route's inline buffer (8
/// links).
fn arb_deep_topology() -> impl Strategy<Value = Topology> {
    (14usize..28)
        .prop_flat_map(|num_switches| {
            let parents = (1..num_switches)
                .map(|i| (i.saturating_sub(2)..i).prop_map(Some).boxed())
                .collect::<Vec<_>>();
            let node_counts = proptest::collection::vec(1usize..3, num_switches);
            (parents, node_counts)
        })
        .prop_map(|(parent_tail, node_counts)| {
            let mut parents: Vec<Option<usize>> = vec![None];
            parents.extend(parent_tail);
            build(&parents, &node_counts)
        })
}

/// Reference routing: build both switches' full ancestor chains, take the
/// first switch on `u`'s chain that is also on `v`'s as the LCA, and
/// concatenate access, up leg, reversed down leg, access.
fn reference_path(topo: &Topology, u: NodeId, v: NodeId) -> Vec<LinkId> {
    if u == v {
        return Vec::new();
    }
    // a switch's parent is the far end of its uplink
    let parent = |s: SwitchId| {
        topo.uplink(s).map(|l| match topo.link(l).b {
            nlrm_topology::graph::Endpoint::Switch(p) => p,
            other => panic!("uplink ends at {other:?}"),
        })
    };
    let chain = |mut s: SwitchId| {
        let mut out = vec![s];
        while let Some(p) = parent(s) {
            out.push(p);
            s = p;
        }
        out
    };
    let anc_u = chain(topo.switch_of(u));
    let anc_v = chain(topo.switch_of(v));
    let lca = *anc_u.iter().find(|s| anc_v.contains(s)).expect("one root");
    let mut path = vec![topo.access_link(u)];
    for &s in anc_u.iter().take_while(|&&s| s != lca) {
        path.push(topo.uplink(s).expect("non-root"));
    }
    let down: Vec<LinkId> = anc_v
        .iter()
        .take_while(|&&s| s != lca)
        .map(|&s| topo.uplink(s).expect("non-root"))
        .collect();
    path.extend(down.into_iter().rev());
    path.push(topo.access_link(v));
    path
}

fn assert_routes_match_reference(topo: &Topology) -> Result<(), String> {
    let n = topo.num_nodes();
    for u in 0..n {
        for v in 0..n {
            let (u, v) = (NodeId(u as u32), NodeId(v as u32));
            prop_assert_eq!(topo.route(u, v).to_vec(), reference_path(topo, u, v));
        }
    }
    Ok(())
}

proptest! {
    /// The route equals the ancestor-chain reference link for link, in
    /// order, on arbitrary trees.
    #[test]
    fn route_matches_reference(topo in arb_topology()) {
        assert_routes_match_reference(&topo)?;
    }

    /// Same on trees deep enough that routes spill past the inline buffer.
    #[test]
    fn deep_route_matches_reference(topo in arb_deep_topology()) {
        // node 0 sits on the root switch
        let longest = (0..topo.num_nodes())
            .map(|v| topo.hops(NodeId(0), NodeId(v as u32)))
            .max()
            .unwrap_or(0);
        prop_assert!(longest > 8, "deep tree too shallow: {} links", longest);
        assert_routes_match_reference(&topo)?;
    }

    /// Routing basics on arbitrary trees: self-paths empty, distinct pairs
    /// have ≥ 2 hops, path link-sets are symmetric, hops are bounded by the
    /// tree diameter.
    #[test]
    fn routing_invariants(topo in arb_topology()) {
        let n = topo.num_nodes();
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                let path = topo.route(u, v).to_vec();
                if u == v {
                    prop_assert!(path.is_empty());
                    continue;
                }
                prop_assert!(path.len() >= 2, "distinct nodes need 2 access hops");
                // worst case: up the whole switch chain and back down
                prop_assert!(path.len() <= 2 + 2 * topo.num_switches());
                // symmetric as a set of links
                let mut fwd = path.clone();
                let mut bwd = topo.route(v, u).to_vec();
                fwd.sort();
                bwd.sort();
                prop_assert_eq!(fwd, bwd);
                // no link repeats on a tree path
                let mut dedup = path.clone();
                dedup.sort();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), path.len());
            }
        }
    }

    /// Triangle inequality on hop counts (paths in trees are unique, so
    /// hops(u,w) ≤ hops(u,v) + hops(v,w)).
    #[test]
    fn hops_triangle_inequality(topo in arb_topology()) {
        let n = topo.num_nodes().min(6);
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    let (u, v, w) = (NodeId(u as u32), NodeId(v as u32), NodeId(w as u32));
                    prop_assert!(topo.hops(u, w) <= topo.hops(u, v) + topo.hops(v, w));
                }
            }
        }
    }

    /// Same-switch pairs are never farther than cross-switch pairs from the
    /// same node, and capacity equals the bottleneck along the path.
    #[test]
    fn locality_and_capacity(topo in arb_topology()) {
        let n = topo.num_nodes();
        for u in 0..n {
            for v in 0..n {
                if u == v { continue; }
                let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                if topo.switch_of(u) == topo.switch_of(v) {
                    prop_assert_eq!(topo.hops(u, v), 2);
                }
                // access links are the slowest in this strategy (1G vs 10G
                // trunks), so the bottleneck is always 1 Gb/s
                prop_assert_eq!(topo.path_capacity(u, v), 1e9);
                prop_assert!(topo.base_latency(u, v) > 0.0);
            }
        }
    }

    /// The sequential order is a permutation grouped by switch.
    #[test]
    fn sequential_order_is_switch_grouped_permutation(topo in arb_topology()) {
        let order = topo.sequential_order();
        prop_assert_eq!(order.len(), topo.num_nodes());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), topo.num_nodes());
        // switches appear in contiguous runs
        let switches: Vec<u32> = order.iter().map(|&x| topo.switch_of(x).0).collect();
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        for s in switches {
            if Some(s) != prev {
                prop_assert!(seen.insert(s), "switch {s} appears in two runs");
                prev = Some(s);
            }
        }
    }
}
