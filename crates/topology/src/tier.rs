//! Switch-tier indexing: O(1) node→switch lookup and per-switch member
//! lists, precomputed once from a [`Topology`].
//!
//! [`Topology::switch_of`] is already O(1), but enumerating a switch's
//! members via [`Topology::nodes_of_switch`] walks every node. The tiered
//! network-load representation and the bucketed candidate generator both
//! need the inverse map repeatedly, so [`SwitchIndex`] materializes it:
//! `switch_of` as a dense vector and `members` grouped per switch in
//! ascending node-id order.

use crate::graph::{NodeId, SwitchId, Topology};

/// Dense node↔switch index over a topology (or any assignment of nodes to
/// switch-tier buckets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchIndex {
    switch_of: Vec<SwitchId>,
    members: Vec<Vec<NodeId>>,
}

impl SwitchIndex {
    /// Build the index from an explicit node→switch assignment.
    /// `switch_of[i]` is the switch of `NodeId(i)`; `num_switches` bounds
    /// the switch-id space (switches may be empty).
    pub fn from_assignment(switch_of: Vec<SwitchId>, num_switches: usize) -> SwitchIndex {
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_switches];
        for (i, &sw) in switch_of.iter().enumerate() {
            assert!(
                sw.index() < num_switches,
                "node {i} assigned to out-of-range switch {sw}"
            );
            members[sw.index()].push(NodeId(i as u32));
        }
        SwitchIndex { switch_of, members }
    }

    /// A uniform assignment: `num_nodes` nodes packed `per_switch` to a
    /// switch in node-id order (the last switch may be partial). Handy for
    /// synthetic sharding at bench scale without building a full topology.
    pub fn uniform(num_nodes: usize, per_switch: usize) -> SwitchIndex {
        assert!(per_switch > 0, "per_switch must be positive");
        let num_switches = num_nodes.div_ceil(per_switch).max(1);
        let switch_of = (0..num_nodes)
            .map(|i| SwitchId((i / per_switch) as u32))
            .collect();
        SwitchIndex::from_assignment(switch_of, num_switches)
    }

    /// Number of nodes indexed.
    pub fn num_nodes(&self) -> usize {
        self.switch_of.len()
    }

    /// Number of switch buckets (including empty ones).
    pub fn num_switches(&self) -> usize {
        self.members.len()
    }

    /// The switch of `node`.
    pub fn switch_of(&self, node: NodeId) -> SwitchId {
        self.switch_of[node.index()]
    }

    /// Nodes attached to `sw`, ascending node id.
    pub fn members(&self, sw: SwitchId) -> &[NodeId] {
        &self.members[sw.index()]
    }

    /// The raw node→switch assignment, indexed by `NodeId`.
    pub fn assignment(&self) -> &[SwitchId] {
        &self.switch_of
    }

    /// Whether two nodes share a switch.
    pub fn same_switch(&self, u: NodeId, v: NodeId) -> bool {
        self.switch_of[u.index()] == self.switch_of[v.index()]
    }
}

impl Topology {
    /// Precompute the switch-tier index for this topology: O(V) once,
    /// then O(1) membership queries.
    pub fn switch_index(&self) -> SwitchIndex {
        let switch_of: Vec<SwitchId> = self.node_ids().map(|n| self.switch_of(n)).collect();
        SwitchIndex::from_assignment(switch_of, self.num_switches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkParams;

    #[test]
    fn index_matches_topology() {
        let t =
            Topology::star_of_switches(&[2, 3, 4], LinkParams::gigabit(), LinkParams::gigabit());
        let idx = t.switch_index();
        assert_eq!(idx.num_nodes(), 9);
        assert_eq!(idx.num_switches(), 3);
        for n in t.node_ids() {
            assert_eq!(idx.switch_of(n), t.switch_of(n));
        }
        for s in 0..t.num_switches() {
            assert_eq!(
                idx.members(SwitchId(s as u32)),
                t.nodes_of_switch(SwitchId(s as u32))
            );
        }
    }

    #[test]
    fn members_are_sorted_and_partition_nodes() {
        let t =
            Topology::star_of_switches(&[5, 1, 7], LinkParams::gigabit(), LinkParams::gigabit());
        let idx = t.switch_index();
        let mut all: Vec<NodeId> = Vec::new();
        for s in 0..idx.num_switches() {
            let m = idx.members(SwitchId(s as u32));
            assert!(m.windows(2).all(|w| w[0] < w[1]), "members unsorted");
            all.extend_from_slice(m);
        }
        all.sort();
        assert_eq!(all, t.node_ids().collect::<Vec<_>>());
    }

    #[test]
    fn empty_switches_allowed() {
        // campus-style: switch 0 is a router with no nodes
        let idx = SwitchIndex::from_assignment(vec![SwitchId(1), SwitchId(1), SwitchId(2)], 3);
        assert!(idx.members(SwitchId(0)).is_empty());
        assert_eq!(idx.members(SwitchId(1)).len(), 2);
        assert!(idx.same_switch(NodeId(0), NodeId(1)));
        assert!(!idx.same_switch(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "out-of-range switch")]
    fn out_of_range_assignment_rejected() {
        SwitchIndex::from_assignment(vec![SwitchId(5)], 2);
    }

    #[test]
    fn uniform_packs_in_order_with_partial_tail() {
        let idx = SwitchIndex::uniform(10, 4);
        assert_eq!(idx.num_nodes(), 10);
        assert_eq!(idx.num_switches(), 3);
        assert_eq!(idx.members(SwitchId(0)).len(), 4);
        assert_eq!(idx.members(SwitchId(2)).len(), 2);
        assert_eq!(idx.switch_of(NodeId(7)), SwitchId(1));
    }
}
