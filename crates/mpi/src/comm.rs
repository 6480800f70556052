//! Communicators: rank → node placement.

use nlrm_topology::NodeId;
use std::collections::BTreeMap;

/// An MPI communicator over a concrete node placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Communicator {
    /// Node hosting each rank (`rank_map[r]` = node of rank `r`).
    rank_map: Vec<NodeId>,
    /// Distinct nodes in first-appearance order.
    nodes: Vec<NodeId>,
    /// Processes per node, aligned with `nodes`.
    procs_per_node: Vec<u32>,
}

impl Communicator {
    /// Build from a rank map (e.g. an allocation's `rank_map`).
    pub fn new(rank_map: Vec<NodeId>) -> Self {
        assert!(!rank_map.is_empty(), "empty communicator");
        let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut nodes = Vec::new();
        for &n in &rank_map {
            let e = counts.entry(n).or_insert(0);
            if *e == 0 {
                nodes.push(n);
            }
            *e += 1;
        }
        let procs_per_node = nodes.iter().map(|n| counts[n]).collect();
        Communicator {
            rank_map,
            nodes,
            procs_per_node,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.rank_map.len()
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.rank_map[rank]
    }

    /// Distinct nodes in placement order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Processes placed on `node` (0 if not part of the job).
    pub fn procs_on(&self, node: NodeId) -> u32 {
        self.nodes
            .iter()
            .position(|&n| n == node)
            .map(|i| self.procs_per_node[i])
            .unwrap_or(0)
    }

    /// `(node, procs)` pairs.
    pub fn placement(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.nodes
            .iter()
            .copied()
            .zip(self.procs_per_node.iter().copied())
    }

    /// True when both ranks share a node (intra-node message).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.rank_map[a] == self.rank_map[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm() -> Communicator {
        Communicator::new(vec![
            NodeId(5),
            NodeId(5),
            NodeId(2),
            NodeId(2),
            NodeId(2),
            NodeId(9),
        ])
    }

    #[test]
    fn size_and_lookup() {
        let c = comm();
        assert_eq!(c.size(), 6);
        assert_eq!(c.node_of(0), NodeId(5));
        assert_eq!(c.node_of(4), NodeId(2));
    }

    #[test]
    fn placement_counts() {
        let c = comm();
        assert_eq!(c.nodes(), &[NodeId(5), NodeId(2), NodeId(9)]);
        assert_eq!(c.procs_on(NodeId(2)), 3);
        assert_eq!(c.procs_on(NodeId(9)), 1);
        assert_eq!(c.procs_on(NodeId(77)), 0);
        let total: u32 = c.placement().map(|(_, p)| p).sum();
        assert_eq!(total as usize, c.size());
    }

    #[test]
    fn same_node_detection() {
        let c = comm();
        assert!(c.same_node(0, 1));
        assert!(!c.same_node(1, 2));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rank_map_panics() {
        Communicator::new(vec![]);
    }
}
