//! Allocation requests and results.

use crate::weights::{validate_alpha_beta, ComputeWeights, NetworkWeights};
use nlrm_topology::NodeId;
use std::fmt;

/// What a user asks the resource manager for (paper §3.3: "user specifies
/// the total number of processes and process count per node (optionally)",
/// plus the α/β job mix and attribute weights).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationRequest {
    /// Total number of MPI processes (`n`).
    pub procs: u32,
    /// Optional processes-per-node override for `pc_v`.
    pub ppn: Option<u32>,
    /// Weight of compute cost in Eq. 4 (`α`); high for compute-bound jobs.
    pub alpha: f64,
    /// Weight of network cost in Eq. 4 (`β`); high for communication-bound jobs.
    pub beta: f64,
    /// SAW attribute weights for Eq. 1.
    pub compute_weights: ComputeWeights,
    /// Latency/bandwidth weights for Eq. 2.
    pub network_weights: NetworkWeights,
}

impl AllocationRequest {
    /// A request with the paper's default weights and the given α/β mix.
    pub fn new(procs: u32, ppn: Option<u32>, alpha: f64, beta: f64) -> Self {
        AllocationRequest {
            procs,
            ppn,
            alpha,
            beta,
            compute_weights: ComputeWeights::paper_default(),
            network_weights: NetworkWeights::paper_default(),
        }
    }

    /// The paper's miniMD configuration: α = 0.3, β = 0.7, 4 processes/node.
    pub fn minimd(procs: u32) -> Self {
        AllocationRequest::new(procs, Some(4), 0.3, 0.7)
    }

    /// The paper's miniFE configuration: α = 0.4, β = 0.6, 4 processes/node.
    pub fn minife(procs: u32) -> Self {
        AllocationRequest::new(procs, Some(4), 0.4, 0.6)
    }

    /// Validate all fields.
    pub fn validate(&self) -> Result<(), AllocError> {
        if self.procs == 0 {
            return Err(AllocError::InvalidRequest("procs must be positive".into()));
        }
        if self.ppn == Some(0) {
            return Err(AllocError::InvalidRequest("ppn must be positive".into()));
        }
        validate_alpha_beta(self.alpha, self.beta).map_err(AllocError::InvalidRequest)?;
        self.compute_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        self.network_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        Ok(())
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// The request itself is malformed.
    InvalidRequest(String),
    /// No node is live with a fresh sample.
    NoUsableNodes,
    /// Fewer nodes available than a fixed-size policy needs.
    NotEnoughNodes {
        /// Usable node count.
        available: usize,
        /// Nodes the request needs.
        needed: usize,
    },
    /// Usable nodes exist but none can host a single process
    /// (`pc_v == 0` everywhere), so no candidate group can form.
    NoCapacity,
    /// The broker's admission control bounced the submission: the queue
    /// already holds `depth` jobs.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            AllocError::NoUsableNodes => write!(f, "no usable nodes in snapshot"),
            AllocError::NotEnoughNodes { available, needed } => {
                write!(f, "need {needed} nodes but only {available} usable")
            }
            AllocError::NoCapacity => {
                write!(f, "no usable node has spare process capacity")
            }
            AllocError::QueueFull { depth } => {
                write!(f, "queue full: {depth} jobs already waiting")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A successful allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Name of the policy that produced this allocation.
    pub policy: String,
    /// Selected nodes with their assigned process counts, in selection order.
    pub nodes: Vec<(NodeId, u32)>,
    /// Rank → node placement (block mapping over `nodes`), length = procs.
    pub rank_map: Vec<NodeId>,
    /// Diagnostics for analysis (Table 4 / Fig. 7 reproduction).
    pub diagnostics: Diagnostics,
}

/// Allocation-time diagnostics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Diagnostics {
    /// Eq. 4 total cost of the chosen group (NLA policy only; 0 otherwise).
    pub total_cost: f64,
    /// Mean compute load over selected nodes.
    pub mean_compute_load: f64,
    /// Mean pairwise network load over selected nodes.
    pub mean_network_load: f64,
    /// Per-candidate `(start node, T_G)` table (NLA policy only).
    pub candidate_costs: Vec<(NodeId, f64)>,
    /// Why the winning group won: top-k ranking with cost components
    /// (NLA policy and broker decisions only).
    pub explain: Option<nlrm_obs::ExplainTrace>,
}

impl Allocation {
    /// The distinct nodes in selection order.
    pub fn node_list(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|&(n, _)| n).collect()
    }

    /// Total processes placed.
    pub fn total_procs(&self) -> u32 {
        self.nodes.iter().map(|&(_, p)| p).sum()
    }

    /// Build the block rank map from `nodes`: node 0 hosts ranks
    /// `0..p0`, node 1 hosts `p0..p0+p1`, …
    pub fn block_rank_map(nodes: &[(NodeId, u32)]) -> Vec<NodeId> {
        let mut map = Vec::new();
        for &(node, procs) in nodes {
            map.extend(std::iter::repeat_n(node, procs as usize));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_presets_match_paper() {
        let md = AllocationRequest::minimd(32);
        assert_eq!((md.alpha, md.beta), (0.3, 0.7));
        assert_eq!(md.ppn, Some(4));
        let fe = AllocationRequest::minife(48);
        assert_eq!((fe.alpha, fe.beta), (0.4, 0.6));
        md.validate().unwrap();
        fe.validate().unwrap();
    }

    #[test]
    fn invalid_requests_rejected() {
        assert!(AllocationRequest::new(0, None, 0.5, 0.5)
            .validate()
            .is_err());
        assert!(AllocationRequest::new(4, Some(0), 0.5, 0.5)
            .validate()
            .is_err());
        assert!(AllocationRequest::new(4, None, 0.6, 0.6)
            .validate()
            .is_err());
    }

    #[test]
    fn block_rank_map_layout() {
        let map = Allocation::block_rank_map(&[(NodeId(3), 2), (NodeId(1), 3)]);
        assert_eq!(
            map,
            vec![NodeId(3), NodeId(3), NodeId(1), NodeId(1), NodeId(1)]
        );
    }

    #[test]
    fn totals() {
        let alloc = Allocation {
            policy: "x".into(),
            nodes: vec![(NodeId(0), 4), (NodeId(2), 4)],
            rank_map: Allocation::block_rank_map(&[(NodeId(0), 4), (NodeId(2), 4)]),
            diagnostics: Diagnostics::default(),
        };
        assert_eq!(alloc.total_procs(), 8);
        assert_eq!(alloc.node_list(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(alloc.rank_map.len(), 8);
    }
}
