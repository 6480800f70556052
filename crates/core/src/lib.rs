//! # nlrm-core
//!
//! The paper's contribution: the **network and load-aware node allocator**
//! (§3). Given a [`ClusterSnapshot`](nlrm_monitor::ClusterSnapshot) from the
//! monitoring subsystem and an [`AllocationRequest`],
//! it picks the group of nodes minimizing a weighted sum of compute and
//! network load.
//!
//! Pipeline (paper section in parentheses):
//!
//! 1. [`weights`] — attribute weight vectors: the SAW weights of Eq. 1, the
//!    latency/bandwidth weights of Eq. 2, and the α/β job mix of Eq. 4.
//! 2. [`saw`] — Simple Additive Weighting machinery (§3.2.1): sum
//!    normalization and complementing of maximization attributes.
//! 3. [`loads`] — per-node compute load `CL_v` (Eq. 1), pairwise network
//!    load `NL_(u,v)` (Eq. 2), and effective processor counts `pc_v` (Eq. 3).
//! 4. [`candidate`] — Algorithm 1: greedy candidate sub-graph per start node,
//!    one switch generator for every universe (a central derivation is its
//!    one-switch case).
//! 5. [`select`] — Algorithm 2: total cost `T_G` (Eq. 4) and best-candidate
//!    selection.
//! 6. [`policies`] — the four allocation policies compared in §5 (random,
//!    sequential, load-aware, network-and-load-aware) plus a brute-force
//!    optimum for validating the heuristic on small clusters, and
//!    [`policies::place`], the one Algorithm 1–2 placement stage behind the
//!    network-and-load-aware policy, the broker and the SLURM adapter.
//! 7. [`advisor`] — the §6 extension: recommend *waiting* when the cluster
//!    is too loaded for any allocation to help; [`broker`] — the multi-job
//!    resource broker with reservation accounting and backfill.
//! 8. [`tiered`] and [`scalable`] — the §3.3.2 scaling note: switch-tiered
//!    network load and bound-pruned selection so the algorithm scales past
//!    a few hundred nodes; [`slurm`] — the §6 integration path: the
//!    allocator behind a SLURM-select-plugin-shaped interface.

pub mod advisor;
pub mod broker;
pub mod candidate;
mod exact;
pub mod loads;
pub mod par;
pub mod policies;
pub mod request;
pub mod saw;
pub mod scalable;
pub mod select;
pub mod slurm;
pub mod tiered;
pub mod weights;

pub use loads::{Loads, StalenessPolicy};
pub use policies::{
    BruteForcePolicy, LoadAwarePolicy, NetworkLoadAwarePolicy, Policy, RandomPolicy,
    SequentialPolicy,
};
pub use request::{AllocError, Allocation, AllocationRequest};
pub use scalable::{allocate_pruned, PrunedSelection};
pub use tiered::TieredNl;
pub use weights::{ComputeWeights, NetworkWeights};
