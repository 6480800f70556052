//! # nlrm — Network and Load-Aware Resource Manager for MPI Programs
//!
//! A from-scratch Rust reproduction of Kumar, Jain & Malakar,
//! *Network and Load-Aware Resource Manager for MPI Programs*
//! (ICPP Workshops 2020). This facade crate re-exports the full workspace:
//!
//! * [`sim`] — discrete-event simulation core (virtual time, RNG streams,
//!   stochastic processes, windowed statistics),
//! * [`topology`] — tree-of-switches cluster topologies and routing,
//! * [`cluster`] — the simulated shared cluster (the paper's IIT-K testbed),
//! * [`monitor`] — the distributed Resource Monitor (daemons, shared store,
//!   master/slave central monitor, snapshots),
//! * [`core`] — the Node Allocator: SAW attribute model, compute/network
//!   loads, Algorithms 1–2, baseline policies, wait advisor, and the
//!   switch-tiered, bound-pruned scaling extension,
//! * [`mpi`] — the simulated MPI runtime (communicators, collectives,
//!   contention-aware BSP executor),
//! * [`obs`] — observability: virtual-time event journal, metrics registry,
//!   allocation-decision explain traces, the scoped observer context,
//!   causal span tracing with critical paths, continuous telemetry (health,
//!   SLOs, anomaly detection), and the incident flight recorder with
//!   replay and root-cause analysis,
//! * [`apps`] — miniMD/miniFE proxy applications and synthetic kernels,
//! * [`bench`](mod@bench) — the experiment harness regenerating every paper figure.
//!
//! ## Quickstart
//!
//! ```
//! use nlrm::prelude::*;
//!
//! // the paper's 60-node shared cluster, monitored for ten minutes
//! let mut cluster = iitk_cluster(42);
//! let mut monitor = MonitorRuntime::new(&cluster);
//! let snapshot = monitor
//!     .warm_snapshot(&mut cluster, Duration::from_secs(600))
//!     .unwrap();
//!
//! // ask for 32 MPI processes, 4 per node, communication-bound mix
//! let request = AllocationRequest::minimd(32);
//! let allocation = NetworkLoadAwarePolicy::new()
//!     .allocate(&snapshot, &request)
//!     .unwrap();
//! assert_eq!(allocation.total_procs(), 32);
//!
//! // run a miniMD proxy on the chosen nodes and measure it
//! let comm = Communicator::new(allocation.rank_map.clone());
//! let timing = execute(&mut cluster, &comm, &MiniMd::new(16).with_steps(10));
//! assert!(timing.total_s > 0.0);
//! ```

pub use nlrm_apps as apps;
pub use nlrm_bench as bench;
pub use nlrm_cluster as cluster;
pub use nlrm_core as core;
pub use nlrm_monitor as monitor;
pub use nlrm_mpi as mpi;
pub use nlrm_obs as obs;
pub use nlrm_sim_core as sim;
pub use nlrm_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use nlrm_apps::{MiniFe, MiniMd};
    pub use nlrm_cluster::iitk::{iitk30, iitk_cluster, small_cluster};
    pub use nlrm_cluster::{ClusterProfile, ClusterSim, NodeSpec, NodeState};
    pub use nlrm_core::advisor::{advise, Advice, AdvisorConfig};
    pub use nlrm_core::{
        AllocationRequest, ComputeWeights, LoadAwarePolicy, Loads, NetworkLoadAwarePolicy,
        NetworkWeights, Policy, RandomPolicy, SequentialPolicy, StalenessPolicy,
    };
    pub use nlrm_monitor::{
        ClusterSnapshot, DaemonKind, FaultTarget, MonitorFaultPlan, MonitorRuntime,
    };
    pub use nlrm_mpi::{execute, Communicator, JobTiming};
    pub use nlrm_obs::{ExplainTrace, Journal, Metrics, Obs, Severity};
    pub use nlrm_sim_core::fault::{FaultAction, FaultPlan};
    pub use nlrm_sim_core::time::{Duration, SimTime};
}
