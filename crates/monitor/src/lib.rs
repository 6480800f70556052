//! # nlrm-monitor
//!
//! The paper's **Resource Monitor** (§4): a distributed set of light-weight
//! daemons that publish cluster state to a shared filesystem, supervised by
//! a redundant central monitor.
//!
//! * [`store`] — [`SharedStore`], the NFS stand-in: a concurrent
//!   path→record keyspace that daemons publish typed records to and
//!   readers get bytes from; [`codec`] defines the on-"disk" binary
//!   record format.
//! * [`sample`] — the per-node record `NodeStateD` publishes: static spec +
//!   instantaneous and 1/5/15-minute means of every dynamic attribute
//!   (Table 1 of the paper).
//! * [`rounds`] — the tournament schedule for pairwise measurements: n/2
//!   disjoint pairs per round, n−1 rounds, so no node is measured twice at
//!   once (§4, "P2P latency and bandwidth").
//! * [`daemons`] — `LivehostsD`, `NodeStateD`, `LatencyD`, `BandwidthD`,
//!   and the `Health` lifecycle they share.
//! * [`central`] — the `DaemonSet` whose roster the monitoring topology
//!   sets, and the master/slave `CentralMonitor` that relaunches dead
//!   daemons and fails over when the master dies.
//! * [`shard`] — per-switch aggregators running the pair tournament
//!   intra-shard only, publishing epoch-stamped shard NL records.
//! * [`gossip`] — anti-entropy dissemination of shard sweep epochs,
//!   each peer's view a flat row of per-origin epochs, with
//!   convergence-round and byte accounting.
//! * [`estimate`] — landmark-sampled inter-shard NL estimation: one uplink
//!   point per shard plus the probed pairs (`O(V log V)` probes instead
//!   of `O(V²)`), answering any shard pair.
//! * [`forecast`] — NWS-style projection of snapshots to job-start time.
//! * [`runtime`] — drives everything in virtual time against a
//!   [`ClusterSim`](nlrm_cluster::ClusterSim).
//! * [`snapshot`] — [`ClusterSnapshot`], the
//!   allocator's input, assembled purely from store contents (the allocator
//!   never peeks at simulator truth): dense matrices from the central
//!   monitor, shard blocks and the estimate from the sharded one.

pub mod central;
pub mod codec;
pub mod daemons;
pub mod estimate;
pub mod forecast;
pub mod gossip;
pub mod matrix;
pub mod rounds;
pub mod runtime;
pub mod sample;
pub mod shard;
pub mod snapshot;
pub mod store;

pub use estimate::{InterEstimate, NlEstimator, PairProbe, Uplink};
pub use gossip::GossipNet;
pub use matrix::{pair_index, SymMatrix};
pub use runtime::{
    DaemonKind, FaultTarget, MonitorFaultPlan, MonitorRuntime, MonitorTopo, ShardConfig,
};
pub use sample::{LatencyStat, NodeSample};
pub use shard::{ShardSweepReport, ShardSweeper};
pub use snapshot::{BlockPairs, ClusterSnapshot, DensePairs, NodeInfo, PairSource, ShardBlock};
pub use store::SharedStore;
