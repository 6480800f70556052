//! The four monitoring daemons (§4 of the paper).
//!
//! * [`LivehostsD`] pings every node and publishes the set that answered.
//! * [`NodeStateD`] runs *on each node*, samples the local OS counters every
//!   few seconds and publishes instantaneous values plus 1/5/15-minute
//!   running means. If its node is down, the daemon is down.
//! * [`LatencyD`] and [`BandwidthD`] sweep all node pairs with the
//!   round-robin tournament schedule (disjoint pairs per round) and publish
//!   per-node measurement rows. Both run one shared tournament body; each
//!   keeps only its measurement and its row encoding.
//!
//! Every daemon has one lifecycle, its [`Health`] field: failure injection
//! (see [`FaultAction`](nlrm_sim_core::fault::FaultAction)) kills, hangs or
//! mutes it there, and a relaunch replaces the daemon with a fresh
//! instance. Which daemons exist is decided by the monitoring topology
//! through [`DaemonSet`](crate::central::DaemonSet), which the
//! [`CentralMonitor`](crate::central::CentralMonitor) supervises.

use crate::codec::{encoded_len, MonitorRecord};
use crate::matrix::{pair_index, SymMatrix};
use crate::rounds::round_robin_rounds;
use crate::sample::{LatencyStat, NodeSample};
use crate::store::{paths, SharedStore};
use nlrm_cluster::{ClusterSim, NodeSpec};
use nlrm_obs::DigestFold;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_sim_core::window::{standard_spans, WindowRing, WindowedValue};
use nlrm_topology::NodeId;
use std::sync::Arc;

/// Wire cost modeled for one latency probe (a small ping-pong packet pair).
pub const LATENCY_PROBE_BYTES: u64 = 128;

/// Wire cost modeled for one bandwidth probe (a 1 MiB bulk transfer).
pub const BANDWIDTH_PROBE_BYTES: u64 = 1 << 20;

/// The analytic wire cost of one full central monitoring cycle (one
/// latency + one bandwidth tournament plus the published rows) at `v`
/// live nodes. This is exactly what [`LatencyD::tick`] and
/// [`BandwidthD::tick`] spend per sweep — validated against the live
/// counters in a regression test — and lets `monitor_sweep` price the
/// central topology at 100k nodes without allocating `O(V²)` matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralCycleCost {
    /// Pair measurements: `2 · v(v−1)/2` (both tournaments).
    pub pairs: u64,
    /// Probe traffic for both tournaments, bytes.
    pub probe_bytes: u64,
    /// Store-publish traffic for all `2v` rows, bytes.
    pub publish_bytes: u64,
}

impl CentralCycleCost {
    /// Probe + publish bytes.
    pub fn total_bytes(&self) -> u64 {
        self.probe_bytes + self.publish_bytes
    }
}

/// Compute [`CentralCycleCost`] for a `v`-node cluster. Row sizes come
/// from the codec's size of one representative row of each kind, so the
/// numbers stay exact if the codec changes.
pub fn central_cycle_cost(v: usize) -> CentralCycleCost {
    let pairs_per_sweep = (v as u64) * (v as u64).saturating_sub(1) / 2;
    // representative rows: one v-entry latency row, one v-entry bandwidth
    // row; every published row has exactly this size
    let lat_row = encoded_len(&MonitorRecord::LatencyRow {
        node: NodeId(0),
        stats: vec![LatencyStat::constant(0.0); v],
    }) as u64;
    let bw_row = encoded_len(&MonitorRecord::BandwidthRow {
        node: NodeId(0),
        avail_bps: vec![0.0; v],
        peak_bps: vec![0.0; v],
    }) as u64;
    CentralCycleCost {
        pairs: 2 * pairs_per_sweep,
        probe_bytes: pairs_per_sweep * (LATENCY_PROBE_BYTES + BANDWIDTH_PROBE_BYTES),
        publish_bytes: (v as u64) * (lat_row + bw_row),
    }
}

/// Identifies one supervised daemon (failure injection, supervision state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DaemonKind {
    /// The livehosts ping daemon.
    Livehosts,
    /// The state sampler on one node.
    NodeState(NodeId),
    /// The latency prober.
    Latency,
    /// The bandwidth prober.
    Bandwidth,
}

impl std::fmt::Display for DaemonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonKind::Livehosts => f.write_str("livehosts"),
            DaemonKind::NodeState(node) => write!(f, "nodestate({node})"),
            DaemonKind::Latency => f.write_str("latency"),
            DaemonKind::Bandwidth => f.write_str("bandwidth"),
        }
    }
}

/// The one lifecycle every daemon shares: alive/dead plus the two degraded
/// modes of [`FaultAction`](nlrm_sim_core::fault::FaultAction) — a *hang*
/// (process stalls entirely, resumes at a deadline) and a *delay* (process
/// keeps working but its store writes are withheld, so observers see stale
/// records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Health {
    dead: bool,
    hung_until: Option<SimTime>,
    muted_until: Option<SimTime>,
}

impl Health {
    /// Whether the process exists at all. A hung or muted daemon is still
    /// alive — only [`Health::kill`] makes this false.
    pub fn is_alive(&self) -> bool {
        !self.dead
    }

    /// Failure injection: the process dies.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Failure injection: stall all work until `t`.
    pub fn hang_until(&mut self, t: SimTime) {
        self.hung_until = Some(t);
    }

    /// Failure injection: withhold store writes until `t`.
    pub fn mute_until(&mut self, t: SimTime) {
        self.muted_until = Some(t);
    }

    /// Can the process do any work at `now`? Clears an expired hang.
    pub fn can_run(&mut self, now: SimTime) -> bool {
        !self.dead && open_at(&mut self.hung_until, now)
    }

    /// May the process publish at `now`? Clears an expired mute. (A hang
    /// already blocks everything in [`Health::can_run`]; this only gates
    /// the write path.)
    pub fn can_publish(&mut self, now: SimTime) -> bool {
        open_at(&mut self.muted_until, now)
    }
}

/// Whether a gate closed `until` a deadline is open at `now`; an expired
/// deadline is cleared.
fn open_at(until: &mut Option<SimTime>, now: SimTime) -> bool {
    if until.is_some_and(|t| now < t) {
        return false;
    }
    *until = None;
    true
}

/// Sampling/probing periods for all daemons. Defaults follow the paper:
/// node state every 5 s (the paper says 3–10 s), latency sweeps every
/// minute, bandwidth sweeps every 5 minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Ping-sweep period of `LivehostsD`.
    pub livehosts_period: Duration,
    /// Sampling period of `NodeStateD`.
    pub nodestate_period: Duration,
    /// Sweep period of `LatencyD`.
    pub latency_period: Duration,
    /// Sweep period of `BandwidthD`.
    pub bandwidth_period: Duration,
    /// Heartbeat period of the central monitor.
    pub central_period: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            livehosts_period: Duration::from_secs(10),
            nodestate_period: Duration::from_secs(5),
            latency_period: Duration::from_secs(60),
            bandwidth_period: Duration::from_secs(300),
            central_period: Duration::from_secs(10),
        }
    }
}

/// The nodes that are up, in id order.
fn live_nodes(cluster: &ClusterSim) -> Vec<NodeId> {
    cluster
        .topology()
        .node_ids()
        .filter(|&n| cluster.is_up(n))
        .collect()
}

/// Ping-sweep daemon maintaining the livehosts list.
#[derive(Debug, Clone, Default)]
pub struct LivehostsD {
    pub(crate) health: Health,
}

impl LivehostsD {
    /// A running daemon.
    pub fn new() -> Self {
        LivehostsD::default()
    }

    /// Ping every node; publish those that answered.
    pub fn tick(&mut self, cluster: &ClusterSim, store: &SharedStore) {
        let now = cluster.now();
        if !self.health.can_run(now) {
            return;
        }
        if self.health.can_publish(now) {
            let record = MonitorRecord::Livehosts(live_nodes(cluster));
            store.publish(paths::LIVEHOSTS, now, record);
        }
    }
}

/// Per-node state sampler with 1/5/15-minute windows. A fresh instance
/// starts with empty history windows and queries its node's static spec
/// afresh, exactly as a freshly exec'd daemon would.
#[derive(Debug, Clone)]
pub struct NodeStateD {
    node: NodeId,
    /// Store path of this node's state record.
    path: String,
    pub(crate) health: Health,
    /// The node's static spec, read for the first published sample and
    /// shared by every sample after it.
    spec: Option<Arc<NodeSpec>>,
    /// CPU load, CPU utilization, memory used and flow rate, over the
    /// standard 1/5/15-minute windows.
    windows: WindowRing<4, 3>,
}

impl NodeStateD {
    /// A running sampler for `node`, ticked every `period`.
    pub fn new(node: NodeId, period: Duration) -> Self {
        NodeStateD {
            node,
            path: paths::node_state(node),
            health: Health::default(),
            spec: None,
            windows: WindowRing::with_period(standard_spans(), period),
        }
    }

    /// The node this daemon runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The store path this daemon publishes to.
    pub fn store_path(&self) -> &str {
        &self.path
    }

    /// Sample the local node and publish. A daemon on a down node cannot
    /// run; a muted one keeps sampling but withholds the store write.
    pub fn tick(&mut self, cluster: &ClusterSim, store: &SharedStore) {
        let t = cluster.now();
        if !self.health.can_run(t) || !cluster.is_up(self.node) {
            return;
        }
        let state = cluster.node_state(self.node);
        let x = [
            state.cpu_load,
            state.cpu_util,
            state.mem_used_frac,
            state.flow_rate_mbps,
        ];
        let means = self.windows.push(t, x);
        let [cpu_load, cpu_util, mem_used_frac, flow_rate_mbps] =
            std::array::from_fn(|a| WindowedValue::new(x[a], means[a]));
        if self.health.can_publish(t) {
            let spec = self
                .spec
                .get_or_insert_with(|| Arc::new(cluster.spec(self.node).clone()));
            let sample = NodeSample {
                node: self.node,
                taken_at: t,
                spec: Arc::clone(spec),
                cpu_load,
                cpu_util,
                mem_used_frac,
                flow_rate_mbps,
                users: state.users,
            };
            store.publish(&self.path, t, MonitorRecord::Sample(sample));
        }
    }
}

/// The tournament body both all-pairs probers share. Unless `health`
/// blocks it, probe every live pair once in round-robin order — `measure`
/// records one pair into `state` and returns the values the flight-record
/// stream `stream` digests — and count `probe_bytes` of traffic per pair.
/// Then, unless muted, publish `row(state, u)` to `row_paths[u]` for every
/// live node `u`, and set the round gauges.
#[allow(clippy::too_many_arguments)]
fn sweep<S, const K: usize>(
    health: &mut Health,
    mut state: S,
    cluster: &mut ClusterSim,
    store: &SharedStore,
    stream: &str,
    probe_bytes: u64,
    row_paths: &[String],
    mut measure: impl FnMut(&mut S, &mut ClusterSim, NodeId, NodeId) -> [f64; K],
    row: impl Fn(&S, NodeId) -> MonitorRecord,
) {
    let t = cluster.now();
    if !health.can_run(t) {
        return;
    }
    let live = live_nodes(cluster);
    let mut fold = nlrm_obs::ctx::recording().then(DigestFold::new);
    let mut pairs = 0u64;
    for round in round_robin_rounds(live.len()) {
        for (a, b) in round {
            let (u, v) = (live[a], live[b]);
            let values = measure(&mut state, cluster, u, v);
            if let Some(fold) = fold.as_mut() {
                fold.u64(u.index() as u64).u64(v.index() as u64);
                values.iter().for_each(|&x| _ = fold.f64(x));
            }
            pairs += 1;
        }
    }
    if let Some(fold) = fold {
        nlrm_obs::ctx::record_stream(t, stream, pairs, fold.value());
    }
    // the O(V²) measurement traffic happens whether or not the rows can
    // be published (a mute only withholds the store writes)
    let mut bytes = pairs * probe_bytes;
    nlrm_obs::ctx::add("monitor_pair_measurements_total", pairs);
    nlrm_obs::ctx::add("monitor_probe_bytes_total", bytes);
    if health.can_publish(t) {
        for &u in &live {
            bytes += store.publish(&row_paths[u.index()], t, row(&state, u));
        }
    }
    nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
    nlrm_obs::ctx::set_gauge("monitor_round_bytes", bytes as f64);
}

/// Pairwise latency prober with 1/5-minute windows per pair.
#[derive(Debug, Clone)]
pub struct LatencyD {
    pub(crate) health: Health,
    /// Per unordered pair (strict upper triangle, see [`pair_index`]):
    /// the latency's 1- and 5-minute windows over one ring. A pair's
    /// probes feed one ring, read from either end's row.
    windows: Vec<WindowRing<1, 2>>,
    latest: SymMatrix<f64>,
    /// Store path of each node's row.
    row_paths: Vec<String>,
}

impl LatencyD {
    /// A prober for an `n`-node cluster; windows start empty.
    pub fn new(n: usize) -> Self {
        LatencyD {
            health: Health::default(),
            windows: vec![
                WindowRing::new([Duration::from_mins(1), Duration::from_mins(5)]);
                n * n.saturating_sub(1) / 2
            ],
            latest: SymMatrix::new(n, f64::NAN),
            row_paths: (0..n)
                .map(|i| paths::latency_row(NodeId(i as u32)))
                .collect(),
        }
    }

    /// One full tournament sweep over all live node pairs, then publish a
    /// row per live node.
    pub fn tick(&mut self, cluster: &mut ClusterSim, store: &SharedStore) {
        let (t, n) = (cluster.now(), self.latest.len());
        sweep(
            &mut self.health,
            (&mut self.latest, &mut self.windows),
            cluster,
            store,
            "probe:latency",
            LATENCY_PROBE_BYTES,
            &self.row_paths,
            |(latest, windows), cluster, u, v| {
                let lat = cluster.probe(u, v).latency_s();
                latest.set(u, v, lat);
                windows[pair_index(n, u.index(), v.index())].push(t, [lat]);
                [lat]
            },
            |(latest, windows), u| {
                let stats = latest
                    .row(u)
                    .iter()
                    .enumerate()
                    .map(|(v, &instant)| match instant {
                        _ if v == u.index() => LatencyStat::constant(0.0),
                        // never measured (peer down since start)
                        _ if instant.is_nan() => LatencyStat::constant(f64::INFINITY),
                        _ => {
                            let [[m1, m5]] = windows[pair_index(n, u.index(), v)]
                                .means()
                                .unwrap_or([[instant; 2]]);
                            LatencyStat { instant, m1, m5 }
                        }
                    })
                    .collect();
                MonitorRecord::LatencyRow { node: u, stats }
            },
        );
    }
}

/// Pairwise bandwidth prober. The paper uses the *instantaneous* effective
/// bandwidth for allocation, so no windows are kept here.
#[derive(Debug, Clone)]
pub struct BandwidthD {
    pub(crate) health: Health,
    latest: SymMatrix<f64>,
    peak: SymMatrix<f64>,
    /// Store path of each node's row.
    row_paths: Vec<String>,
}

impl BandwidthD {
    /// A prober for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        BandwidthD {
            health: Health::default(),
            latest: SymMatrix::new(n, f64::NAN),
            peak: SymMatrix::new(n, f64::NAN),
            row_paths: (0..n)
                .map(|i| paths::bandwidth_row(NodeId(i as u32)))
                .collect(),
        }
    }

    /// One tournament sweep; publish a row per live node.
    pub fn tick(&mut self, cluster: &mut ClusterSim, store: &SharedStore) {
        sweep(
            &mut self.health,
            (&mut self.latest, &mut self.peak),
            cluster,
            store,
            "probe:bandwidth",
            BANDWIDTH_PROBE_BYTES,
            &self.row_paths,
            |(latest, peak), cluster, u, v| {
                let mut probe = cluster.probe(u, v);
                let bw = probe.bandwidth_bps();
                let pk = probe.peak_bps();
                latest.set(u, v, bw);
                peak.set(u, v, pk);
                [bw, pk]
            },
            |(latest, peak), u| {
                // unmeasured peers report 0 bandwidth (worst case)
                let row = |m: &SymMatrix<f64>| -> Vec<f64> {
                    let own = u.index();
                    m.row(u)
                        .iter()
                        .enumerate()
                        .map(|(v, &b)| match b {
                            _ if v == own => f64::INFINITY,
                            b if b.is_nan() => 0.0,
                            b => b,
                        })
                        .collect()
                };
                MonitorRecord::BandwidthRow {
                    node: u,
                    avail_bps: row(latest),
                    peak_bps: row(peak),
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_sim_core::time::SimTime;

    #[test]
    fn livehosts_excludes_down_nodes() {
        let mut cluster = small_cluster(4, 7);
        cluster.set_node_up(NodeId(2), false);
        let store = SharedStore::new();
        LivehostsD::new().tick(&cluster, &store);
        let rec = decode(&store.get(paths::LIVEHOSTS).unwrap().data).unwrap();
        match rec {
            MonitorRecord::Livehosts(hosts) => {
                assert_eq!(hosts, vec![NodeId(0), NodeId(1), NodeId(3)]);
            }
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn nodestate_publishes_windows() {
        let mut cluster = small_cluster(2, 7);
        let store = SharedStore::new();
        let mut d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        for _ in 0..20 {
            cluster.advance(Duration::from_secs(5));
            d.tick(&cluster, &store);
        }
        let rec = decode(&store.get(&paths::node_state(NodeId(0))).unwrap().data).unwrap();
        match rec {
            MonitorRecord::Sample(s) => {
                assert_eq!(s.node, NodeId(0));
                assert!(s.cpu_util.m1 >= 0.0);
                assert_eq!(s.spec.cores, 8);
                assert_eq!(s.taken_at, cluster.now());
            }
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn dead_daemon_publishes_nothing() {
        let mut cluster = small_cluster(2, 7);
        cluster.advance(Duration::from_secs(5));
        let store = SharedStore::new();
        let mut d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        d.health.kill();
        d.tick(&cluster, &store);
        assert!(store.is_empty());
        assert!(!d.health.is_alive());
        // a relaunch is a fresh instance
        d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        d.tick(&cluster, &store);
        assert!(!store.is_empty());
    }

    #[test]
    fn daemon_on_down_node_is_silent() {
        let mut cluster = small_cluster(2, 7);
        cluster.set_node_up(NodeId(0), false);
        cluster.advance(Duration::from_secs(5));
        cluster.set_node_up(NodeId(0), false); // state refresh keeps up flag
        let store = SharedStore::new();
        let mut d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        d.tick(&cluster, &store);
        assert!(store.is_empty());
    }

    #[test]
    fn latency_sweep_covers_all_live_pairs() {
        let mut cluster = small_cluster(5, 7);
        cluster.advance(Duration::from_secs(5));
        let store = SharedStore::new();
        let mut d = LatencyD::new(5);
        d.tick(&mut cluster, &store);
        for u in 0..5u32 {
            let rec = decode(&store.get(&paths::latency_row(NodeId(u))).unwrap().data).unwrap();
            match rec {
                MonitorRecord::LatencyRow { node, stats } => {
                    assert_eq!(node, NodeId(u));
                    assert_eq!(stats.len(), 5);
                    assert_eq!(stats[u as usize].instant, 0.0);
                    for (v, st) in stats.iter().enumerate() {
                        if v != u as usize {
                            assert!(st.instant > 0.0 && st.instant.is_finite());
                        }
                    }
                }
                other => panic!("wrong record {other:?}"),
            }
        }
    }

    #[test]
    fn bandwidth_rows_have_peak_and_available() {
        let mut cluster = small_cluster(4, 7);
        cluster.advance(Duration::from_secs(5));
        let store = SharedStore::new();
        let mut d = BandwidthD::new(4);
        d.tick(&mut cluster, &store);
        let rec = decode(&store.get(&paths::bandwidth_row(NodeId(1))).unwrap().data).unwrap();
        match rec {
            MonitorRecord::BandwidthRow {
                avail_bps,
                peak_bps,
                ..
            } => {
                for v in 0..4 {
                    if v == 1 {
                        assert!(avail_bps[v].is_infinite());
                    } else {
                        assert!(avail_bps[v] > 0.0);
                        assert!(avail_bps[v] <= peak_bps[v] + 1.0);
                        assert_eq!(peak_bps[v], 1e9);
                    }
                }
            }
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn down_peer_reports_zero_bandwidth() {
        let mut cluster = small_cluster(3, 7);
        cluster.set_node_up(NodeId(2), false);
        cluster.advance(Duration::from_secs(5));
        cluster.set_node_up(NodeId(2), false);
        let store = SharedStore::new();
        let mut d = BandwidthD::new(3);
        d.tick(&mut cluster, &store);
        let rec = decode(&store.get(&paths::bandwidth_row(NodeId(0))).unwrap().data).unwrap();
        match rec {
            MonitorRecord::BandwidthRow { avail_bps, .. } => {
                assert_eq!(avail_bps[2], 0.0);
                assert!(avail_bps[1] > 0.0);
            }
            other => panic!("wrong record {other:?}"),
        }
        let _ = SimTime::ZERO;
    }

    #[test]
    fn hung_daemon_is_alive_but_silent_until_deadline() {
        let mut cluster = small_cluster(2, 7);
        let store = SharedStore::new();
        let mut d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        cluster.advance(Duration::from_secs(5));
        d.health.hang_until(cluster.now() + Duration::from_secs(30));
        d.tick(&cluster, &store);
        assert!(store.is_empty());
        assert!(d.health.is_alive(), "a hang is not a crash");
        cluster.advance(Duration::from_secs(30));
        d.tick(&cluster, &store);
        assert!(!store.is_empty(), "hang expired, work resumes");
    }

    #[test]
    fn muted_daemon_leaves_stale_records_then_resumes() {
        let mut cluster = small_cluster(3, 7);
        let store = SharedStore::new();
        let mut d = LivehostsD::new();
        cluster.advance(Duration::from_secs(10));
        d.tick(&cluster, &store);
        let first = store.get(paths::LIVEHOSTS).unwrap().written_at;
        d.health.mute_until(cluster.now() + Duration::from_secs(60));
        cluster.advance(Duration::from_secs(10));
        d.tick(&cluster, &store);
        // observers keep seeing the pre-mute record
        assert_eq!(store.get(paths::LIVEHOSTS).unwrap().written_at, first);
        cluster.advance(Duration::from_secs(60));
        d.tick(&cluster, &store);
        assert!(store.get(paths::LIVEHOSTS).unwrap().written_at > first);
    }

    #[test]
    fn sweep_records_exactly_v_choose_2_pair_measurements() {
        // the O(V²) wall: a V-node round is exactly V·(V−1)/2 pairs
        for v in [2usize, 5, 8, 13] {
            let obs = nlrm_obs::Obs::new();
            let _g = nlrm_obs::install(&obs);
            let mut cluster = small_cluster(v, 7);
            cluster.advance(Duration::from_secs(5));
            let store = SharedStore::new();
            LatencyD::new(v).tick(&mut cluster, &store);
            let expect = (v * (v - 1) / 2) as u64;
            assert_eq!(
                obs.metrics.counter_value("monitor_pair_measurements_total"),
                expect,
                "latency sweep over {v} nodes"
            );
            assert_eq!(
                obs.metrics.gauge_value("monitor_round_pairs"),
                expect as f64
            );
            BandwidthD::new(v).tick(&mut cluster, &store);
            assert_eq!(
                obs.metrics.counter_value("monitor_pair_measurements_total"),
                2 * expect,
                "bandwidth sweep over {v} nodes"
            );
            // a sweep's bytes include both probe traffic and published rows
            assert!(
                obs.metrics.gauge_value("monitor_round_bytes")
                    >= (expect * BANDWIDTH_PROBE_BYTES) as f64
            );
        }
    }

    #[test]
    fn central_cycle_cost_matches_live_counters() {
        for v in [3usize, 6, 10] {
            let obs = nlrm_obs::Obs::new();
            let _g = nlrm_obs::install(&obs);
            let mut cluster = small_cluster(v, 7);
            cluster.advance(Duration::from_secs(5));
            let store = SharedStore::new();
            LatencyD::new(v).tick(&mut cluster, &store);
            BandwidthD::new(v).tick(&mut cluster, &store);
            let cost = central_cycle_cost(v);
            assert_eq!(
                obs.metrics.counter_value("monitor_pair_measurements_total"),
                cost.pairs,
                "pair count at v={v}"
            );
            assert_eq!(
                obs.metrics.counter_value("monitor_probe_bytes_total"),
                cost.probe_bytes,
                "probe bytes at v={v}"
            );
            let published: u64 = store
                .list_prefix("latency/")
                .iter()
                .chain(store.list_prefix("bandwidth/").iter())
                .map(|p| store.get(p).unwrap().data.len() as u64)
                .sum();
            assert_eq!(published, cost.publish_bytes, "publish bytes at v={v}");
        }
    }

    #[test]
    fn muted_sweep_still_counts_measurement_traffic() {
        let obs = nlrm_obs::Obs::new();
        let _g = nlrm_obs::install(&obs);
        let mut cluster = small_cluster(4, 7);
        cluster.advance(Duration::from_secs(5));
        let store = SharedStore::new();
        let mut d = LatencyD::new(4);
        d.health
            .mute_until(cluster.now() + Duration::from_secs(600));
        d.tick(&mut cluster, &store);
        assert!(store.is_empty(), "muted daemon publishes nothing");
        assert_eq!(
            obs.metrics.counter_value("monitor_pair_measurements_total"),
            6
        );
        // bytes are probe-only: no rows were written
        assert_eq!(
            obs.metrics.gauge_value("monitor_round_bytes"),
            (6 * LATENCY_PROBE_BYTES) as f64
        );
    }
}
