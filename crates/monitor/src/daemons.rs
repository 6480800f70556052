//! The four monitoring daemons (§4 of the paper).
//!
//! * [`LivehostsD`] pings every node and publishes the set that answered.
//! * [`NodeStateD`] runs *on each node*, samples the local OS counters every
//!   few seconds and publishes instantaneous values plus 1/5/15-minute
//!   running means. If its node is down, the daemon is down.
//! * [`LatencyD`] and [`BandwidthD`] sweep all node pairs with the
//!   round-robin tournament schedule (disjoint pairs per round) and publish
//!   per-node measurement rows.
//!
//! Daemons can be killed, hung or delayed (failure injection, see
//! [`FaultAction`](nlrm_sim_core::fault::FaultAction)) and are relaunched by
//! the [`CentralMonitor`](crate::central::CentralMonitor).

use crate::codec::{encode, MonitorRecord};
use crate::matrix::SymMatrix;
use crate::rounds::round_robin_rounds;
use crate::sample::{LatencyStat, NodeSample};
use crate::store::{paths, SharedStore};
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_sim_core::window::{MultiWindowMean, WindowedMean};
use nlrm_topology::NodeId;

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
/// from encoding one representative row of each kind, so the numbers stay
/// exact if the codec changes.
pub fn central_cycle_cost(v: usize) -> CentralCycleCost {
    let pairs_per_sweep = (v as u64) * (v as u64).saturating_sub(1) / 2;
    // representative rows: one v-entry latency row, one v-entry bandwidth
    // row; every published row has exactly this size
    let lat_row = encode(&MonitorRecord::LatencyRow {
        node: NodeId(0),
        stats: vec![LatencyStat::constant(0.0); v],
    })
    .len() as u64;
    let bw_row = encode(&MonitorRecord::BandwidthRow {
        node: NodeId(0),
        avail_bps: vec![0.0; v],
        peak_bps: vec![0.0; v],
    })
    .len() as u64;
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

/// Process-level health shared by every daemon: alive/dead plus the two
/// degraded modes of [`FaultAction`](nlrm_sim_core::fault::FaultAction) —
/// a *hang* (process stalls entirely, resumes at a deadline) and a *delay*
/// (process keeps working but its store writes are withheld, so observers
/// see stale records).
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

    /// Fresh process: alive, not hung, not muted.
    pub fn relaunch(&mut self) {
        *self = Health::default();
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
        if self.dead {
            return false;
        }
        if let Some(t) = self.hung_until {
            if now < t {
                return false;
            }
            self.hung_until = None;
        }
        true
    }

    /// May the process publish at `now`? Clears an expired mute. (A hang
    /// already blocks everything in [`Health::can_run`]; this only gates
    /// the write path.)
    pub fn can_publish(&mut self, now: SimTime) -> bool {
        if let Some(t) = self.muted_until {
            if now < t {
                return false;
            }
            self.muted_until = None;
        }
        true
    }
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

/// Ping-sweep daemon maintaining the livehosts list.
#[derive(Debug, Clone, Default)]
pub struct LivehostsD {
    health: Health,
}

impl LivehostsD {
    /// A running daemon.
    pub fn new() -> Self {
        LivehostsD::default()
    }

    /// Whether the daemon is running.
    pub fn is_alive(&self) -> bool {
        self.health.is_alive()
    }

    /// Failure injection: stop the daemon.
    pub fn kill(&mut self) {
        self.health.kill();
    }

    /// Failure injection: stall until `t`.
    pub fn hang_until(&mut self, t: SimTime) {
        self.health.hang_until(t);
    }

    /// Failure injection: withhold publications until `t`.
    pub fn mute_until(&mut self, t: SimTime) {
        self.health.mute_until(t);
    }

    /// Restart after a crash (idempotent, clears hang/mute).
    pub fn relaunch(&mut self) {
        self.health.relaunch();
    }

    /// Ping every node; publish those that answered.
    pub fn tick(&mut self, cluster: &ClusterSim, store: &SharedStore) {
        let now = cluster.now();
        if !self.health.can_run(now) {
            return;
        }
        let hosts: Vec<NodeId> = cluster
            .topology()
            .node_ids()
            .filter(|&n| cluster.is_up(n))
            .collect();
        if self.health.can_publish(now) {
            store.put(
                paths::LIVEHOSTS,
                now,
                encode(&MonitorRecord::Livehosts(hosts)),
            );
        }
    }
}

/// Per-node state sampler with 1/5/15-minute windows.
#[derive(Debug, Clone)]
pub struct NodeStateD {
    node: NodeId,
    /// Store path of this node's state record.
    path: String,
    health: Health,
    cpu_load: MultiWindowMean,
    cpu_util: MultiWindowMean,
    mem_used: MultiWindowMean,
    flow_rate: MultiWindowMean,
}

impl NodeStateD {
    /// A running sampler for `node`.
    pub fn new(node: NodeId) -> Self {
        NodeStateD {
            node,
            path: paths::node_state(node),
            health: Health::default(),
            cpu_load: MultiWindowMean::new(),
            cpu_util: MultiWindowMean::new(),
            mem_used: MultiWindowMean::new(),
            flow_rate: MultiWindowMean::new(),
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

    /// Whether the daemon is running.
    pub fn is_alive(&self) -> bool {
        self.health.is_alive()
    }

    /// Failure injection: stop the daemon.
    pub fn kill(&mut self) {
        self.health.kill();
    }

    /// Failure injection: stall until `t`.
    pub fn hang_until(&mut self, t: SimTime) {
        self.health.hang_until(t);
    }

    /// Failure injection: withhold publications until `t` (sampling and the
    /// history windows keep advancing — only the store write is withheld).
    pub fn mute_until(&mut self, t: SimTime) {
        self.health.mute_until(t);
    }

    /// Restart after a crash. History windows restart empty, exactly as a
    /// freshly exec'd daemon's would.
    pub fn relaunch(&mut self) {
        *self = NodeStateD::new(self.node);
    }

    /// Sample the local node and publish. A daemon on a down node cannot run.
    pub fn tick(&mut self, cluster: &ClusterSim, store: &SharedStore) {
        let t = cluster.now();
        if !self.health.can_run(t) || !cluster.is_up(self.node) {
            return;
        }
        let state = cluster.node_state(self.node);
        self.cpu_load.push(t, state.cpu_load);
        self.cpu_util.push(t, state.cpu_util);
        self.mem_used.push(t, state.mem_used_frac);
        self.flow_rate.push(t, state.flow_rate_mbps);
        let sample = NodeSample {
            node: self.node,
            taken_at: t,
            spec: cluster.spec(self.node).clone(),
            cpu_load: self.cpu_load.value().expect("just pushed"),
            cpu_util: self.cpu_util.value().expect("just pushed"),
            mem_used_frac: self.mem_used.value().expect("just pushed"),
            flow_rate_mbps: self.flow_rate.value().expect("just pushed"),
            users: state.users,
        };
        if self.health.can_publish(t) {
            store.put(&self.path, t, encode(&MonitorRecord::Sample(sample)));
        }
    }
}

/// `row(node)` for every node, indexed by node id.
fn per_node_paths(n: usize, row: fn(NodeId) -> String) -> Vec<String> {
    (0..n).map(|i| row(NodeId(i as u32))).collect()
}

/// Index of the unordered pair `{a, b}` (`a ≠ b`) in a strict upper
/// triangle of an `n × n` matrix.
fn pair_index(n: usize, a: usize, b: usize) -> usize {
    let (i, j) = (a.min(b), a.max(b));
    i * (2 * n - i - 1) / 2 + j - i - 1
}

/// Pairwise latency prober with 1/5-minute windows per pair.
#[derive(Debug, Clone)]
pub struct LatencyD {
    health: Health,
    n: usize,
    /// Per unordered pair (strict upper triangle, see [`pair_index`]):
    /// (1-min, 5-min) windows. A pair's probes feed one window pair, read
    /// from either end's row.
    windows: Vec<(WindowedMean, WindowedMean)>,
    latest: SymMatrix<f64>,
    /// Store path of each node's row.
    row_paths: Vec<String>,
}

impl LatencyD {
    /// A prober for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        LatencyD {
            health: Health::default(),
            n,
            windows: (0..n * n.saturating_sub(1) / 2)
                .map(|_| {
                    (
                        WindowedMean::new(Duration::from_mins(1)),
                        WindowedMean::new(Duration::from_mins(5)),
                    )
                })
                .collect(),
            latest: SymMatrix::new(n, f64::NAN),
            row_paths: per_node_paths(n, paths::latency_row),
        }
    }

    /// Whether the daemon is running.
    pub fn is_alive(&self) -> bool {
        self.health.is_alive()
    }

    /// Failure injection: stop the daemon.
    pub fn kill(&mut self) {
        self.health.kill();
    }

    /// Failure injection: stall until `t`.
    pub fn hang_until(&mut self, t: SimTime) {
        self.health.hang_until(t);
    }

    /// Failure injection: withhold row publications until `t` (probing and
    /// windows keep advancing).
    pub fn mute_until(&mut self, t: SimTime) {
        self.health.mute_until(t);
    }

    /// Restart after a crash; windows restart empty.
    pub fn relaunch(&mut self) {
        *self = LatencyD::new(self.n);
    }

    /// One full tournament sweep over all live node pairs, then publish a
    /// row per live node.
    pub fn tick(&mut self, cluster: &mut ClusterSim, store: &SharedStore) {
        let t = cluster.now();
        if !self.health.can_run(t) {
            return;
        }
        let live: Vec<NodeId> = cluster
            .topology()
            .node_ids()
            .filter(|&n| cluster.is_up(n))
            .collect();
        let recording = nlrm_obs::ctx::recording();
        let mut fold = nlrm_obs::DigestFold::new();
        let mut pairs = 0u64;
        for round in round_robin_rounds(live.len()) {
            for (a, b) in round {
                let (u, v) = (live[a], live[b]);
                let lat = cluster.measure_latency_s(u, v);
                if recording {
                    fold.u64(u.index() as u64).u64(v.index() as u64).f64(lat);
                }
                self.latest.set(u, v, lat);
                let window = &mut self.windows[pair_index(self.n, u.index(), v.index())];
                window.0.push(t, lat);
                window.1.push(t, lat);
                pairs += 1;
            }
        }
        if recording {
            nlrm_obs::ctx::record_stream(t, "probe:latency", pairs, fold.value());
        }
        // the O(V²) measurement traffic happens whether or not the rows can
        // be published (a mute only withholds the store writes)
        let mut round_bytes = pairs * LATENCY_PROBE_BYTES;
        nlrm_obs::ctx::add("monitor_pair_measurements_total", pairs);
        nlrm_obs::ctx::add("monitor_probe_bytes_total", round_bytes);
        if !self.health.can_publish(t) {
            nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
            nlrm_obs::ctx::set_gauge("monitor_round_bytes", round_bytes as f64);
            return;
        }
        for &u in &live {
            let stats: Vec<LatencyStat> = (0..self.n)
                .map(|v| {
                    if v == u.index() {
                        return LatencyStat::constant(0.0);
                    }
                    let instant = self.latest.get(u, NodeId(v as u32));
                    if instant.is_nan() {
                        // never measured (peer down since start)
                        return LatencyStat::constant(f64::INFINITY);
                    }
                    let window = &self.windows[pair_index(self.n, u.index(), v)];
                    LatencyStat {
                        instant,
                        m1: window.0.mean().unwrap_or(instant),
                        m5: window.1.mean().unwrap_or(instant),
                    }
                })
                .collect();
            let data = encode(&MonitorRecord::LatencyRow { node: u, stats });
            round_bytes += data.len() as u64;
            store.put(&self.row_paths[u.index()], t, data);
        }
        nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
        nlrm_obs::ctx::set_gauge("monitor_round_bytes", round_bytes as f64);
    }
}

/// Pairwise bandwidth prober. The paper uses the *instantaneous* effective
/// bandwidth for allocation, so no windows are kept here.
#[derive(Debug, Clone)]
pub struct BandwidthD {
    health: Health,
    n: usize,
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
            n,
            latest: SymMatrix::new(n, f64::NAN),
            peak: SymMatrix::new(n, f64::NAN),
            row_paths: per_node_paths(n, paths::bandwidth_row),
        }
    }

    /// Whether the daemon is running.
    pub fn is_alive(&self) -> bool {
        self.health.is_alive()
    }

    /// Failure injection: stop the daemon.
    pub fn kill(&mut self) {
        self.health.kill();
    }

    /// Failure injection: stall until `t`.
    pub fn hang_until(&mut self, t: SimTime) {
        self.health.hang_until(t);
    }

    /// Failure injection: withhold row publications until `t`.
    pub fn mute_until(&mut self, t: SimTime) {
        self.health.mute_until(t);
    }

    /// Restart after a crash.
    pub fn relaunch(&mut self) {
        *self = BandwidthD::new(self.n);
    }

    /// One tournament sweep; publish a row per live node.
    pub fn tick(&mut self, cluster: &mut ClusterSim, store: &SharedStore) {
        let t = cluster.now();
        if !self.health.can_run(t) {
            return;
        }
        let live: Vec<NodeId> = cluster
            .topology()
            .node_ids()
            .filter(|&n| cluster.is_up(n))
            .collect();
        let recording = nlrm_obs::ctx::recording();
        let mut fold = nlrm_obs::DigestFold::new();
        let mut pairs = 0u64;
        for round in round_robin_rounds(live.len()) {
            for (a, b) in round {
                let (u, v) = (live[a], live[b]);
                let bw = cluster.measure_bandwidth_bps(u, v);
                let peak = cluster.peak_bandwidth_bps(u, v);
                if recording {
                    fold.u64(u.index() as u64)
                        .u64(v.index() as u64)
                        .f64(bw)
                        .f64(peak);
                }
                self.latest.set(u, v, bw);
                self.peak.set(u, v, peak);
                pairs += 1;
            }
        }
        if recording {
            nlrm_obs::ctx::record_stream(t, "probe:bandwidth", pairs, fold.value());
        }
        let mut round_bytes = pairs * BANDWIDTH_PROBE_BYTES;
        nlrm_obs::ctx::add("monitor_pair_measurements_total", pairs);
        nlrm_obs::ctx::add("monitor_probe_bytes_total", round_bytes);
        if !self.health.can_publish(t) {
            nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
            nlrm_obs::ctx::set_gauge("monitor_round_bytes", round_bytes as f64);
            return;
        }
        for &u in &live {
            let mut avail = vec![0.0; self.n];
            let mut peak = vec![0.0; self.n];
            for v in 0..self.n {
                if v == u.index() {
                    avail[v] = f64::INFINITY;
                    peak[v] = f64::INFINITY;
                    continue;
                }
                let b = self.latest.get(u, NodeId(v as u32));
                // unmeasured peers report 0 available bandwidth (worst case)
                avail[v] = if b.is_nan() { 0.0 } else { b };
                let p = self.peak.get(u, NodeId(v as u32));
                peak[v] = if p.is_nan() { 0.0 } else { p };
            }
            let data = encode(&MonitorRecord::BandwidthRow {
                node: u,
                avail_bps: avail,
                peak_bps: peak,
            });
            round_bytes += data.len() as u64;
            store.put(&self.row_paths[u.index()], t, data);
        }
        nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
        nlrm_obs::ctx::set_gauge("monitor_round_bytes", round_bytes as f64);
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
        let mut d = NodeStateD::new(NodeId(0));
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
        let mut d = NodeStateD::new(NodeId(0));
        d.kill();
        d.tick(&cluster, &store);
        assert!(store.is_empty());
        d.relaunch();
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
        let mut d = NodeStateD::new(NodeId(0));
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
        let mut d = NodeStateD::new(NodeId(0));
        cluster.advance(Duration::from_secs(5));
        d.hang_until(cluster.now() + Duration::from_secs(30));
        d.tick(&cluster, &store);
        assert!(store.is_empty());
        assert!(d.is_alive(), "a hang is not a crash");
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
        d.mute_until(cluster.now() + Duration::from_secs(60));
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
        d.mute_until(cluster.now() + Duration::from_secs(600));
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

    #[test]
    fn relaunch_clears_hang_and_mute() {
        let mut cluster = small_cluster(2, 7);
        let store = SharedStore::new();
        let mut d = NodeStateD::new(NodeId(0));
        cluster.advance(Duration::from_secs(5));
        d.hang_until(cluster.now() + Duration::from_secs(3600));
        d.mute_until(cluster.now() + Duration::from_secs(3600));
        d.relaunch();
        d.tick(&cluster, &store);
        assert!(!store.is_empty(), "relaunched process starts fresh");
    }
}
