//! Monitoring traffic and fidelity: central vs sharded at scale.
//!
//! Prices one full monitoring cycle under both topologies from 1k to
//! 100k nodes (48-node switches):
//!
//! - **central** — the analytic [`central_cycle_cost`] wire cost of the
//!   all-pairs latency + bandwidth tournaments plus the published rows,
//!   and the `V−1` tournament rounds it takes to cover every pair;
//! - **sharded** — per-shard all-pairs sweeps (intra-shard only), the
//!   landmark estimator's `O(V log V)` sampled inter-shard probes (real
//!   [`NlEstimator`] run, counted by its own byte accounting), the
//!   gossiped shard sweep epochs (real [`GossipNet`] run to convergence,
//!   each record priced at [`nlrm_monitor::gossip::RECORD_BYTES`]), and
//!   the published estimate record.
//!
//! It then measures the allocation-quality epsilon on the equivalence
//! scenarios: the sharded estimate's winner, costed under the exact
//! dense loads, vs the exact matrix's winner at the same tiered
//! granularity. Gates (self-asserting, mirrored in `ci.sh`): traffic
//! ratio ≥ 10× at the largest size, worst epsilon ≤ 5%.
//!
//! It drives the real sharded chain — monitor → `snapshot()` →
//! `Loads::derive_with_policy` → `allocate_pruned` — on `campus(k, 48, 1)`
//! at 1,008, 9,984, 49,920 and 100,032 nodes (quick: 1,008 and 4,992),
//! each row in a child process of its own (the bin re-invokes itself with
//! [`CHAIN_ROW_FLAG`]), so every resident set a row reports is its own.
//! Each row times the monitor's 120 s of virtual time (once), snapshot
//! and derive (5 repeats below 49,920 nodes, 3 above; p50 with min and
//! max), then runs a stream of allocation decisions over its one `Loads`
//! — the paper's process counts and α/β cycles, 40/20/10/10 decisions
//! (quick: 8/5), replayed [`REPLAYS`] times — and reports
//! allocations/sec, p50/p99 decision latency with min and max over every
//! replay, and the mean expanded and pruned starts. It records the
//! resident set after the cluster build, after the monitor, after the
//! snapshot repeats and after the derive repeats (the snapshot and one
//! `Loads` alive) next to the peak, so a memory cut shows at its stage. The first decision on the fresh `Loads`, which builds its
//! memoized bound inputs and foreign-switch neighbourhoods, is timed
//! apart and kept out of the stream's figures. Every decision must
//! expand or prune each usable start exactly once, and the snapshot must
//! store `Σ_s C(m_s, 2)` exact pairs plus the estimate's `S` uplinks and
//! `C(L, 2) + (S−L)·L` measured shard pairs: blocks and an `O(S log S)`
//! estimate, not a V×V or S×S matrix.
//! Gate (self-asserting, mirrored in `ci.sh`): allocations/sec between
//! the smallest and largest rows fall at most 2× past linear in nodes.
//!
//! Before them, a steady-state row runs the sharded monitor alone, in
//! this process, for 1,200 s of virtual time on 9,984 nodes (quick:
//! 960 s on 480), long enough to fill the 15-minute node-state windows,
//! and records its wall time and the resident set it leaves (`ci.sh`
//! asserts the row exists).
//!
//! Output: `BENCH_monitor.json` at the repository root (full runs) or
//! under `results/` (`NLRM_QUICK=1` CI smoke).

use nlrm_bench::report::{self, Table};
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, Loads, StalenessPolicy};
use nlrm_core::{ComputeWeights, NetworkWeights};
use nlrm_monitor::codec::encoded_len;
use nlrm_monitor::daemons::{central_cycle_cost, DaemonConfig};
use nlrm_monitor::sample::LatencyStat;
use nlrm_monitor::{
    GossipNet, MonitorRuntime, MonitorTopo, NlEstimator, PairProbe, PairSource, ShardConfig,
};
use nlrm_obs::json;
use nlrm_sim_core::rng::splitmix64;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::process::Command;
use std::time::Instant;

const PER_SWITCH: u64 = 48;
const PROBE_PAIR_BYTES: u64 =
    nlrm_monitor::daemons::LATENCY_PROBE_BYTES + nlrm_monitor::daemons::BANDWIDTH_PROBE_BYTES;

struct SizeRow {
    nodes: u64,
    switches: u64,
    central_bytes: u64,
    central_rounds: u64,
    sharded_bytes: u64,
    sharded_intra_bytes: u64,
    sharded_est_bytes: u64,
    sharded_gossip_bytes: u64,
    sharded_rounds: u64,
    ratio: f64,
}

/// Price one monitoring cycle at `v` nodes under both topologies.
fn sweep_size(v: u64) -> SizeRow {
    let s = v.div_ceil(PER_SWITCH);
    let central = central_cycle_cost(v as usize);
    // a v-node round-robin tournament covers all pairs in v−1 rounds
    // (v rounds when v is odd)
    let central_rounds = if v.is_multiple_of(2) { v - 1 } else { v };

    // intra-shard sweeps: every shard probes its own pairs, in parallel
    let full = v / PER_SWITCH;
    let rem = v % PER_SWITCH;
    let intra_pairs = full * (PER_SWITCH * (PER_SWITCH - 1) / 2) + rem * rem.saturating_sub(1) / 2;
    let intra_bytes = intra_pairs * PROBE_PAIR_BYTES;

    // inter-shard estimate: run the real estimator over synthetic shards
    // (3 members each, so the rep-pair sampling path is exercised) and
    // let its own accounting price the probes
    let members: Vec<Vec<NodeId>> = (0..s)
        .map(|sw| {
            (0..3u64)
                .filter(|m| sw * PER_SWITCH + m < v)
                .map(|m| NodeId((sw * PER_SWITCH + m) as u32))
                .collect()
        })
        .collect();
    let mut probe = |u: NodeId, a: NodeId| {
        let h = splitmix64(0xE57 ^ ((u.0 as u64) << 32 | a.0 as u64));
        PairProbe {
            latency_s: 1e-4 + (h % 1000) as f64 * 1e-6,
            avail_bps: 1e8 + (h % 997) as f64 * 1e5,
            peak_bps: 1e9,
        }
    };
    let est = NlEstimator::new(s as usize).estimate(&members, &mut probe);
    let est_bytes =
        est.probe_bytes + encoded_len(&est.to_record(1, SimTime::from_micros(0))) as u64;

    // gossip: every shard publishes its first sweep epoch, the overlay
    // runs anti-entropy to convergence; bytes include digests + records +
    // message overheads
    let mut net = GossipNet::new(s as usize, 2, 0x5ea1 ^ v);
    for p in 0..s as u32 {
        net.publish(p, 1);
    }
    let conv = net.run_to_convergence(256);
    assert!(conv.converged, "gossip failed to converge at {s} shards");

    // per-shard sweeps run concurrently, so cycle "rounds" = the longest
    // shard tournament plus the gossip rounds to disseminate the epochs
    let shard_rounds = if PER_SWITCH.is_multiple_of(2) {
        PER_SWITCH - 1
    } else {
        PER_SWITCH
    };
    let sharded_bytes = intra_bytes + est_bytes + conv.bytes;
    SizeRow {
        nodes: v,
        switches: s,
        central_bytes: central.total_bytes(),
        central_rounds,
        sharded_bytes,
        sharded_intra_bytes: intra_bytes,
        sharded_est_bytes: est_bytes,
        sharded_gossip_bytes: conv.bytes,
        sharded_rounds: shard_rounds + conv.rounds,
        ratio: central.total_bytes() as f64 / sharded_bytes as f64,
    }
}

/// The equivalence-scenario profile (see `crates/core/tests/estimated.rs`):
/// zero probe noise (central would suffer it identically) and tame link
/// heterogeneity, so the residual epsilon is the estimator's own error.
fn equivalence_profile() -> nlrm_cluster::ClusterProfile {
    let mut profile = nlrm_cluster::ClusterProfile::shared_lab();
    profile.measurement_noise = 0.0;
    profile.link_util_sigma = 0.05;
    profile.heavy_flow_rate = 0.0;
    profile
}

/// Overwrite every usable pair of the snapshot with noise-free ground
/// truth, yielding the exact-matrix oracle the estimate is judged against.
fn oracle_snapshot(
    snap: &nlrm_monitor::ClusterSnapshot,
    cluster: &nlrm_cluster::ClusterSim,
) -> nlrm_monitor::ClusterSnapshot {
    let mut exact = snap.clone();
    let d = exact.densify();
    let usable = snap.usable_nodes();
    for (i, &u) in usable.iter().enumerate() {
        for &v in &usable[i + 1..] {
            d.latency
                .set(u, v, LatencyStat::constant(cluster.latency_s(u, v)));
            d.bandwidth_bps
                .set(u, v, cluster.available_bandwidth_bps(u, v));
            d.peak_bandwidth_bps
                .set(u, v, cluster.peak_bandwidth_bps(u, v));
        }
    }
    exact
}

/// The decision stream of every chain row: the paper's process counts
/// and α/β mixes, cycled.
const PROCS: [u32; 4] = [32, 64, 128, 256];
const MIXES: [(f64, f64); 3] = [(0.3, 0.7), (0.4, 0.6), (0.7, 0.3)];

/// Times each chain row replays its decision stream: a row of 10
/// decisions timed once moved its p50 by host noise (64.5 vs 107.3 ms
/// in two runs of one tree at 100,032 nodes). Replays repeat the same
/// decisions, so `mean_expanded` is the single stream's.
const REPLAYS: usize = 3;

/// Min, nearest-rank p50 and max of repeated wall-clock timings, ms.
struct Spread {
    min: f64,
    p50: f64,
    max: f64,
}

impl Spread {
    /// The spread of ascending `sorted_ms` (nonempty).
    fn of(sorted_ms: &[f64]) -> Spread {
        Spread {
            min: sorted_ms[0],
            p50: report::nearest_rank(sorted_ms, 0.50),
            max: sorted_ms[sorted_ms.len() - 1],
        }
    }

    /// `p50 [min, max]` for the markdown table.
    fn cell(&self, digits: usize) -> String {
        format!(
            "{:.d$} [{:.d$}, {:.d$}]",
            self.p50,
            self.min,
            self.max,
            d = digits
        )
    }
}

/// The argument that makes this bin run one chain row,
/// `CHAIN_ROW_FLAG <clusters> <decisions>`, and print it as one line.
const CHAIN_ROW_FLAG: &str = "--chain-row";

struct ChainRow {
    nodes: usize,
    shards: usize,
    pair_cells: usize,
    expected_pair_cells: usize,
    repeats: usize,
    monitor_s: f64,
    snapshot: Spread,
    derive: Spread,
    usable: usize,
    jobs: usize,
    allocs_per_sec: f64,
    first_decision_ms: f64,
    decision: Spread,
    p99_ms: f64,
    mean_expanded: f64,
    mean_pruned: f64,
    rss_cluster_mb: f64,
    rss_monitor_mb: f64,
    rss_snapshot_mb: f64,
    rss_derive_mb: f64,
    peak_rss_mb: f64,
    threads: usize,
    host_cores: usize,
}

impl ChainRow {
    /// This row as one line of fields in declaration order, each printed
    /// so that parsing it back gives the same value.
    fn to_line(&self) -> String {
        let spread = |s: &Spread| format!("{} {} {}", s.min, s.p50, s.max);
        [
            self.nodes.to_string(),
            self.shards.to_string(),
            self.pair_cells.to_string(),
            self.expected_pair_cells.to_string(),
            self.repeats.to_string(),
            self.monitor_s.to_string(),
            spread(&self.snapshot),
            spread(&self.derive),
            self.usable.to_string(),
            self.jobs.to_string(),
            self.allocs_per_sec.to_string(),
            self.first_decision_ms.to_string(),
            spread(&self.decision),
            self.p99_ms.to_string(),
            self.mean_expanded.to_string(),
            self.mean_pruned.to_string(),
            self.rss_cluster_mb.to_string(),
            self.rss_monitor_mb.to_string(),
            self.rss_snapshot_mb.to_string(),
            self.rss_derive_mb.to_string(),
            self.peak_rss_mb.to_string(),
            self.threads.to_string(),
            self.host_cores.to_string(),
        ]
        .join(" ")
    }

    /// The row [`Self::to_line`] printed.
    fn from_line(line: &str) -> ChainRow {
        let mut fields = line.split_whitespace().map(|f| f.parse::<f64>());
        let mut num = || fields.next().expect("field").expect("numeric field");
        let spread = |num: &mut dyn FnMut() -> f64| Spread {
            min: num(),
            p50: num(),
            max: num(),
        };
        ChainRow {
            nodes: num() as usize,
            shards: num() as usize,
            pair_cells: num() as usize,
            expected_pair_cells: num() as usize,
            repeats: num() as usize,
            monitor_s: num(),
            snapshot: spread(&mut num),
            derive: spread(&mut num),
            usable: num() as usize,
            jobs: num() as usize,
            allocs_per_sec: num(),
            first_decision_ms: num(),
            decision: spread(&mut num),
            p99_ms: num(),
            mean_expanded: num(),
            mean_pruned: num(),
            rss_cluster_mb: num(),
            rss_monitor_mb: num(),
            rss_snapshot_mb: num(),
            rss_derive_mb: num(),
            peak_rss_mb: num(),
            threads: num() as usize,
            host_cores: num() as usize,
        }
    }
}

/// [`chain_at`] in a child process of this bin, so its resident sets and
/// peak are its own and not those of the rows before it.
fn chain_in_child(clusters: usize, jobs: usize) -> ChainRow {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args([CHAIN_ROW_FLAG, &clusters.to_string(), &jobs.to_string()])
        .output()
        .expect("spawn chain row");
    assert!(
        out.status.success(),
        "chain row at {clusters} clusters failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 chain row");
    ChainRow::from_line(stdout.lines().last().expect("a chain row line"))
}

/// The wall-time spread of `reps` runs of `f`, and the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Spread, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        // one result alive at a time, as a caller holding one would see
        drop(out.take());
        let t0 = Instant::now();
        out = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (Spread::of(&times), out.expect("reps ≥ 1"))
}

/// The real sharded chain on `campus(clusters, 48, 1)`: 120 s of
/// monitoring (timed once), then `snapshot()` and
/// `Loads::derive_with_policy` (5 runs below 49,920 nodes, 3 above), one
/// first decision on the fresh `Loads`, and [`REPLAYS`] timed passes of
/// `jobs` `allocate_pruned` decisions over it.
fn chain_at(clusters: usize, jobs: usize) -> ChainRow {
    let mut cluster = nlrm_cluster::iitk::campus(clusters, PER_SWITCH as usize, 1);
    let rss_cluster_mb = report::rss_mb();
    let nodes = cluster.num_nodes();
    let idx = cluster.topology().switch_index();
    let sizes: Vec<usize> = (0..idx.num_switches())
        .map(|s| idx.members(nlrm_topology::SwitchId(s as u32)).len())
        .filter(|&m| m > 0)
        .collect();
    // exact intra-shard pairs, one uplink per shard, and the estimator's
    // measured pairs: the landmark clique plus every other shard against
    // every landmark (every pair when there are no more shards than
    // landmarks)
    let (shards, l) = (sizes.len(), NlEstimator::landmark_count(sizes.len()));
    let measured = if shards <= l {
        shards * (shards - 1) / 2
    } else {
        l * (l - 1) / 2 + (shards - l) * l
    };
    let expected_pair_cells =
        sizes.iter().map(|m| m * (m - 1) / 2).sum::<usize>() + shards + measured;
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        DaemonConfig::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx)),
    );
    let t0 = Instant::now();
    rt.run_until(&mut cluster, SimTime::from_secs(120));
    let monitor_s = t0.elapsed().as_secs_f64();
    let rss_monitor_mb = report::rss_mb();
    let now = cluster.now();
    let repeats = if nodes < 49_920 { 5 } else { 3 };
    let (snapshot, snap) = timed(repeats, || rt.snapshot(now).expect("snapshot"));
    let rss_snapshot_mb = report::rss_mb();
    let PairSource::Blocks(blocks) = &snap.pairs else {
        panic!("a sharded monitor yields a block snapshot");
    };
    let (cw, nw) = (
        ComputeWeights::paper_default(),
        NetworkWeights::paper_default(),
    );
    let policy = StalenessPolicy::default();
    let (derive, loads) = timed(repeats, || {
        Loads::derive_with_policy(&snap, &cw, &nw, Some(4), &policy).expect("derive")
    });
    let rss_derive_mb = report::rss_mb();

    let usable = loads.usable.len();
    let decide = |j: usize| {
        let (alpha, beta) = MIXES[j % MIXES.len()];
        allocate_pruned(&loads, PROCS[j % PROCS.len()], alpha, beta).expect("allocate")
    };
    let (first, _) = timed(1, || decide(0));
    let mut latencies = Vec::with_capacity(REPLAYS * jobs);
    let (mut expanded, mut pruned) = (0, 0);
    for j in (0..REPLAYS).flat_map(|_| 0..jobs) {
        let t0 = Instant::now();
        let d = decide(j);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            d.expanded + d.pruned,
            usable,
            "decision {j} at {nodes} nodes must expand or prune every usable start"
        );
        expanded += d.expanded;
        pruned += d.pruned;
    }
    latencies.sort_by(f64::total_cmp);
    ChainRow {
        nodes,
        shards: blocks.blocks().len(),
        pair_cells: blocks.stored_cells(),
        expected_pair_cells,
        repeats,
        monitor_s,
        snapshot,
        derive,
        usable,
        jobs,
        allocs_per_sec: latencies.len() as f64 * 1e3 / latencies.iter().sum::<f64>(),
        first_decision_ms: first.p50,
        decision: Spread::of(&latencies),
        p99_ms: report::nearest_rank(&latencies, 0.99),
        mean_expanded: expanded as f64 / latencies.len() as f64,
        mean_pruned: pruned as f64 / latencies.len() as f64,
        rss_cluster_mb,
        rss_monitor_mb,
        rss_snapshot_mb,
        rss_derive_mb,
        peak_rss_mb: report::peak_rss_mb(),
        threads: nlrm_core::par::worker_threads(),
        host_cores: host_cores(),
    }
}

/// The host's available parallelism, recorded next to every timing.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct SteadyRow {
    nodes: usize,
    virtual_s: u64,
    monitor_s: f64,
    rss_start_mb: f64,
    rss_mb: f64,
    threads: usize,
    host_cores: usize,
}

/// The sharded monitor alone on `campus(clusters, 48, 1)` for `virtual_s`
/// seconds of virtual time: its wall time, and the resident set before
/// the cluster is built and after monitoring, with the runtime alive.
fn steady_at(clusters: usize, virtual_s: u64) -> SteadyRow {
    let rss_start_mb = report::rss_mb();
    let mut cluster = nlrm_cluster::iitk::campus(clusters, PER_SWITCH as usize, 1);
    let idx = cluster.topology().switch_index();
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        DaemonConfig::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx)),
    );
    let t0 = Instant::now();
    rt.run_until(&mut cluster, SimTime::from_secs(virtual_s));
    let monitor_s = t0.elapsed().as_secs_f64();
    let rss_mb = report::rss_mb();
    drop(rt);
    SteadyRow {
        nodes: cluster.num_nodes(),
        virtual_s,
        monitor_s,
        rss_start_mb,
        rss_mb,
        threads: nlrm_core::par::worker_threads(),
        host_cores: host_cores(),
    }
}

struct EpsRow {
    scenario: &'static str,
    nodes: usize,
    switches: usize,
    worst_eps: f64,
}

/// Worst allocation-cost epsilon of the sharded estimate vs the exact
/// matrix at tiered granularity, both winners costed under exact dense.
fn epsilon_for(name: &'static str, mut cluster: nlrm_cluster::ClusterSim) -> EpsRow {
    let policy = StalenessPolicy::off();
    let cw = ComputeWeights::paper_default();
    let nw = NetworkWeights::paper_default();
    let idx = cluster.topology().switch_index();
    let mut rt = MonitorRuntime::with_topo(
        &cluster,
        DaemonConfig::default(),
        MonitorTopo::Sharded(ShardConfig::new(idx.clone())),
    );
    let snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("snapshot");
    let est = Loads::derive_with_policy(&snap, &cw, &nw, Some(4), &policy).expect("derive");
    let exact_snap = oracle_snapshot(&snap, &cluster);
    let exact_dense =
        Loads::derive_with_policy(&exact_snap, &cw, &nw, Some(4), &policy).expect("derive exact");
    let exact_tiered = exact_dense.clone().into_tiered(&idx);

    let mut worst = 0.0f64;
    for n in [8u32, 16, 32, 48] {
        for &(alpha, beta) in &[(0.3, 0.7), (0.5, 0.5), (0.7, 0.3)] {
            let ex = allocate_pruned(&exact_tiered, n, alpha, beta).expect("exact");
            let es = allocate_pruned(&est, n, alpha, beta).expect("est");
            let exact_cost = group_cost(&exact_dense, &ex.winner.nodes, alpha, beta);
            let est_cost = group_cost(&exact_dense, &es.winner.nodes, alpha, beta);
            worst = worst.max((est_cost - exact_cost) / exact_cost.max(1e-12));
        }
    }
    EpsRow {
        scenario: name,
        nodes: cluster.num_nodes(),
        switches: idx.num_switches(),
        worst_eps: worst,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, clusters, jobs] = &args[..] {
        if flag == CHAIN_ROW_FLAG {
            let arg = |a: &String| a.parse().expect("chain row argument");
            println!("{}", chain_at(arg(clusters), arg(jobs)).to_line());
            return;
        }
    }
    let quiet = nlrm_obs::progress::quiet();
    let quick = report::quick();

    // the steady-state row first, while this process holds nothing else
    let (steady_clusters, steady_s) = if quick { (10, 960) } else { (208, 1_200) };
    if !quiet {
        println!(
            "monitor_sweep: steady state at {} nodes, {steady_s} s virtual…",
            steady_clusters * PER_SWITCH as usize
        );
    }
    let steady = steady_at(steady_clusters, steady_s);
    // (clusters, decisions) per chain row, each in its own process
    let chain_sizes: &[(usize, usize)] = if quick {
        &[(21, 8), (104, 5)]
    } else {
        &[(21, 40), (208, 20), (1_040, 10), (2_084, 10)]
    };
    let chain: Vec<ChainRow> = chain_sizes
        .iter()
        .map(|&(k, jobs)| {
            if !quiet {
                let nodes = k * PER_SWITCH as usize;
                println!("monitor_sweep: real chain at {nodes} nodes, {jobs} decisions…");
            }
            chain_in_child(k, jobs)
        })
        .collect();

    // linear-scaling factor between the endpoints: with allocs/sec ∝ 1/V
    // (decision cost linear in nodes) the throughput ratio equals the node
    // ratio; `linear_factor` is how far past linear the large end fell
    let (first, last) = (&chain[0], &chain[chain.len() - 1]);
    let linear_factor =
        (first.allocs_per_sec / last.allocs_per_sec) / (last.nodes as f64 / first.nodes as f64);

    let sizes: &[u64] = if quick {
        &[960, 4_800]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let mut rows = Vec::new();
    for &v in sizes {
        if !quiet {
            println!("monitor_sweep: pricing {v} nodes…");
        }
        rows.push(sweep_size(v));
    }

    let profile = equivalence_profile();
    let scenarios: Vec<(&'static str, nlrm_cluster::ClusterSim)> = vec![
        (
            "iitk",
            nlrm_cluster::iitk::iitk_cluster_with_profile(profile, 42),
        ),
        (
            "campus12x8",
            nlrm_cluster::iitk::campus_with_profile(12, 8, profile, 42),
        ),
        (
            "campus20x10",
            nlrm_cluster::iitk::campus_with_profile(20, 10, profile, 7),
        ),
    ];
    let mut eps_rows = Vec::new();
    for (name, cluster) in scenarios {
        if !quiet {
            println!("monitor_sweep: epsilon on {name}…");
        }
        eps_rows.push(epsilon_for(name, cluster));
    }

    let mut table = Table::new(&[
        "nodes",
        "switches",
        "central_MB",
        "sharded_MB",
        "ratio",
        "central_rounds",
        "sharded_rounds",
    ]);
    for r in &rows {
        table.row(&[
            r.nodes.to_string(),
            r.switches.to_string(),
            format!("{:.1}", r.central_bytes as f64 / 1e6),
            format!("{:.1}", r.sharded_bytes as f64 / 1e6),
            format!("{:.1}", r.ratio),
            r.central_rounds.to_string(),
            r.sharded_rounds.to_string(),
        ]);
    }
    let mut eps_table = Table::new(&["scenario", "nodes", "switches", "worst_eps"]);
    for r in &eps_rows {
        eps_table.row(&[
            r.scenario.to_string(),
            r.nodes.to_string(),
            r.switches.to_string(),
            format!("{:.4}", r.worst_eps),
        ]);
    }
    let mut chain_table = Table::new(&[
        "nodes",
        "shards",
        "pair_cells",
        "repeats",
        "monitor_s",
        "snapshot_ms [min, max]",
        "derive_ms [min, max]",
        "jobs",
        "allocs/sec",
        "first_ms",
        "p50_ms [min, max]",
        "p99_ms",
        "expanded",
        "pruned",
        "rss_cluster_MB",
        "rss_monitor_MB",
        "rss_snapshot_MB",
        "rss_derive_MB",
        "peak_rss_MB",
        "threads",
        "host_cores",
    ]);
    for c in &chain {
        chain_table.row(&[
            c.nodes.to_string(),
            c.shards.to_string(),
            c.pair_cells.to_string(),
            c.repeats.to_string(),
            format!("{:.3}", c.monitor_s),
            c.snapshot.cell(2),
            c.derive.cell(2),
            c.jobs.to_string(),
            format!("{:.1}", c.allocs_per_sec),
            format!("{:.3}", c.first_decision_ms),
            c.decision.cell(3),
            format!("{:.3}", c.p99_ms),
            format!("{:.1}", c.mean_expanded),
            format!("{:.1}", c.mean_pruned),
            format!("{:.1}", c.rss_cluster_mb),
            format!("{:.1}", c.rss_monitor_mb),
            format!("{:.1}", c.rss_snapshot_mb),
            format!("{:.1}", c.rss_derive_mb),
            format!("{:.1}", c.peak_rss_mb),
            c.threads.to_string(),
            c.host_cores.to_string(),
        ]);
    }
    let mut steady_table = Table::new(&[
        "nodes",
        "virtual_s",
        "monitor_s",
        "rss_start_MB",
        "rss_MB",
        "threads",
        "host_cores",
    ]);
    steady_table.row(&[
        steady.nodes.to_string(),
        steady.virtual_s.to_string(),
        format!("{:.2}", steady.monitor_s),
        format!("{:.1}", steady.rss_start_mb),
        format!("{:.1}", steady.rss_mb),
        steady.threads.to_string(),
        steady.host_cores.to_string(),
    ]);
    report::write_result(
        "monitor_sweep.md",
        &(table.to_markdown()
            + &eps_table.to_markdown()
            + &chain_table.to_markdown()
            + &steady_table.to_markdown()),
    )
    .expect("write md");
    report::write_result("monitor_sweep.csv", &table.to_csv()).expect("write csv");

    let max_ratio_row = rows.last().expect("at least one size");
    let worst_eps = eps_rows.iter().map(|r| r.worst_eps).fold(0.0, f64::max);

    let size_json: Vec<String> = rows
        .iter()
        .map(|r| {
            json::object(&[
                ("nodes", r.nodes.to_string()),
                ("switches", r.switches.to_string()),
                ("central_bytes", r.central_bytes.to_string()),
                ("central_rounds", r.central_rounds.to_string()),
                ("sharded_bytes", r.sharded_bytes.to_string()),
                ("sharded_intra_bytes", r.sharded_intra_bytes.to_string()),
                ("sharded_estimate_bytes", r.sharded_est_bytes.to_string()),
                ("sharded_gossip_bytes", r.sharded_gossip_bytes.to_string()),
                ("sharded_rounds", r.sharded_rounds.to_string()),
                ("traffic_ratio", json::num(r.ratio)),
            ])
        })
        .collect();
    let eps_json: Vec<String> = eps_rows
        .iter()
        .map(|r| {
            json::object(&[
                ("scenario", json::string(r.scenario)),
                ("nodes", r.nodes.to_string()),
                ("switches", r.switches.to_string()),
                ("worst_eps", json::num(r.worst_eps)),
            ])
        })
        .collect();
    let chain_json: Vec<String> = chain
        .iter()
        .map(|c| {
            json::object(&[
                ("nodes", c.nodes.to_string()),
                ("shards", c.shards.to_string()),
                ("pair_cells", c.pair_cells.to_string()),
                ("expected_pair_cells", c.expected_pair_cells.to_string()),
                ("repeats", c.repeats.to_string()),
                ("monitor_s", json::num(c.monitor_s)),
                ("snapshot_min_ms", json::num(c.snapshot.min)),
                ("snapshot_ms", json::num(c.snapshot.p50)),
                ("snapshot_max_ms", json::num(c.snapshot.max)),
                ("derive_min_ms", json::num(c.derive.min)),
                ("derive_ms", json::num(c.derive.p50)),
                ("derive_max_ms", json::num(c.derive.max)),
                ("usable", c.usable.to_string()),
                ("jobs", c.jobs.to_string()),
                ("replays", REPLAYS.to_string()),
                ("allocs_per_sec", json::num(c.allocs_per_sec)),
                ("first_decision_ms", json::num(c.first_decision_ms)),
                ("decision_min_ms", json::num(c.decision.min)),
                ("decision_p50_ms", json::num(c.decision.p50)),
                ("decision_p99_ms", json::num(c.p99_ms)),
                ("decision_max_ms", json::num(c.decision.max)),
                ("mean_expanded", json::num(c.mean_expanded)),
                ("mean_pruned", json::num(c.mean_pruned)),
                ("rss_cluster_mb", json::num(c.rss_cluster_mb)),
                ("rss_monitor_mb", json::num(c.rss_monitor_mb)),
                ("rss_snapshot_mb", json::num(c.rss_snapshot_mb)),
                ("rss_derive_mb", json::num(c.rss_derive_mb)),
                ("peak_rss_mb", json::num(c.peak_rss_mb)),
                ("threads", c.threads.to_string()),
                ("host_cores", c.host_cores.to_string()),
            ])
        })
        .collect();
    let bench = json::object(&[
        ("bench", json::string("monitor_sweep")),
        ("per_switch", PER_SWITCH.to_string()),
        ("quick", quick.to_string()),
        ("sizes", json::array(&size_json)),
        ("epsilon", json::array(&eps_json)),
        ("chain", json::array(&chain_json)),
        ("linear_factor", json::num(linear_factor)),
        ("within_2x_of_linear", (linear_factor <= 2.0).to_string()),
        (
            "steady",
            json::object(&[
                ("nodes", steady.nodes.to_string()),
                ("virtual_s", steady.virtual_s.to_string()),
                ("monitor_s", json::num(steady.monitor_s)),
                ("rss_start_mb", json::num(steady.rss_start_mb)),
                ("rss_mb", json::num(steady.rss_mb)),
                ("threads", steady.threads.to_string()),
                ("host_cores", steady.host_cores.to_string()),
            ]),
        ),
        ("traffic_ratio_at_max", json::num(max_ratio_row.ratio)),
        ("worst_eps", json::num(worst_eps)),
        (
            "gates",
            json::object(&[
                ("ratio_ge_10", (max_ratio_row.ratio >= 10.0).to_string()),
                ("eps_le_0_05", (worst_eps <= 0.05).to_string()),
            ]),
        ),
    ]);
    report::write_bench("BENCH_monitor.json", quick, &bench).expect("write BENCH_monitor.json");
    if !quiet {
        print!("{}", table.to_markdown());
        print!("{}", eps_table.to_markdown());
        print!("{}", chain_table.to_markdown());
        print!("{}", steady_table.to_markdown());
        println!(
            "traffic ratio at {} nodes: {:.1}x, worst eps {:.4}, \
             linear_factor (1.0 = perfectly linear) {linear_factor:.3}",
            max_ratio_row.nodes, max_ratio_row.ratio, worst_eps
        );
    }
    assert!(
        max_ratio_row.ratio >= 10.0,
        "sharded monitoring must cut traffic ≥10x at {} nodes, got {:.1}x",
        max_ratio_row.nodes,
        max_ratio_row.ratio
    );
    assert!(
        worst_eps <= 0.05,
        "sharded estimate allocation epsilon exceeded 5%: {worst_eps:.4}"
    );
    assert!(
        linear_factor <= 2.0,
        "the real chain's allocator fell more than 2x past linear scaling: {linear_factor:.3}"
    );
    for c in &chain {
        assert_eq!(
            c.pair_cells, c.expected_pair_cells,
            "the {}-node snapshot must store its blocks, not a V×V matrix",
            c.nodes
        );
    }
}
