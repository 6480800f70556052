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
//!   gossiped shard summaries (real [`GossipNet`] run to convergence),
//!   and the published estimate record.
//!
//! It then measures the allocation-quality epsilon on the equivalence
//! scenarios: the sharded estimate's winner, costed under the exact
//! dense loads, vs the exact matrix's winner at the same tiered
//! granularity. Gates (self-asserting, mirrored in `ci.sh`): traffic
//! ratio ≥ 10× at the largest size, worst epsilon ≤ 5%.
//!
//! Output: `BENCH_monitor.json` at the repository root (full runs) or
//! under `results/` (`NLRM_QUICK=1` CI smoke).

use nlrm_bench::report::{self, Table};
use nlrm_core::select::group_cost;
use nlrm_core::{allocate_pruned, Loads, NlRep, StalenessPolicy};
use nlrm_core::{ComputeWeights, NetworkWeights};
use nlrm_monitor::daemons::{central_cycle_cost, DaemonConfig};
use nlrm_monitor::sample::LatencyStat;
use nlrm_monitor::{
    GossipNet, MonitorRuntime, MonitorTopo, NlEstimator, PairProbe, ShardConfig, ShardSummary,
};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::fmt::Write as _;
use std::path::Path;

const PER_SWITCH: u64 = 48;
const PROBE_PAIR_BYTES: u64 =
    nlrm_monitor::daemons::LATENCY_PROBE_BYTES + nlrm_monitor::daemons::BANDWIDTH_PROBE_BYTES;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

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
    let est_bytes = est.probe_bytes + est.to_record(1, SimTime::from_micros(0)).len() as u64;

    // gossip: every shard publishes its fresh summary, the overlay runs
    // anti-entropy to convergence; bytes include digests + records +
    // message overheads
    let mut net: GossipNet<u64> =
        GossipNet::new(s as usize, 2, 0x5ea1 ^ v, ShardSummary::WIRE_BYTES);
    for p in 0..s as u32 {
        net.publish(p, 1, p as u64);
    }
    let conv = net.run_to_convergence(256);
    assert!(conv.converged, "gossip failed to converge at {s} shards");

    // per-shard sweeps run concurrently, so cycle "rounds" = the longest
    // shard tournament plus the gossip rounds to disseminate summaries
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
    let usable = snap.usable_nodes();
    for (i, &u) in usable.iter().enumerate() {
        for &v in &usable[i + 1..] {
            exact
                .latency
                .set(u, v, LatencyStat::constant(cluster.latency_s(u, v)));
            exact
                .bandwidth_bps
                .set(u, v, cluster.available_bandwidth_bps(u, v));
            exact
                .peak_bandwidth_bps
                .set(u, v, cluster.peak_bandwidth_bps(u, v));
        }
    }
    exact
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
    let inter = rt.inter_estimate().expect("estimate published");
    let est =
        Loads::derive_sharded(&snap, &inter, &idx, &cw, &nw, Some(4), &policy).expect("derive");
    assert!(matches!(est.nl, NlRep::Estimated(_)));
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
    let quiet = nlrm_obs::progress::quiet();
    let quick = std::env::var("NLRM_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
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
    report::write_result(
        "monitor_sweep.md",
        &(table.to_markdown() + &eps_table.to_markdown()),
    )
    .expect("write md");
    report::write_result("monitor_sweep.csv", &table.to_csv()).expect("write csv");

    let max_ratio_row = rows.last().expect("at least one size");
    let worst_eps = eps_rows.iter().map(|r| r.worst_eps).fold(0.0, f64::max);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"monitor_sweep\",");
    let _ = writeln!(json, "  \"per_switch\": {PER_SWITCH},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"sizes\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"switches\": {}, \"central_bytes\": {}, \
             \"central_rounds\": {}, \"sharded_bytes\": {}, \
             \"sharded_intra_bytes\": {}, \"sharded_estimate_bytes\": {}, \
             \"sharded_gossip_bytes\": {}, \"sharded_rounds\": {}, \
             \"traffic_ratio\": {:.1}}}{comma}",
            r.nodes,
            r.switches,
            r.central_bytes,
            r.central_rounds,
            r.sharded_bytes,
            r.sharded_intra_bytes,
            r.sharded_est_bytes,
            r.sharded_gossip_bytes,
            r.sharded_rounds,
            r.ratio
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"epsilon\": [");
    for (i, r) in eps_rows.iter().enumerate() {
        let comma = if i + 1 < eps_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"switches\": {}, \
             \"worst_eps\": {:.4}}}{comma}",
            r.scenario, r.nodes, r.switches, r.worst_eps
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"traffic_ratio_at_max\": {:.1},",
        max_ratio_row.ratio
    );
    let _ = writeln!(json, "  \"worst_eps\": {worst_eps:.4},");
    let _ = writeln!(
        json,
        "  \"gates\": {{\"ratio_ge_10\": {}, \"eps_le_0_05\": {}}}",
        max_ratio_row.ratio >= 10.0,
        worst_eps <= 0.05
    );
    let _ = writeln!(json, "}}");

    let out = if quick {
        report::results_dir().join("BENCH_monitor.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root exists")
            .join("BENCH_monitor.json")
    };
    std::fs::write(&out, &json).expect("write BENCH_monitor.json");
    if !quiet {
        println!("wrote {}", out.display());
        print!("{}", table.to_markdown());
        print!("{}", eps_table.to_markdown());
        println!(
            "traffic ratio at {} nodes: {:.1}x, worst eps {:.4}",
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
}
