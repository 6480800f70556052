//! Allocator throughput vs cluster size: the mega-cluster scaling sweep.
//!
//! Builds synthetic tiered clusters from 1k to 100k nodes (48-node
//! switches, deterministic pseudo-random loads), runs a stream of
//! allocation decisions through the fused bound-pruned allocator
//! ([`allocate_pruned`]), and reports allocations/sec plus p50/p99
//! decision latency per size.
//!
//! Output: `BENCH_scale.json` at the repository root (the repo's perf
//! trajectory), plus a Markdown/CSV table under `results/`.
//!
//! `NLRM_QUICK=1` shrinks the sweep for CI smoke runs; `NLRM_QUIET=1`
//! suppresses progress chatter.

use nlrm_bench::report::{self, Table};
use nlrm_bench::synthetic::tiered_loads;
use nlrm_core::allocate_pruned;
use std::fmt::Write as _;
use std::time::Instant;

const PER_SWITCH: u32 = 48;

struct SizeResult {
    nodes: u32,
    jobs: usize,
    build_secs: f64,
    allocs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_expanded: f64,
    mean_pruned: f64,
}

fn sweep_size(v: u32, jobs: usize, seed: u64) -> SizeResult {
    let build_start = Instant::now();
    let loads = tiered_loads(v, PER_SWITCH, seed);
    let build_secs = build_start.elapsed().as_secs_f64();

    // the paper's job mixes: process counts and α/β cycles
    let procs = [32u32, 64, 128, 256];
    let mixes = [(0.3, 0.7), (0.4, 0.6), (0.7, 0.3)];
    let mut latencies = Vec::with_capacity(jobs);
    let mut expanded = 0u64;
    let mut pruned = 0u64;
    for j in 0..jobs {
        let n = procs[j % procs.len()];
        let (alpha, beta) = mixes[j % mixes.len()];
        let t0 = Instant::now();
        let sel = allocate_pruned(&loads, n, alpha, beta).expect("satisfiable");
        latencies.push(t0.elapsed().as_secs_f64());
        expanded += sel.expanded as u64;
        pruned += sel.pruned as u64;
    }
    latencies.sort_by(f64::total_cmp);
    let total: f64 = latencies.iter().sum();
    SizeResult {
        nodes: v,
        jobs,
        build_secs,
        allocs_per_sec: jobs as f64 / total,
        p50_ms: report::nearest_rank(&latencies, 0.50) * 1e3,
        p99_ms: report::nearest_rank(&latencies, 0.99) * 1e3,
        mean_expanded: expanded as f64 / jobs as f64,
        mean_pruned: pruned as f64 / jobs as f64,
    }
}

fn main() {
    let quick = report::quick();
    let sizes: &[(u32, usize)] = if quick {
        &[(1_000, 8), (5_000, 5)]
    } else {
        &[(1_000, 40), (10_000, 20), (50_000, 10), (100_000, 10)]
    };

    let mut results = Vec::new();
    for &(v, jobs) in sizes {
        if !nlrm_obs::progress::quiet() {
            println!("scale_sweep: {v} nodes, {jobs} decisions…");
        }
        results.push(sweep_size(v, jobs, 0xC0FFEE ^ v as u64));
    }

    // linear-scaling factor between the endpoints: with allocs/sec ∝ 1/V
    // (perfectly linear decision cost), the throughput ratio equals the
    // node ratio; `factor` is how far past linear the large end fell
    let first = &results[0];
    let last = &results[results.len() - 1];
    let node_ratio = last.nodes as f64 / first.nodes as f64;
    let tput_ratio = first.allocs_per_sec / last.allocs_per_sec;
    let linear_factor = tput_ratio / node_ratio;

    let mut table = Table::new(&[
        "nodes",
        "jobs",
        "build_s",
        "allocs/sec",
        "p50_ms",
        "p99_ms",
        "expanded",
        "pruned",
    ]);
    for r in &results {
        table.row(&[
            r.nodes.to_string(),
            r.jobs.to_string(),
            format!("{:.3}", r.build_secs),
            format!("{:.1}", r.allocs_per_sec),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.1}", r.mean_expanded),
            format!("{:.1}", r.mean_pruned),
        ]);
    }
    report::write_result("scale_sweep.md", &table.to_markdown()).expect("write md");
    report::write_result("scale_sweep.csv", &table.to_csv()).expect("write csv");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"scale_sweep\",");
    let _ = writeln!(json, "  \"per_switch\": {PER_SWITCH},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"sizes\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"jobs\": {}, \"build_secs\": {:.6}, \
             \"allocs_per_sec\": {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"mean_expanded\": {:.1}, \"mean_pruned\": {:.1}}}{comma}",
            r.nodes,
            r.jobs,
            r.build_secs,
            r.allocs_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.mean_expanded,
            r.mean_pruned
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"linear_factor\": {linear_factor:.3},");
    let _ = writeln!(json, "  \"within_2x_of_linear\": {}", linear_factor <= 2.0);
    let _ = writeln!(json, "}}");

    let out = report::bench_path("BENCH_scale.json", quick);
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    if !nlrm_obs::progress::quiet() {
        println!("wrote {}", out.display());
        print!("{}", table.to_markdown());
        println!("linear_factor (1.0 = perfectly linear): {linear_factor:.3}");
    }
    assert!(
        linear_factor <= 2.0,
        "allocator fell more than 2x past linear scaling: {linear_factor:.3}"
    );
}
