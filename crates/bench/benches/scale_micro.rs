//! Microbenchmarks for the allocator's hot inner kernels.
//!
//! The scale story (`monitor_sweep`'s chain rows, 1k → 100k nodes on the
//! real monitor → snapshot → derive chain) measures whole decisions; this file
//! isolates the three kernels that dominate them — `group_cost` over a
//! candidate's node set, `generate_candidate` (the switch generator's
//! one-start case, buckets included) from a single start node,
//! and `select_best` over a full candidate slate — so per-kernel
//! regressions show up independently of each other. One whole
//! `allocate_pruned` decision (4,096 tiered nodes, 64 processes) guards
//! the switch-class loop that fuses them.
//!
//! Clusters are built directly as `Loads` rather than through the
//! simulator: these kernels only see load vectors, and skipping the
//! monitor keeps setup milliseconds even at V = 4096. A `SymMatrix`
//! becomes the one-switch `TieredNl` a central monitor derives; the
//! tiered universes spread their nodes over 16-node switches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nlrm_bench::synthetic::tiered_loads;
use nlrm_core::candidate::{generate_all_candidates, generate_candidate};
use nlrm_core::select::{group_cost, select_best};
use nlrm_core::{allocate_pruned, Loads};
use nlrm_monitor::SymMatrix;
use nlrm_sim_core::rng::{frac, splitmix64};
use nlrm_topology::NodeId;
use std::hint::black_box;

const PER_SWITCH: u32 = 16;
const ALPHA: f64 = 0.4;
const BETA: f64 = 0.6;

fn cl_vec(v: u32, seed: u64) -> Vec<f64> {
    (0..v)
        .map(|n| 0.1 + 0.8 * frac(splitmix64(seed ^ (n as u64 + 17))))
        .collect()
}

fn dense_loads(v: u32, seed: u64) -> Loads {
    let nodes: Vec<NodeId> = (0..v).map(NodeId).collect();
    let mut nl = SymMatrix::new(v as usize, 0.0);
    for a in 0..v {
        for b in (a + 1)..v {
            let h = splitmix64(seed ^ (a as u64 * 1_000_003 + b as u64));
            nl.set(NodeId(a), NodeId(b), 0.05 + 0.5 * frac(h));
        }
    }
    Loads::from_parts(nodes, cl_vec(v, seed), nl, vec![4u32; v as usize])
}

/// Eq. 4 cost of one candidate group, dense vs tiered representation.
fn bench_group_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_cost");
    for &g in &[16usize, 64, 256] {
        let v = (4 * g as u32).max(256);
        let dense = dense_loads(v, 3);
        let tiered = tiered_loads(v, PER_SWITCH, 3);
        // every 3rd node: members span switches like a real candidate
        let members: Vec<NodeId> = (0..g as u32).map(|i| NodeId(i * 3)).collect();
        group.bench_with_input(BenchmarkId::new("dense", g), &g, |b, _| {
            b.iter(|| group_cost(black_box(&dense), black_box(&members), ALPHA, BETA))
        });
        group.bench_with_input(BenchmarkId::new("tiered", g), &g, |b, _| {
            b.iter(|| group_cost(black_box(&tiered), black_box(&members), ALPHA, BETA))
        });
    }
    group.finish();
}

/// Algorithm 1 from a single start node: the one-start case of the switch
/// generator, which on this one-switch universe builds the buckets and
/// walks a bounded heap over every node.
fn bench_generate_candidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_candidate");
    group.sample_size(30);
    for &v in &[256u32, 1024, 4096] {
        let dense = dense_loads(v, 5);
        group.bench_with_input(BenchmarkId::from_parameter(v), &v, |b, _| {
            b.iter(|| generate_candidate(black_box(&dense), NodeId(v / 2), 64, ALPHA, BETA))
        });
    }
    group.finish();
}

/// Algorithm 2 over a full candidate slate (one candidate per start).
fn bench_select_best(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_best");
    group.sample_size(20);
    for &v in &[256u32, 1024] {
        let tiered = tiered_loads(v, PER_SWITCH, 9);
        let cands = generate_all_candidates(&tiered, 64, ALPHA, BETA);
        group.bench_with_input(BenchmarkId::from_parameter(v), &v, |b, _| {
            b.iter(|| select_best(black_box(&tiered), black_box(&cands), ALPHA, BETA))
        });
    }
    group.finish();
}

/// The fused switch-class search: one whole pruned decision on a tiered
/// cluster.
fn bench_allocate_pruned(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_pruned");
    group.sample_size(10);
    let v = 4096u32;
    let tiered = tiered_loads(v, PER_SWITCH, 11);
    group.bench_with_input(BenchmarkId::new("tiered_n64", v), &v, |b, _| {
        b.iter(|| allocate_pruned(black_box(&tiered), 64, ALPHA, BETA))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_group_cost,
    bench_generate_candidate,
    bench_select_best,
    bench_allocate_pruned
);
criterion_main!(benches);
