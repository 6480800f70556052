//! Allocator-runtime benchmarks.
//!
//! The paper claims "the total run-time of the whole algorithm … is ~1–2 ms"
//! at V = 60 nodes, with complexity O(V² log V) for candidate generation
//! (§3.3.2). This bench verifies the absolute number on the paper's cluster
//! size, the scaling shape over V, and the baselines for comparison. The
//! switch-tiered pruned path behind large V is timed on the real chain by
//! `monitor_sweep`'s chain rows (1k → 100k nodes) and the `scale_micro`
//! bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_cluster::{ClusterProfile, ClusterSim, NodeSpec};
use nlrm_core::{AllocationRequest, LoadAwarePolicy, NetworkLoadAwarePolicy, Policy, RandomPolicy};
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime};
use nlrm_sim_core::time::Duration;
use nlrm_topology::{LinkParams, Topology};
use std::hint::black_box;

fn snapshot_for(cluster: &mut ClusterSim) -> ClusterSnapshot {
    let mut rt = MonitorRuntime::new(cluster);
    rt.warm_snapshot(cluster, Duration::from_secs(360))
        .expect("snapshot")
}

fn synthetic_cluster(n: usize, seed: u64) -> ClusterSim {
    let per_switch = 16usize;
    let switches = n.div_ceil(per_switch);
    let mut counts = vec![per_switch; switches];
    *counts.last_mut().unwrap() = n - per_switch * (switches - 1);
    let topo = Topology::star_of_switches(&counts, LinkParams::gigabit(), LinkParams::gigabit());
    let specs = (0..n)
        .map(|i| NodeSpec {
            hostname: format!("n{i}"),
            cores: 8,
            freq_ghz: 3.0,
            total_mem_gb: 16.0,
        })
        .collect();
    ClusterSim::new(topo, specs, ClusterProfile::shared_lab(), seed)
}

/// The paper's headline: full Algorithm 1 + 2 on the 60-node IIT-K cluster.
fn bench_paper_cluster(c: &mut Criterion) {
    let mut cluster = iitk_cluster(42);
    let snap = snapshot_for(&mut cluster);
    let req = AllocationRequest::minimd(32);
    c.bench_function("nla_allocate_v60_paper_claim_1_2ms", |b| {
        b.iter(|| {
            NetworkLoadAwarePolicy::new()
                .allocate(black_box(&snap), black_box(&req))
                .unwrap()
        })
    });
}

/// Scaling over cluster size (expected ~V² log V).
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("nla_allocate_scaling");
    group.sample_size(20);
    for &n in &[16usize, 32, 64, 128, 256] {
        let mut cluster = synthetic_cluster(n, 7);
        let snap = snapshot_for(&mut cluster);
        let req = AllocationRequest::minimd(32);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                NetworkLoadAwarePolicy::new()
                    .allocate(black_box(&snap), black_box(&req))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Baselines at V = 60 for cost comparison.
fn bench_baselines(c: &mut Criterion) {
    let mut cluster = iitk_cluster(42);
    let snap = snapshot_for(&mut cluster);
    let req = AllocationRequest::minimd(32);
    c.bench_function("random_allocate_v60", |b| {
        let mut p = RandomPolicy::new(1);
        b.iter(|| p.allocate(black_box(&snap), black_box(&req)).unwrap())
    });
    c.bench_function("load_aware_allocate_v60", |b| {
        b.iter(|| {
            LoadAwarePolicy::new()
                .allocate(black_box(&snap), black_box(&req))
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_paper_cluster, bench_scaling, bench_baselines);
criterion_main!(benches);
