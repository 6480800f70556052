//! Monitoring-overhead benchmarks.
//!
//! The paper calls its daemons "light-weight" (§4); these benches put
//! numbers on our implementation: one daemon tick of each kind on the
//! 60-node cluster, record encode/decode, and snapshot assembly.

use criterion::{criterion_group, criterion_main, Criterion};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_monitor::codec::{decode, encode, MonitorRecord};
use nlrm_monitor::daemons::{BandwidthD, LatencyD, LivehostsD, NodeStateD};
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime, SharedStore};
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;
use std::hint::black_box;

fn bench_daemon_ticks(c: &mut Criterion) {
    let mut cluster = iitk_cluster(9);
    cluster.advance(Duration::from_secs(60));
    let store = SharedStore::new();

    c.bench_function("livehosts_tick_v60", |b| {
        let mut d = LivehostsD::new();
        b.iter(|| d.tick(black_box(&cluster), &store))
    });
    c.bench_function("nodestate_tick_one_node", |b| {
        let mut d = NodeStateD::new(NodeId(0), Duration::from_secs(5));
        let mut t = cluster.clone();
        b.iter(|| {
            t.advance(Duration::from_secs(5));
            d.tick(black_box(&t), &store)
        })
    });
    c.bench_function("latency_sweep_v60", |b| {
        let mut d = LatencyD::new(60);
        let mut t = cluster.clone();
        b.iter(|| {
            t.advance(Duration::from_secs(5));
            d.tick(black_box(&mut t), &store)
        })
    });
    c.bench_function("bandwidth_sweep_v60", |b| {
        let mut d = BandwidthD::new(60);
        let mut t = cluster.clone();
        b.iter(|| {
            t.advance(Duration::from_secs(5));
            d.tick(black_box(&mut t), &store)
        })
    });
}

fn bench_snapshot_assembly(c: &mut Criterion) {
    let mut cluster = iitk_cluster(9);
    let mut rt = MonitorRuntime::new(&cluster);
    rt.run_until(&mut cluster, nlrm_sim_core::time::SimTime::from_secs(400));
    let store = rt.store().clone();
    let now = cluster.now();
    c.bench_function("snapshot_assemble_v60", |b| {
        b.iter(|| ClusterSnapshot::assemble(black_box(&store), 60, now).unwrap())
    });
}

fn bench_codec(c: &mut Criterion) {
    let record = MonitorRecord::BandwidthRow {
        node: NodeId(3),
        avail_bps: (0..60).map(|i| i as f64 * 1e7).collect(),
        peak_bps: vec![1e9; 60],
    };
    c.bench_function("codec_encode_bandwidth_row", |b| {
        b.iter(|| encode(black_box(&record)))
    });
    let bytes = encode(&record);
    c.bench_function("codec_decode_bandwidth_row", |b| {
        b.iter(|| decode(black_box(&bytes)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_daemon_ticks,
    bench_snapshot_assembly,
    bench_codec
);
criterion_main!(benches);
