//! Microbenchmarks for the broker's batch-cycle hot path.
//!
//! `broker_sweep` measures whole streams; this file isolates one `tick`:
//! the scheduling cycle over a 64-job queue, and the priority-sort
//! overhead on a deep 1024-job queue with a single examination slot.
//!
//! Brokers are cloned per iteration (`iter_batched`) because a tick
//! mutates the queue and reservation ledger.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::broker::{Broker, BrokerConfig, PriorityClass, SubmitOptions};
use nlrm_core::AllocationRequest;
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime};
use nlrm_sim_core::time::Duration;
use std::hint::black_box;

fn snapshot(seed: u64) -> ClusterSnapshot {
    let mut cluster = iitk_cluster(seed);
    let mut rt = MonitorRuntime::new(&cluster);
    rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("warm snapshot")
}

/// A broker with `jobs` queued 4–16 proc requests in mixed classes.
fn loaded_broker(max_per_tick: usize, jobs: usize) -> Broker {
    let mut broker = Broker::new(BrokerConfig {
        max_load_per_core: None,
        max_per_tick,
        ..BrokerConfig::default()
    });
    for i in 0..jobs {
        let procs = [4u32, 8, 16][i % 3];
        let class = match i % 5 {
            0 => PriorityClass::Urgent,
            1 | 2 => PriorityClass::Batch,
            _ => PriorityClass::Normal,
        };
        broker
            .submit_opts(
                format!("j{i}"),
                AllocationRequest::minimd(procs),
                SubmitOptions {
                    class,
                    ..SubmitOptions::default()
                },
            )
            .expect("valid request");
    }
    broker
}

fn bench_tick(c: &mut Criterion) {
    let snap = snapshot(42);
    let broker = loaded_broker(64, 64);
    c.bench_function("broker_tick_64_jobs", |b| {
        b.iter_batched(
            || broker.clone(),
            |mut br| black_box(br.tick(&snap)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_deep_queue_sort(c: &mut Criterion) {
    let snap = snapshot(42);
    // max_per_tick = 1: the tick is dominated by stamping + priority-
    // sorting the 1024-deep queue, not by placement
    let broker = loaded_broker(1, 1024);
    c.bench_function("broker_priority_sort_1024_deep", |b| {
        b.iter_batched(
            || broker.clone(),
            |mut br| black_box(br.tick(&snap)),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_tick, bench_deep_queue_sort);
criterion_main!(benches);
