//! End-to-end broker operation: a queue of jobs flowing through
//! reservation-aware allocation and truly concurrent execution.

use nlrm::core::broker::{Broker, BrokerConfig, BrokerEvent, Lease};
use nlrm::mpi::multi::{execute_concurrent, ConcurrentJob};
use nlrm::prelude::*;

fn grant_all(broker: &mut Broker, snap: &ClusterSnapshot) -> Vec<Lease> {
    broker
        .tick(snap)
        .into_iter()
        .filter_map(|e| match e {
            BrokerEvent::Started(l) => Some(*l),
            BrokerEvent::Deferred { .. } => None,
        })
        .collect()
}

#[test]
fn broker_feeds_concurrent_execution() {
    let mut cluster = iitk_cluster(404);
    let mut monitor = MonitorRuntime::new(&cluster);
    let snap = monitor
        .warm_snapshot(&mut cluster, Duration::from_secs(600))
        .unwrap();

    let mut broker = Broker::new(BrokerConfig {
        max_load_per_core: None,
        ..BrokerConfig::default()
    });
    for i in 0..3 {
        broker
            .submit(format!("wave1-{i}"), AllocationRequest::minimd(32))
            .unwrap();
    }
    let leases = grant_all(&mut broker, &snap);
    assert_eq!(leases.len(), 3, "60 nodes fit three 8-node jobs");

    // the three leases are pairwise disjoint
    for (i, a) in leases.iter().enumerate() {
        for b in &leases[i + 1..] {
            for n in a.allocation.node_list() {
                assert!(
                    !b.allocation.node_list().contains(&n),
                    "leases {} and {} share node {n}",
                    a.name,
                    b.name
                );
            }
        }
    }

    // execute all three concurrently on the real cluster timeline
    let workload = MiniMd::new(16).with_steps(20);
    let jobs: Vec<ConcurrentJob> = leases
        .iter()
        .map(|l| ConcurrentJob {
            comm: Communicator::new(l.allocation.rank_map.clone()),
            workload: &workload,
            start_offset_s: 0.0,
        })
        .collect();
    let timings = execute_concurrent(&mut cluster, &jobs);
    for t in &timings {
        assert_eq!(t.steps, 20);
        assert!(t.total_s > 0.0 && t.total_s < 600.0);
    }

    // completing the jobs frees capacity for a fourth
    for l in &leases {
        broker.complete(l.id).unwrap();
    }
    broker
        .submit("wave2", AllocationRequest::minimd(64))
        .unwrap();
    let snap2 = monitor.snapshot(cluster.now()).unwrap();
    let second = grant_all(&mut broker, &snap2);
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].allocation.total_procs(), 64);
}

#[test]
fn broker_respects_capacity_under_pressure() {
    let mut cluster = small_cluster(6, 71); // 6 nodes × 4 ppn = 24 procs
    let mut monitor = MonitorRuntime::new(&cluster);
    let snap = monitor
        .warm_snapshot(&mut cluster, Duration::from_secs(400))
        .unwrap();
    let mut broker = Broker::new(BrokerConfig {
        max_load_per_core: None,
        ..BrokerConfig::default()
    });
    let mut ids = Vec::new();
    for i in 0..5 {
        ids.push(
            broker
                .submit(
                    format!("j{i}"),
                    AllocationRequest::new(8, Some(4), 0.3, 0.7),
                )
                .unwrap(),
        );
    }
    let started = grant_all(&mut broker, &snap);
    assert_eq!(started.len(), 3, "24 procs fit three 8-proc jobs");
    assert_eq!(broker.queued().len(), 2);

    // draining one job admits exactly one more
    broker.complete(started[0].id).unwrap();
    let next = grant_all(&mut broker, &snap);
    assert_eq!(next.len(), 1);
    assert_eq!(broker.queued().len(), 1);
}
