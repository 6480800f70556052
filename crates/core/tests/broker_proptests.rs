//! Property-based tests for the broker's reservation accounting: under any
//! interleaving of submissions, scheduling passes, and completions, the
//! books must balance.

use nlrm_cluster::iitk::small_cluster;
use nlrm_core::broker::{Broker, BrokerConfig, BrokerEvent, JobId, Lease};
use nlrm_core::{AllocError, Allocation, AllocationRequest};
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime};
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;
use proptest::prelude::*;

const NODES: usize = 6;
const PPN: u32 = 4;

fn snapshot(seed: u64) -> ClusterSnapshot {
    let mut cluster = small_cluster(NODES, seed);
    let mut rt = MonitorRuntime::new(&cluster);
    rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
        .unwrap()
}

/// A random broker action.
#[derive(Debug, Clone)]
enum Action {
    Submit(u32),
    Tick,
    CompleteOldest,
    CancelNewestQueued,
    CancelOldestRunning,
    /// Adopt an external lease of `(node, procs)`: nodes may repeat (the
    /// broker must refuse the lease) and may lie past the cluster.
    Adopt(Vec<(u32, u32)>),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..20).prop_map(Action::Submit),
        Just(Action::Tick),
        Just(Action::CompleteOldest),
        Just(Action::CancelNewestQueued),
        Just(Action::CancelOldestRunning),
        proptest::collection::vec((0..NODES as u32 + 2, 0..=PPN), 1..4).prop_map(Action::Adopt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever sequence of actions runs, per-node reservations never
    /// exceed the node's capacity, totals balance against running leases,
    /// and completing everything returns the books to zero.
    #[test]
    fn reservations_always_balance(
        actions in proptest::collection::vec(arb_action(), 1..40),
        seed in 0u64..50,
    ) {
        let snap = snapshot(seed);
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: None,
            ..BrokerConfig::default()
        });
        let mut running: Vec<JobId> = Vec::new();
        // one past every id the broker has handed out or adopted
        let mut fresh = 0u64;
        for action in actions {
            match action {
                Action::Submit(procs) => {
                    let id = broker
                        .submit("j", AllocationRequest::new(procs, Some(PPN), 0.3, 0.7))
                        .unwrap();
                    fresh = fresh.max(id.0 + 1);
                }
                Action::Tick => {
                    for ev in broker.tick(&snap) {
                        if let BrokerEvent::Started(l) = ev {
                            running.push(l.id);
                        }
                    }
                }
                Action::CompleteOldest => {
                    if !running.is_empty() {
                        let id = running.remove(0);
                        prop_assert!(broker.complete(id).is_some());
                    }
                }
                Action::CancelNewestQueued => {
                    if let Some(&id) = broker.queued().last() {
                        prop_assert!(broker.cancel(id));
                    }
                }
                Action::CancelOldestRunning => {
                    if !running.is_empty() {
                        let id = running.remove(0);
                        prop_assert!(broker.cancel(id), "running job must be cancellable");
                        prop_assert!(broker.complete(id).is_none(), "cancel released the lease");
                    }
                }
                Action::Adopt(nodes) => {
                    // procs clipped to what each node has free, so the
                    // per-node bound below still holds
                    let nodes: Vec<(NodeId, u32)> = nodes
                        .into_iter()
                        .map(|(n, p)| (NodeId(n), p.min(PPN - broker.reserved_on(NodeId(n)))))
                        .collect();
                    let mut ids: Vec<NodeId> = nodes.iter().map(|&(n, _)| n).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    let repeats = ids.len() < nodes.len();
                    let before = broker.total_reserved();
                    let id = JobId(fresh);
                    fresh += 1;
                    let got = broker.adopt_lease(Lease {
                        id,
                        name: "adopted".into(),
                        trace: id.trace(),
                        root_span: None,
                        allocation: Allocation {
                            policy: "external".into(),
                            rank_map: Allocation::block_rank_map(&nodes),
                            nodes: nodes.clone(),
                            diagnostics: Default::default(),
                        },
                    });
                    if repeats {
                        prop_assert!(matches!(got, Err(AllocError::InvalidRequest(_))));
                        prop_assert_eq!(broker.total_reserved(), before, "a refused lease booked");
                    } else {
                        prop_assert!(got.is_ok(), "{:?}", got);
                        running.push(id);
                    }
                }
            }
            // invariants after every step
            let mut total_reserved = 0u32;
            for i in 0..NODES as u32 + 2 {
                let r = broker.reserved_on(NodeId(i));
                prop_assert!(r <= PPN, "node {i} over-reserved: {r}");
                total_reserved += r;
            }
            let lease_total: u32 = broker
                .running()
                .iter()
                .map(|l| l.allocation.total_procs())
                .collect::<Vec<_>>()
                .iter()
                .sum();
            prop_assert_eq!(total_reserved, lease_total, "books out of balance");
            prop_assert_eq!(broker.running().len(), running.len());
        }
        // drain: completing everything zeroes the books
        for id in running {
            broker.complete(id);
        }
        for i in 0..NODES as u32 + 2 {
            prop_assert_eq!(broker.reserved_on(NodeId(i)), 0);
        }
    }

    /// Started leases never overlap: no node is simultaneously leased past
    /// its capacity even across many concurrent jobs.
    #[test]
    fn concurrent_leases_are_capacity_disjoint(
        jobs in proptest::collection::vec(1u32..16, 1..8),
        seed in 0u64..50,
    ) {
        let snap = snapshot(seed);
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: None,
            ..BrokerConfig::default()
        });
        for procs in &jobs {
            broker
                .submit("j", AllocationRequest::new(*procs, Some(PPN), 0.3, 0.7))
                .unwrap();
        }
        broker.tick(&snap);
        let mut per_node = [0u32; NODES];
        for lease in broker.running() {
            for &(node, procs) in &lease.allocation.nodes {
                per_node[node.index()] += procs;
            }
        }
        for (i, &used) in per_node.iter().enumerate() {
            prop_assert!(used <= PPN, "node {i} leased {used} > {PPN}");
        }
        // started + queued == submitted
        prop_assert_eq!(broker.running().len() + broker.queued().len(), jobs.len());
    }
}
