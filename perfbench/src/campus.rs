//! `campus-broker`: an open-loop job stream through the batched broker.
//!
//! A 480-node campus (ten 48-node clusters behind a campus router) under
//! the sharded monitor. Arrivals follow a seeded schedule at 0.9 of the
//! cluster's process capacity with mixed priority classes; the loop steps
//! a 60 s scheduling quantum in virtual time: complete due jobs, submit
//! due arrivals, advance the monitor, reassemble the snapshot, and call
//! `Broker::tick`. Jobs hold their nodes for their walltime and are not
//! executed, so `nlrm-mpi` does no work here. Wait is measured from each
//! job's due arrival, so a stalled broker shows up as wait.

use crate::trace::Tracer;
use crate::{check_allocation, frac, obs_counter, obs_gauge, splitmix64, Scenario, Tally};
use nlrm_cluster::iitk::campus;
use nlrm_cluster::ClusterSim;
use nlrm_core::broker::{Broker, BrokerConfig, BrokerEvent, JobId, PriorityClass, SubmitOptions};
use nlrm_core::{AllocationRequest, Loads};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime, MonitorTopo, ShardConfig};
use nlrm_sim_core::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ticks every run makes.
pub const PREFIX_STEPS: u64 = 120;
/// Set-up repetitions per untraced run.
pub const SETUPS: usize = 11;

const CLUSTERS: usize = 10;
const NODES_PER_CLUSTER: usize = 48;
/// Scheduling quantum, virtual seconds.
const QUANTUM_S: u64 = 60;
/// Monitor warm-up, virtual seconds.
const WARMUP_S: u64 = 360;
/// Offered load as a share of process capacity.
const OFFERED_LOAD: f64 = 0.9;
const PROCS: [u32; 4] = [8, 16, 32, 64];
const WALL_MIN_S: f64 = 120.0;
const WALL_SPAN_S: f64 = 1680.0;
/// Drain ticks allowed after the loop before a queued job counts as
/// never started.
const DRAIN_TICKS: u64 = 10_000;

/// A job the broker admitted and has not started yet.
struct Admitted {
    due: SimTime,
    request: AllocationRequest,
    walltime: Duration,
}

/// Live state of the workload.
pub struct Campus {
    cluster: ClusterSim,
    monitor: MonitorRuntime,
    broker: Broker,
    seed: u64,
    t0: SimTime,
    now: SimTime,
    capacity: u64,
    interarrival_s: f64,
    next_index: u64,
    next_due: SimTime,
    admitted: HashMap<JobId, Admitted>,
    completions: BinaryHeap<Reverse<(SimTime, JobId)>>,
    last_snap: Option<ClusterSnapshot>,
    gossip_at_start: u64,
    // prefix accumulators
    waits: Vec<f64>,
    cost_sum: f64,
    /// (start, procs, walltime) of every job started in the prefix.
    starts: Vec<(SimTime, u32, Duration)>,
    deferred: u64,
    pairs: f64,
    probe_bytes: f64,
    shard_ticks: u64,
    // frozen at the end of the prefix
    utilization: f64,
    derives_at_prefix: u64,
    backfill_at_prefix: u64,
    gossip_at_prefix: u64,
    prefix_steps: u64,
}

impl Campus {
    fn hash(&self, i: u64) -> u64 {
        splitmix64(self.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Submit every arrival due by `now`.
    fn submit_due(&mut self, now: SimTime, tally: &mut Tally) {
        while self.next_due <= now {
            let i = self.next_index;
            let h = self.hash(i);
            let procs = PROCS[(i % PROCS.len() as u64) as usize];
            let request = if i.is_multiple_of(2) {
                AllocationRequest::minimd(procs)
            } else {
                AllocationRequest::minife(procs)
            };
            let class = match h % 10 {
                0 => PriorityClass::Urgent,
                1 | 2 => PriorityClass::Batch,
                _ => PriorityClass::Normal,
            };
            let walltime =
                Duration::from_secs((WALL_MIN_S + frac(splitmix64(h)) * WALL_SPAN_S) as u64);
            let due = self.next_due;
            tally.attempted += 1;
            let submitted = self.broker.submit_opts(
                format!("job-{i}"),
                request.clone(),
                SubmitOptions {
                    class,
                    walltime: Some(walltime),
                    submitted_at: Some(due),
                },
            );
            match submitted {
                Ok(id) => {
                    self.admitted.insert(
                        id,
                        Admitted {
                            due,
                            request,
                            walltime,
                        },
                    );
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.violation(format!("job-{i} refused: {e}"));
                }
            }
            self.next_index += 1;
            let gap = self.interarrival_s * (0.25 + 1.5 * frac(h));
            self.next_due += Duration::from_secs_f64(gap);
        }
    }

    fn complete_due(&mut self, now: SimTime) {
        while let Some(&Reverse((end, id))) = self.completions.peek() {
            if end > now {
                break;
            }
            self.completions.pop();
            self.broker.complete_at(id, end);
        }
    }

    /// Handle one tick's broker events.
    fn absorb(
        &mut self,
        events: Vec<BrokerEvent>,
        snap: &ClusterSnapshot,
        tally: &mut Tally,
        in_prefix: bool,
    ) {
        let now = snap.taken_at;
        for ev in events {
            match ev {
                BrokerEvent::Started(lease) => {
                    let Some(job) = self.admitted.remove(&lease.id) else {
                        tally.violation(format!("broker started unknown job {}", lease.id.0));
                        continue;
                    };
                    check_allocation(&lease.allocation, &job.request, snap, tally);
                    let cap = job.request.ppn.expect("paper requests fix ppn");
                    for &(node, _) in &lease.allocation.nodes {
                        let held = self.broker.reserved_on(node);
                        if held > cap {
                            tally.violation(format!("node {node} over-reserved: {held} > {cap}"));
                        }
                    }
                    self.completions
                        .push(Reverse((now + job.walltime, lease.id)));
                    tally.jobs += 1;
                    if in_prefix {
                        self.waits.push(now.since(job.due).as_secs_f64());
                        self.cost_sum += crate::relative_cost(&lease.allocation.diagnostics);
                        self.starts.push((now, job.request.procs, job.walltime));
                    }
                }
                BrokerEvent::Deferred { .. } => {
                    if in_prefix {
                        self.deferred += 1;
                    }
                }
            }
        }
    }
}

/// Move a snapshot's clock forward without staling its samples (drain
/// ticks reuse the last monitored view).
fn advance(snap: &mut ClusterSnapshot, now: SimTime) {
    snap.taken_at = now;
    for n in snap.nodes.iter_mut() {
        n.sample.taken_at = now;
    }
}

impl Scenario for Campus {
    fn setup(seed: u64) -> Campus {
        let mut cluster = campus(CLUSTERS, NODES_PER_CLUSTER, seed);
        let index = cluster.topology().switch_index();
        let mut monitor = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(index)),
        );
        let snap = monitor
            .warm_snapshot(&mut cluster, Duration::from_secs(WARMUP_S))
            .expect("warm campus snapshot");
        let shape = AllocationRequest::minimd(PROCS[0]);
        let capacity = Loads::derive(
            &snap,
            &shape.compute_weights,
            &shape.network_weights,
            shape.ppn,
        )
        .expect("warm snapshot derives")
        .total_capacity();
        let mean_procs = PROCS.iter().map(|&p| p as f64).sum::<f64>() / PROCS.len() as f64;
        let mean_wall_s = WALL_MIN_S + WALL_SPAN_S / 2.0;
        let t0 = snap.taken_at;
        let gossip_at_start = monitor.gossip().map_or(0, |g| g.total_bytes());
        Campus {
            cluster,
            monitor,
            broker: Broker::new(BrokerConfig {
                // arrivals are sized to capacity; the §6 load advisory
                // would defer on background load and starve the stream
                max_load_per_core: None,
                ..BrokerConfig::default()
            }),
            seed,
            t0,
            now: t0,
            capacity,
            interarrival_s: mean_procs * mean_wall_s / (capacity as f64 * OFFERED_LOAD),
            next_index: 0,
            next_due: t0,
            admitted: HashMap::new(),
            completions: BinaryHeap::new(),
            last_snap: None,
            gossip_at_start,
            waits: Vec::new(),
            cost_sum: 0.0,
            starts: Vec::new(),
            deferred: 0,
            pairs: 0.0,
            probe_bytes: 0.0,
            shard_ticks: 0,
            utilization: 0.0,
            derives_at_prefix: 0,
            backfill_at_prefix: 0,
            gossip_at_prefix: 0,
            prefix_steps: 0,
        }
    }

    fn step(&mut self, tr: &mut Tracer, tally: &mut Tally, in_prefix: bool) {
        let now = self.now + Duration::from_secs(QUANTUM_S);
        self.now = now;
        self.complete_due(now);
        self.submit_due(now, tally);

        tr.enter("monitor.run_until");
        self.monitor.run_until(&mut self.cluster, now);
        tr.exit();
        tr.enter("snapshot.assemble");
        let snap = self.monitor.snapshot(now);
        tr.exit();
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                tally.violation(format!("tick at {now}: no snapshot: {e}"));
                return;
            }
        };
        if in_prefix && nlrm_obs::ctx::is_active() {
            // the sharded sweep publishes per-round gauges, not counters:
            // sample them once per sweep that ran this quantum
            let sweeps = obs_counter("monitor_tick_total_shard");
            let new = sweeps - self.shard_ticks;
            self.shard_ticks = sweeps;
            self.pairs += new as f64 * obs_gauge("monitor_round_pairs");
            self.probe_bytes += new as f64 * obs_gauge("monitor_round_bytes");
        }

        let t0 = std::time::Instant::now();
        tr.enter("broker.tick");
        let events = self.broker.tick(&snap);
        tr.exit();
        tally.decision_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.absorb(events, &snap, tally, in_prefix);
        self.last_snap = Some(snap);
    }

    fn end_prefix(&mut self, steps: u64) {
        self.prefix_steps = steps;
        let window_end = self.t0 + Duration::from_secs(steps * QUANTUM_S);
        let busy: f64 = self
            .starts
            .iter()
            .map(|&(start, procs, wall)| {
                procs as f64
                    * wall
                        .as_secs_f64()
                        .min(window_end.since(start).as_secs_f64())
            })
            .sum();
        self.utilization = busy / (self.capacity as f64 * (steps * QUANTUM_S) as f64);
        self.derives_at_prefix = obs_counter("loads_derive_total");
        self.backfill_at_prefix = obs_counter("broker_backfill_started_total");
        self.gossip_at_prefix = self.monitor.gossip().map_or(0, |g| g.total_bytes());
    }

    fn finish(&mut self, tally: &mut Tally) {
        // stop arrivals and drain: every admitted job must start
        let Some(mut snap) = self.last_snap.take() else {
            tally.violation("no tick produced a snapshot".to_string());
            return;
        };
        let mut now = self.now;
        for _ in 0..DRAIN_TICKS {
            if self.admitted.is_empty() {
                break;
            }
            now += Duration::from_secs(QUANTUM_S);
            self.complete_due(now);
            advance(&mut snap, now);
            let events = self.broker.tick(&snap);
            self.absorb(events, &snap, tally, false);
        }
        if !self.admitted.is_empty() {
            tally.failed += self.admitted.len() as u64;
            tally.violation(format!(
                "{} admitted jobs never started",
                self.admitted.len()
            ));
        }
    }

    fn prefix_metrics(&self) -> Vec<(&'static str, f64)> {
        let steps = self.prefix_steps.max(1) as f64;
        let started = self.waits.len().max(1) as f64;
        vec![
            ("winner_cost_mean", self.cost_sum / started),
            (
                "broker.wait_p50_s",
                crate::metrics::percentile(&self.waits, 0.50),
            ),
            (
                "broker.wait_p95_s",
                crate::metrics::percentile(&self.waits, 0.95),
            ),
            ("broker.utilization", self.utilization),
            ("broker.started_per_tick", self.waits.len() as f64 / steps),
            ("broker.deferred_per_tick", self.deferred as f64 / steps),
            (
                "broker.backfill_started",
                self.backfill_at_prefix as f64 / steps,
            ),
            (
                "loads.derive_calls_per_tick",
                self.derives_at_prefix as f64 / steps,
            ),
            ("monitor.pair_measurements", self.pairs / steps),
            ("monitor.probe_bytes", self.probe_bytes / steps),
            (
                "monitor.gossip_bytes",
                (self.gossip_at_prefix - self.gossip_at_start) as f64 / steps,
            ),
        ]
    }
}
