//! Broker throughput under sustained job streams: the scheduling-cycle
//! sweep.
//!
//! Replays synthetic arrival streams (minimd/minife shapes, mixed
//! priority classes, 2–30 minute walltimes) against the 60-node IITK
//! cluster on a 60 s scheduling quantum and reports, per arm:
//!
//! * sustained scheduling throughput (jobs started per wall-clock second
//!   spent inside `tick`),
//! * queue-wait p50/p99 in virtual seconds,
//! * utilization (busy proc-seconds over capacity × makespan),
//! * `Loads::derive` calls per tick (the batched cycle's whole point).
//!
//! Arms: the batched network-and-load-aware broker at 10k (and 100k)
//! arrivals, a Slurm-shaped baseline (strict FIFO, first-fit ascending
//! node id, no backfill) at 10k, and an overload arm (~2× offered load,
//! bounded queue with reject admission) counting sheds.
//!
//! Output: `BENCH_broker.json` at the repository root (committed perf
//! trajectory), plus Markdown/CSV tables under `results/`. `NLRM_QUICK=1`
//! shrinks every arm for CI smoke runs; `NLRM_QUIET=1` silences chatter.

use nlrm_bench::report::{self, Table};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::broker::{
    AdmissionPolicy, Broker, BrokerConfig, BrokerEvent, JobId, PriorityClass, SubmitOptions,
};
use nlrm_core::{AllocError, AllocationRequest, Loads};
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime};
use nlrm_obs::{install, json, Obs};
use nlrm_sim_core::rng::{frac, splitmix64};
use nlrm_sim_core::time::{Duration, SimTime};
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Virtual scheduling quantum.
const QUANTUM_S: u64 = 60;

/// One synthetic arrival.
struct ArrivingJob {
    arrival: SimTime,
    request: AllocationRequest,
    class: PriorityClass,
    walltime: Duration,
}

/// An arrival stream sized to `load_factor` of the cluster's effective
/// capacity: procs cycle the paper's job sizes, walltimes are 120–1800 s,
/// classes mix 10% urgent / 70% normal / 20% batch.
fn make_stream(count: usize, capacity: u64, load_factor: f64, seed: u64) -> Vec<ArrivingJob> {
    let procs = [8u32, 16, 32, 64];
    let mean_procs = procs.iter().map(|&p| p as f64).sum::<f64>() / procs.len() as f64;
    let mean_wall = (120.0 + 1800.0) / 2.0;
    let interarrival = mean_procs * mean_wall / (capacity as f64 * load_factor);
    let mut jobs = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for i in 0..count {
        let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let p = procs[i % procs.len()];
        let request = if i % 2 == 0 {
            AllocationRequest::minimd(p)
        } else {
            AllocationRequest::minife(p)
        };
        let class = match h % 10 {
            0 => PriorityClass::Urgent,
            1 | 2 => PriorityClass::Batch,
            _ => PriorityClass::Normal,
        };
        let walltime = Duration::from_secs(120 + (frac(splitmix64(h)) * 1680.0) as u64);
        // exponential-ish jitter around the mean inter-arrival
        t += interarrival * (0.25 + 1.5 * frac(h));
        jobs.push(ArrivingJob {
            arrival: SimTime::from_secs(t as u64),
            request,
            class,
            walltime,
        });
    }
    jobs
}

/// Move the snapshot's clock forward without staling its samples.
fn advance(snap: &mut ClusterSnapshot, now: SimTime) {
    snap.taken_at = now;
    for n in snap.nodes.iter_mut() {
        n.sample.taken_at = now;
    }
}

struct ArmResult {
    arm: &'static str,
    arrivals: usize,
    started: usize,
    rejected: usize,
    ticks: u64,
    sched_jobs_per_sec: f64,
    wait_p50_s: f64,
    wait_p99_s: f64,
    utilization: f64,
    derives_per_tick: f64,
    makespan_s: f64,
}

/// What one arm's replay loop counted, before it is turned into rates.
struct ArmTally {
    arm: &'static str,
    arrivals: usize,
    started: usize,
    rejected: usize,
    ticks: u64,
    tick_wall_s: f64,
    waits: Vec<f64>,
    busy_proc_s: f64,
    capacity: u64,
    t0: SimTime,
    t_end: SimTime,
    derives: u64,
}

impl ArmTally {
    fn finish(mut self) -> ArmResult {
        self.waits.sort_by(f64::total_cmp);
        let makespan_s = self.t_end.since(self.t0).as_secs_f64().max(1.0);
        ArmResult {
            arm: self.arm,
            arrivals: self.arrivals,
            started: self.started,
            rejected: self.rejected,
            ticks: self.ticks,
            sched_jobs_per_sec: self.started as f64 / self.tick_wall_s.max(1e-9),
            wait_p50_s: report::nearest_rank(&self.waits, 0.50),
            wait_p99_s: report::nearest_rank(&self.waits, 0.99),
            utilization: self.busy_proc_s / (self.capacity as f64 * makespan_s),
            derives_per_tick: self.derives as f64 / self.ticks.max(1) as f64,
            makespan_s,
        }
    }
}

/// Replay a stream through the batched network-and-load-aware broker.
fn run_batched(
    arm: &'static str,
    stream: &[ArrivingJob],
    admission: AdmissionPolicy,
    seed: u64,
) -> ArmResult {
    let mut cluster = iitk_cluster(seed);
    let mut rt = MonitorRuntime::new(&cluster);
    let mut snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("warm snapshot");
    let t0 = snap.taken_at;
    let capacity = effective_capacity(&snap);

    let obs = Obs::new();
    obs.journal.set_min_severity(nlrm_obs::Severity::Error); // counters, not events
    let _g = install(&obs);

    let mut broker = Broker::new(BrokerConfig {
        max_load_per_core: None, // synthetic load profile; §6 advisor off
        admission,
        ..BrokerConfig::default()
    });

    // completion heap keyed by virtual end time
    let mut completions: BinaryHeap<std::cmp::Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut meta: HashMap<JobId, usize> = HashMap::new();
    let mut waits = Vec::new();
    let mut busy_proc_s = 0.0f64;
    let (mut started, mut rejected, mut ticks) = (0usize, 0usize, 0u64);
    let mut tick_wall = 0.0f64;
    let mut next = 0usize;
    let mut t_end = t0;

    let mut now = t0;
    loop {
        // completions due this quantum
        while let Some(&std::cmp::Reverse((end, id))) = completions.peek() {
            if end > now {
                break;
            }
            completions.pop();
            broker.complete_at(id, end);
            t_end = t_end.max(end);
        }
        // arrivals due
        while next < stream.len() && t0 + (stream[next].arrival - SimTime::ZERO) <= now {
            let j = &stream[next];
            let outcome = broker.submit_opts(
                format!("job-{next}"),
                j.request.clone(),
                SubmitOptions {
                    class: j.class,
                    walltime: Some(j.walltime),
                    submitted_at: Some(now),
                },
            );
            match outcome {
                Ok(id) => {
                    meta.insert(id, next);
                }
                Err(AllocError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            next += 1;
        }
        // schedule
        advance(&mut snap, now);
        let w0 = Instant::now();
        let events = broker.tick(&snap);
        tick_wall += w0.elapsed().as_secs_f64();
        ticks += 1;
        for ev in events {
            if let BrokerEvent::Started(lease) = ev {
                let idx = meta[&lease.id];
                let j = &stream[idx];
                started += 1;
                waits.push(now.since(t0 + (j.arrival - SimTime::ZERO)).as_secs_f64());
                busy_proc_s += j.request.procs as f64 * j.walltime.as_secs_f64();
                completions.push(std::cmp::Reverse((now + j.walltime, lease.id)));
            }
        }
        if next >= stream.len() && broker.queued().is_empty() && completions.is_empty() {
            break;
        }
        now += Duration::from_secs(QUANTUM_S);
        assert!(
            now.since(t0).as_secs_f64() < 400.0 * 24.0 * 3600.0,
            "{arm}: stream did not drain within a virtual year"
        );
    }
    let derives = obs.metrics.counter_value("loads_derive_total");
    ArmTally {
        arm,
        arrivals: stream.len(),
        started,
        rejected,
        ticks,
        tick_wall_s: tick_wall,
        waits,
        busy_proc_s,
        capacity,
        t0,
        t_end,
        derives,
    }
    .finish()
}

/// A running job in the Slurm-shaped baseline: (end time, stream index,
/// per-node reserved processes).
type Completion = (SimTime, usize, Vec<(usize, u32)>);

/// Replay a stream through a Slurm-shaped baseline: strict FIFO, head-only
/// (no backfill), first-fit over ascending node ids, no load awareness.
fn run_slurm_baseline(arm: &'static str, stream: &[ArrivingJob], seed: u64) -> ArmResult {
    let mut cluster = iitk_cluster(seed);
    let mut rt = MonitorRuntime::new(&cluster);
    let snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("warm snapshot");
    let t0 = snap.taken_at;
    let capacity = effective_capacity(&snap);
    let ppn = 4u32;
    let n_nodes = snap.nodes.len();

    let mut reserved = vec![0u32; n_nodes];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut completions: BinaryHeap<std::cmp::Reverse<Completion>> = BinaryHeap::new();
    let mut waits = Vec::new();
    let mut busy_proc_s = 0.0f64;
    let (mut started, mut ticks) = (0usize, 0u64);
    let mut tick_wall = 0.0f64;
    let mut next = 0usize;
    let mut t_end = t0;

    let mut now = t0;
    loop {
        while let Some(std::cmp::Reverse((end, _, _))) = completions.peek() {
            if *end > now {
                break;
            }
            let std::cmp::Reverse((end, _, nodes)) = completions.pop().unwrap();
            for (node, procs) in nodes {
                reserved[node] -= procs;
            }
            t_end = t_end.max(end);
        }
        while next < stream.len() && t0 + (stream[next].arrival - SimTime::ZERO) <= now {
            queue.push_back(next);
            next += 1;
        }
        let w0 = Instant::now();
        // strict FIFO: stop at the first job that does not fit
        while let Some(&idx) = queue.front() {
            let j = &stream[idx];
            let mut remaining = j.request.procs;
            let mut picked: Vec<(usize, u32)> = Vec::new();
            for (node, r) in reserved.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                let free = ppn.saturating_sub(*r);
                if free > 0 {
                    let take = free.min(remaining);
                    picked.push((node, take));
                    remaining -= take;
                }
            }
            if remaining > 0 {
                break;
            }
            queue.pop_front();
            for &(node, procs) in &picked {
                reserved[node] += procs;
            }
            started += 1;
            waits.push(now.since(t0 + (j.arrival - SimTime::ZERO)).as_secs_f64());
            busy_proc_s += j.request.procs as f64 * j.walltime.as_secs_f64();
            completions.push(std::cmp::Reverse((now + j.walltime, idx, picked)));
        }
        tick_wall += w0.elapsed().as_secs_f64();
        ticks += 1;
        if next >= stream.len() && queue.is_empty() && completions.is_empty() {
            break;
        }
        now += Duration::from_secs(QUANTUM_S);
        assert!(
            now.since(t0).as_secs_f64() < 400.0 * 24.0 * 3600.0,
            "{arm}: stream did not drain within a virtual year"
        );
    }
    ArmTally {
        arm,
        arrivals: stream.len(),
        started,
        rejected: 0,
        ticks,
        tick_wall_s: tick_wall,
        waits,
        busy_proc_s,
        capacity,
        t0,
        t_end,
        derives: 0,
    }
    .finish()
}

/// Effective process capacity of the warmed cluster under the paper's
/// default weights — the denominator every arm's utilization shares, and
/// the basis for sizing arrival streams.
fn effective_capacity(snap: &ClusterSnapshot) -> u64 {
    let shape = AllocationRequest::minimd(8);
    Loads::derive(
        snap,
        &shape.compute_weights,
        &shape.network_weights,
        shape.ppn,
    )
    .expect("warm snapshot derives")
    .total_capacity()
}

fn main() {
    let quick = report::quick();
    let seed = 0xB20C0DE;
    let (nla_sizes, slurm_size, overload_size): (&[usize], usize, usize) = if quick {
        (&[300], 300, 200)
    } else {
        (&[10_000, 100_000], 10_000, 10_000)
    };

    // capacity for stream sizing (same warm procedure every arm repeats)
    let mut cluster = iitk_cluster(seed);
    let mut rt = MonitorRuntime::new(&cluster);
    let snap = rt
        .warm_snapshot(&mut cluster, Duration::from_secs(360))
        .expect("warm snapshot");
    let capacity = effective_capacity(&snap);
    drop(snap);

    let mut results = Vec::new();
    for &n in nla_sizes {
        if !nlrm_obs::progress::quiet() {
            println!("broker_sweep: nla-batched, {n} arrivals…");
        }
        let stream = make_stream(n, capacity, 0.9, seed);
        results.push(run_batched(
            "nla-batched",
            &stream,
            AdmissionPolicy::Unbounded,
            seed,
        ));
    }
    {
        if !nlrm_obs::progress::quiet() {
            println!("broker_sweep: slurm-baseline, {slurm_size} arrivals…");
        }
        let stream = make_stream(slurm_size, capacity, 0.9, seed);
        results.push(run_slurm_baseline("slurm-baseline", &stream, seed));
    }
    {
        if !nlrm_obs::progress::quiet() {
            println!("broker_sweep: overload-reject, {overload_size} arrivals…");
        }
        let stream = make_stream(overload_size, capacity, 2.0, seed);
        results.push(run_batched(
            "overload-reject",
            &stream,
            AdmissionPolicy::Reject { max_queue: 50 },
            seed,
        ));
    }

    let mut table = Table::new(&[
        "arm",
        "arrivals",
        "started",
        "rejected",
        "jobs/sec",
        "wait_p50_s",
        "wait_p99_s",
        "util",
        "derives/tick",
    ]);
    for r in &results {
        table.row(&[
            r.arm.to_string(),
            r.arrivals.to_string(),
            r.started.to_string(),
            r.rejected.to_string(),
            format!("{:.1}", r.sched_jobs_per_sec),
            format!("{:.1}", r.wait_p50_s),
            format!("{:.1}", r.wait_p99_s),
            format!("{:.3}", r.utilization),
            format!("{:.3}", r.derives_per_tick),
        ]);
    }
    report::write_result("broker_sweep.md", &table.to_markdown()).expect("write md");
    report::write_result("broker_sweep.csv", &table.to_csv()).expect("write csv");

    let arms: Vec<String> = results
        .iter()
        .map(|r| {
            json::object(&[
                ("arm", json::string(r.arm)),
                ("arrivals", r.arrivals.to_string()),
                ("started", r.started.to_string()),
                ("rejected", r.rejected.to_string()),
                ("ticks", r.ticks.to_string()),
                ("sched_jobs_per_sec", json::num(r.sched_jobs_per_sec)),
                ("wait_p50_s", json::num(r.wait_p50_s)),
                ("wait_p99_s", json::num(r.wait_p99_s)),
                ("utilization", json::num(r.utilization)),
                ("derives_per_tick", json::num(r.derives_per_tick)),
                ("makespan_s", json::num(r.makespan_s)),
            ])
        })
        .collect();
    let bench = json::object(&[
        ("bench", json::string("broker_sweep")),
        ("quick", quick.to_string()),
        ("quantum_s", QUANTUM_S.to_string()),
        ("capacity_procs", capacity.to_string()),
        ("arms", json::array(&arms)),
    ]);
    report::write_bench("BENCH_broker.json", quick, &bench).expect("write BENCH_broker.json");
    if !nlrm_obs::progress::quiet() {
        print!("{}", table.to_markdown());
    }

    // self-asserted gates: the committed numbers must tell a sane story
    let nla = results.iter().find(|r| r.arm == "nla-batched").unwrap();
    assert_eq!(nla.started, nla.arrivals, "every admitted job must run");
    assert!(nla.sched_jobs_per_sec > 0.0);
    assert!(
        nla.utilization > 0.3,
        "nla-batched utilization {:.3} too low for a 90% offered load",
        nla.utilization
    );
    assert!(
        nla.derives_per_tick < 2.0,
        "batched cycle should derive ~once per tick, got {:.3}",
        nla.derives_per_tick
    );
    let over = results.iter().find(|r| r.arm == "overload-reject").unwrap();
    assert!(
        over.rejected > 0,
        "2x offered load with a bounded queue must shed work"
    );
}
