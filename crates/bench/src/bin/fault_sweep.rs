//! Fault sweep: daemon kill-rate vs. allocation quality.
//!
//! The monitoring stack is the allocator's only window on the cluster, so
//! the interesting failure question is not "do daemons crash?" but "how
//! much allocation quality survives when they do?". This sweep injects
//! random daemon faults (kill / hang / delayed writes) at a per-round
//! probability swept from 0 to 0.3, plus one master central-monitor kill
//! per faulty run, then measures the network-and-load-aware allocator at
//! checkpoints while the supervisor relaunches what died.
//!
//! Output: `results/fault_sweep.json` — per-trial rows plus per-rate
//! summary (allocation success rate, mean job time, relaunch/failover
//! counts).

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::{AllocationRequest, NetworkLoadAwarePolicy};
use nlrm_monitor::{DaemonKind, FaultTarget, MonitorFaultPlan};
use nlrm_obs::Progress;
use nlrm_sim_core::fault::FaultAction;
use nlrm_sim_core::rng::RngFactory;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use rand::Rng;

/// One allocation checkpoint under a faulty monitoring stack.
struct TrialRow {
    kill_rate: f64,
    rep: usize,
    checkpoint_s: u64,
    alloc_ok: bool,
    time_s: f64,
    usable_nodes: usize,
    relaunches: usize,
    failovers: usize,
}

/// Random fault plan: every `round_s` seconds each daemon is hit with
/// probability `rate`; the action is a kill half the time, otherwise a
/// hang or a write delay of 1–5 minutes. One master kill is scheduled
/// mid-run whenever `rate > 0`.
fn random_plan(
    rate: f64,
    n_nodes: usize,
    start_s: u64,
    end_s: u64,
    round_s: u64,
    rng: &mut impl Rng,
) -> MonitorFaultPlan {
    let mut plan = MonitorFaultPlan::new();
    let mut kinds: Vec<DaemonKind> = vec![
        DaemonKind::Livehosts,
        DaemonKind::Latency,
        DaemonKind::Bandwidth,
    ];
    kinds.extend((0..n_nodes).map(|i| DaemonKind::NodeState(NodeId(i as u32))));
    let mut t = start_s;
    while t < end_s {
        for &kind in &kinds {
            if rate > 0.0 && rng.gen_bool(rate) {
                let action = match rng.gen_range(0..4) {
                    0 | 1 => FaultAction::Kill,
                    2 => FaultAction::Hang(Duration::from_secs(rng.gen_range(60..300))),
                    _ => FaultAction::Delay(Duration::from_secs(rng.gen_range(60..300))),
                };
                plan.schedule(SimTime::from_secs(t), FaultTarget::Daemon(kind), action);
            }
        }
        t += round_s;
    }
    if rate > 0.0 {
        let mid = start_s + (end_s - start_s) / 2;
        plan.schedule(
            SimTime::from_secs(mid),
            FaultTarget::Master,
            FaultAction::Kill,
        );
    }
    plan
}

fn main() {
    let progress = Progress::start("fault_sweep");
    let quick = report::quick();
    let seed = report::seed(2025);
    let reps = if quick { 2 } else { 4 };
    let steps = if quick { 10 } else { 40 };
    let checkpoints: &[u64] = if quick {
        &[900, 1800]
    } else {
        &[600, 1200, 1800, 2400]
    };
    let rates = [0.0, 0.05, 0.1, 0.2, 0.3];

    progress.block(format!(
        "== Fault sweep: daemon kill-rate vs allocation quality (reps {reps}, seed {seed}) ==\n"
    ));

    let factory = RngFactory::new(seed);
    let workload = MiniMd::new(16).with_steps(steps);
    let req = AllocationRequest::minimd(16);
    let end_s = checkpoints.last().copied().unwrap() + 300;

    let mut rows: Vec<TrialRow> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        for rep in 0..reps {
            let mut env = Experiment::new(iitk_cluster(seed + rep as u64));
            let n_nodes = env.cluster.num_nodes();
            env.advance(Duration::from_secs(360));
            let mut rng = factory.stream("fault-plan", (ri * 100 + rep) as u64);
            let plan = random_plan(rate, n_nodes, 400, end_s, 60, &mut rng);
            env.monitor.set_fault_plan(plan);
            for &cp in checkpoints {
                let target = SimTime::from_secs(cp);
                let d = target.since(env.cluster.now());
                env.advance(d);
                let snap = env.snapshot();
                let trial =
                    env.run_policy(&mut NetworkLoadAwarePolicy::new(), &snap, &req, &workload);
                let (ok, time_s) = match trial {
                    Ok(r) => (true, r.timing.total_s),
                    Err(_) => (false, f64::NAN),
                };
                rows.push(TrialRow {
                    kill_rate: rate,
                    rep,
                    checkpoint_s: cp,
                    alloc_ok: ok,
                    time_s,
                    usable_nodes: snap.usable_nodes().len(),
                    relaunches: env.monitor.central().relaunch_count,
                    failovers: env.monitor.central().failover_count,
                });
            }
        }
    }

    // per-rate summary
    let mut table = Table::new(&[
        "kill rate",
        "alloc success",
        "mean time (s)",
        "vs fault-free",
        "relaunches",
        "failovers",
    ]);
    let mut summaries: Vec<(f64, f64, f64, usize, usize)> = Vec::new();
    for &rate in &rates {
        let sel: Vec<&TrialRow> = rows.iter().filter(|r| r.kill_rate == rate).collect();
        let ok: Vec<&&TrialRow> = sel.iter().filter(|r| r.alloc_ok).collect();
        let success = ok.len() as f64 / sel.len() as f64;
        let mean_time = if ok.is_empty() {
            f64::NAN
        } else {
            ok.iter().map(|r| r.time_s).sum::<f64>() / ok.len() as f64
        };
        let relaunches = sel.iter().map(|r| r.relaunches).max().unwrap_or(0);
        let failovers = sel.iter().map(|r| r.failovers).max().unwrap_or(0);
        summaries.push((rate, success, mean_time, relaunches, failovers));
    }
    let base_time = summaries[0].2;
    for &(rate, success, mean_time, relaunches, failovers) in &summaries {
        table.row(&[
            format!("{rate:.2}"),
            format!("{:.0}%", success * 100.0),
            format!("{mean_time:.2}"),
            format!("{:+.1}%", (mean_time / base_time - 1.0) * 100.0),
            format!("{relaunches}"),
            format!("{failovers}"),
        ]);
    }
    progress.block(table.to_markdown());
    progress.block("(expected: success stays 100% and time degrades gracefully while the");
    progress.block(" supervisor keeps relaunching daemons; stale data, not crashes, costs time)");

    // hand-rolled JSON (no serde_json in the tree)
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n  \"reps\": {reps},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let time = if r.time_s.is_nan() {
            "null".to_string()
        } else {
            format!("{:.4}", r.time_s)
        };
        json.push_str(&format!(
            "    {{\"kill_rate\": {}, \"rep\": {}, \"checkpoint_s\": {}, \"alloc_ok\": {}, \
             \"time_s\": {}, \"usable_nodes\": {}, \"relaunches\": {}, \"failovers\": {}}}{}\n",
            r.kill_rate,
            r.rep,
            r.checkpoint_s,
            r.alloc_ok,
            time,
            r.usable_nodes,
            r.relaunches,
            r.failovers,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"summary\": [\n");
    for (i, &(rate, success, mean_time, relaunches, failovers)) in summaries.iter().enumerate() {
        let time = if mean_time.is_nan() {
            "null".to_string()
        } else {
            format!("{mean_time:.4}")
        };
        json.push_str(&format!(
            "    {{\"kill_rate\": {rate}, \"alloc_success\": {success:.4}, \"mean_time_s\": {time}, \
             \"relaunches\": {relaunches}, \"failovers\": {failovers}}}{}\n",
            if i + 1 == summaries.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    write_result("fault_sweep.json", &json).expect("write result");
}
