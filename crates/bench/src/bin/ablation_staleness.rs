//! Ablation: monitoring staleness.
//!
//! The paper's daemons sample node state every 3–10 s, latency every minute
//! and bandwidth every 5 minutes (§4), so the allocator always decides on
//! slightly stale data. This ablation quantifies the cost of staleness: the
//! allocator decides on a snapshot frozen Δ ago while the cluster moved on,
//! for Δ from 0 to 2 hours. It isolates exactly what the paper's monitoring
//! frequency buys.
//!
//! Output: `results/ablation_staleness.csv`.

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::{AllocationRequest, NetworkLoadAwarePolicy};
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn main() {
    let progress = Progress::start("ablation_staleness");
    let quick = report::quick();
    let seed = report::seed(2025);
    let reps = if quick { 2 } else { 5 };
    let steps = if quick { 30 } else { 100 };
    let delays_s: Vec<u64> = vec![0, 60, 300, 900, 1800, 3600, 7200];

    progress.block(format!(
        "== Ablation: snapshot staleness (reps {reps}, seed {seed}) ==\n"
    ));
    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));
    let workload = MiniMd::new(16).with_steps(steps);
    let req = AllocationRequest::minimd(32);

    let mut table = Table::new(&["staleness", "mean time (s)", "vs fresh"]);
    let mut csv = String::from("staleness_s,rep,time_s\n");
    let mut means = Vec::new();
    for &delay in &delays_s {
        let mut sum = 0.0;
        for rep in 0..reps {
            env.advance(Duration::from_secs(300));
            // freeze the snapshot now…
            let snap = env.snapshot();
            // …then let the cluster evolve for `delay` before the job starts
            let mut stale_env = env.clone();
            stale_env.advance(Duration::from_secs(delay));
            let r = stale_env
                .run_policy(&mut NetworkLoadAwarePolicy::new(), &snap, &req, &workload)
                .expect("allocation failed");
            sum += r.timing.total_s;
            csv.push_str(&format!("{delay},{rep},{:.4}\n", r.timing.total_s));
        }
        means.push(sum / reps as f64);
    }
    for (i, &delay) in delays_s.iter().enumerate() {
        table.row(&[
            format!("{delay} s"),
            fmt_secs(means[i]),
            format!("{:+.1}%", (means[i] / means[0] - 1.0) * 100.0),
        ]);
    }
    progress.block(table.to_markdown());
    progress.block("(expected: fresh ≈ minute-old snapshots, degradation growing past the");
    progress.block(" background processes' correlation time — stale data ≈ random placement)");
    write_result("ablation_staleness.csv", &csv).expect("write result");
}
