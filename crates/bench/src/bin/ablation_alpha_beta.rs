//! Ablation: the α/β compute-vs-network mix of Eq. 4.
//!
//! The paper sets (α, β) = (0.3, 0.7) for miniMD and (0.4, 0.6) for miniFE
//! "determined empirically" (§5). This sweep regenerates that choice: it
//! runs both applications under α ∈ {0, 0.1, …, 1.0} and reports mean
//! execution time, showing the U-shape the authors tuned against —
//! α too high ignores the network, α too low tolerates overloaded nodes.
//!
//! Output: `results/ablation_alpha_beta.csv`.

use nlrm_apps::{MiniFe, MiniMd};
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::{AllocationRequest, NetworkLoadAwarePolicy};
use nlrm_mpi::pattern::Workload;
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn main() {
    let progress = Progress::start("ablation_alpha_beta");
    let quick = report::quick();
    let seed = report::seed(2023);
    let reps = if quick { 2 } else { 5 };
    let alphas: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();

    progress.block(format!(
        "== Ablation: α/β mix of Eq. 4 (reps {reps}, seed {seed}) ==\n"
    ));
    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));

    let minimd = MiniMd::new(16).with_steps(if quick { 30 } else { 100 });
    let minife = MiniFe::new(96).with_iterations(if quick { 30 } else { 100 });
    let apps: Vec<(&str, &dyn Workload, u32)> = vec![
        ("miniMD(s=16)", &minimd, 32),
        ("miniFE(nx=96)", &minife, 32),
    ];

    let mut table = Table::new(&["alpha", "miniMD(s=16) mean s", "miniFE(nx=96) mean s"]);
    let mut csv = String::from("alpha,app,rep,time_s\n");
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for &alpha in &alphas {
        let mut means = Vec::new();
        for &(name, workload, procs) in &apps {
            let req = AllocationRequest::new(procs, Some(4), alpha, 1.0 - alpha);
            let mut sum = 0.0;
            for rep in 0..reps {
                env.advance(Duration::from_secs(300));
                let snap = env.snapshot();
                let r = env
                    .run_policy(&mut NetworkLoadAwarePolicy::new(), &snap, &req, workload)
                    .expect("allocation failed");
                sum += r.timing.total_s;
                csv.push_str(&format!("{alpha},{name},{rep},{:.4}\n", r.timing.total_s));
            }
            means.push(sum / reps as f64);
        }
        table.row(&[
            format!("{alpha:.1}"),
            fmt_secs(means[0]),
            fmt_secs(means[1]),
        ]);
        rows.push(means);
    }
    progress.block(table.to_markdown());
    let best_md = alphas[argmin(rows.iter().map(|r| r[0]))];
    let best_fe = alphas[argmin(rows.iter().map(|r| r[1]))];
    progress.block(format!(
        "best α: miniMD {best_md:.1} (paper used 0.3), miniFE {best_fe:.1} (paper used 0.4)"
    ));
    write_result("ablation_alpha_beta.csv", &csv).expect("write result");
}

fn argmin(iter: impl Iterator<Item = f64>) -> usize {
    iter.enumerate()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("non-empty")
}
