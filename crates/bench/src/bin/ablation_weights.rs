//! Ablation: SAW attribute-weight sensitivity (Eq. 1) and the
//! latency/bandwidth split (Eq. 2).
//!
//! The paper fixes the compute weights at (0.3, 0.2, 0.2, 0.1, 0.1, 0.05,
//! 0.05) and `w_lt/w_bw` at 0.25/0.75 without a sensitivity study. This
//! ablation runs miniMD under alternative weightings — the paper's default,
//! the compute-intensive and network-intensive presets, uniform weights,
//! and three `w_lt/w_bw` splits — quantifying how much the exact numbers
//! matter versus merely *having* both signals.
//!
//! Output: `results/ablation_weights.csv`.

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::{AllocationRequest, ComputeWeights, NetworkLoadAwarePolicy, NetworkWeights};
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn uniform_weights() -> ComputeWeights {
    ComputeWeights {
        cpu_load: 0.125,
        cpu_util: 0.125,
        flow_rate: 0.125,
        memory: 0.125,
        core_count: 0.125,
        cpu_freq: 0.125,
        total_mem: 0.125,
        users: 0.125,
    }
}

fn main() {
    let progress = Progress::start("ablation_weights");
    let quick = report::quick();
    let seed = report::seed(2024);
    let reps = if quick { 2 } else { 5 };
    let steps = if quick { 30 } else { 100 };

    progress.block(format!(
        "== Ablation: attribute weights (reps {reps}, seed {seed}) ==\n"
    ));
    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));
    let workload = MiniMd::new(16).with_steps(steps);

    let variants: Vec<(&str, ComputeWeights, NetworkWeights)> = vec![
        (
            "paper default",
            ComputeWeights::paper_default(),
            NetworkWeights::paper_default(),
        ),
        (
            "compute-intensive preset",
            ComputeWeights::compute_intensive(),
            NetworkWeights::paper_default(),
        ),
        (
            "network-intensive preset",
            ComputeWeights::network_intensive(),
            NetworkWeights::paper_default(),
        ),
        (
            "uniform compute weights",
            uniform_weights(),
            NetworkWeights::paper_default(),
        ),
        (
            "latency-heavy (w_lt=0.75)",
            ComputeWeights::paper_default(),
            NetworkWeights {
                latency: 0.75,
                bandwidth: 0.25,
            },
        ),
        (
            "bandwidth-only (w_bw=1.0)",
            ComputeWeights::paper_default(),
            NetworkWeights {
                latency: 0.0,
                bandwidth: 1.0,
            },
        ),
        (
            "latency-only (w_lt=1.0)",
            ComputeWeights::paper_default(),
            NetworkWeights {
                latency: 1.0,
                bandwidth: 0.0,
            },
        ),
    ];

    let mut table = Table::new(&["variant", "mean time (s)", "vs paper default"]);
    let mut csv = String::from("variant,rep,time_s\n");
    let mut means = Vec::new();
    for (name, cw, nw) in &variants {
        let mut req = AllocationRequest::minimd(32);
        req.compute_weights = *cw;
        req.network_weights = *nw;
        let mut sum = 0.0;
        for rep in 0..reps {
            env.advance(Duration::from_secs(300));
            let snap = env.snapshot();
            let r = env
                .run_policy(&mut NetworkLoadAwarePolicy::new(), &snap, &req, &workload)
                .expect("allocation failed");
            sum += r.timing.total_s;
            csv.push_str(&format!("{name},{rep},{:.4}\n", r.timing.total_s));
        }
        means.push(sum / reps as f64);
    }
    for (i, (name, _, _)) in variants.iter().enumerate() {
        table.row(&[
            name.to_string(),
            fmt_secs(means[i]),
            format!("{:+.1}%", (means[i] / means[0] - 1.0) * 100.0),
        ]);
    }
    progress.block(table.to_markdown());
    write_result("ablation_weights.csv", &csv).expect("write result");
}
