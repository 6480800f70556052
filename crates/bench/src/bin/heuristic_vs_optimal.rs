//! Validation: the greedy heuristic (Algorithms 1–2) against the exhaustive
//! optimum.
//!
//! The paper argues brute-force sub-graph search "would not scale well" and
//! offers the O(V² log V) greedy instead, without quantifying the quality
//! gap. This experiment measures it on clusters small enough to enumerate:
//! for each trial, both allocators score their chosen group under the same
//! globally-normalized Eq. 4 objective, and both groups execute the same
//! miniMD run.
//!
//! Output: `results/heuristic_vs_optimal.csv`.

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::small_cluster;
use nlrm_core::loads::Loads;
use nlrm_core::select::group_cost;
use nlrm_core::{AllocationRequest, BruteForcePolicy, NetworkLoadAwarePolicy};
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn main() {
    let progress = Progress::start("heuristic_vs_optimal");
    let quick = report::quick();
    let seed = report::seed(2026);
    let trials = if quick { 5 } else { 20 };
    let cluster_sizes = [10usize, 12, 14, 16];

    progress.block(format!(
        "== Heuristic vs brute-force optimum (trials {trials}/size, seed {seed}) ==\n"
    ));
    let mut table = Table::new(&[
        "cluster size",
        "mean cost gap",
        "max cost gap",
        "optimal group found",
        "mean time gap",
    ]);
    let mut csv = String::from(
        "cluster_size,trial,heuristic_cost,optimal_cost,heuristic_time_s,optimal_time_s\n",
    );

    for &n in &cluster_sizes {
        let mut env = Experiment::new(small_cluster(n, seed + n as u64));
        env.advance(Duration::from_secs(600));
        let req = AllocationRequest::minimd(16); // 4 nodes of `n`
        let workload = MiniMd::new(16).with_steps(if quick { 20 } else { 50 });

        let mut cost_gaps = Vec::new();
        let mut time_gaps = Vec::new();
        let mut exact_hits = 0usize;
        for trial in 0..trials {
            env.advance(Duration::from_secs(300));
            let snap = env.snapshot();
            let loads = Loads::derive(&snap, &req.compute_weights, &req.network_weights, req.ppn)
                .expect("loads");
            let h = env
                .run_policy(&mut NetworkLoadAwarePolicy::new(), &snap, &req, &workload)
                .expect("heuristic");
            let o = env
                .run_policy(&mut BruteForcePolicy::new(), &snap, &req, &workload)
                .expect("brute force");
            let hc = group_cost(&loads, &h.allocation.node_list(), req.alpha, req.beta);
            let oc = group_cost(&loads, &o.allocation.node_list(), req.alpha, req.beta);
            assert!(oc <= hc + 1e-9, "optimum must not be worse: {oc} vs {hc}");
            let mut h_nodes = h.allocation.node_list();
            let mut o_nodes = o.allocation.node_list();
            h_nodes.sort();
            o_nodes.sort();
            if h_nodes == o_nodes {
                exact_hits += 1;
            }
            cost_gaps.push(if oc > 0.0 { hc / oc - 1.0 } else { 0.0 });
            time_gaps.push(h.timing.total_s / o.timing.total_s - 1.0);
            csv.push_str(&format!(
                "{n},{trial},{hc:.6},{oc:.6},{:.4},{:.4}\n",
                h.timing.total_s, o.timing.total_s
            ));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        table.row(&[
            n.to_string(),
            format!("{:+.1}%", mean(&cost_gaps) * 100.0),
            format!("{:+.1}%", max(&cost_gaps) * 100.0),
            format!("{exact_hits}/{trials}"),
            format!("{:+.1}%", mean(&time_gaps) * 100.0),
        ]);
    }
    progress.block(table.to_markdown());
    progress.block("(cost gap: Eq. 4 objective of greedy ÷ optimum − 1; time gap: execution time)");
    write_result("heuristic_vs_optimal.csv", &csv).expect("write result");
}
