//! Reproduces **Figure 4, Table 2, and Figure 5** of the paper:
//! miniMD strong scaling under the four allocation policies.
//!
//! Grid: processes ∈ {8, 16, 32, 64} (4 per node), problem size
//! s ∈ {8, 16, 24, 32, 40, 48}, each cell run with all four policies on the
//! same monitored snapshot, repeated 5 times with the cluster evolving
//! between repetitions (the paper's protocol, §5.1).
//!
//! Outputs (stdout + `results/`):
//! * `fig4_minimd.csv` — execution time per (procs, s, policy, rep): Fig. 4.
//! * `table2_minimd_gains.md` — average/median/maximum gains: Table 2.
//! * `fig5_load_per_core.md` — mean CPU load per logical core per policy.
//!
//! Env: `NLRM_QUICK=1` shrinks the grid for smoke runs;
//! `NLRM_SEED=<n>` changes the cluster seed (default 2020).

use nlrm_apps::MiniMd;
use nlrm_bench::gains::{GainTable, PolicyTimes};
use nlrm_bench::plot::LinePlot;
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::{paper_policies, Experiment};
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::AllocationRequest;
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;
use std::collections::BTreeMap;

fn main() {
    let progress = Progress::start("fig4_minimd");
    let quick = report::quick();
    let seed = report::seed(2020);
    let (procs_grid, sizes, reps, steps) = if quick {
        (vec![8u32, 32], vec![8u32, 24], 2usize, 30usize)
    } else {
        (
            vec![8u32, 16, 32, 64],
            vec![8u32, 16, 24, 32, 40, 48],
            5usize,
            100usize,
        )
    };

    progress.block("== Fig. 4 / Table 2 / Fig. 5: miniMD strong scaling ==");
    progress.block(format!(
        "grid: procs={procs_grid:?} sizes={sizes:?} reps={reps} steps={steps} seed={seed}\n"
    ));

    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600)); // warm the monitor

    let mut csv = String::from("procs,s,policy,rep,time_s,load_per_core,comm_fraction\n");
    let mut times = PolicyTimes::new();
    // per-configuration CoV over the repetitions (the paper's stability
    // metric), averaged over all cells at the end
    let mut cell_covs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut load_acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();

    for &procs in &procs_grid {
        // per-procs table mirroring one Fig. 4 sub-plot
        let mut fig = Table::new(&[
            "s",
            "random",
            "sequential",
            "load-aware",
            "network-load-aware",
        ]);
        // collect mean-over-reps per policy per size
        let mut cell: BTreeMap<(u32, String), Vec<f64>> = BTreeMap::new();
        for &s in &sizes {
            let req = AllocationRequest::minimd(procs);
            let workload = MiniMd::new(s).with_steps(steps);
            for rep in 0..reps {
                // evolve the shared cluster between repetitions
                env.advance(Duration::from_secs(300));
                let mut policies = paper_policies(seed ^ (rep as u64) << 8 ^ s as u64);
                let results = env
                    .compare(&mut policies, &req, &workload)
                    .expect("allocation failed");
                for r in &results {
                    times.push(&r.policy, r.timing.total_s);
                    cell.entry((s, r.policy.clone()))
                        .or_default()
                        .push(r.timing.total_s);
                    let e = load_acc.entry(r.policy.clone()).or_insert((0.0, 0));
                    e.0 += r.timing.mean_load_per_core;
                    e.1 += 1;
                    csv.push_str(&format!(
                        "{procs},{s},{},{rep},{:.4},{:.4},{:.4}\n",
                        r.policy,
                        r.timing.total_s,
                        r.timing.mean_load_per_core,
                        r.timing.comm_fraction()
                    ));
                }
            }
        }
        for ((_sz, policy), v) in &cell {
            if let Some(sum) = nlrm_sim_core::stats::Summary::of(v) {
                cell_covs.entry(policy.clone()).or_default().push(sum.cov());
            }
        }
        for &s in &sizes {
            let mean = |policy: &str| {
                let v = &cell[&(s, policy.to_string())];
                v.iter().sum::<f64>() / v.len() as f64
            };
            fig.row(&[
                s.to_string(),
                fmt_secs(mean("random")),
                fmt_secs(mean("sequential")),
                fmt_secs(mean("load-aware")),
                fmt_secs(mean("network-load-aware")),
            ]);
        }
        progress.block(format!(
            "-- execution time (s), {procs} processes (mean of {reps} reps) --"
        ));
        progress.block(fig.to_markdown());
        let mut svg = LinePlot::new(
            &format!("fig4: {procs} processes"),
            "s",
            "execution time (s)",
        );
        for policy in ["random", "sequential", "load-aware", "network-load-aware"] {
            svg.series(
                policy,
                sizes
                    .iter()
                    .map(|&x| {
                        let v = &cell[&(x, policy.to_string())];
                        (x as f64, v.iter().sum::<f64>() / v.len() as f64)
                    })
                    .collect(),
            );
        }
        write_result(&format!("fig4_p{procs}.svg"), &svg.to_svg(560, 340)).expect("write result");
    }

    // Table 2
    let table2 = GainTable::build(&times, "network-load-aware");
    progress.block("-- Table 2: percentage gain of network-and-load-aware --");
    progress.block(table2.to_markdown());

    // Fig. 5 + CoV
    let mut fig5 = Table::new(&["policy", "mean load per logical core", "CoV of exec times"]);
    for policy in times.policies() {
        let (sum, n) = load_acc[&policy];
        let covs = &cell_covs[&policy];
        fig5.row(&[
            policy.clone(),
            format!("{:.2}", sum / n as f64),
            format!("{:.2}", covs.iter().sum::<f64>() / covs.len() as f64),
        ]);
    }
    progress.block("-- Fig. 5: CPU load per logical core during runs --");
    progress.block(fig5.to_markdown());

    write_result("fig4_minimd.csv", &csv).expect("write result");
    write_result("table2_minimd_gains.md", &table2.to_markdown()).expect("write result");
    write_result("fig5_load_per_core.md", &fig5.to_markdown()).expect("write result");
}
