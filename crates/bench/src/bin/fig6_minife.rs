//! Reproduces **Figure 6 and Table 3** of the paper: miniFE strong scaling
//! under the four allocation policies.
//!
//! Grid: processes ∈ {8, 16, 32, 48} (4 per node), problem dimension
//! nx ∈ {48, 96, 144, 256, 384} with ny = nz = nx, all four policies on the
//! same snapshot, 5 repetitions (paper §5.2; miniFE request uses α = 0.4,
//! β = 0.6).
//!
//! Outputs: `results/fig6_minife.csv`, `results/table3_minife_gains.md`.
//!
//! Env: `NLRM_QUICK=1` shrinks the grid; `NLRM_SEED=<n>` reseeds.

use nlrm_apps::MiniFe;
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
    let progress = Progress::start("fig6_minife");
    let quick = report::quick();
    let seed = report::seed(2021);
    let (procs_grid, sizes, reps, iters) = if quick {
        (vec![8u32, 32], vec![48u32, 144], 2usize, 30usize)
    } else {
        (
            vec![8u32, 16, 32, 48],
            vec![48u32, 96, 144, 256, 384],
            5usize,
            200usize,
        )
    };

    progress.block("== Fig. 6 / Table 3: miniFE strong scaling ==");
    progress.block(format!(
        "grid: procs={procs_grid:?} nx={sizes:?} reps={reps} iters={iters} seed={seed}\n"
    ));

    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));

    let mut csv = String::from("procs,nx,policy,rep,time_s,load_per_core,comm_fraction\n");
    let mut times = PolicyTimes::new();
    // per-configuration CoV over the repetitions (the paper's stability
    // metric), averaged over all cells at the end
    let mut cell_covs: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    for &procs in &procs_grid {
        let mut fig = Table::new(&[
            "nx",
            "random",
            "sequential",
            "load-aware",
            "network-load-aware",
        ]);
        let mut cell: BTreeMap<(u32, String), Vec<f64>> = BTreeMap::new();
        for &nx in &sizes {
            let req = AllocationRequest::minife(procs);
            let workload = MiniFe::new(nx).with_iterations(iters);
            for rep in 0..reps {
                env.advance(Duration::from_secs(300));
                let mut policies = paper_policies(seed ^ ((rep as u64) << 8) ^ nx as u64);
                let results = env
                    .compare(&mut policies, &req, &workload)
                    .expect("allocation failed");
                for r in &results {
                    times.push(&r.policy, r.timing.total_s);
                    cell.entry((nx, r.policy.clone()))
                        .or_default()
                        .push(r.timing.total_s);
                    csv.push_str(&format!(
                        "{procs},{nx},{},{rep},{:.4},{:.4},{:.4}\n",
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
        for &nx in &sizes {
            let mean = |policy: &str| {
                let v = &cell[&(nx, policy.to_string())];
                v.iter().sum::<f64>() / v.len() as f64
            };
            fig.row(&[
                nx.to_string(),
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
            &format!("fig6: {procs} processes"),
            "nx",
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
        write_result(&format!("fig6_p{procs}.svg"), &svg.to_svg(560, 340)).expect("write result");
    }

    let table3 = GainTable::build(&times, "network-load-aware");
    progress.block("-- Table 3: percentage gain of network-and-load-aware --");
    progress.block(table3.to_markdown());

    let mut cov = Table::new(&["policy", "CoV of exec times"]);
    for policy in times.policies() {
        let covs = &cell_covs[&policy];
        cov.row(&[
            policy.clone(),
            format!("{:.2}", covs.iter().sum::<f64>() / covs.len() as f64),
        ]);
    }
    progress
        .block("-- run stability (paper §5.2: NLA 0.05 < load-aware 0.08 < sequential 0.11) --");
    progress.block(cov.to_markdown());

    write_result("fig6_minife.csv", &csv).expect("write result");
    write_result("table3_minife_gains.md", &table3.to_markdown()).expect("write result");
}
