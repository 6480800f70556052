//! Ablation: NWS-style forecasting vs stale snapshots.
//!
//! Extends `ablation_staleness`: when the allocator must decide on data
//! that is Δ old (slow daemons, long queues), does projecting the snapshot
//! with the [`ForecastEngine`]
//! recover part of the loss? Three allocators face the same Δ-stale world:
//!
//! * **oracle** — decides on a fresh snapshot (upper bound),
//! * **stale**  — decides on the Δ-old snapshot as-is,
//! * **forecast** — decides on the Δ-old snapshot projected forward by an
//!   engine trained on the preceding monitoring history.
//!
//! Output: `results/ablation_forecast.csv`.

use nlrm_apps::MiniMd;
use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::runner::Experiment;
use nlrm_cluster::iitk::iitk_cluster;
use nlrm_core::{AllocationRequest, NetworkLoadAwarePolicy};
use nlrm_monitor::forecast::ForecastEngine;
use nlrm_obs::Progress;
use nlrm_sim_core::time::Duration;

fn main() {
    let progress = Progress::start("ablation_forecast");
    let quick = report::quick();
    let seed = report::seed(2027);
    let reps = if quick { 3 } else { 8 };
    let steps = if quick { 30 } else { 100 };
    let delays_s: Vec<u64> = vec![300, 900, 1800];

    progress.block(format!(
        "== Ablation: forecasting vs staleness (reps {reps}, seed {seed}) ==\n"
    ));
    let mut env = Experiment::new(iitk_cluster(seed));
    env.advance(Duration::from_secs(600));
    let workload = MiniMd::new(16).with_steps(steps);
    let req = AllocationRequest::minimd(32);

    let mut table = Table::new(&[
        "staleness",
        "oracle (fresh)",
        "stale",
        "forecast",
        "recovered",
    ]);
    let mut csv = String::from("staleness_s,variant,rep,time_s\n");

    for &delay in &delays_s {
        let mut sums = [0.0f64; 3];
        for rep in 0..reps {
            env.advance(Duration::from_secs(300));

            // train an engine on the last ~20 minutes of snapshots
            let mut engine = ForecastEngine::new(env.cluster.num_nodes());
            let mut trainer = env.clone();
            for _ in 0..20 {
                trainer.advance(Duration::from_secs(60));
                engine.observe(&trainer.snapshot());
            }
            // `trainer` is now the decision instant; its snapshot is fresh…
            let fresh = trainer.snapshot();
            // …while the decision-time world for stale variants is the
            // snapshot from `delay` earlier
            let mut stale_source = env.clone();
            let lead = (20u64 * 60).saturating_sub(delay);
            stale_source.advance(Duration::from_secs(lead));
            let stale = stale_source.snapshot();
            let projected = engine.project(&stale);

            let variants = [
                ("oracle", &fresh),
                ("stale", &stale),
                ("forecast", &projected),
            ];
            for (i, (name, snap)) in variants.iter().enumerate() {
                let r = trainer
                    .run_policy(&mut NetworkLoadAwarePolicy::new(), snap, &req, &workload)
                    .expect("allocation failed");
                sums[i] += r.timing.total_s;
                csv.push_str(&format!("{delay},{name},{rep},{:.4}\n", r.timing.total_s));
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / reps as f64).collect();
        let (oracle, stale, forecast) = (means[0], means[1], means[2]);
        let recovered = if stale > oracle {
            ((stale - forecast) / (stale - oracle) * 100.0).clamp(-999.0, 100.0)
        } else {
            0.0
        };
        table.row(&[
            format!("{delay} s"),
            fmt_secs(oracle),
            fmt_secs(stale),
            fmt_secs(forecast),
            format!("{recovered:.0}%"),
        ]);
    }
    progress.block(table.to_markdown());
    progress.block("('recovered' = share of the stale-vs-oracle gap closed by forecasting)");
    write_result("ablation_forecast.csv", &csv).expect("write result");
}
