//! End-to-end observability report over a faulted broker run.
//!
//! Runs the shared faulted-broker scenario (daemon kills, a master
//! failover, a headless supervision plane, stale node-state samples)
//! with an observer installed, then exports everything the stack
//! recorded:
//!
//! - `results/obs_report.json` — params, summary counters, the full
//!   event journal, the metrics registry, and one explain-trace entry
//!   per granted allocation;
//! - `results/obs_timeline.txt` — the same journal as a human-readable
//!   virtual-time timeline;
//! - `results/obs_metrics.prom` — Prometheus-style text exposition.

use nlrm_bench::report::{self, write_result};
use nlrm_bench::scenario::{self, Decision, ScenarioSpec};
use nlrm_obs::{json, Progress};

fn decision_json(d: &Decision) -> String {
    let nodes: Vec<String> = d
        .nodes
        .iter()
        .map(|n| json::string(&n.to_string()))
        .collect();
    let winner_matches = d
        .explain
        .winner()
        .is_some_and(|w| w.nodes == d.nodes)
        .to_string();
    json::object(&[
        ("job", json::string(&d.job)),
        ("trace", json::string(&d.trace.to_string())),
        ("granted_at_s", json::num(d.granted_at.as_secs_f64())),
        ("nodes", json::array(&nodes)),
        ("cost", json::num(d.cost)),
        ("winner_matches_placement", winner_matches),
        ("explain", d.explain.to_json()),
    ])
}

fn main() {
    let progress = Progress::start("obs_report");
    let quick = report::quick();
    let seed = report::seed(2025);
    let checkpoints = scenario::checkpoints(quick);
    progress.kv("seed", seed);
    progress.kv("checkpoints", checkpoints.len());

    progress.phase("scenario");
    let mut spec = ScenarioSpec::new("obs-report", seed, checkpoints);
    spec.faulted = true;
    spec.submit_huge = true;
    let r = scenario::run(&spec.standard_arrivals(16));
    let journal = &r.obs.journal;
    let metrics = &r.obs.metrics;

    progress.phase("export");
    let params = json::object(&[
        ("seed", seed.to_string()),
        ("nodes", "8".to_string()),
        ("quick", quick.to_string()),
        (
            "checkpoints_s",
            json::array(
                &checkpoints
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    let summary = json::object(&[
        ("failovers", r.failovers.to_string()),
        ("relaunches", r.relaunches.to_string()),
        ("failover_events", journal.count_of("failover").to_string()),
        (
            "relaunch_events",
            journal.count_of("daemon_relaunched").to_string(),
        ),
        (
            "stale_node_exclusions",
            metrics
                .counter_value("loads_stale_node_excluded_total")
                .to_string(),
        ),
        (
            "stale_pairs_blended",
            metrics
                .counter_value("loads_stale_pairs_blended_total")
                .to_string(),
        ),
        ("granted", r.decisions.len().to_string()),
        ("deferred", r.deferred.len().to_string()),
        ("events_recorded", journal.total_recorded().to_string()),
        ("events_dropped", journal.dropped().to_string()),
        ("events_filtered", journal.filtered().to_string()),
    ]);
    let decisions: Vec<String> = r.decisions.iter().map(decision_json).collect();
    let report = json::object(&[
        ("params", params),
        ("summary", summary),
        ("decisions", json::array(&decisions)),
        ("events", journal.to_json_array()),
        ("metrics", metrics.to_json()),
    ]);

    write_result("obs_report.json", &report).expect("write result");
    write_result("obs_timeline.txt", &journal.render_timeline()).expect("write result");
    write_result("obs_metrics.prom", &metrics.to_prometheus()).expect("write result");

    progress.kv("failovers", r.failovers);
    progress.kv("relaunches", r.relaunches);
    progress.kv("granted", r.decisions.len());
    progress.kv("deferred", r.deferred.len());
    progress.block(journal.render_timeline());
    progress.done();
}
