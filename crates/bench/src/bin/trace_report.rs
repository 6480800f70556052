//! Causal span traces over a faulted multi-job broker run.
//!
//! Runs the traced broker scenario (the shared fault storyline plus real
//! traced execution of every granted job), then exports the span store
//! three ways:
//!
//! - `results/trace_report.json` — params, per-job lifecycle summaries,
//!   and each job's critical path with per-kind time attribution;
//! - `results/trace_report.chrome.json` — Chrome trace-event JSON; load
//!   it in <https://ui.perfetto.dev> (or `chrome://tracing`) to see the
//!   whole run on node/daemon tracks;
//! - `results/trace_summary.txt` — indented per-trace text rendering;
//! - `results/trace_report.md` — the critical-path table.

use nlrm_bench::report::{self, fmt_secs, write_result, Table};
use nlrm_bench::scenario;
use nlrm_bench::trace_scenario::{run_traced_broker_scenario, TracedJob};
use nlrm_obs::{json, Progress, SpanStore};

fn job_json(spans: &SpanStore, job: &TracedJob) -> String {
    let nodes: Vec<String> = job
        .nodes
        .iter()
        .map(|n| json::string(&n.to_string()))
        .collect();
    let path = spans
        .critical_path(job.trace)
        .expect("every executed job has a critical path");
    json::object(&[
        ("job", json::string(&job.name)),
        ("trace", json::string(&job.trace.to_string())),
        ("submitted_at_s", json::num(job.submitted_at.as_secs_f64())),
        ("granted_at_s", json::num(job.granted_at.as_secs_f64())),
        ("completed_at_s", json::num(job.completed_at.as_secs_f64())),
        ("queue_wait_s", json::num(job.queue_wait().as_secs_f64())),
        ("lifecycle_s", json::num(job.lifecycle().as_secs_f64())),
        ("exec_total_s", json::num(job.timing.total_s)),
        ("exec_compute_s", json::num(job.timing.compute_s)),
        ("exec_comm_s", json::num(job.timing.comm_s)),
        ("steps", job.timing.steps.to_string()),
        ("nodes", json::array(&nodes)),
        ("critical_path", path.to_json()),
    ])
}

fn main() {
    let progress = Progress::start("trace_report");
    let quick = report::quick();
    let seed = report::seed(2025);
    let checkpoints = scenario::checkpoints(quick);
    progress.kv("seed", seed);
    progress.kv("checkpoints", checkpoints.len());

    progress.phase("scenario");
    let r = run_traced_broker_scenario(seed, checkpoints);
    let spans = &r.obs.spans;

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
        ("jobs", r.jobs.len().to_string()),
        ("deferred", r.deferred.len().to_string()),
        ("spans_recorded", spans.len().to_string()),
        ("spans_open", spans.open_count().to_string()),
        ("spans_dropped", spans.dropped().to_string()),
        ("traces", spans.trace_ids().len().to_string()),
    ]);
    let jobs: Vec<String> = r.jobs.iter().map(|j| job_json(spans, j)).collect();
    let report = json::object(&[
        ("params", params),
        ("summary", summary),
        ("jobs", json::array(&jobs)),
    ]);
    let chrome = spans.to_chrome_json();
    json::validate(&report).expect("trace_report.json must be valid JSON");
    json::validate(&chrome).expect("chrome export must be valid JSON");

    let mut table = Table::new(&[
        "job",
        "trace",
        "queue_wait_s",
        "exec_s",
        "lifecycle_s",
        "path_kinds",
        "dominant_kind",
    ]);
    let mut summaries = String::new();
    for job in &r.jobs {
        let path = spans.critical_path(job.trace).expect("critical path");
        let by_kind = path.by_kind();
        let dominant = by_kind
            .first()
            .map(|(kind, d)| format!("{kind} ({})", fmt_secs(d.as_secs_f64())))
            .unwrap_or_default();
        table.row(&[
            job.name.clone(),
            job.trace.to_string(),
            fmt_secs(job.queue_wait().as_secs_f64()),
            fmt_secs(job.timing.total_s),
            fmt_secs(job.lifecycle().as_secs_f64()),
            path.kind_count().to_string(),
            dominant,
        ]);
        summaries.push_str(&spans.render_trace(job.trace));
        summaries.push('\n');
    }

    write_result("trace_report.json", &report).expect("write result");
    write_result("trace_report.chrome.json", &chrome).expect("write result");
    write_result("trace_summary.txt", &summaries).expect("write result");
    write_result("trace_report.md", &table.to_markdown()).expect("write result");

    progress.kv("jobs", r.jobs.len());
    progress.kv("spans", spans.len());
    progress.kv("deferred", r.deferred.len());
    progress.block(table.to_markdown());
    progress.done();
}
