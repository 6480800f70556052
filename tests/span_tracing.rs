//! Integration test: causal span tracing covers the whole job lifecycle.
//!
//! The traced broker scenario (shared fault storyline + real traced
//! execution of every granted job) must produce, for every job: a root
//! `job` span spanning submission→completion, a `queue_wait` span whose
//! interval is byte-for-byte the wait the broker's histogram observed,
//! an execution subtree nested inside the grant, and a critical path
//! whose segments tile the root interval exactly. The Chrome export of
//! the whole store must be valid JSON.

use nlrm::bench::scenario::QUICK_CHECKPOINTS;
use nlrm::bench::trace_scenario::run_traced_broker_scenario;
use nlrm::obs::{json, Span, TraceId};
use std::collections::BTreeMap;

#[test]
fn traces_nest_attribute_waits_and_tile_the_lifecycle() {
    let r = run_traced_broker_scenario(2025, QUICK_CHECKPOINTS);
    let spans = &r.obs.spans;

    // Every span the run opened was closed, nothing was dropped.
    assert_eq!(spans.open_count(), 0, "dangling open spans");
    assert_eq!(spans.dropped(), 0, "span store overflowed");

    assert_eq!(r.jobs.len(), QUICK_CHECKPOINTS.len());
    // f64, accumulated in grant order: the histogram summed the same
    // values in the same order, so the comparison below is exact.
    let mut total_wait = 0.0;
    for job in &r.jobs {
        let trace = spans.trace_spans(job.trace);
        let by_id: BTreeMap<u64, &Span> = trace.iter().map(|s| (s.id.0, s)).collect();

        // --- root covers the whole lifecycle ---
        let root = spans
            .root_of(job.trace)
            .unwrap_or_else(|| panic!("{} has no root span", job.name));
        assert_eq!(root.kind, "job");
        assert_eq!(root.start, job.submitted_at);
        assert_eq!(root.end, Some(job.completed_at));

        // --- every child interval sits inside its parent's ---
        for s in &trace {
            let Some(parent) = s.parent.and_then(|p| by_id.get(&p.0)) else {
                assert_eq!(s.id, root.id, "{}: span {} has no parent", job.name, s.id);
                continue;
            };
            let end = s.end.expect("all spans closed");
            assert!(s.start >= parent.start, "{}: child starts early", job.name);
            assert!(
                end <= parent.end.expect("all spans closed"),
                "{}: child {} ends after parent {}",
                job.name,
                s.id,
                parent.id
            );
        }

        // --- queue_wait span equals the broker's recorded wait ---
        let wait: Vec<&Span> = trace.iter().filter(|s| s.kind == "queue_wait").collect();
        assert_eq!(wait.len(), 1, "{}: exactly one queue_wait span", job.name);
        assert_eq!(wait[0].start, job.submitted_at);
        assert_eq!(wait[0].end, Some(job.granted_at));
        total_wait += wait[0].duration().as_secs_f64();

        // --- the execution subtree is present and inside the grant ---
        let exec: Vec<&Span> = trace.iter().filter(|s| s.kind == "exec").collect();
        assert_eq!(exec.len(), 1, "{}: exactly one exec span", job.name);
        assert!(exec[0].start >= job.granted_at);
        for kind in ["step", "compute", "collective"] {
            assert!(
                trace.iter().any(|s| s.kind == kind),
                "{}: no {kind} span recorded",
                job.name
            );
        }

        // --- critical-path segments tile the trace duration exactly ---
        let path = spans
            .critical_path(job.trace)
            .unwrap_or_else(|| panic!("{} has no critical path", job.name));
        assert_eq!(
            path.total(),
            root.duration(),
            "{}: critical path must sum to the trace duration",
            job.name
        );
        let mut cursor = root.start;
        for seg in &path.segments {
            assert_eq!(seg.start, cursor, "{}: gap in critical path", job.name);
            cursor = seg.end;
        }
        assert_eq!(cursor, job.completed_at);
        assert!(
            path.kind_count() >= 3,
            "{}: path crosses queue/exec/compute kinds, got {:?}",
            job.name,
            path.by_kind()
        );
    }

    // The waits the spans recorded are exactly what the broker's queue-wait
    // histogram observed (same virtual instants, so equality is exact).
    let h = r
        .obs
        .metrics
        .histogram_snapshot("broker_job_wait_secs")
        .expect("broker records queue waits");
    assert_eq!(h.sum(), total_wait);

    // --- monitor ticks trace under the system trace id ---
    let ticks = spans
        .trace_spans(TraceId::SYSTEM)
        .iter()
        .filter(|s| s.kind == "monitor_tick")
        .count();
    assert!(ticks > 0, "monitor ticks must record system spans");

    // --- the Chrome export of the full store is valid JSON ---
    let chrome = spans.to_chrome_json();
    json::validate(&chrome).expect("chrome export must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("monitor_tick"));
}
