//! The scoped thread-local observer context.
//!
//! Instrumented code deep in the stack (`Loads::derive`, `select_best`, the
//! monitor runtime) has fixed signatures; threading an observer through them
//! would churn every caller. Instead, the observer follows the
//! `tracing`-dispatcher pattern: a scenario [`install`]s an [`Obs`] (a
//! journal and metrics pair) into a thread-local slot, instrumentation calls
//! the free functions in this module, and the returned [`ObsGuard`] restores
//! the previous observer on drop.
//!
//! With nothing installed, every emission is a single thread-local check —
//! cheap enough that benches which never install an observer (e.g.
//! `alloc_overhead`) are unaffected.

use crate::journal::{EventKind, Journal, Severity};
use crate::metrics::Metrics;
use crate::recorder::Recorder;
use crate::span::{SpanId, SpanStore, TraceId};
use crate::telemetry::Telemetry;
use nlrm_sim_core::time::SimTime;
use std::cell::RefCell;

/// A journal + metrics + span-store + telemetry + flight-recorder bundle:
/// the unit of observation for one scenario.
#[derive(Debug, Clone)]
pub struct Obs {
    /// The event journal.
    pub journal: Journal,
    /// The metrics registry.
    pub metrics: Metrics,
    /// The trace span store.
    pub spans: SpanStore,
    /// The continuous-telemetry loop (disabled until
    /// [`Telemetry::enable`]).
    pub telemetry: Telemetry,
    /// The incident flight recorder (disabled until
    /// [`Recorder::enable`]).
    pub recorder: Recorder,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::with_capacity_journal(Journal::default())
    }
}

impl Obs {
    /// A fresh observer with default-capacity journal and empty registry.
    pub fn new() -> Self {
        Obs::default()
    }

    /// A fresh observer whose journal retains at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Obs::with_capacity_journal(Journal::new(capacity))
    }

    /// Assemble the bundle around `journal`, wiring the cross-component
    /// taps: ring evictions bump `journal_evicted_total`, and every
    /// accepted event is digested by the (initially disabled) recorder.
    fn with_capacity_journal(journal: Journal) -> Self {
        let metrics = Metrics::new();
        let recorder = Recorder::new();
        journal.attach_eviction_counter(metrics.counter("journal_evicted_total"));
        journal.attach_recorder(recorder.clone());
        Obs {
            journal,
            metrics,
            spans: SpanStore::default(),
            telemetry: Telemetry::new(),
            recorder,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Obs>> = const { RefCell::new(None) };
}

/// Install `obs` as this thread's observer. The previous observer (if any)
/// is restored when the returned guard drops, so scopes nest.
#[must_use = "dropping the guard immediately uninstalls the observer"]
pub fn install(obs: &Obs) -> ObsGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(obs.clone()));
    ObsGuard { prev }
}

/// Uninstalls the observer installed by [`install`] on drop, restoring the
/// one that was active before.
#[derive(Debug)]
pub struct ObsGuard {
    prev: Option<Obs>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Is an observer installed on this thread?
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` against the installed observer, if any. The observer is cloned
/// out of the slot first, so `f` may itself install/emit without
/// re-entrancy panics.
pub fn with<F: FnOnce(&Obs)>(f: F) {
    let obs = CURRENT.with(|c| c.borrow().clone());
    if let Some(obs) = obs {
        f(&obs);
    }
}

/// Like [`with`], but `f` returns a value; `None` when no observer is
/// installed.
pub fn with_value<R, F: FnOnce(&Obs) -> R>(f: F) -> Option<R> {
    let obs = CURRENT.with(|c| c.borrow().clone());
    obs.map(|obs| f(&obs))
}

/// Record an event into the installed journal (no-op when inactive).
pub fn emit(severity: Severity, at: SimTime, kind: EventKind) {
    with(|obs| {
        obs.journal.record(severity, at, kind);
    });
}

/// Record an event with extra key/value fields (no-op when inactive).
pub fn emit_kv(severity: Severity, at: SimTime, kind: EventKind, fields: Vec<(String, String)>) {
    with(|obs| {
        obs.journal.record_kv(severity, at, kind, fields);
    });
}

/// Add 1 to the installed counter `name` (no-op when inactive).
pub fn inc(name: &str) {
    with(|obs| obs.metrics.inc(name));
}

/// Add `n` to the installed counter `name` (no-op when inactive).
pub fn add(name: &str, n: u64) {
    with(|obs| obs.metrics.add(name, n));
}

/// Set the installed gauge `name` to `v` (no-op when inactive).
pub fn set_gauge(name: &str, v: f64) {
    with(|obs| obs.metrics.set(name, v));
}

/// Record `v` into the installed histogram `name` (no-op when inactive).
pub fn observe(name: &str, bounds: &[f64], v: f64) {
    with(|obs| obs.metrics.observe(name, bounds, v));
}

/// Bucket bounds (seconds) of the `stage_seconds_*` histograms.
pub const STAGE_SECONDS_BOUNDS: &[f64] = &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Start timing a pipeline stage on the wall clock; `None` (no clock
/// read) unless an observer is installed.
pub fn stage_start() -> Option<std::time::Instant> {
    is_active().then(std::time::Instant::now)
}

/// Record the wall time since [`stage_start`] in the `stage_seconds_<stage>`
/// histogram. Wall time differs between a recording and its replay, so the
/// flight recorder leaves the family out of its digest.
pub fn stage_end(stage: &str, started: Option<std::time::Instant>) {
    if let Some(t) = started {
        let name = format!("stage_seconds_{stage}");
        observe(&name, STAGE_SECONDS_BOUNDS, t.elapsed().as_secs_f64());
    }
}

/// Offer the installed telemetry loop a tick at virtual time `now` (no-op
/// when inactive or telemetry is disabled; cadence-gated internally, so
/// callers may invoke this on every event-loop iteration).
pub fn telemetry_tick(now: SimTime) {
    with(|obs| {
        obs.telemetry
            .tick(now, &obs.metrics, &obs.journal, &obs.spans, &obs.recorder)
    });
}

/// Is an observer installed *and* its flight recorder enabled? Input taps
/// (probe/gossip digest folds) check this before doing any work.
pub fn recording() -> bool {
    with_value(|obs| obs.recorder.is_enabled()).unwrap_or(false)
}

/// Capture one consumed input-stream round into the installed flight
/// recorder (no-op when inactive or the recorder is disabled).
pub fn record_stream(at: SimTime, kind: &str, count: u64, digest: u64) {
    with(|obs| obs.recorder.note_stream(at, kind, count, digest));
}

/// Open a span in the installed span store (`None` when inactive, the
/// store is full, or `parent` is unknown).
pub fn span_start(
    trace: TraceId,
    parent: Option<SpanId>,
    kind: &str,
    track: &str,
    at: SimTime,
) -> Option<SpanId> {
    with_value(|obs| obs.spans.start(trace, parent, kind, track, at)).flatten()
}

/// [`span_start`] with initial attributes (no-op when inactive).
pub fn span_start_kv(
    trace: TraceId,
    parent: Option<SpanId>,
    kind: &str,
    track: &str,
    at: SimTime,
    attrs: Vec<(String, String)>,
) -> Option<SpanId> {
    with_value(|obs| obs.spans.start_kv(trace, parent, kind, track, at, attrs)).flatten()
}

/// Close a span in the installed span store (no-op when inactive).
pub fn span_end(id: SpanId, at: SimTime) {
    with(|obs| {
        obs.spans.end(id, at);
    });
}

/// Record an already-finished span in the installed store (no-op when
/// inactive).
pub fn span_closed(
    trace: TraceId,
    parent: Option<SpanId>,
    kind: &str,
    track: &str,
    start: SimTime,
    end: SimTime,
    attrs: Vec<(String, String)>,
) -> Option<SpanId> {
    with_value(|obs| {
        obs.spans
            .closed(trace, parent, kind, track, start, end, attrs)
    })
    .flatten()
}

/// Append an attribute to a span in the installed store (no-op when
/// inactive).
pub fn span_annotate(id: SpanId, key: &str, value: impl Into<String>) {
    with(|obs| obs.spans.annotate(id, key, value.into()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick() -> EventKind {
        EventKind::DaemonTick {
            daemon: "livehosts".into(),
        }
    }

    #[test]
    fn emissions_are_noops_without_an_observer() {
        assert!(!is_active());
        emit(Severity::Info, SimTime::ZERO, tick());
        inc("x_total");
        observe("h", &[1.0], 0.5);
        assert!(!is_active());
    }

    #[test]
    fn guard_installs_and_restores() {
        let obs = Obs::new();
        {
            let _g = install(&obs);
            assert!(is_active());
            emit(Severity::Info, SimTime::from_secs(1), tick());
            inc("ticks_total");
            set_gauge("depth", 2.0);
            observe("lat", &[1.0, 10.0], 0.3);
        }
        assert!(!is_active());
        assert_eq!(obs.journal.len(), 1);
        assert_eq!(obs.metrics.counter_value("ticks_total"), 1);
        assert_eq!(obs.metrics.gauge_value("depth"), 2.0);
        assert_eq!(obs.metrics.histogram_snapshot("lat").unwrap().count(), 1);
    }

    #[test]
    fn scopes_nest_and_restore_outer() {
        let outer = Obs::new();
        let inner = Obs::new();
        let _g1 = install(&outer);
        {
            let _g2 = install(&inner);
            emit(Severity::Info, SimTime::ZERO, tick());
        }
        emit(Severity::Info, SimTime::ZERO, tick());
        assert_eq!(inner.journal.len(), 1);
        assert_eq!(outer.journal.len(), 1);
    }

    #[test]
    fn spans_record_through_the_context() {
        let obs = Obs::new();
        {
            let _g = install(&obs);
            let trace = TraceId::for_job(4);
            let root = span_start(trace, None, "job", "broker/jobs", SimTime::from_secs(1))
                .expect("observer installed");
            span_annotate(root, "job", "md16-0");
            let wait = span_closed(
                trace,
                Some(root),
                "queue_wait",
                "broker/queue",
                SimTime::from_secs(1),
                SimTime::from_secs(3),
                vec![],
            )
            .expect("observer installed");
            assert_ne!(root, wait);
            span_end(root, SimTime::from_secs(5));
        }
        assert_eq!(obs.spans.len(), 2);
        assert_eq!(obs.spans.open_count(), 0);
        assert_eq!(
            obs.spans.spans()[0].attrs,
            vec![("job".into(), "md16-0".into())]
        );
        // without an observer, span calls are inert
        assert!(span_start(TraceId::SYSTEM, None, "x", "x", SimTime::ZERO).is_none());
        assert_eq!(obs.spans.len(), 2);
    }

    #[test]
    fn with_clones_out_allowing_reentrant_emits() {
        let obs = Obs::new();
        let _g = install(&obs);
        with(|o| {
            // emitting from inside `with` must not deadlock or panic
            emit(Severity::Info, SimTime::ZERO, tick());
            o.metrics.inc("nested_total");
        });
        assert_eq!(obs.journal.len(), 1);
        assert_eq!(obs.metrics.counter_value("nested_total"), 1);
    }
}
