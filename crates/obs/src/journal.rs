//! The virtual-time structured event journal.
//!
//! A [`Journal`] is a bounded ring of typed [`Event`]s. Every event carries
//! its virtual timestamp, a severity, a typed [`EventKind`] (with the
//! node/daemon identity baked into the variant), and optional free-form
//! key/value fields. Events are stored strictly in emission order — two
//! events at the same [`SimTime`] keep the order they were recorded in —
//! and the ring drops the *oldest* events once capacity is reached, so
//! memory stays bounded over arbitrarily long scenarios.
//!
//! The journal is a cheap clonable handle (`Arc` inside): the monitor
//! runtime, the central monitor, load derivation, and the broker all write
//! into the same ring.

use crate::json;
use crate::lock;
use crate::metrics::Counter;
use crate::recorder::Recorder;
use crate::span::TraceId;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume trace detail (daemon ticks, publishes, backoff checks).
    Debug,
    /// Normal lifecycle (allocations granted, slaves spawned).
    Info,
    /// Degradation handled (relaunches, failovers, staleness exclusions).
    Warn,
    /// Lost capability (allocation failures).
    Error,
}

impl Severity {
    /// Lower-case label, as exported.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened. Variants carry the identity of the thing it happened to.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One scheduled daemon tick ran in the monitor runtime.
    DaemonTick {
        /// Daemon label (e.g. `livehosts`, `nodestate(n3)`).
        daemon: String,
    },
    /// A daemon wrote a fresh record to the shared store.
    Publish {
        /// Daemon label.
        daemon: String,
        /// Store path written.
        path: String,
    },
    /// A scheduled fault (kill/hang/delay) was applied to a target.
    FaultApplied {
        /// Target label (daemon, node, master, slave).
        target: String,
        /// Action label (`kill`, `hang(120s)`, `delay(60s)`).
        action: String,
    },
    /// The central monitor relaunched a dead or hung daemon.
    DaemonRelaunched {
        /// Daemon label.
        daemon: String,
        /// Relaunches issued without an observed healthy publication since.
        strikes: u32,
    },
    /// A relaunch was withheld by the crash-loop backoff.
    RelaunchSuppressed {
        /// Daemon label.
        daemon: String,
        /// Virtual time the next relaunch becomes allowed.
        until: SimTime,
    },
    /// The slave promoted itself to master.
    Failover {
        /// Host of the dead master.
        from: NodeId,
        /// Host of the promoted instance.
        to: NodeId,
    },
    /// A fresh slave instance was spawned.
    SlaveSpawned {
        /// Host it runs on.
        host: NodeId,
    },
    /// Load derivation dropped a node whose newest sample was over-age.
    StaleNodeExcluded {
        /// The excluded node.
        node: NodeId,
        /// Sample age at the decision.
        age: Duration,
    },
    /// Load derivation dropped a node whose sample reports zero cores
    /// (malformed: Eq. 3 has no processor count for it).
    ZeroCoreNodeExcluded {
        /// The excluded node.
        node: NodeId,
    },
    /// Load derivation blended stale pair measurements toward the penalty.
    StalePairsBlended {
        /// Number of pairs blended in this derivation.
        count: usize,
    },
    /// A job asked the broker/allocator for nodes.
    AllocRequested {
        /// Job display name.
        job: String,
        /// Requested process count.
        procs: u32,
    },
    /// A job was granted an allocation.
    AllocGranted {
        /// Job display name.
        job: String,
        /// Distinct nodes granted.
        nodes: usize,
        /// Eq. 4 cost of the winning group.
        cost: f64,
    },
    /// A job stayed queued this scheduling pass.
    AllocDeferred {
        /// Job display name.
        job: String,
        /// Why it did not start.
        reason: String,
    },
    /// An allocation attempt failed outright.
    AllocFailed {
        /// Job display name.
        job: String,
        /// The error.
        reason: String,
    },
    /// A submission bounced off admission control (queue at capacity).
    JobRejected {
        /// Job display name.
        job: String,
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// A queued job was evicted by admission control to admit a newer one.
    JobShed {
        /// Display name of the evicted job.
        job: String,
        /// Queue depth after the shed.
        depth: usize,
    },
    /// A job was cancelled by its owner.
    JobCancelled {
        /// Job display name.
        job: String,
        /// Whether it was running (reservations released) or just queued.
        was_running: bool,
    },
    /// A telemetry detector flagged an abnormal health signal.
    AnomalyDetected {
        /// Detector label (e.g. `staleness_surge`, `load_spike`).
        detector: String,
        /// The observed signal value.
        value: f64,
        /// The threshold it exceeded.
        threshold: f64,
        /// The registry metric the detector derives its signal from.
        metric: String,
        /// Traces with open spans at detection time (jobs in flight).
        traces: Vec<TraceId>,
    },
    /// A service-level objective's attainment dropped below target.
    SloBreached {
        /// SLO name (e.g. `queue_wait_p99`).
        slo: String,
        /// Rolling-window attainment at the breach.
        attainment: f64,
        /// The declared target attainment.
        target: f64,
        /// The registry metric the objective measures.
        metric: String,
        /// Traces with open spans at breach time (jobs in flight).
        traces: Vec<TraceId>,
    },
}

/// Encode a trace list as a JSON array of `"t<n>"` strings.
fn traces_json(traces: &[TraceId]) -> String {
    let items: Vec<String> = traces
        .iter()
        .map(|t| json::string(&t.to_string()))
        .collect();
    json::array(&items)
}

/// Render a trace list as `t1+t2+…` (or `-` when empty) for timelines.
fn traces_label(traces: &[TraceId]) -> String {
    if traces.is_empty() {
        return "-".to_string();
    }
    traces
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

impl EventKind {
    /// Stable snake_case name of the variant, used for export and counting.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DaemonTick { .. } => "daemon_tick",
            EventKind::Publish { .. } => "publish",
            EventKind::FaultApplied { .. } => "fault_applied",
            EventKind::DaemonRelaunched { .. } => "daemon_relaunched",
            EventKind::RelaunchSuppressed { .. } => "relaunch_suppressed",
            EventKind::Failover { .. } => "failover",
            EventKind::SlaveSpawned { .. } => "slave_spawned",
            EventKind::StaleNodeExcluded { .. } => "stale_node_excluded",
            EventKind::ZeroCoreNodeExcluded { .. } => "zero_core_node_excluded",
            EventKind::StalePairsBlended { .. } => "stale_pairs_blended",
            EventKind::AllocRequested { .. } => "alloc_requested",
            EventKind::AllocGranted { .. } => "alloc_granted",
            EventKind::AllocDeferred { .. } => "alloc_deferred",
            EventKind::AllocFailed { .. } => "alloc_failed",
            EventKind::JobRejected { .. } => "job_rejected",
            EventKind::JobShed { .. } => "job_shed",
            EventKind::JobCancelled { .. } => "job_cancelled",
            EventKind::AnomalyDetected { .. } => "anomaly_detected",
            EventKind::SloBreached { .. } => "slo_breached",
        }
    }

    /// The variant's payload as `(key, already-encoded JSON value)` pairs.
    fn json_fields(&self) -> Vec<(&'static str, String)> {
        match self {
            EventKind::DaemonTick { daemon } => vec![("daemon", json::string(daemon))],
            EventKind::Publish { daemon, path } => {
                vec![
                    ("daemon", json::string(daemon)),
                    ("path", json::string(path)),
                ]
            }
            EventKind::FaultApplied { target, action } => vec![
                ("target", json::string(target)),
                ("action", json::string(action)),
            ],
            EventKind::DaemonRelaunched { daemon, strikes } => vec![
                ("daemon", json::string(daemon)),
                ("strikes", strikes.to_string()),
            ],
            EventKind::RelaunchSuppressed { daemon, until } => vec![
                ("daemon", json::string(daemon)),
                ("until_s", json::num(until.as_secs_f64())),
            ],
            EventKind::Failover { from, to } => vec![
                ("from", json::string(&from.to_string())),
                ("to", json::string(&to.to_string())),
            ],
            EventKind::SlaveSpawned { host } => {
                vec![("host", json::string(&host.to_string()))]
            }
            EventKind::StaleNodeExcluded { node, age } => vec![
                ("node", json::string(&node.to_string())),
                ("age_s", json::num(age.as_secs_f64())),
            ],
            EventKind::ZeroCoreNodeExcluded { node } => {
                vec![("node", json::string(&node.to_string()))]
            }
            EventKind::StalePairsBlended { count } => vec![("count", count.to_string())],
            EventKind::AllocRequested { job, procs } => {
                vec![("job", json::string(job)), ("procs", procs.to_string())]
            }
            EventKind::AllocGranted { job, nodes, cost } => vec![
                ("job", json::string(job)),
                ("nodes", nodes.to_string()),
                ("cost", json::num(*cost)),
            ],
            EventKind::AllocDeferred { job, reason } => {
                vec![("job", json::string(job)), ("reason", json::string(reason))]
            }
            EventKind::AllocFailed { job, reason } => {
                vec![("job", json::string(job)), ("reason", json::string(reason))]
            }
            EventKind::JobRejected { job, depth } => {
                vec![("job", json::string(job)), ("depth", depth.to_string())]
            }
            EventKind::JobShed { job, depth } => {
                vec![("job", json::string(job)), ("depth", depth.to_string())]
            }
            EventKind::JobCancelled { job, was_running } => vec![
                ("job", json::string(job)),
                ("was_running", was_running.to_string()),
            ],
            EventKind::AnomalyDetected {
                detector,
                value,
                threshold,
                metric,
                traces,
            } => vec![
                ("detector", json::string(detector)),
                ("value", json::num(*value)),
                ("threshold", json::num(*threshold)),
                ("metric", json::string(metric)),
                ("traces", traces_json(traces)),
            ],
            EventKind::SloBreached {
                slo,
                attainment,
                target,
                metric,
                traces,
            } => vec![
                ("slo", json::string(slo)),
                ("attainment", json::num(*attainment)),
                ("target", json::num(*target)),
                ("metric", json::string(metric)),
                ("traces", traces_json(traces)),
            ],
        }
    }

    /// One-line human rendering of the payload.
    fn describe(&self) -> String {
        match self {
            EventKind::DaemonTick { daemon } => format!("daemon={daemon}"),
            EventKind::Publish { daemon, path } => format!("daemon={daemon} path={path}"),
            EventKind::FaultApplied { target, action } => {
                format!("target={target} action={action}")
            }
            EventKind::DaemonRelaunched { daemon, strikes } => {
                format!("daemon={daemon} strikes={strikes}")
            }
            EventKind::RelaunchSuppressed { daemon, until } => {
                format!("daemon={daemon} until={until}")
            }
            EventKind::Failover { from, to } => format!("from={from} to={to}"),
            EventKind::SlaveSpawned { host } => format!("host={host}"),
            EventKind::StaleNodeExcluded { node, age } => format!("node={node} age={age}"),
            EventKind::ZeroCoreNodeExcluded { node } => format!("node={node}"),
            EventKind::StalePairsBlended { count } => format!("count={count}"),
            EventKind::AllocRequested { job, procs } => format!("job={job} procs={procs}"),
            EventKind::AllocGranted { job, nodes, cost } => {
                format!("job={job} nodes={nodes} cost={cost:.4}")
            }
            EventKind::AllocDeferred { job, reason } => format!("job={job} reason={reason}"),
            EventKind::AllocFailed { job, reason } => format!("job={job} reason={reason}"),
            EventKind::JobRejected { job, depth } => format!("job={job} depth={depth}"),
            EventKind::JobShed { job, depth } => format!("job={job} depth={depth}"),
            EventKind::JobCancelled { job, was_running } => {
                format!("job={job} was_running={was_running}")
            }
            EventKind::AnomalyDetected {
                detector,
                value,
                threshold,
                metric,
                traces,
            } => format!(
                "detector={detector} value={value:.4} threshold={threshold:.4} \
                 metric={metric} traces={}",
                traces_label(traces)
            ),
            EventKind::SloBreached {
                slo,
                attainment,
                target,
                metric,
                traces,
            } => format!(
                "slo={slo} attainment={attainment:.4} target={target:.4} \
                 metric={metric} traces={}",
                traces_label(traces)
            ),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emission order over the journal's whole lifetime (strictly
    /// increasing, including events later dropped by the ring).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Typed payload.
    pub kind: EventKind,
    /// Extra free-form key/value fields.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Export as one JSON object.
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&str, String)> = vec![
            ("seq", self.seq.to_string()),
            ("t_s", json::num(self.at.as_secs_f64())),
            ("severity", json::string(self.severity.label())),
            ("kind", json::string(self.kind.name())),
        ];
        pairs.extend(self.kind.json_fields());
        let extra: Vec<(&str, String)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), json::string(v)))
            .collect();
        pairs.extend(extra);
        json::object(&pairs)
    }

    /// One human-readable timeline line.
    pub fn render(&self) -> String {
        let mut line = format!(
            "t={:>12} {:<5} {:<20} {}",
            format!("{}", self.at),
            self.severity.label().to_uppercase(),
            self.kind.name(),
            self.kind.describe(),
        );
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    min_severity: Severity,
    next_seq: u64,
    /// Events evicted by the ring (recorded, then pushed out).
    dropped: u64,
    /// Events rejected by the severity filter (never recorded).
    filtered: u64,
    events: VecDeque<Event>,
    /// Bumped once per eviction when attached (`journal_evicted_total`).
    evicted_counter: Option<Counter>,
    /// Fed every accepted event's digest when attached and enabled.
    recorder: Option<Recorder>,
}

/// Bounded-memory structured event journal (cheap clonable handle).
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Arc<Mutex<Inner>>,
}

impl Journal {
    /// A journal retaining at most `capacity` events (oldest dropped first),
    /// recording every severity. Capacity 0 is clamped to 1.
    pub fn new(capacity: usize) -> Self {
        Journal {
            inner: Arc::new(Mutex::new(Inner {
                capacity: capacity.max(1),
                min_severity: Severity::Debug,
                next_seq: 0,
                dropped: 0,
                filtered: 0,
                events: VecDeque::new(),
                evicted_counter: None,
                recorder: None,
            })),
        }
    }

    /// Bump `counter` once per future ring eviction, so dashboards (and
    /// RCA's "evidence truncated" verdict) can see silent evidence loss.
    pub fn attach_eviction_counter(&self, counter: Counter) {
        lock::lock(&self.inner).evicted_counter = Some(counter);
    }

    /// Feed every future accepted event to `recorder` (which digests it
    /// for replay comparison; a no-op while the recorder is disabled).
    pub fn attach_recorder(&self, recorder: Recorder) {
        lock::lock(&self.inner).recorder = Some(recorder);
    }

    /// Drop future events below `min` (already-recorded events stay).
    pub fn set_min_severity(&self, min: Severity) {
        lock::lock(&self.inner).min_severity = min;
    }

    /// The current severity floor.
    pub fn min_severity(&self) -> Severity {
        lock::lock(&self.inner).min_severity
    }

    /// Would an event at `severity` be recorded right now?
    pub fn accepts(&self, severity: Severity) -> bool {
        severity >= lock::lock(&self.inner).min_severity
    }

    /// Record an event. Returns `false` if the severity filter rejected it.
    pub fn record(&self, severity: Severity, at: SimTime, kind: EventKind) -> bool {
        self.record_kv(severity, at, kind, Vec::new())
    }

    /// Record the event `kind` builds, calling it only when the severity
    /// filter accepts the event: a rejected event is counted as filtered
    /// without being built.
    pub fn record_with(
        &self,
        severity: Severity,
        at: SimTime,
        kind: impl FnOnce() -> EventKind,
    ) -> bool {
        self.push(severity, at, || (kind(), Vec::new()))
    }

    /// Record an event with extra key/value fields.
    pub fn record_kv(
        &self,
        severity: Severity,
        at: SimTime,
        kind: EventKind,
        fields: Vec<(String, String)>,
    ) -> bool {
        self.push(severity, at, || (kind, fields))
    }

    fn push(
        &self,
        severity: Severity,
        at: SimTime,
        event: impl FnOnce() -> (EventKind, Vec<(String, String)>),
    ) -> bool {
        let mut inner = lock::lock(&self.inner);
        if severity < inner.min_severity {
            inner.filtered += 1;
            return false;
        }
        let (kind, fields) = event();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let event = Event {
            seq,
            at,
            severity,
            kind,
            fields,
        };
        if let Some(recorder) = &inner.recorder {
            recorder.note_journal_event(&event);
        }
        inner.events.push_back(event);
        while inner.events.len() > inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
            if let Some(counter) = &inner.evicted_counter {
                counter.inc();
            }
        }
        true
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        lock::lock(&self.inner).events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        lock::lock(&self.inner).capacity
    }

    /// Events recorded over the journal's lifetime (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        let inner = lock::lock(&self.inner);
        inner.next_seq
    }

    /// Events evicted by the ring.
    pub fn dropped(&self) -> u64 {
        lock::lock(&self.inner).dropped
    }

    /// Eviction watermark: the sequence number of the oldest *retained*
    /// event. Seqs are dense (filtered events never get one) and the ring
    /// evicts oldest-first, so everything below this seq is gone. Zero
    /// means nothing has been evicted.
    pub fn evicted_watermark(&self) -> u64 {
        lock::lock(&self.inner).dropped
    }

    /// Virtual timestamp of the oldest retained event, if any. Evidence
    /// older than this has been evicted by the ring.
    pub fn oldest_retained_at(&self) -> Option<SimTime> {
        lock::lock(&self.inner).events.front().map(|e| e.at)
    }

    /// The newest `n` retained events, in emission order (cheaper than
    /// cloning the whole ring via [`Journal::events`]).
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let inner = lock::lock(&self.inner);
        let skip = inner.events.len().saturating_sub(n);
        inner.events.iter().skip(skip).cloned().collect()
    }

    /// Events rejected by the severity filter.
    pub fn filtered(&self) -> u64 {
        lock::lock(&self.inner).filtered
    }

    /// Snapshot of the retained events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        lock::lock(&self.inner).events.iter().cloned().collect()
    }

    /// Retained events of one kind (by [`EventKind::name`]).
    pub fn events_of(&self, kind_name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.kind.name() == kind_name)
            .collect()
    }

    /// Count of retained events of one kind.
    pub fn count_of(&self, kind_name: &str) -> usize {
        lock::lock(&self.inner)
            .events
            .iter()
            .filter(|e| e.kind.name() == kind_name)
            .count()
    }

    /// Export the retained events as JSON lines (one object per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Export the retained events as one JSON array.
    pub fn to_json_array(&self) -> String {
        let items: Vec<String> = self.events().iter().map(Event::to_json).collect();
        json::array(&items)
    }

    /// Human-readable timeline of the retained events.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

impl Default for Journal {
    /// A journal with a 4096-event ring.
    fn default() -> Self {
        Journal::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(d: &str) -> EventKind {
        EventKind::DaemonTick { daemon: d.into() }
    }

    #[test]
    fn records_in_emission_order_with_increasing_seq() {
        let j = Journal::new(16);
        let t = SimTime::from_secs(5);
        j.record(Severity::Info, t, tick("a"));
        j.record(Severity::Info, t, tick("b"));
        j.record(Severity::Info, SimTime::from_secs(1), tick("c"));
        let ev = j.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[2].seq, 2);
        // equal-SimTime events keep emission order
        assert_eq!(ev[0].kind, tick("a"));
        assert_eq!(ev[1].kind, tick("b"));
    }

    #[test]
    fn ring_drops_oldest() {
        let j = Journal::new(3);
        for i in 0..10u64 {
            j.record(Severity::Info, SimTime::from_secs(i), tick(&i.to_string()));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.total_recorded(), 10);
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn severity_filter_rejects_below_floor() {
        let j = Journal::new(8);
        j.set_min_severity(Severity::Warn);
        assert!(!j.record(Severity::Debug, SimTime::ZERO, tick("a")));
        assert!(!j.record(Severity::Info, SimTime::ZERO, tick("b")));
        assert!(j.record(Severity::Warn, SimTime::ZERO, tick("c")));
        assert!(j.record(Severity::Error, SimTime::ZERO, tick("d")));
        assert_eq!(j.len(), 2);
        assert_eq!(j.filtered(), 2);
        assert!(j.accepts(Severity::Error));
        assert!(!j.accepts(Severity::Info));
    }

    #[test]
    fn a_rejected_lazy_event_is_counted_but_never_built() {
        let j = Journal::new(8);
        j.set_min_severity(Severity::Warn);
        let rejected = j.record_with(Severity::Debug, SimTime::ZERO, || unreachable!());
        assert!(!rejected);
        assert!(j.record_with(Severity::Warn, SimTime::ZERO, || tick("a")));
        assert_eq!(j.len(), 1);
        assert_eq!(j.filtered(), 1);
        assert_eq!(j.events()[0].kind, tick("a"));
    }

    #[test]
    fn severity_order_is_total() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn export_formats_are_well_formed() {
        let j = Journal::new(8);
        j.record_kv(
            Severity::Warn,
            SimTime::from_secs(700),
            EventKind::Failover {
                from: NodeId(0),
                to: NodeId(1),
            },
            vec![("incarnation".into(), "2".into())],
        );
        let json = j.to_json_lines();
        assert!(json.contains("\"kind\":\"failover\""));
        assert!(json.contains("\"from\":\"n0\""));
        assert!(json.contains("\"incarnation\":\"2\""));
        let arr = j.to_json_array();
        assert!(arr.starts_with('[') && arr.trim_end().ends_with(']'));
        let timeline = j.render_timeline();
        assert!(timeline.contains("failover"));
        assert!(timeline.contains("from=n0 to=n1"));
    }

    #[test]
    fn counts_by_kind() {
        let j = Journal::new(8);
        j.record(Severity::Info, SimTime::ZERO, tick("a"));
        j.record(
            Severity::Warn,
            SimTime::ZERO,
            EventKind::StaleNodeExcluded {
                node: NodeId(2),
                age: Duration::from_secs(90),
            },
        );
        assert_eq!(j.count_of("daemon_tick"), 1);
        assert_eq!(j.count_of("stale_node_excluded"), 1);
        assert_eq!(j.events_of("stale_node_excluded").len(), 1);
        assert_eq!(j.count_of("failover"), 0);
    }

    #[test]
    fn eviction_counter_and_watermark_track_the_ring() {
        let j = Journal::new(4);
        let counter = crate::metrics::Metrics::new().counter("journal_evicted_total");
        j.attach_eviction_counter(counter.clone());
        for i in 0..10u64 {
            j.record(Severity::Info, SimTime::from_secs(i), tick(&i.to_string()));
        }
        assert_eq!(counter.get(), 6);
        assert_eq!(j.evicted_watermark(), 6);
        // the watermark is exactly the first retained seq
        assert_eq!(j.events()[0].seq, 6);
        assert_eq!(j.oldest_retained_at(), Some(SimTime::from_secs(6)));
        assert_eq!(j.tail(2).iter().map(|e| e.seq).collect::<Vec<_>>(), [8, 9]);
    }

    #[test]
    fn nothing_evicted_means_zero_watermark() {
        let j = Journal::new(8);
        j.record(Severity::Info, SimTime::from_secs(3), tick("a"));
        assert_eq!(j.evicted_watermark(), 0);
        assert_eq!(j.oldest_retained_at(), Some(SimTime::from_secs(3)));
        assert!(Journal::new(8).oldest_retained_at().is_none());
    }

    #[test]
    fn anomaly_event_carries_metric_and_traces() {
        let j = Journal::new(8);
        j.record(
            Severity::Warn,
            SimTime::from_secs(60),
            EventKind::AnomalyDetected {
                detector: "staleness_surge".into(),
                value: 0.25,
                threshold: 0.125,
                metric: "loads_stale_fraction".into(),
                traces: vec![TraceId::for_job(3), TraceId::for_job(7)],
            },
        );
        let json = j.to_json_lines();
        assert!(json.contains("\"metric\":\"loads_stale_fraction\""));
        assert!(json.contains("\"traces\":[\"t4\",\"t8\"]"));
        assert!(crate::json::validate(j.events()[0].to_json().as_str()).is_ok());
        let line = j.render_timeline();
        assert!(line.contains("metric=loads_stale_fraction"));
        assert!(line.contains("traces=t4+t8"));
    }

    #[test]
    fn slo_event_carries_metric_and_traces() {
        let j = Journal::new(8);
        j.record(
            Severity::Warn,
            SimTime::from_secs(90),
            EventKind::SloBreached {
                slo: "queue_wait_p99".into(),
                attainment: 0.9,
                target: 0.95,
                metric: "broker_job_wait_secs".into(),
                traces: vec![],
            },
        );
        let json = j.to_json_lines();
        assert!(json.contains("\"metric\":\"broker_job_wait_secs\""));
        assert!(json.contains("\"traces\":[]"));
        assert!(j.render_timeline().contains("traces=-"));
    }
}
