//! The incident flight recorder.
//!
//! A [`Recorder`] captures every nondeterministic input a scenario consumed
//! — the seed and topology in a [`RecordHeader`], the job arrival stream,
//! the fault plan, and a digest of each probe/gossip round as the monitor
//! consumed it — plus a digest of every journal event and of the final
//! metrics registry, into a compact versioned [`Record`]. Because the whole
//! simulator runs in virtual time off these inputs, the record is both a
//! *reproduction recipe* (re-drive the scenario from the header and assert
//! the digests match, see [`replay`](crate::replay)) and a *tamper-evident
//! trace* (the first digest that differs pinpoints the first divergent
//! event).
//!
//! On top of the input capture, the recorder keeps a bounded ring of
//! [`EvidenceSnapshot`]s — the journal tail, active traces, and latest
//! health snapshot frozen at each anomaly/SLO-breach rising edge — which is
//! what [`rca`](crate::rca) and human operators read after the fact, even
//! when the journal ring has since evicted the original events.
//!
//! Like [`Telemetry`](crate::telemetry::Telemetry), the handle lives on
//! every [`Obs`](crate::ctx::Obs) but stays disabled (every call a cheap
//! no-op) until [`Recorder::enable`]. Wall-clock nanoseconds spent inside
//! recorder calls are accumulated so reports can pin the always-on cost.

use crate::journal::Event;
use crate::lock;
use crate::metrics::Metrics;
use nlrm_sim_core::time::SimTime;
use std::sync::{Arc, Mutex};

/// Record format version; bumped whenever the encoding changes shape.
pub const RECORD_VERSION: u32 = 1;

/// Keep at most this many evidence snapshots (oldest dropped first).
pub const MAX_EVIDENCE: usize = 32;

/// Keep at most this many journal-tail lines per evidence snapshot.
pub const EVIDENCE_TAIL: usize = 64;

/// FNV-1a over a byte slice: the digest primitive for the whole record
/// format (fast, dependency-free, and stable across platforms).
pub use nlrm_sim_core::rng::fnv1a;
use nlrm_sim_core::rng::{FNV_OFFSET, FNV_PRIME};

/// Incremental FNV-1a fold, for digesting a stream of values (probe
/// outcomes, gossip rows) without materializing them.
#[derive(Debug, Clone, Copy)]
pub struct DigestFold(u64);

impl DigestFold {
    /// An empty fold (digest of zero bytes).
    pub fn new() -> DigestFold {
        DigestFold(FNV_OFFSET)
    }

    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold in a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold in an `f64` by bit pattern — exact, no rounding ambiguity.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for DigestFold {
    fn default() -> Self {
        DigestFold::new()
    }
}

/// The deterministic scenario parameters a replay re-derives everything
/// else from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordHeader {
    /// Human label for the recorded scenario.
    pub label: String,
    /// RNG seed.
    pub seed: u64,
    /// Cluster size in nodes.
    pub nodes: usize,
    /// Scenario checkpoints, in virtual seconds.
    pub checkpoints: Vec<u64>,
    /// Was the fault storyline injected?
    pub faulted: bool,
    /// Was the oversized job submitted?
    pub submit_huge: bool,
    /// Was the telemetry loop enabled?
    pub telemetry: bool,
    /// Did the harness mirror granted leases into node job-load (so
    /// placements shape the load signal)?
    pub lease_load: bool,
    /// Did the harness complete the previously started job at each
    /// checkpoint?
    pub complete_prev: bool,
}

/// One job submission, as consumed by the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalRecord {
    /// Virtual submission time.
    pub at: SimTime,
    /// Job display name.
    pub name: String,
    /// Requested process count.
    pub procs: u32,
}

/// One scheduled fault, target and action in their codec string forms
/// (the bench scenario layer owns the `FaultTarget` ↔ string mapping so
/// `nlrm-obs` stays independent of the monitor crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Virtual firing time.
    pub at: SimTime,
    /// Target codec string (e.g. `daemon:nodestate(n3)`, `master`).
    pub target: String,
    /// Action codec string (`kill`, `hang:120`, `delay:60`).
    pub action: String,
}

/// A digest of one nondeterministic input stream round as it was consumed
/// (a latency/bandwidth probe round, a shard sweep, a gossip exchange).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRecord {
    /// Virtual time of the round.
    pub at: SimTime,
    /// Stream kind (`probe:latency`, `probe:bandwidth`, `probe:shard`,
    /// `gossip`).
    pub kind: String,
    /// Values consumed this round.
    pub count: u64,
    /// FNV-1a fold over the consumed values, in consumption order.
    pub digest: u64,
}

/// The digest of one journal event (over its canonical JSON form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDigest {
    /// The event's journal sequence number.
    pub seq: u64,
    /// The event kind name, kept so divergence reports read well.
    pub kind: String,
    /// FNV-1a of [`Event::to_json`].
    pub digest: u64,
}

/// Journal/span/health state frozen at one anomaly or SLO-breach rising
/// edge — the evidence window RCA walks, preserved even after the journal
/// ring evicts the underlying events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceSnapshot {
    /// Virtual time of the trigger.
    pub at: SimTime,
    /// Trigger label (`anomaly:staleness_surge`, `slo:queue_wait_p99`).
    pub trigger: String,
    /// Journal seq of the trigger event.
    pub trigger_seq: u64,
    /// Rendered journal tail (most recent events last).
    pub tail: Vec<String>,
    /// Raw ids of traces with open spans at the trigger.
    pub active_traces: Vec<u64>,
    /// Latest derived health snapshot as JSON (`null` if none yet).
    pub health_json: String,
}

/// A finalized flight record: the full reproduction recipe plus outcome
/// digests and the evidence ring.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    /// Format version ([`RECORD_VERSION`] when produced by this build).
    pub version: u32,
    /// Scenario parameters.
    pub header: RecordHeader,
    /// The job arrival stream, in submission order.
    pub arrivals: Vec<ArrivalRecord>,
    /// The fault plan, in schedule order.
    pub faults: Vec<FaultRecord>,
    /// Input-stream round digests, in consumption order.
    pub streams: Vec<StreamRecord>,
    /// Per-event journal digests, in emission order.
    pub journal: Vec<JournalDigest>,
    /// Total events the journal recorded (including later evictions).
    pub journal_len: u64,
    /// FNV-1a of the final metrics registry's canonical JSON.
    pub metrics_digest: u64,
    /// Evidence snapshots captured at anomaly/breach edges.
    pub evidence: Vec<EvidenceSnapshot>,
}

impl Record {
    /// Whole-record digest: FNV-1a over the canonical encoding.
    pub fn digest(&self) -> u64 {
        fnv1a(self.encode().as_bytes())
    }

    /// Serialize to the line-based record format (see DESIGN.md §14).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("nlrm-record v{}\n", self.version));
        out.push_str(&format!("label {}\n", self.header.label));
        out.push_str(&format!("seed {}\n", self.header.seed));
        out.push_str(&format!("nodes {}\n", self.header.nodes));
        let cps: Vec<String> = self.header.checkpoints.iter().map(u64::to_string).collect();
        out.push_str(&format!("checkpoints {}\n", cps.join(",")));
        out.push_str(&format!(
            "opts faulted={} huge={} telemetry={} lease_load={} complete_prev={}\n",
            self.header.faulted,
            self.header.submit_huge,
            self.header.telemetry,
            self.header.lease_load,
            self.header.complete_prev
        ));
        for a in &self.arrivals {
            out.push_str(&format!(
                "arrival {} {} {}\n",
                a.at.as_micros(),
                a.procs,
                a.name
            ));
        }
        for f in &self.faults {
            out.push_str(&format!(
                "fault {} {} {}\n",
                f.at.as_micros(),
                f.action,
                f.target
            ));
        }
        for s in &self.streams {
            out.push_str(&format!(
                "stream {} {} {:016x} {}\n",
                s.at.as_micros(),
                s.count,
                s.digest,
                s.kind
            ));
        }
        for j in &self.journal {
            out.push_str(&format!("jevent {} {:016x} {}\n", j.seq, j.digest, j.kind));
        }
        out.push_str(&format!("journal_len {}\n", self.journal_len));
        out.push_str(&format!("metrics {:016x}\n", self.metrics_digest));
        for e in &self.evidence {
            out.push_str(&format!(
                "evidence {} {} {}\n",
                e.at.as_micros(),
                e.trigger_seq,
                e.trigger
            ));
            let traces: Vec<String> = e.active_traces.iter().map(u64::to_string).collect();
            out.push_str(&format!("etraces {}\n", traces.join(",")));
            for line in &e.tail {
                out.push_str(&format!("etail {line}\n"));
            }
            out.push_str(&format!("ehealth {}\n", e.health_json));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the line-based record format back into a [`Record`].
    pub fn decode(text: &str) -> Result<Record, String> {
        let mut rec = Record::default();
        let mut saw_magic = false;
        let mut saw_end = false;
        for (lineno, line) in text.lines().enumerate() {
            let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
            if !saw_magic {
                let v = line
                    .strip_prefix("nlrm-record v")
                    .ok_or_else(|| err("missing magic"))?;
                rec.version = v.parse().map_err(|_| err("bad version"))?;
                if rec.version != RECORD_VERSION {
                    return Err(format!(
                        "unsupported record version {} (this build reads v{RECORD_VERSION})",
                        rec.version
                    ));
                }
                saw_magic = true;
                continue;
            }
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "label" => rec.header.label = rest.to_string(),
                "seed" => rec.header.seed = rest.parse().map_err(|_| err("bad seed"))?,
                "nodes" => rec.header.nodes = rest.parse().map_err(|_| err("bad nodes"))?,
                "checkpoints" => {
                    for part in rest.split(',').filter(|p| !p.is_empty()) {
                        rec.header
                            .checkpoints
                            .push(part.parse().map_err(|_| err("bad checkpoint"))?);
                    }
                }
                "opts" => {
                    for part in rest.split_whitespace() {
                        let (k, v) = part.split_once('=').ok_or_else(|| err("bad opt"))?;
                        let v: bool = v.parse().map_err(|_| err("bad opt value"))?;
                        match k {
                            "faulted" => rec.header.faulted = v,
                            "huge" => rec.header.submit_huge = v,
                            "telemetry" => rec.header.telemetry = v,
                            "lease_load" => rec.header.lease_load = v,
                            "complete_prev" => rec.header.complete_prev = v,
                            _ => return Err(err("unknown opt")),
                        }
                    }
                }
                "arrival" => {
                    let mut it = rest.splitn(3, ' ');
                    let at: u64 = parse_next(&mut it).map_err(&err)?;
                    let procs: u32 = parse_next(&mut it).map_err(&err)?;
                    let name = it.next().ok_or_else(|| err("missing name"))?;
                    rec.arrivals.push(ArrivalRecord {
                        at: SimTime::from_micros(at),
                        name: name.to_string(),
                        procs,
                    });
                }
                "fault" => {
                    let mut it = rest.splitn(3, ' ');
                    let at: u64 = parse_next(&mut it).map_err(&err)?;
                    let action = it.next().ok_or_else(|| err("missing action"))?.to_string();
                    let target = it.next().ok_or_else(|| err("missing target"))?.to_string();
                    rec.faults.push(FaultRecord {
                        at: SimTime::from_micros(at),
                        target,
                        action,
                    });
                }
                "stream" => {
                    let mut it = rest.splitn(4, ' ');
                    let at: u64 = parse_next(&mut it).map_err(&err)?;
                    let count: u64 = parse_next(&mut it).map_err(&err)?;
                    let digest = parse_hex(it.next()).map_err(&err)?;
                    let kind = it.next().ok_or_else(|| err("missing kind"))?.to_string();
                    rec.streams.push(StreamRecord {
                        at: SimTime::from_micros(at),
                        kind,
                        count,
                        digest,
                    });
                }
                "jevent" => {
                    let mut it = rest.splitn(3, ' ');
                    let seq: u64 = parse_next(&mut it).map_err(&err)?;
                    let digest = parse_hex(it.next()).map_err(&err)?;
                    let kind = it.next().ok_or_else(|| err("missing kind"))?.to_string();
                    rec.journal.push(JournalDigest { seq, kind, digest });
                }
                "journal_len" => {
                    rec.journal_len = rest.parse().map_err(|_| err("bad journal_len"))?
                }
                "metrics" => rec.metrics_digest = parse_hex(Some(rest)).map_err(&err)?,
                "evidence" => {
                    let mut it = rest.splitn(3, ' ');
                    let at: u64 = parse_next(&mut it).map_err(&err)?;
                    let trigger_seq: u64 = parse_next(&mut it).map_err(&err)?;
                    let trigger = it.next().ok_or_else(|| err("missing trigger"))?;
                    rec.evidence.push(EvidenceSnapshot {
                        at: SimTime::from_micros(at),
                        trigger: trigger.to_string(),
                        trigger_seq,
                        tail: Vec::new(),
                        active_traces: Vec::new(),
                        health_json: "null".to_string(),
                    });
                }
                "etraces" => {
                    let e = rec
                        .evidence
                        .last_mut()
                        .ok_or_else(|| err("orphan etraces"))?;
                    for part in rest.split(',').filter(|p| !p.is_empty()) {
                        e.active_traces
                            .push(part.parse().map_err(|_| err("bad trace id"))?);
                    }
                }
                "etail" => rec
                    .evidence
                    .last_mut()
                    .ok_or_else(|| err("orphan etail"))?
                    .tail
                    .push(rest.to_string()),
                "ehealth" => {
                    rec.evidence
                        .last_mut()
                        .ok_or_else(|| err("orphan ehealth"))?
                        .health_json = rest.to_string()
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                _ => return Err(err("unknown tag")),
            }
        }
        if !saw_magic {
            return Err("empty record".to_string());
        }
        if !saw_end {
            return Err("truncated record: no end marker".to_string());
        }
        Ok(rec)
    }
}

fn parse_next<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, &'static str> {
    it.next()
        .ok_or("missing field")?
        .parse()
        .map_err(|_| "bad field")
}

fn parse_hex(s: Option<&str>) -> Result<u64, &'static str> {
    u64::from_str_radix(s.ok_or("missing digest")?, 16).map_err(|_| "bad digest")
}

#[derive(Debug)]
struct RecInner {
    header: RecordHeader,
    arrivals: Vec<ArrivalRecord>,
    faults: Vec<FaultRecord>,
    streams: Vec<StreamRecord>,
    journal: Vec<JournalDigest>,
    journal_len: u64,
    evidence: Vec<EvidenceSnapshot>,
    evidence_dropped: u64,
    wall_nanos: u64,
}

/// The flight-recorder handle carried by [`Obs`](crate::ctx::Obs). Cheap to
/// clone; disabled (every call a no-op) until [`Recorder::enable`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Option<RecInner>>>,
}

impl Recorder {
    /// A disabled handle (the default on every `Obs`).
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Start recording under `header`. Replaces any previous state.
    pub fn enable(&self, header: RecordHeader) {
        *lock::lock(&self.inner) = Some(RecInner {
            header,
            arrivals: Vec::new(),
            faults: Vec::new(),
            streams: Vec::new(),
            journal: Vec::new(),
            journal_len: 0,
            evidence: Vec::new(),
            evidence_dropped: 0,
            wall_nanos: 0,
        });
    }

    /// True once [`Recorder::enable`] has run.
    pub fn is_enabled(&self) -> bool {
        lock::lock(&self.inner).is_some()
    }

    /// Capture one job arrival (no-op while disabled).
    pub fn note_arrival(&self, at: SimTime, name: &str, procs: u32) {
        let mut guard = lock::lock(&self.inner);
        if let Some(inner) = guard.as_mut() {
            let started = std::time::Instant::now();
            inner.arrivals.push(ArrivalRecord {
                at,
                name: name.to_string(),
                procs,
            });
            inner.wall_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Capture one scheduled fault, codec-encoded (no-op while disabled).
    pub fn note_fault(&self, at: SimTime, target: &str, action: &str) {
        let mut guard = lock::lock(&self.inner);
        if let Some(inner) = guard.as_mut() {
            let started = std::time::Instant::now();
            inner.faults.push(FaultRecord {
                at,
                target: target.to_string(),
                action: action.to_string(),
            });
            inner.wall_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Capture one consumed input-stream round (no-op while disabled).
    pub fn note_stream(&self, at: SimTime, kind: &str, count: u64, digest: u64) {
        let mut guard = lock::lock(&self.inner);
        if let Some(inner) = guard.as_mut() {
            let started = std::time::Instant::now();
            inner.streams.push(StreamRecord {
                at,
                kind: kind.to_string(),
                count,
                digest,
            });
            inner.wall_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Digest one accepted journal event (called by the journal's tap;
    /// no-op while disabled).
    pub fn note_journal_event(&self, event: &Event) {
        let mut guard = lock::lock(&self.inner);
        if let Some(inner) = guard.as_mut() {
            let started = std::time::Instant::now();
            inner.journal.push(JournalDigest {
                seq: event.seq,
                kind: event.kind.name().to_string(),
                digest: fnv1a(event.to_json().as_bytes()),
            });
            inner.journal_len += 1;
            inner.wall_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Freeze one evidence snapshot (bounded ring of [`MAX_EVIDENCE`];
    /// no-op while disabled).
    pub fn snapshot_evidence(&self, snap: EvidenceSnapshot) {
        let mut guard = lock::lock(&self.inner);
        if let Some(inner) = guard.as_mut() {
            let started = std::time::Instant::now();
            inner.evidence.push(snap);
            if inner.evidence.len() > MAX_EVIDENCE {
                inner.evidence.remove(0);
                inner.evidence_dropped += 1;
            }
            inner.wall_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// The evidence snapshots captured so far (empty while disabled).
    pub fn evidence(&self) -> Vec<EvidenceSnapshot> {
        lock::lock(&self.inner)
            .as_ref()
            .map_or_else(Vec::new, |i| i.evidence.clone())
    }

    /// Evidence snapshots pushed out of the bounded ring.
    pub fn evidence_dropped(&self) -> u64 {
        lock::lock(&self.inner)
            .as_ref()
            .map_or(0, |i| i.evidence_dropped)
    }

    /// Wall-clock nanoseconds spent inside recorder calls — the always-on
    /// cost of recording.
    pub fn wall_nanos(&self) -> u64 {
        lock::lock(&self.inner).as_ref().map_or(0, |i| i.wall_nanos)
    }

    /// Metric-name fragments excluded from the final metrics digest:
    /// wall-clock measurements (tick/decision latencies and stage times
    /// in real time) legitimately differ between a recording and its
    /// replay.
    pub const NONDETERMINISTIC_METRICS: &'static [&'static str] =
        &["wall", "alloc_decision_seconds", "stage_seconds"];

    /// Seal the record: digest the final `metrics` registry (wall-clock
    /// families excluded, see [`Recorder::NONDETERMINISTIC_METRICS`]) and
    /// return the full [`Record`] (`None` while disabled). The recorder
    /// keeps recording; finalize may be called again later.
    pub fn finalize(&self, metrics: &Metrics) -> Option<Record> {
        let canonical = metrics.to_json_excluding(Self::NONDETERMINISTIC_METRICS);
        let metrics_digest = fnv1a(canonical.as_bytes());
        let guard = lock::lock(&self.inner);
        guard.as_ref().map(|inner| Record {
            version: RECORD_VERSION,
            header: inner.header.clone(),
            arrivals: inner.arrivals.clone(),
            faults: inner.faults.clone(),
            streams: inner.streams.clone(),
            journal: inner.journal.clone(),
            journal_len: inner.journal_len,
            metrics_digest,
            evidence: inner.evidence.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventKind, Severity};

    fn sample_record() -> Record {
        Record {
            version: RECORD_VERSION,
            header: RecordHeader {
                label: "surge-daemon-kills".into(),
                seed: 42,
                nodes: 8,
                checkpoints: vec![1100, 1300],
                faulted: true,
                submit_huge: true,
                telemetry: true,
                lease_load: false,
                complete_prev: true,
            },
            arrivals: vec![ArrivalRecord {
                at: SimTime::from_secs(360),
                name: "huge-64".into(),
                procs: 64,
            }],
            faults: vec![FaultRecord {
                at: SimTime::from_secs(400),
                target: "daemon:bandwidth".into(),
                action: "kill".into(),
            }],
            streams: vec![StreamRecord {
                at: SimTime::from_secs(365),
                kind: "probe:latency".into(),
                count: 28,
                digest: 0xdead_beef,
            }],
            journal: vec![JournalDigest {
                seq: 0,
                kind: "daemon_tick".into(),
                digest: 0x1234,
            }],
            journal_len: 1,
            metrics_digest: 0xfeed,
            evidence: vec![EvidenceSnapshot {
                at: SimTime::from_secs(460),
                trigger: "anomaly:staleness_surge".into(),
                trigger_seq: 17,
                tail: vec!["t=460s WARN fault_applied target=x".into()],
                active_traces: vec![4, 8],
                health_json: "{\"utilization\":0.5}".into(),
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let rec = sample_record();
        let decoded = Record::decode(&rec.encode()).expect("decode");
        assert_eq!(decoded, rec);
        assert_eq!(decoded.digest(), rec.digest());
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(Record::decode("").is_err());
        assert!(Record::decode("garbage\n").is_err());
        assert!(Record::decode("nlrm-record v99\nend\n").is_err());
        // truncation (no end marker) is detected
        let enc = sample_record().encode();
        let cut = &enc[..enc.len() - 5];
        assert!(Record::decode(cut).is_err());
        // an unknown tag is an error, not silently skipped
        let bad = enc.replace("journal_len", "journl_len");
        assert!(Record::decode(&bad).is_err());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::new();
        r.note_arrival(SimTime::ZERO, "j", 4);
        r.note_stream(SimTime::ZERO, "probe:latency", 1, 2);
        assert!(!r.is_enabled());
        assert!(r.finalize(&Metrics::new()).is_none());
        assert_eq!(r.wall_nanos(), 0);
    }

    #[test]
    fn recorder_captures_inputs_in_order() {
        let r = Recorder::new();
        r.enable(RecordHeader {
            label: "t".into(),
            seed: 1,
            nodes: 4,
            ..RecordHeader::default()
        });
        r.note_arrival(SimTime::from_secs(10), "a", 4);
        r.note_arrival(SimTime::from_secs(20), "b", 8);
        r.note_fault(SimTime::from_secs(15), "master", "kill");
        r.note_stream(SimTime::from_secs(12), "gossip", 6, 99);
        let rec = r.finalize(&Metrics::new()).expect("enabled");
        assert_eq!(rec.arrivals.len(), 2);
        assert_eq!(rec.arrivals[1].name, "b");
        assert_eq!(rec.faults[0].target, "master");
        assert_eq!(rec.streams[0].kind, "gossip");
        // identical registries digest identically; different ones don't
        let m2 = Metrics::new();
        assert_eq!(rec.metrics_digest, r.finalize(&m2).unwrap().metrics_digest);
        m2.inc("x_total");
        assert_ne!(rec.metrics_digest, r.finalize(&m2).unwrap().metrics_digest);
    }

    #[test]
    fn journal_tap_digests_every_event() {
        let r = Recorder::new();
        r.enable(RecordHeader::default());
        let j = crate::journal::Journal::new(2);
        j.attach_recorder(r.clone());
        for i in 0..5u64 {
            j.record(
                Severity::Info,
                SimTime::from_secs(i),
                EventKind::DaemonTick {
                    daemon: format!("d{i}"),
                },
            );
        }
        let rec = r.finalize(&Metrics::new()).unwrap();
        // every recorded event is digested, even ones the ring evicted
        assert_eq!(rec.journal.len(), 5);
        assert_eq!(rec.journal_len, 5);
        assert_eq!(rec.journal[0].seq, 0);
        assert_eq!(rec.journal[4].seq, 4);
        assert!(rec.journal.iter().all(|d| d.kind == "daemon_tick"));
        // digests distinguish events with different payloads
        assert_ne!(rec.journal[0].digest, rec.journal[1].digest);
        assert!(r.wall_nanos() > 0);
    }

    #[test]
    fn evidence_ring_is_bounded() {
        let r = Recorder::new();
        r.enable(RecordHeader::default());
        for i in 0..(MAX_EVIDENCE as u64 + 5) {
            r.snapshot_evidence(EvidenceSnapshot {
                at: SimTime::from_secs(i),
                trigger: "anomaly:load_spike".into(),
                trigger_seq: i,
                tail: vec![],
                active_traces: vec![],
                health_json: "null".into(),
            });
        }
        assert_eq!(r.evidence().len(), MAX_EVIDENCE);
        assert_eq!(r.evidence_dropped(), 5);
        // oldest dropped first
        assert_eq!(r.evidence()[0].trigger_seq, 5);
    }

    #[test]
    fn digest_fold_matches_one_shot_fnv() {
        let mut fold = DigestFold::new();
        fold.bytes(b"hello ").bytes(b"world");
        assert_eq!(fold.value(), fnv1a(b"hello world"));
        let mut f2 = DigestFold::new();
        f2.f64(1.5).u64(7);
        let mut bytes = 1.5f64.to_bits().to_le_bytes().to_vec();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(f2.value(), fnv1a(&bytes));
    }
}
