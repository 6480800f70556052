//! The shared faulted-broker scenario builder.
//!
//! Three binaries (`obs_report`, `health_report`, `trace_report`) and the
//! incident pipeline all drive the same shape: warm a monitored cluster,
//! install a fault storyline, push jobs through a broker at virtual-time
//! checkpoints, and capture the observability output. This module owns
//! that machinery once:
//!
//! - [`ScenarioSpec`] — every knob (seed, cluster size, checkpoints,
//!   fault plan, arrival schedule, telemetry/recording toggles);
//! - [`setup`] / [`ScenarioEnv`] — the common preamble (observer install,
//!   warm-up, fault plan, broker) for consumers that drive their own
//!   checkpoint loop (the traced scenario);
//! - [`run`] — the standard checkpoint loop used by the observability and
//!   incident reports;
//! - [`rerun_from`] — the replay harness: re-drive the monitor runtime,
//!   broker, and cluster simulator from a flight [`Record`], producing a
//!   second record to compare bit-for-bit with
//!   [`nlrm_obs::replay::compare`];
//! - the [`FaultTarget`]↔string codec that lets fault plans travel
//!   through the dependency-free record format.

use crate::runner::Experiment;
use nlrm_cluster::iitk::small_cluster;
use nlrm_core::broker::{Broker, BrokerConfig, BrokerEvent, JobId};
use nlrm_core::AllocationRequest;
use nlrm_monitor::{DaemonKind, FaultTarget, MonitorFaultPlan};
use nlrm_obs::{
    install, ExplainTrace, Obs, ObsGuard, Record, RecordHeader, Severity, TelemetryConfig, TraceId,
};
use nlrm_sim_core::fault::FaultAction;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual warm-up before the first checkpoint, in seconds. Submissions
/// made "up front" (the oversized starver) land at this instant.
pub const WARMUP_SECS: u64 = 360;

/// Virtual-second checkpoints for full storyline runs.
pub const FULL_CHECKPOINTS: &[u64] = &[1100, 1300, 1500];
/// Checkpoints for `NLRM_QUICK` / CI smoke runs.
pub const QUICK_CHECKPOINTS: &[u64] = &[1100, 1300];

/// The storyline checkpoints for a quick or a full run.
pub fn checkpoints(quick: bool) -> &'static [u64] {
    if quick {
        QUICK_CHECKPOINTS
    } else {
        FULL_CHECKPOINTS
    }
}

/// One scheduled job submission at a checkpoint.
#[derive(Debug, Clone)]
pub struct ArrivalSpec {
    /// Virtual second the job is submitted (must be a checkpoint, or the
    /// warm-up instant).
    pub at_secs: u64,
    /// Job display name.
    pub name: String,
    /// Requested process count (`AllocationRequest::minimd`).
    pub procs: u32,
}

/// Every knob of the shared scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Human label (stamped into the flight record's header).
    pub label: String,
    /// RNG seed for the cluster simulator.
    pub seed: u64,
    /// Cluster size in nodes.
    pub nodes: usize,
    /// Scheduling-pass checkpoints, in virtual seconds, ascending.
    pub checkpoints: Vec<u64>,
    /// Install the standard fault storyline (see
    /// [`standard_fault_storyline`]).
    pub faulted: bool,
    /// Explicit fault plan; overrides `faulted` when set.
    pub fault_plan: Option<MonitorFaultPlan>,
    /// Submit the never-placeable 64-process job up front.
    pub submit_huge: bool,
    /// Enable the continuous-telemetry loop.
    pub telemetry: bool,
    /// Enable the incident flight recorder.
    pub record: bool,
    /// Mirror granted leases into node job-load (and remove them on
    /// completion), so placements shape the load signal.
    pub lease_load: bool,
    /// Complete the previously started job at each checkpoint.
    pub complete_prev: bool,
    /// Checkpoint submissions. [`ScenarioSpec::standard_arrivals`] fills
    /// one per checkpoint.
    pub arrivals: Vec<ArrivalSpec>,
    /// Journal ring capacity.
    pub journal_capacity: usize,
}

impl ScenarioSpec {
    /// A spec with the classic defaults: 8 nodes, per-checkpoint
    /// completion, no faults, no telemetry, no recording.
    pub fn new(label: impl Into<String>, seed: u64, checkpoints: &[u64]) -> Self {
        ScenarioSpec {
            label: label.into(),
            seed,
            nodes: 8,
            checkpoints: checkpoints.to_vec(),
            faulted: false,
            fault_plan: None,
            submit_huge: false,
            telemetry: false,
            record: false,
            lease_load: false,
            complete_prev: true,
            arrivals: Vec::new(),
            journal_capacity: 16 * 1024,
        }
    }

    /// One `procs`-process job per checkpoint, named `md{procs}-{i}`.
    pub fn standard_arrivals(mut self, procs: u32) -> Self {
        self.arrivals = self
            .checkpoints
            .iter()
            .enumerate()
            .map(|(i, &cp)| ArrivalSpec {
                at_secs: cp,
                name: format!("md{procs}-{i}"),
                procs,
            })
            .collect();
        self
    }

    /// The record header describing this spec.
    pub fn header(&self) -> RecordHeader {
        RecordHeader {
            label: self.label.clone(),
            seed: self.seed,
            nodes: self.nodes,
            checkpoints: self.checkpoints.clone(),
            faulted: self.faulted || self.fault_plan.is_some(),
            submit_huge: self.submit_huge,
            telemetry: self.telemetry,
            lease_load: self.lease_load,
            complete_prev: self.complete_prev,
        }
    }

    /// The fault plan this spec installs, if any.
    fn plan(&self) -> Option<MonitorFaultPlan> {
        match &self.fault_plan {
            Some(p) => Some(p.clone()),
            None if self.faulted => Some(standard_fault_storyline()),
            None => None,
        }
    }
}

/// The shared fault storyline, in virtual seconds on an 8-node cluster
/// warmed to t=360:
///
/// | t   | fault                         | expected journal reaction        |
/// |-----|-------------------------------|----------------------------------|
/// | 400 | bandwidth daemon killed       | `daemon_relaunched`              |
/// | 450 | node-state daemon on n3 killed| `daemon_relaunched`              |
/// | 700 | master killed                 | `failover` + fresh `slave_spawned` |
/// | 900 | master *and* slave killed     | supervision plane goes headless  |
/// | 950 | node-state daemons n5, n6 killed | never relaunched → `stale_node_excluded` once their samples age past the 60 s bound |
pub fn standard_fault_storyline() -> MonitorFaultPlan {
    let mut plan = MonitorFaultPlan::new();
    let kill = FaultAction::Kill;
    plan.schedule(
        SimTime::from_secs(400),
        FaultTarget::Daemon(DaemonKind::Bandwidth),
        kill,
    );
    plan.schedule(
        SimTime::from_secs(450),
        FaultTarget::Daemon(DaemonKind::NodeState(NodeId(3))),
        kill,
    );
    plan.schedule(SimTime::from_secs(700), FaultTarget::Master, kill);
    plan.schedule(SimTime::from_secs(900), FaultTarget::Master, kill);
    plan.schedule(SimTime::from_secs(900), FaultTarget::Slave, kill);
    for node in [NodeId(5), NodeId(6)] {
        plan.schedule(
            SimTime::from_secs(950),
            FaultTarget::Daemon(DaemonKind::NodeState(node)),
            kill,
        );
    }
    plan
}

/// Encode a fault target as the record codec string.
pub fn encode_fault_target(t: &FaultTarget) -> String {
    match t {
        FaultTarget::Daemon(DaemonKind::Livehosts) => "daemon:livehosts".into(),
        FaultTarget::Daemon(DaemonKind::NodeState(n)) => format!("daemon:nodestate:{}", n.index()),
        FaultTarget::Daemon(DaemonKind::Latency) => "daemon:latency".into(),
        FaultTarget::Daemon(DaemonKind::Bandwidth) => "daemon:bandwidth".into(),
        FaultTarget::Node(n) => format!("node:{}", n.index()),
        FaultTarget::Master => "master".into(),
        FaultTarget::Slave => "slave".into(),
    }
}

/// Decode a fault target from the record codec string.
pub fn decode_fault_target(s: &str) -> Option<FaultTarget> {
    match s {
        "daemon:livehosts" => Some(FaultTarget::Daemon(DaemonKind::Livehosts)),
        "daemon:latency" => Some(FaultTarget::Daemon(DaemonKind::Latency)),
        "daemon:bandwidth" => Some(FaultTarget::Daemon(DaemonKind::Bandwidth)),
        "master" => Some(FaultTarget::Master),
        "slave" => Some(FaultTarget::Slave),
        _ => {
            if let Some(idx) = s.strip_prefix("daemon:nodestate:") {
                return Some(FaultTarget::Daemon(DaemonKind::NodeState(NodeId(
                    idx.parse().ok()?,
                ))));
            }
            if let Some(idx) = s.strip_prefix("node:") {
                return Some(FaultTarget::Node(NodeId(idx.parse().ok()?)));
            }
            None
        }
    }
}

/// Encode a fault action as the record codec string.
pub fn encode_fault_action(a: &FaultAction) -> String {
    match a {
        FaultAction::Kill => "kill".into(),
        FaultAction::Hang(d) => format!("hang:{}", d.as_micros()),
        FaultAction::Delay(d) => format!("delay:{}", d.as_micros()),
    }
}

/// Decode a fault action from the record codec string.
pub fn decode_fault_action(s: &str) -> Option<FaultAction> {
    if s == "kill" {
        return Some(FaultAction::Kill);
    }
    if let Some(us) = s.strip_prefix("hang:") {
        return Some(FaultAction::Hang(Duration::from_micros(us.parse().ok()?)));
    }
    if let Some(us) = s.strip_prefix("delay:") {
        return Some(FaultAction::Delay(Duration::from_micros(us.parse().ok()?)));
    }
    None
}

/// One granted allocation with its decision context.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Job display name.
    pub job: String,
    /// The job's trace id: every journal line and span recorded on the
    /// job's behalf carries it, so a timeline can be grepped per job.
    pub trace: TraceId,
    /// Virtual time the broker granted it.
    pub granted_at: SimTime,
    /// The nodes actually placed on.
    pub nodes: Vec<NodeId>,
    /// Eq. 4 cost of the winning group.
    pub cost: f64,
    /// The ranking that produced the grant.
    pub explain: ExplainTrace,
}

/// The common preamble, installed: observer, warmed cluster + monitor,
/// fault plan (noted into the recorder), broker, and the oversized
/// starver if requested. Consumers drive their own checkpoint loop and
/// call [`ScenarioEnv::finish`].
pub struct ScenarioEnv {
    /// The installed observer bundle.
    pub obs: Obs,
    /// Cluster + monitoring, warmed to [`WARMUP_SECS`].
    pub env: Experiment,
    /// The broker (default configuration, no per-core load cap).
    pub broker: Broker,
    /// Job-id → display-name map for deferral reporting.
    pub names: BTreeMap<JobId, String>,
    guard: Option<ObsGuard>,
}

impl std::fmt::Debug for ScenarioEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEnv")
            .field("now", &self.env.cluster.now())
            .field("jobs", &self.names.len())
            .finish()
    }
}

/// What [`ScenarioEnv::finish`] hands back.
#[derive(Debug)]
pub struct ScenarioFinish {
    /// The (now uninstalled) observer.
    pub obs: Obs,
    /// The finalized flight record, when recording was enabled.
    pub record: Option<Record>,
    /// Daemon relaunches counted by the central monitor itself.
    pub relaunches: usize,
    /// Failovers counted by the central monitor itself.
    pub failovers: usize,
}

/// Build the common scenario preamble from `spec`. The observer is
/// installed on the current thread until [`ScenarioEnv::finish`].
pub fn setup(spec: &ScenarioSpec) -> ScenarioEnv {
    let obs = Obs::with_capacity(spec.journal_capacity);
    // Debug-level ticks and publishes would dominate the ring over a
    // 1500 s run; reports keep the decision-relevant layer.
    obs.journal.set_min_severity(Severity::Info);
    if spec.telemetry {
        obs.telemetry.enable(TelemetryConfig::standard());
    }
    if spec.record {
        obs.recorder.enable(spec.header());
    }
    let guard = install(&obs);

    let mut env = Experiment::new(small_cluster(spec.nodes, spec.seed));
    env.advance(Duration::from_secs(WARMUP_SECS));
    if let Some(plan) = spec.plan() {
        for ev in plan.events() {
            obs.recorder.note_fault(
                ev.at,
                &encode_fault_target(&ev.target),
                &encode_fault_action(&ev.action),
            );
        }
        env.monitor.set_fault_plan(plan);
    }

    let broker = Broker::new(BrokerConfig {
        max_load_per_core: None,
        ..BrokerConfig::default()
    });
    let mut scen = ScenarioEnv {
        obs,
        env,
        broker,
        names: BTreeMap::new(),
        guard: Some(guard),
    };
    if spec.submit_huge {
        scen.submit("huge-64", 64);
    }
    scen
}

impl ScenarioEnv {
    /// Submit a `procs`-process job now, noting the arrival into the
    /// flight recorder.
    pub fn submit(&mut self, name: &str, procs: u32) -> JobId {
        let at = self.env.cluster.now();
        let id = self
            .broker
            .submit_at(name, AllocationRequest::minimd(procs), at)
            .expect("valid request");
        self.names.insert(id, name.to_string());
        self.obs.recorder.note_arrival(at, name, procs);
        id
    }

    /// Display name of a job id.
    pub fn job_name(&self, id: JobId) -> String {
        self.names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("{id:?}"))
    }

    /// Uninstall the observer, finalize the flight record, and return the
    /// captured output.
    pub fn finish(mut self) -> ScenarioFinish {
        let relaunches = self.env.monitor.central().relaunch_count;
        let failovers = self.env.monitor.central().failover_count;
        drop(self.guard.take());
        let record = self.obs.recorder.finalize(&self.obs.metrics);
        ScenarioFinish {
            obs: self.obs,
            record,
            relaunches,
            failovers,
        }
    }
}

/// Everything the standard checkpoint loop produced.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Journal + metrics + spans captured during the run.
    pub obs: Obs,
    /// Granted allocations in grant order.
    pub decisions: Vec<Decision>,
    /// `(job, reason)` per deferral, in occurrence order.
    pub deferred: Vec<(String, String)>,
    /// Daemon relaunches counted by the central monitor itself.
    pub relaunches: usize,
    /// Failovers counted by the central monitor itself.
    pub failovers: usize,
    /// The finalized flight record, when recording was enabled.
    pub record: Option<Record>,
    /// Wall-clock the whole scenario took.
    pub wall_secs: f64,
}

/// Run the standard checkpoint loop: at each checkpoint, complete the
/// previously started job (when `complete_prev`), submit that
/// checkpoint's arrivals, and run one scheduling pass.
pub fn run(spec: &ScenarioSpec) -> ScenarioRun {
    let schedule: Vec<ArrivalSpec> = spec.arrivals.clone();
    drive(spec, schedule)
}

/// Re-drive the whole stack — monitor runtime, broker, cluster simulator
/// — from a flight record: same seed, same topology, same fault plan (via
/// the codec), same arrival stream. Returns a fresh [`ScenarioRun`] whose
/// `record` is compared against the original with
/// [`nlrm_obs::replay::compare`]; a deterministic stack reproduces it
/// bit-for-bit.
///
/// Panics if the record carries a fault target/action the codec does not
/// know (a corrupt or newer-version record).
pub fn rerun_from(record: &Record) -> ScenarioRun {
    let h = &record.header;
    let mut plan = MonitorFaultPlan::new();
    for f in &record.faults {
        let target = decode_fault_target(&f.target)
            .unwrap_or_else(|| panic!("undecodable fault target {:?}", f.target));
        let action = decode_fault_action(&f.action)
            .unwrap_or_else(|| panic!("undecodable fault action {:?}", f.action));
        plan.schedule(f.at, target, action);
    }
    let spec = ScenarioSpec {
        label: h.label.clone(),
        seed: h.seed,
        nodes: h.nodes,
        checkpoints: h.checkpoints.clone(),
        faulted: h.faulted,
        fault_plan: (!plan.is_empty()).then_some(plan),
        // arrivals are re-driven from the record itself below, including
        // the up-front starver, so the builder must not re-submit it
        submit_huge: false,
        telemetry: h.telemetry,
        record: true,
        lease_load: h.lease_load,
        complete_prev: h.complete_prev,
        arrivals: Vec::new(),
        journal_capacity: 16 * 1024,
    };
    let schedule: Vec<ArrivalSpec> = record
        .arrivals
        .iter()
        .map(|a| ArrivalSpec {
            at_secs: a.at.as_micros() / 1_000_000,
            name: a.name.clone(),
            procs: a.procs,
        })
        .collect();
    let mut run = drive(&spec, schedule);
    // the builder-side submit_huge flag was forced off; restore the
    // original header bit on the replay record so the comparison sees the
    // harness parameters, not the replay plumbing
    if let Some(rec) = &mut run.record {
        rec.header.submit_huge = h.submit_huge;
        rec.header.faulted = h.faulted;
    }
    run
}

/// The checkpoint loop shared by [`run`] and [`rerun_from`]. `schedule`
/// entries at [`WARMUP_SECS`] are submitted right after warm-up;
/// everything else at the first checkpoint at or after its `at_secs`.
fn drive(spec: &ScenarioSpec, schedule: Vec<ArrivalSpec>) -> ScenarioRun {
    assert!(!spec.checkpoints.is_empty(), "need at least one checkpoint");
    let t0 = Instant::now();
    let mut scen = setup(spec);
    let mut pending = schedule.into_iter().peekable();
    // up-front submissions (the oversized starver on generated runs, its
    // recorded arrival on replays)
    while pending.peek().is_some_and(|a| a.at_secs <= WARMUP_SECS) {
        let a = pending.next().expect("peeked");
        scen.submit(&a.name, a.procs);
    }

    let mut decisions = Vec::new();
    let mut deferred = Vec::new();
    let mut last_started: Option<JobId> = None;
    let mut lease_loads: BTreeMap<JobId, Vec<(NodeId, u32)>> = BTreeMap::new();
    for &cp in &spec.checkpoints {
        let target = SimTime::from_secs(cp);
        scen.env.advance(target.since(scen.env.cluster.now()));
        if spec.complete_prev {
            if let Some(prev) = last_started.take() {
                scen.broker.complete(prev);
                if let Some(loads) = lease_loads.remove(&prev) {
                    for (node, procs) in loads {
                        scen.env.cluster.add_job_load(node, -(procs as f64));
                    }
                }
            }
        }
        while pending.peek().is_some_and(|a| a.at_secs <= cp) {
            let a = pending.next().expect("peeked");
            scen.submit(&a.name, a.procs);
        }
        let snap = scen.env.snapshot();
        for event in scen.broker.tick(&snap) {
            match event {
                BrokerEvent::Started(lease) => {
                    last_started = Some(lease.id);
                    if spec.lease_load {
                        for &(node, procs) in &lease.allocation.nodes {
                            scen.env.cluster.add_job_load(node, procs as f64);
                        }
                        lease_loads.insert(lease.id, lease.allocation.nodes.clone());
                    }
                    decisions.push(Decision {
                        job: lease.name.clone(),
                        trace: lease.trace,
                        granted_at: snap.taken_at,
                        nodes: lease.allocation.node_list(),
                        cost: lease.allocation.diagnostics.total_cost,
                        explain: lease
                            .allocation
                            .diagnostics
                            .explain
                            .clone()
                            .expect("broker grants carry explain traces"),
                    });
                }
                BrokerEvent::Deferred { id, reason } => {
                    deferred.push((scen.job_name(id), reason));
                }
            }
        }
    }

    let fin = scen.finish();
    ScenarioRun {
        obs: fin.obs,
        decisions,
        deferred,
        relaunches: fin.relaunches,
        failovers: fin.failovers,
        record: fin.record,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_obs::replay;

    #[test]
    fn fault_codec_round_trips() {
        let plan = standard_fault_storyline();
        for ev in plan.events() {
            let t = encode_fault_target(&ev.target);
            let a = encode_fault_action(&ev.action);
            assert_eq!(decode_fault_target(&t), Some(ev.target));
            assert_eq!(decode_fault_action(&a), Some(ev.action));
        }
        assert_eq!(
            decode_fault_action("hang:2000000"),
            Some(FaultAction::Hang(Duration::from_secs(2)))
        );
        assert_eq!(decode_fault_target("daemon:nodestate:oops"), None);
        assert_eq!(decode_fault_action("explode"), None);
    }

    #[test]
    fn recorded_run_replays_bit_identically() {
        let mut spec = ScenarioSpec::new("replay-smoke", 7, QUICK_CHECKPOINTS);
        spec.faulted = true;
        spec.submit_huge = true;
        spec.telemetry = true;
        spec.record = true;
        let spec = spec.standard_arrivals(16);
        let original = run(&spec);
        let record = original.record.as_ref().expect("recording enabled");
        assert!(!record.arrivals.is_empty());
        assert!(!record.faults.is_empty());
        assert!(!record.streams.is_empty(), "probe streams must be taped");
        let replay = rerun_from(record);
        let report = replay::compare(record, replay.record.as_ref().expect("replay records"));
        assert!(
            report.is_identical(),
            "replay diverged: {:?}",
            report.divergence
        );
    }
}
