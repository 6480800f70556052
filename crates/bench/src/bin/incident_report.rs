//! Incident pipeline report: record → replay → root-cause, end to end.
//!
//! Runs five seeded incident storylines through the shared broker
//! scenario with the flight recorder and telemetry loop enabled. Each
//! storyline injects one known root cause and is expected to trip one
//! specific anomaly detector:
//!
//! | storyline          | injected cause                        | detector              | expected top cause     |
//! |--------------------|---------------------------------------|-----------------------|------------------------|
//! | surge-daemon-kills | standard fault storyline (kills)      | `staleness_surge`     | `fault_injection`      |
//! | surge-delayed-rows | delayed node-state daemons, headless  | `staleness_surge`     | `fault_injection`      |
//! | starve-huge-job    | unplaceable 64-proc head-of-queue job | `starvation`          | `oversized_reservation`|
//! | collapse-node-kills| seven of eight nodes killed           | `utilization_collapse`| `fault_injection`      |
//! | load-spike-exec    | 32-proc lease landed across the fleet | `load_spike`          | `lease_placement`      |
//!
//! For each storyline the report checks three things:
//!
//! 1. **Replay fidelity** — the flight record is re-driven through
//!    [`nlrm_bench::scenario::rerun_from`] and must reproduce the
//!    original bit-for-bit ([`nlrm_obs::replay::compare`]);
//! 2. **Root cause** — [`nlrm_obs::rca::analyze`] on the trigger event
//!    must rank the injected cause first;
//! 3. **Recording overhead** — wall-clock spent inside recorder calls
//!    must stay under 5% of the scenario runtime, the median of three
//!    timed runs of the storyline.
//!
//! Output:
//!
//! - `results/incident_report.json` — per-storyline trigger, ranked
//!   cause chain, replay report, and record shape;
//! - `results/incident_report.md` — the same as a table plus one
//!   rendered cause chain;
//! - `BENCH_incident.json` — the gated summary (repo root on full runs,
//!   results dir on quick).

use nlrm_bench::report::{self, write_result, Table};
use nlrm_bench::scenario::{self, ArrivalSpec, ScenarioRun, ScenarioSpec};
use nlrm_monitor::{DaemonKind, FaultTarget, MonitorFaultPlan};
use nlrm_obs::{json, rca, replay, EventKind, Progress, RcaReport, ReplayReport};
use nlrm_sim_core::fault::FaultAction;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::fmt::Write as _;

/// Backward evidence window handed to the RCA engine, covering every
/// storyline's injection-to-detection gap.
const RCA_WINDOW_SECS: u64 = 600;

/// Recorder overhead budget as a fraction of scenario wall time.
const OVERHEAD_BUDGET: f64 = 0.05;

/// One seeded incident with its expected detection and diagnosis.
struct Storyline {
    name: &'static str,
    /// What the incident looks like, for the report.
    blurb: &'static str,
    /// The detector expected to fire.
    detector: &'static str,
    /// The [`rca::CauseKind`] label expected to rank first.
    cause: &'static str,
    spec: ScenarioSpec,
}

/// The five storylines. `quick` shortens the two long-tail staleness
/// runs by one checkpoint; the others are already minimal.
fn storylines(seed: u64, quick: bool) -> Vec<Storyline> {
    let surge_cps = scenario::checkpoints(quick);
    let mut out = Vec::new();

    let mut spec = ScenarioSpec::new("surge-daemon-kills", seed, surge_cps);
    spec.faulted = true;
    spec.telemetry = true;
    spec.record = true;
    out.push(Storyline {
        name: "surge-daemon-kills",
        blurb: "standard fault storyline: daemon kills, master failover, \
                headless plane, two node-state daemons dead past t=950",
        detector: "staleness_surge",
        cause: "fault_injection",
        spec: spec.standard_arrivals(16),
    });

    // same surge, different mechanism: the node-state daemons are not
    // killed but *delayed* past the staleness bound, with the
    // supervision plane taken headless first so nothing relaunches them
    let mut plan = MonitorFaultPlan::new();
    plan.schedule(
        SimTime::from_secs(700),
        FaultTarget::Master,
        FaultAction::Kill,
    );
    plan.schedule(
        SimTime::from_secs(900),
        FaultTarget::Master,
        FaultAction::Kill,
    );
    plan.schedule(
        SimTime::from_secs(900),
        FaultTarget::Slave,
        FaultAction::Kill,
    );
    for node in [NodeId(4), NodeId(5), NodeId(6)] {
        plan.schedule(
            SimTime::from_secs(950),
            FaultTarget::Daemon(DaemonKind::NodeState(node)),
            FaultAction::Delay(Duration::from_secs(600)),
        );
    }
    let mut spec = ScenarioSpec::new("surge-delayed-rows", seed, surge_cps);
    spec.fault_plan = Some(plan);
    spec.telemetry = true;
    spec.record = true;
    out.push(Storyline {
        name: "surge-delayed-rows",
        blurb: "headless supervision plane, then three node-state daemons \
                delayed 600s so their rows age past the staleness bound",
        detector: "staleness_surge",
        cause: "fault_injection",
        spec: spec.standard_arrivals(16),
    });

    let mut spec = ScenarioSpec::new("starve-huge-job", seed, &[1100, 1300]);
    spec.submit_huge = true;
    spec.telemetry = true;
    spec.record = true;
    out.push(Storyline {
        name: "starve-huge-job",
        blurb: "a 64-proc job on an 8x8 cluster heads the queue forever; \
                its wait crosses the starvation bound",
        detector: "starvation",
        cause: "oversized_reservation",
        spec: spec.standard_arrivals(16),
    });

    let mut plan = MonitorFaultPlan::new();
    for idx in 1..8u32 {
        plan.schedule(
            SimTime::from_secs(1150),
            FaultTarget::Node(NodeId(idx)),
            FaultAction::Kill,
        );
    }
    // the trailing checkpoint exists so telemetry ticks run *after* the
    // scheduling pass that observes the collapsed capacity
    let mut spec = ScenarioSpec::new("collapse-node-kills", seed, &[1100, 1300, 1360]);
    spec.fault_plan = Some(plan);
    spec.telemetry = true;
    spec.record = true;
    out.push(Storyline {
        name: "collapse-node-kills",
        blurb: "seven of eight nodes killed at t=1150 with work queued; \
                utilization collapses to zero",
        detector: "utilization_collapse",
        cause: "fault_injection",
        spec: spec.standard_arrivals(16),
    });

    // checkpoints through 700 warm the load EWMA on a stable baseline;
    // the node samples are 1/5/15-min windowed means, so the derivation
    // at 1000 — five minutes after the lease lands and stays resident —
    // sees the converged jump as one sharp gauge step, and the trailing
    // checkpoint at 1030 lets telemetry ticks read it
    let mut spec = ScenarioSpec::new("load-spike-exec", seed, &[400, 500, 600, 700, 1000, 1030]);
    spec.submit_huge = true; // keeps every checkpoint deriving loads
    spec.telemetry = true;
    spec.record = true;
    spec.lease_load = true;
    spec.complete_prev = false;
    spec.arrivals = vec![ArrivalSpec {
        at_secs: 700,
        name: "spike-32".into(),
        procs: 32,
    }];
    out.push(Storyline {
        name: "load-spike-exec",
        blurb: "a 32-proc lease lands across the whole fleet at t=700 and \
                its load stays resident; mean CPU load jumps 6 sigma",
        detector: "load_spike",
        cause: "lease_placement",
        spec,
    });

    out
}

/// Everything one storyline produced.
struct Outcome {
    name: &'static str,
    blurb: &'static str,
    detector: &'static str,
    expected_cause: &'static str,
    run: ScenarioRun,
    /// Trigger seq + RCA report, when the expected detector fired.
    rca: Option<RcaReport>,
    detector_fired: bool,
    cause_hit: bool,
    replay: ReplayReport,
    overhead_frac: f64,
}

/// Seq of the latest `anomaly_detected` event from `detector`.
fn trigger_seq(run: &ScenarioRun, detector: &str) -> Option<u64> {
    run.obs
        .journal
        .events_of("anomaly_detected")
        .into_iter()
        .rev()
        .find(
            |e| matches!(&e.kind, EventKind::AnomalyDetected { detector: d, .. } if d == detector),
        )
        .map(|e| e.seq)
}

fn run_storyline(progress: &Progress, story: Storyline) -> Outcome {
    progress.phase(story.name);
    let run = scenario::run(&story.spec);
    let record = run.record.as_ref().expect("recording enabled");

    let rca = trigger_seq(&run, story.detector)
        .and_then(|seq| rca::analyze(&run.obs, seq, Duration::from_secs(RCA_WINDOW_SECS)));
    let detector_fired = rca.is_some();
    let cause_hit = rca
        .as_ref()
        .and_then(|r| r.top_cause())
        .is_some_and(|c| c.kind.label() == story.cause);

    let replayed = scenario::rerun_from(record);
    let replay = replay::compare(record, replayed.record.as_ref().expect("replay records"));

    // one short run on a slow stretch of the host can read well past the
    // recorder's share, so the gated figure is the median of three runs
    let frac = |run: &ScenarioRun| {
        if run.wall_secs > 0.0 {
            (run.obs.recorder.wall_nanos() as f64 / 1e9) / run.wall_secs
        } else {
            0.0
        }
    };
    let mut fracs = [frac(&run), 0.0, 0.0];
    for f in &mut fracs[1..] {
        *f = frac(&scenario::run(&story.spec));
    }
    fracs.sort_by(f64::total_cmp);
    let overhead_frac = fracs[1];

    progress.kv("detector_fired", detector_fired);
    progress.kv(
        "recorder_nanos/wall_secs",
        format!("{}/{:.3}", run.obs.recorder.wall_nanos(), run.wall_secs),
    );
    progress.kv("cause_hit", cause_hit);
    progress.kv("replay_identical", replay.is_identical());
    Outcome {
        name: story.name,
        blurb: story.blurb,
        detector: story.detector,
        expected_cause: story.cause,
        run,
        rca,
        detector_fired,
        cause_hit,
        replay,
        overhead_frac,
    }
}

fn outcome_json(o: &Outcome) -> String {
    let record = o.run.record.as_ref().expect("recording enabled");
    let fired: Vec<String> = o
        .run
        .obs
        .journal
        .events_of("anomaly_detected")
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::AnomalyDetected { detector, .. } => Some(json::string(detector)),
            _ => None,
        })
        .collect();
    json::object(&[
        ("name", json::string(o.name)),
        ("blurb", json::string(o.blurb)),
        ("detector", json::string(o.detector)),
        ("expected_cause", json::string(o.expected_cause)),
        ("detector_fired", o.detector_fired.to_string()),
        ("anomalies", json::array(&fired)),
        ("cause_hit", o.cause_hit.to_string()),
        (
            "top_cause",
            o.rca
                .as_ref()
                .and_then(|r| r.top_cause())
                .map(|c| json::string(c.kind.label()))
                .unwrap_or_else(|| "null".to_string()),
        ),
        (
            "rca",
            o.rca
                .as_ref()
                .map(|r| r.to_json())
                .unwrap_or_else(|| "null".to_string()),
        ),
        ("replay", o.replay.to_json()),
        ("overhead_frac", json::num(o.overhead_frac)),
        ("wall_secs", json::num(o.run.wall_secs)),
        (
            "record",
            json::object(&[
                ("arrivals", record.arrivals.len().to_string()),
                ("faults", record.faults.len().to_string()),
                ("streams", record.streams.len().to_string()),
                ("journal_len", record.journal_len.to_string()),
                ("evidence", record.evidence.len().to_string()),
            ]),
        ),
        ("granted", o.run.decisions.len().to_string()),
        ("deferred", o.run.deferred.len().to_string()),
    ])
}

fn main() {
    let progress = Progress::start("incident_report");
    let quick = report::quick();
    let seed = report::seed(2025);
    progress.kv("seed", seed);
    progress.kv("quick", quick);

    // one untimed warm-up run so the first timed storyline does not pay
    // cold-start costs (page-in, allocator growth) inside its recorder
    // overhead measurement
    let mut warm = storylines(seed, true);
    scenario::run(&warm.swap_remove(0).spec);

    let outcomes: Vec<Outcome> = storylines(seed, quick)
        .into_iter()
        .map(|s| run_storyline(&progress, s))
        .collect();

    progress.phase("export");
    let total = outcomes.len();
    let rca_hits = outcomes.iter().filter(|o| o.cause_hit).count();
    let replay_identical = outcomes.iter().filter(|o| o.replay.is_identical()).count();
    let max_overhead = outcomes
        .iter()
        .map(|o| o.overhead_frac)
        .fold(0.0f64, f64::max);
    let rca_floor = total - 1; // >= 4 of 5
    let pass =
        replay_identical == total && rca_hits >= rca_floor && max_overhead <= OVERHEAD_BUDGET;

    let params = json::object(&[
        ("seed", seed.to_string()),
        ("quick", quick.to_string()),
        ("nodes", "8".to_string()),
        ("rca_window_s", RCA_WINDOW_SECS.to_string()),
        ("overhead_budget_frac", json::num(OVERHEAD_BUDGET)),
    ]);
    let summary = json::object(&[
        ("storylines", total.to_string()),
        ("rca_hits", rca_hits.to_string()),
        ("rca_floor", rca_floor.to_string()),
        ("replay_identical", replay_identical.to_string()),
        ("max_overhead_frac", json::num(max_overhead)),
        ("pass", pass.to_string()),
    ]);
    let per_story: Vec<String> = outcomes.iter().map(outcome_json).collect();
    let report_json = json::object(&[
        ("params", params),
        ("storylines", json::array(&per_story)),
        ("summary", summary),
    ]);
    json::validate(&report_json).expect("incident_report.json is valid JSON");
    write_result("incident_report.json", &report_json).expect("write result");

    let mut table = Table::new(&[
        "storyline",
        "detector",
        "fired",
        "top cause",
        "hit",
        "replay",
        "overhead",
    ]);
    for o in &outcomes {
        table.row(&[
            o.name.to_string(),
            o.detector.to_string(),
            o.detector_fired.to_string(),
            o.rca
                .as_ref()
                .and_then(|r| r.top_cause())
                .map(|c| c.kind.label().to_string())
                .unwrap_or_else(|| "-".to_string()),
            o.cause_hit.to_string(),
            if o.replay.is_identical() {
                "identical".to_string()
            } else {
                o.replay
                    .divergence
                    .as_ref()
                    .map(|d| d.render())
                    .unwrap_or_default()
            },
            format!("{:.4}%", o.overhead_frac * 100.0),
        ]);
    }
    let mut md = String::new();
    let _ = writeln!(md, "# Incident pipeline report\n");
    let _ = writeln!(
        md,
        "Five seeded incidents, each recorded by the flight recorder, \
         replayed bit-for-bit from the record, and root-caused from the \
         trigger event. `hit` means the injected cause ranked first.\n"
    );
    md.push_str(&table.to_markdown());
    let _ = writeln!(
        md,
        "\nSummary: {rca_hits}/{total} causes ranked first (floor \
         {rca_floor}), {replay_identical}/{total} replays identical, max \
         recorder overhead {:.4}% (budget {:.0}%).",
        max_overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
    if let Some(r) = outcomes.iter().find_map(|o| o.rca.as_ref()) {
        let _ = writeln!(md, "\n## Example cause chain\n");
        let _ = writeln!(md, "```\n{}```", r.render());
    }
    write_result("incident_report.md", &md).expect("write result");

    let bench = json::object(&[
        ("bench", json::string("incident_report")),
        ("quick", quick.to_string()),
        ("seed", seed.to_string()),
        ("storylines", total.to_string()),
        ("rca_hits", rca_hits.to_string()),
        ("rca_floor", rca_floor.to_string()),
        ("replay_identical", replay_identical.to_string()),
        (
            "all_replays_identical",
            (replay_identical == total).to_string(),
        ),
        ("max_overhead_frac", json::num(max_overhead)),
        ("overhead_budget_frac", json::num(OVERHEAD_BUDGET)),
        (
            "within_budget",
            (max_overhead <= OVERHEAD_BUDGET).to_string(),
        ),
        ("pass", pass.to_string()),
    ]);
    report::write_bench("BENCH_incident.json", quick, &bench).expect("write BENCH_incident.json");
    if !nlrm_obs::progress::quiet() {
        print!("{}", table.to_markdown());
    }

    progress.kv("rca_hits", format!("{rca_hits}/{total}"));
    progress.kv("replay_identical", format!("{replay_identical}/{total}"));
    progress.kv("max_overhead", format!("{max_overhead:.5}"));
    progress.kv("pass", pass);
    progress.done();
}
