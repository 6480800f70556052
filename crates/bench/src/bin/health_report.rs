//! Continuous-telemetry health report over paired broker runs.
//!
//! Runs the shared broker scenario twice with the telemetry loop
//! enabled — once under the full fault storyline (daemon kills, a master
//! failover, a headless supervision plane, stale samples, a permanently
//! starving job) and once fault-free — then reports what the health
//! tracker, SLO tracker, and anomaly detectors said about each arm.
//!
//! The point of the pairing is falsifiability: the detectors must fire
//! on the degraded run *and stay quiet on the healthy one*, otherwise
//! they are noise generators, not detectors.
//!
//! Output:
//!
//! - `results/health_report.json` — params, both arms (health snapshot,
//!   SLO attainment, anomalies, sampled series), and sampler overhead;
//! - `results/health_report.md` — the same comparison as a table;
//! - `BENCH_health.json` — sampler/telemetry overhead as a fraction of
//!   scenario runtime: summed telemetry time over summed scenario time,
//!   across as many runs per arm as it takes to pass 100 ms of scenario
//!   time (repo root on full runs, results dir on quick).

use nlrm_bench::report::{self, write_result, Table};
use nlrm_bench::scenario::{self, ScenarioRun, ScenarioSpec};
use nlrm_obs::{json, Progress};
use std::fmt::Write as _;

/// Scenario wall time each arm sums before its overhead ratio is taken.
/// One run takes a few milliseconds, too short for its own ratio to be
/// stable, so an arm repeats the run until its summed wall time passes
/// this and divides summed telemetry time by summed scenario time.
const MIN_TOTAL_WALL_S: f64 = 0.1;

/// One scenario arm: its name, what its last run produced (every run is
/// the same virtual-time history), how many runs it took, their summed
/// wall time, and the telemetry overhead over all of them.
struct Arm {
    name: &'static str,
    result: ScenarioRun,
    runs: usize,
    total_wall_secs: f64,
    overhead_frac: f64,
}

/// Run one telemetry arm until its runs sum past [`MIN_TOTAL_WALL_S`].
/// Its overhead is the time spent inside `Telemetry::tick` (health
/// derivation + SLO evaluation + detectors + sampler) over the whole
/// scenario wall time, both summed over the runs. The faulted arm takes
/// the fault storyline and the never-placeable 64-process starver; the
/// clean arm leaves both out, so a permanently starving job cannot trip
/// the starvation detector on a run that is supposed to be healthy.
fn run_arm(name: &'static str, seed: u64, checkpoints: &[u64], faulted: bool) -> Arm {
    let mut spec = ScenarioSpec::new("obs-report", seed, checkpoints);
    spec.faulted = faulted;
    spec.submit_huge = faulted;
    spec.telemetry = true;
    let spec = spec.standard_arrivals(16);
    let (mut runs, mut telemetry_secs, mut total_wall_secs) = (0, 0.0, 0.0);
    let result = loop {
        let result = scenario::run(&spec);
        runs += 1;
        telemetry_secs += result.obs.telemetry.wall_nanos() as f64 / 1e9;
        total_wall_secs += result.wall_secs;
        if total_wall_secs >= MIN_TOTAL_WALL_S {
            break result;
        }
    };
    Arm {
        name,
        result,
        runs,
        total_wall_secs,
        overhead_frac: telemetry_secs / total_wall_secs,
    }
}

fn arm_json(arm: &Arm) -> String {
    let tel = &arm.result.obs.telemetry;
    let journal = &arm.result.obs.journal;
    let anomalies: Vec<String> = tel.anomalies().iter().map(|a| a.to_json()).collect();
    json::object(&[
        ("name", json::string(arm.name)),
        ("wall_secs", json::num(arm.result.wall_secs)),
        ("telemetry_ticks", tel.ticks().to_string()),
        ("telemetry_wall_nanos", tel.wall_nanos().to_string()),
        ("granted", arm.result.decisions.len().to_string()),
        ("deferred", arm.result.deferred.len().to_string()),
        ("failovers", arm.result.failovers.to_string()),
        ("relaunches", arm.result.relaunches.to_string()),
        (
            "anomaly_events",
            journal.count_of("anomaly_detected").to_string(),
        ),
        (
            "slo_breach_events",
            journal.count_of("slo_breached").to_string(),
        ),
        ("anomalies", json::array(&anomalies)),
        (
            "health",
            tel.latest_health()
                .map(|h| h.to_json())
                .unwrap_or_else(|| "null".to_string()),
        ),
        ("slos", tel.slo_json()),
        ("telemetry", tel.to_json()),
    ])
}

fn count_kind(arm: &Arm, label: &str) -> usize {
    arm.result
        .obs
        .telemetry
        .anomalies()
        .iter()
        .filter(|a| a.kind.label() == label)
        .count()
}

fn main() {
    let progress = Progress::start("health_report");
    let quick = report::quick();
    let seed = report::seed(2025);
    let checkpoints = scenario::checkpoints(quick);
    progress.kv("seed", seed);
    progress.kv("checkpoints", checkpoints.len());

    progress.phase("faulted arm");
    let faulted = run_arm("faulted", seed, checkpoints, true);
    progress.phase("clean arm");
    let clean = run_arm("clean", seed, checkpoints, false);

    progress.phase("export");
    let faulted_overhead = faulted.overhead_frac;
    let clean_overhead = clean.overhead_frac;

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
    let sampler = json::object(&[
        ("min_total_wall_s", json::num(MIN_TOTAL_WALL_S)),
        ("faulted_repeats", faulted.runs.to_string()),
        ("clean_repeats", clean.runs.to_string()),
        ("faulted_overhead_frac", json::num(faulted_overhead)),
        ("clean_overhead_frac", json::num(clean_overhead)),
        ("budget_frac", json::num(0.05)),
        (
            "within_budget",
            (faulted_overhead <= 0.05 && clean_overhead <= 0.05).to_string(),
        ),
    ]);
    let report_json = json::object(&[
        ("params", params),
        ("arms", json::array(&[arm_json(&faulted), arm_json(&clean)])),
        ("sampler", sampler),
    ]);
    json::validate(&report_json).expect("health_report.json is valid JSON");
    write_result("health_report.json", &report_json).expect("write result");

    let mut table = Table::new(&[
        "arm",
        "anomalies",
        "staleness",
        "starvation",
        "slo breaches",
        "telemetry ticks",
        "overhead",
    ]);
    for arm in [&faulted, &clean] {
        table.row(&[
            arm.name.to_string(),
            arm.result.obs.telemetry.anomalies().len().to_string(),
            count_kind(arm, "staleness_surge").to_string(),
            count_kind(arm, "starvation").to_string(),
            arm.result.obs.journal.count_of("slo_breached").to_string(),
            arm.result.obs.telemetry.ticks().to_string(),
            format!("{:.4}%", arm.overhead_frac * 100.0),
        ]);
    }
    let mut md = String::new();
    let _ = writeln!(md, "# Cluster health report\n");
    let _ = writeln!(
        md,
        "Paired runs of the broker scenario with the continuous-telemetry \
         loop enabled: the *faulted* arm takes the full fault storyline \
         (daemon kills at t=400/450, master failover at t=700, headless \
         plane at t=900, stale samples after t=950, a starving 64-proc \
         job), the *clean* arm runs the same checkpoints fault-free.\n"
    );
    md.push_str(&table.to_markdown());
    if let Some(h) = faulted.result.obs.telemetry.latest_health() {
        let _ = writeln!(md, "\n## Final health snapshot (faulted arm)\n");
        let _ = writeln!(md, "```json\n{}\n```", h.to_json());
    }
    write_result("health_report.md", &md).expect("write result");

    let bench = json::object(&[
        ("bench", json::string("health_report")),
        ("quick", quick.to_string()),
        ("seed", seed.to_string()),
        ("min_total_wall_s", json::num(MIN_TOTAL_WALL_S)),
        ("faulted_repeats", faulted.runs.to_string()),
        ("clean_repeats", clean.runs.to_string()),
        ("faulted_wall_secs", json::num(faulted.result.wall_secs)),
        ("clean_wall_secs", json::num(clean.result.wall_secs)),
        (
            "faulted_total_wall_secs",
            json::num(faulted.total_wall_secs),
        ),
        ("clean_total_wall_secs", json::num(clean.total_wall_secs)),
        (
            "faulted_telemetry_ticks",
            faulted.result.obs.telemetry.ticks().to_string(),
        ),
        (
            "clean_telemetry_ticks",
            clean.result.obs.telemetry.ticks().to_string(),
        ),
        ("faulted_overhead_frac", json::num(faulted_overhead)),
        ("clean_overhead_frac", json::num(clean_overhead)),
        (
            "faulted_anomalies",
            faulted.result.obs.telemetry.anomalies().len().to_string(),
        ),
        (
            "clean_anomalies",
            clean.result.obs.telemetry.anomalies().len().to_string(),
        ),
        ("overhead_budget_frac", json::num(0.05)),
        (
            "within_budget",
            (faulted_overhead <= 0.05 && clean_overhead <= 0.05).to_string(),
        ),
    ]);
    report::write_bench("BENCH_health.json", quick, &bench).expect("write BENCH_health.json");
    if !nlrm_obs::progress::quiet() {
        print!("{}", table.to_markdown());
    }

    progress.kv(
        "faulted_anomalies",
        faulted.result.obs.telemetry.anomalies().len(),
    );
    progress.kv(
        "clean_anomalies",
        clean.result.obs.telemetry.anomalies().len(),
    );
    progress.kv("faulted_overhead", format!("{faulted_overhead:.5}"));
    progress.done();
}
