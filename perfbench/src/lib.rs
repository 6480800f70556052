//! End-to-end and per-layer benchmark of the nlrm pipeline.
//!
//! One command drives the real chain — monitor sweep → snapshot assembly →
//! `Loads::derive*` → Algorithm 1 candidates → Algorithm 2 selection →
//! broker cycle → simulated MPI execution — through the crates' public
//! functions, checks what comes out, and prints every metric by name with
//! its unit. See `perfbench/README.md` for the workloads and metrics.
//!
//! A run is one workload, one seed and one mode:
//!
//! * untraced (`--trace 0`): set up several times (median is `setup_s`),
//!   then run the loop for `--seconds` and report the end-to-end metrics;
//! * traced (`--trace 1`): run the loop untraced for half the time, then set
//!   up again and run the same number of steps with spans around every layer
//!   call and an `nlrm-obs` observer installed for the program's own
//!   counters; report per-layer self time, counts, coverage and overhead.
//!
//! Every run makes at least a fixed prefix of steps; virtual (simulated
//! time) metrics and layer counts come from exactly that prefix, so they
//! repeat bit for bit for a seed however fast the host is.

pub mod calib;
pub mod campus;
pub mod iitk;
pub mod mega;
pub mod metrics;
pub mod trace;

use calib::HostSpeed;
use metrics::{Metric, Report};
use std::time::Instant;
use trace::{Tracer, STEP};

/// Hash mixer used to key every generated input on the seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in [0, 1).
pub fn frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A counter of the installed `nlrm-obs` observer (0 when none is).
pub fn obs_counter(name: &str) -> u64 {
    nlrm_obs::ctx::with_value(|o| o.metrics.counter_value(name)).unwrap_or(0)
}

/// A gauge of the installed `nlrm-obs` observer (0 when none is).
pub fn obs_gauge(name: &str) -> f64 {
    nlrm_obs::ctx::with_value(|o| o.metrics.gauge_value(name)).unwrap_or(0.0)
}

/// Every allocation carries exactly `procs` ranks on nodes the snapshot
/// marks usable, none holding more than the request's per-node count.
pub fn check_allocation(
    alloc: &nlrm_core::Allocation,
    req: &nlrm_core::AllocationRequest,
    snap: &nlrm_monitor::ClusterSnapshot,
    tally: &mut Tally,
) {
    let usable = snap.usable_nodes();
    if alloc.total_procs() != req.procs || alloc.rank_map.len() != req.procs as usize {
        tally.violation(format!(
            "allocation carries {} procs / {} ranks for a {}-proc request",
            alloc.total_procs(),
            alloc.rank_map.len(),
            req.procs
        ));
    }
    let cap = req.ppn.expect("paper requests fix ppn");
    for &(node, procs) in &alloc.nodes {
        if usable.binary_search(&node).is_err() {
            tally.violation(format!("allocation uses unusable node {node}"));
        }
        if procs > cap {
            tally.violation(format!("node {node} over-reserved: {procs} > {cap}"));
        }
    }
}

/// What the loop steps report back to the run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs that went through the loop (started, executed or decided).
    pub jobs: u64,
    /// Placements attempted.
    pub attempted: u64,
    /// Placements that failed, were refused or never started.
    pub failed: u64,
    /// Wall time of each allocation decision, ms.
    pub decision_ms: Vec<f64>,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// (loop seconds, jobs so far) at the end of every step.
    pub step_marks: Vec<(f64, u64)>,
    /// Host-speed samples taken between steps.
    pub host: HostSpeed,
}

impl Tally {
    /// Record a failed output check.
    pub fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

/// One workload's set-up and loop step.
pub trait Scenario: Sized {
    /// Build the inputs from `seed` and warm the system up.
    fn setup(seed: u64) -> Self;
    /// One step of the measured loop. `in_prefix` marks the fixed prefix
    /// the virtual metrics and counts are taken over.
    fn step(&mut self, tr: &mut Tracer, tally: &mut Tally, in_prefix: bool);
    /// Called right after the last prefix step (`steps` steps in).
    fn end_prefix(&mut self, steps: u64);
    /// Checks that need the whole run, after the loop.
    fn finish(&mut self, tally: &mut Tally);
    /// `winner_cost_mean` plus every per-layer count and virtual outcome
    /// this workload measures, over the prefix. Layers it bypasses are
    /// left out and read 0.
    fn prefix_metrics(&self) -> Vec<(&'static str, f64)>;
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 protocol on the 60-node IIT-K cluster.
    IitkPaper,
    /// Open-loop broker stream on a 480-node campus, sharded monitor.
    CampusBroker,
    /// Pruned allocation on 50k synthetic tiered nodes.
    MegaAlloc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::IitkPaper,
        Workload::CampusBroker,
        Workload::MegaAlloc,
    ];

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IitkPaper => "iitk-paper",
            Workload::CampusBroker => "campus-broker",
            Workload::MegaAlloc => "mega-alloc",
        }
    }

    /// Default run shape: (prefix steps, cycle steps, set-up repetitions).
    pub fn defaults(self) -> (u64, u64, usize) {
        match self {
            Workload::IitkPaper => (iitk::PREFIX_STEPS, iitk::CYCLE_STEPS, iitk::SETUPS),
            Workload::CampusBroker => (campus::PREFIX_STEPS, 1, campus::SETUPS),
            Workload::MegaAlloc => (mega::PREFIX_STEPS, mega::CYCLE_STEPS, mega::SETUPS),
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured loop duration, seconds.
    pub seconds: f64,
    /// Steps every run makes; virtual metrics and counts come from them.
    pub prefix_steps: u64,
    /// Steps in one full cycle of the workload's request mix. Runs and
    /// throughput blocks end on whole cycles, so every run times the same
    /// mix of cheap and expensive steps.
    pub cycle_steps: u64,
    /// Set-up repetitions of an untraced run (`setup_s` is their median).
    pub setups: usize,
}

impl Config {
    /// The workload's default shape for `seed` and `seconds`.
    pub fn new(w: Workload, seed: u64, seconds: f64) -> Config {
        let (prefix_steps, cycle_steps, setups) = w.defaults();
        Config {
            seed,
            seconds,
            prefix_steps,
            cycle_steps,
            setups,
        }
    }
}

/// Run `w` once.
pub fn run(w: Workload, cfg: &Config, traced: bool) -> Report {
    assert!(cfg.prefix_steps >= 1 && cfg.setups >= 1 && cfg.cycle_steps >= 1);
    match (w, traced) {
        (Workload::IitkPaper, false) => run_untraced::<iitk::Iitk>(cfg),
        (Workload::IitkPaper, true) => run_traced::<iitk::Iitk>(cfg),
        (Workload::CampusBroker, false) => run_untraced::<campus::Campus>(cfg),
        (Workload::CampusBroker, true) => run_traced::<campus::Campus>(cfg),
        (Workload::MegaAlloc, false) => run_untraced::<mega::Mega>(cfg),
        (Workload::MegaAlloc, true) => run_traced::<mega::Mega>(cfg),
    }
}

/// When the measured loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this much wall time (and at least the prefix).
    Seconds(f64),
    /// After exactly this many steps (at least the prefix).
    Steps(u64),
}

/// Shortest throughput block: whole cycles are grouped until a block lasts
/// at least this long.
const BLOCK_S: f64 = 1.0;

/// Throughput of each block of whole cycles lasting at least `BLOCK_S`,
/// from per-step `(loop seconds, jobs so far)` marks.
pub fn block_throughputs(marks: &[(f64, u64)], cycle_steps: u64) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut t_start, mut jobs_start) = (0.0, 0u64);
    for (i, &(t, jobs)) in marks.iter().enumerate() {
        if (i as u64 + 1).is_multiple_of(cycle_steps) && t - t_start >= BLOCK_S {
            out.push((jobs - jobs_start) as f64 / (t - t_start));
            (t_start, jobs_start) = (t, jobs);
        }
    }
    match (out.is_empty(), marks.last()) {
        (true, Some(&(t, jobs))) if t > 0.0 => vec![jobs as f64 / t],
        _ => out,
    }
}

/// Eq. 4 cost of the chosen group relative to the mean candidate's.
/// `T_G` summed over a candidate set is `α + β`, so raw costs shrink as
/// the candidate set grows; the ratio compares placements across cluster
/// states and seeds.
pub fn relative_cost(d: &nlrm_core::request::Diagnostics) -> f64 {
    let n = d.candidate_costs.len().max(1) as f64;
    let mean = d.candidate_costs.iter().map(|&(_, c)| c).sum::<f64>() / n;
    d.total_cost / mean
}

/// Run the loop; returns (steps, loop wall seconds).
fn run_loop<S: Scenario>(
    s: &mut S,
    tr: &mut Tracer,
    tally: &mut Tally,
    cfg: &Config,
    stop: Stop,
) -> (u64, f64) {
    let prefix = cfg.prefix_steps;
    let t0 = Instant::now();
    let mut steps = 0u64;
    loop {
        let done = match stop {
            Stop::Seconds(secs) => {
                steps >= prefix
                    && steps.is_multiple_of(cfg.cycle_steps)
                    && t0.elapsed().as_secs_f64() >= secs
            }
            Stop::Steps(n) => steps >= n.max(prefix),
        };
        if done {
            break;
        }
        tr.set_step(steps);
        tr.enter(STEP);
        s.step(tr, tally, steps < prefix);
        tr.exit();
        tally
            .step_marks
            .push((t0.elapsed().as_secs_f64(), tally.jobs));
        steps += 1;
        tally.host.sample_at(t0.elapsed().as_secs_f64());
        if steps == prefix {
            s.end_prefix(steps);
        }
    }
    (steps, t0.elapsed().as_secs_f64())
}

fn prefix_value(s: &impl Scenario, name: &str) -> f64 {
    s.prefix_metrics()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map_or(0.0, |(_, v)| v)
}

fn run_untraced<S: Scenario>(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    tally.host.sample();
    // half the set-ups before the loop (the last one feeds it), half after,
    // so setup_s sees the same host conditions as the loop
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut time_setup = || {
        let t0 = Instant::now();
        let s = S::setup(cfg.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        s
    };
    let mut s = time_setup();
    for _ in 1..cfg.setups.div_ceil(2) {
        drop(s);
        s = time_setup();
    }
    let (steps, wall_s) = run_loop(
        &mut s,
        &mut Tracer::off(),
        &mut tally,
        cfg,
        Stop::Seconds(cfg.seconds),
    );
    s.finish(&mut tally);
    let winner_cost = prefix_value(&s, "winner_cost_mean");
    drop(s);
    for _ in cfg.setups.div_ceil(2)..cfg.setups {
        drop(time_setup());
    }
    tally.host.sample();

    let scale = tally.host.time_scale();
    let blocks = block_throughputs(&tally.step_marks, cfg.cycle_steps);
    let decision_ms: Vec<f64> = tally.decision_ms.iter().map(|d| d * scale).collect();
    let m = vec![
        Metric::new("setup_s", metrics::median(&setup_s) * scale, setup_s.len()),
        Metric::new(
            "throughput_jobs_per_s",
            metrics::median(&blocks) / scale,
            blocks.len(),
        ),
        Metric::percentile("decision_p50_ms", &decision_ms, 0.50),
        Metric::percentile("decision_p95_ms", &decision_ms, 0.95),
        Metric::new("winner_cost_mean", winner_cost, cfg.prefix_steps as usize),
        Metric::new("peak_rss_mb", metrics::peak_rss_mb(), 1),
    ];
    let host = format!(
        "host: reference kernel median {:.4} ms over {} samples (nominal {} ms); \
         wall metrics scaled by {scale:.4}; raw setup_s {}, throughput {}, decision p50 {} ms",
        tally.host.median_ms(),
        tally.host.samples(),
        calib::NOMINAL_MS,
        metrics::median(&setup_s),
        metrics::median(&blocks),
        metrics::percentile(&tally.decision_ms, 0.5),
    );
    let mut report = Report::new(tally, m, steps, wall_s);
    report.notes.push(host);
    report
}

fn run_traced<S: Scenario>(cfg: &Config) -> Report {
    // untraced reference over the same inputs: the overhead baseline
    let mut s = S::setup(cfg.seed);
    let mut reference = Tally::default();
    let (ref_steps, ref_wall_s) = run_loop(
        &mut s,
        &mut Tracer::off(),
        &mut reference,
        cfg,
        Stop::Seconds(cfg.seconds / 2.0),
    );
    s.finish(&mut reference);
    let ref_cost = prefix_value(&s, "winner_cost_mean");
    drop(s);

    let obs = nlrm_obs::Obs::new();
    obs.journal.set_min_severity(nlrm_obs::Severity::Error);
    let mut s = S::setup(cfg.seed);
    let mut tr = Tracer::on();
    let mut tally = Tally::default();
    let (steps, wall_s) = {
        let _guard = nlrm_obs::install(&obs);
        let out = run_loop(&mut s, &mut tr, &mut tally, cfg, Stop::Steps(ref_steps));
        s.finish(&mut tally);
        out
    };
    let cost = prefix_value(&s, "winner_cost_mean");
    if cost.to_bits() != ref_cost.to_bits() {
        tally.violation(format!(
            "traced run placed differently: winner_cost_mean {cost} vs {ref_cost} untraced"
        ));
    }
    tally.attempted += reference.attempted;
    tally.failed += reference.failed;
    tally.violations.extend(reference.violations);

    let self_times = tr.self_times();
    let layer_ns: u64 = metrics::LAYER_SPANS
        .iter()
        .filter_map(|(span, _)| self_times.get(span))
        .map(|t| t.self_ns)
        .sum();
    let prefix = s.prefix_metrics();
    let m = metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let span = metrics::LAYER_SPANS.iter().find(|&&(_, m)| m == name);
            match (name, span) {
                (_, Some(&(span, _))) => {
                    let st = self_times.get(span).copied().unwrap_or_default();
                    let ms_per_step = st.self_ns as f64 / 1e6 / steps as f64;
                    let share = st.self_ns as f64 / tr.step_ns().max(1) as f64;
                    Metric {
                        detail: Some(format!("{:.1}% of loop wall time", share * 100.0)),
                        ..Metric::new(name, ms_per_step, st.calls as usize)
                    }
                }
                ("trace.layer_coverage", None) => Metric::new(
                    name,
                    layer_ns as f64 / tr.step_ns().max(1) as f64,
                    steps as usize,
                ),
                ("trace.overhead", None) => Metric::new(
                    name,
                    (wall_s / steps as f64) / (ref_wall_s / ref_steps as f64) - 1.0,
                    steps as usize,
                ),
                _ => {
                    let v = prefix
                        .iter()
                        .find(|&&(n, _)| n == name)
                        .map_or(0.0, |&(_, v)| v);
                    Metric::new(name, v, cfg.prefix_steps as usize)
                }
            }
        })
        .collect();
    let mut report = Report::new(tally, m, steps, wall_s);
    report.chrome_trace = Some(tr.to_chrome_json());
    report
}
