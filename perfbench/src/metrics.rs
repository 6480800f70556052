//! Metric catalog, statistics and the result line.
//!
//! The catalog mirrors `BENCHMARK.json`: an untraced run emits exactly the
//! end-to-end metrics, a traced run exactly the per-layer ones, on every
//! workload. A layer a workload bypasses reads 0.

use crate::Tally;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_jobs_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p95_ms", "ms"),
    ("winner_cost_mean", "cost"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit). Times are self time per loop step.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("monitor.run_until_ms", "ms"),
    ("monitor.pair_measurements", "count"),
    ("monitor.probe_bytes", "bytes"),
    ("monitor.gossip_bytes", "bytes"),
    ("snapshot.assemble_ms", "ms"),
    ("loads.derive_ms", "ms"),
    ("loads.derive_calls_per_tick", "count"),
    ("candidate.generate_ms", "ms"),
    ("select.select_best_ms", "ms"),
    ("policy.allocate_ms", "ms"),
    ("scalable.allocate_pruned_ms", "ms"),
    ("scalable.expanded", "count"),
    ("scalable.prune_ratio", "ratio"),
    ("broker.tick_ms", "ms"),
    ("broker.started_per_tick", "count"),
    ("broker.deferred_per_tick", "count"),
    ("broker.backfill_started", "count"),
    ("broker.wait_p50_s", "s"),
    ("broker.wait_p95_s", "s"),
    ("broker.utilization", "ratio"),
    ("cluster.clone_ms", "ms"),
    ("mpi.execute_ms", "ms"),
    ("mpi.steps", "count"),
    ("mpi.comm_fraction", "ratio"),
    ("mpi.job_runtime_mean_s", "s"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Span names the benchmark records around layer calls, with the
/// per-layer metric carrying each one's self time.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("monitor.run_until", "monitor.run_until_ms"),
    ("snapshot.assemble", "snapshot.assemble_ms"),
    ("loads.derive", "loads.derive_ms"),
    ("candidate.generate", "candidate.generate_ms"),
    ("select.select_best", "select.select_best_ms"),
    ("policy.allocate", "policy.allocate_ms"),
    ("scalable.allocate_pruned", "scalable.allocate_pruned_ms"),
    ("broker.tick", "broker.tick_ms"),
    ("cluster.clone", "cluster.clone_ms"),
    ("mpi.execute", "mpi.execute_ms"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}

/// Nearest-rank percentile (`p` in 0..=1); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above `value`.
pub fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&x| x > value).count()
}

/// High-water resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// Printed after the sample count: samples beyond a percentile, or a
    /// layer's share of the loop's wall time.
    pub detail: Option<String>,
}

impl Metric {
    /// A metric; the name must be catalogued.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        Metric {
            name,
            value,
            samples,
            detail: None,
        }
    }

    /// The `p` percentile of `samples`, with the count lying beyond it.
    pub fn percentile(name: &'static str, samples: &[f64], p: f64) -> Metric {
        let value = percentile(samples, p);
        Metric {
            detail: Some(format!("{} beyond", beyond(samples, value))),
            ..Metric::new(name, value, samples.len())
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check held.
    pub correct: bool,
    /// Placements attempted.
    pub attempted: u64,
    /// Placements failed, refused or never started.
    pub failed: u64,
    /// The emitted metrics.
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Loop steps measured.
    pub steps: u64,
    /// Loop wall time, seconds.
    pub wall_s: f64,
    /// Traced runs: the spans as a Chrome trace-event document.
    pub chrome_trace: Option<String>,
    /// Context printed before the metric lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Assemble a report; any non-finite value makes it incorrect.
    pub fn new(tally: Tally, metrics: Vec<Metric>, steps: u64, wall_s: f64) -> Report {
        let mut violations = tally.violations;
        for m in &metrics {
            if !m.value.is_finite() {
                violations.push(format!("{} is not finite", m.name));
            }
        }
        Report {
            correct: violations.is_empty(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            violations,
            steps,
            wall_s,
            chrome_trace: None,
            notes: Vec::new(),
        }
    }

    /// Value of an emitted metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name).expect("catalogued")
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(beyond(&xs, 190.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
