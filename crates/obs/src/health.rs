//! Derived cluster-health snapshots.
//!
//! [`HealthTracker::observe`] reads the raw gauges and histograms the
//! monitor, load-derivation, and broker layers publish into the metrics
//! registry and folds them into one [`HealthSnapshot`] per telemetry tick:
//! node utilization, allocation fragmentation, queue pressure by priority
//! class, stale-sample fraction, and monitor traffic per round. The derived
//! values are written back into the registry as `health_*` gauges so the
//! existing JSON and Prometheus exporters carry them with no extra wiring.

use crate::json;
use crate::metrics::Metrics;
use nlrm_sim_core::time::SimTime;

/// Names of the priority classes, indexing the per-class queue gauges.
pub const CLASS_NAMES: [&str; 3] = ["batch", "normal", "urgent"];

/// One derived health snapshot at a telemetry tick.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Virtual time of the tick.
    pub at: SimTime,
    /// Fraction of total process capacity currently reserved, in `[0, 1]`.
    pub utilization: f64,
    /// `1 - largest_free_block / free_procs`: 0 when all free capacity sits
    /// on one node, →1 as it shatters across many. 0 when nothing is free.
    pub fragmentation: f64,
    /// Jobs waiting in the broker queue.
    pub queue_depth: u64,
    /// Queue depth by priority class (`[batch, normal, urgent]`).
    pub queue_by_class: [u64; 3],
    /// Longest wait among currently queued jobs, in seconds.
    pub oldest_wait_secs: f64,
    /// p99 of completed queue waits, once any job has started.
    pub wait_p99_secs: Option<f64>,
    /// Fraction of monitored nodes excluded as stale at the last load
    /// derivation, in `[0, 1]`.
    pub stale_fraction: f64,
    /// Mean windowed CPU load over usable nodes at the last derivation.
    pub mean_cpu_load: f64,
    /// Pair measurements taken by the last monitor sweep.
    pub round_pairs: u64,
    /// Bytes moved (probes + published rows) by the last monitor sweep.
    pub round_bytes: u64,
    /// Bytes moved by the last gossip dissemination round (0 under central
    /// monitoring, which has no gossip layer). Kept separate from
    /// `round_bytes` so relayed summaries are never double-counted as
    /// sweep traffic.
    pub gossip_round_bytes: u64,
}

impl HealthSnapshot {
    /// Export as a JSON object.
    pub fn to_json(&self) -> String {
        let classes: Vec<(&str, String)> = CLASS_NAMES
            .iter()
            .zip(self.queue_by_class)
            .map(|(n, c)| (*n, c.to_string()))
            .collect();
        json::object(&[
            ("at_s", json::num(self.at.as_secs_f64())),
            ("utilization", json::num(self.utilization)),
            ("fragmentation", json::num(self.fragmentation)),
            ("queue_depth", self.queue_depth.to_string()),
            ("queue_by_class", json::object(&classes)),
            ("oldest_wait_secs", json::num(self.oldest_wait_secs)),
            (
                "wait_p99_secs",
                self.wait_p99_secs.map_or("null".into(), json::num),
            ),
            ("stale_fraction", json::num(self.stale_fraction)),
            ("mean_cpu_load", json::num(self.mean_cpu_load)),
            ("round_pairs", self.round_pairs.to_string()),
            ("round_bytes", self.round_bytes.to_string()),
            ("gossip_round_bytes", self.gossip_round_bytes.to_string()),
        ])
    }
}

/// Folds raw per-layer metrics into [`HealthSnapshot`]s.
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    latest: Option<HealthSnapshot>,
    observed: u64,
}

impl HealthTracker {
    /// A tracker with no snapshots yet.
    pub fn new() -> HealthTracker {
        HealthTracker::default()
    }

    /// Derive one snapshot from the registry at `now` and mirror it back as
    /// `health_*` gauges.
    pub fn observe(&mut self, now: SimTime, metrics: &Metrics) -> HealthSnapshot {
        let snap = metrics.read(|m| {
            let capacity = m.gauge("broker_total_capacity");
            let free = m.gauge("broker_free_procs");
            let largest_free = m.gauge("broker_largest_free_block");
            let utilization = if capacity > 0.0 {
                (1.0 - free / capacity).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let fragmentation = if free > 0.0 {
                (1.0 - largest_free / free).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let queue_by_class = [
                m.gauge("broker_queue_depth_batch") as u64,
                m.gauge("broker_queue_depth_normal") as u64,
                m.gauge("broker_queue_depth_urgent") as u64,
            ];
            HealthSnapshot {
                at: now,
                utilization,
                fragmentation,
                queue_depth: m.gauge("broker_queue_depth") as u64,
                queue_by_class,
                oldest_wait_secs: m.gauge("broker_oldest_wait_secs"),
                wait_p99_secs: m.quantile("broker_job_wait_secs", 0.99),
                stale_fraction: m.gauge("loads_stale_fraction"),
                mean_cpu_load: m.gauge("cluster_mean_cpu_load"),
                round_pairs: m.gauge("monitor_round_pairs") as u64,
                round_bytes: m.gauge("monitor_round_bytes") as u64,
                gossip_round_bytes: m.gauge("monitor_gossip_round_bytes") as u64,
            }
        });
        metrics.set("health_utilization", snap.utilization);
        metrics.set("health_fragmentation", snap.fragmentation);
        metrics.set("health_stale_fraction", snap.stale_fraction);
        metrics.set("health_oldest_wait_secs", snap.oldest_wait_secs);
        if let Some(p99) = snap.wait_p99_secs {
            metrics.set("health_wait_p99_secs", p99);
        }
        self.observed += 1;
        self.latest = Some(snap.clone());
        snap
    }

    /// The most recent snapshot, if any tick has run.
    pub fn latest(&self) -> Option<&HealthSnapshot> {
        self.latest.as_ref()
    }

    /// Number of snapshots taken.
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_utilization_and_fragmentation() {
        let m = Metrics::new();
        m.set("broker_total_capacity", 64.0);
        m.set("broker_free_procs", 16.0);
        m.set("broker_largest_free_block", 8.0);
        let mut t = HealthTracker::new();
        let s = t.observe(SimTime::from_secs(100), &m);
        assert!((s.utilization - 0.75).abs() < 1e-12);
        assert!((s.fragmentation - 0.5).abs() < 1e-12);
        // mirrored back into the registry for the exporters
        assert!((m.gauge_value("health_utilization") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_registry_yields_zeros_not_nans() {
        let m = Metrics::new();
        let s = HealthTracker::new().observe(SimTime::ZERO, &m);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.fragmentation, 0.0);
        assert_eq!(s.wait_p99_secs, None);
        assert!(json::validate(&s.to_json()).is_ok());
    }

    #[test]
    fn gossip_round_bytes_is_carried_separately_from_sweep_bytes() {
        let m = Metrics::new();
        m.set("monitor_round_bytes", 4096.0);
        m.set("monitor_gossip_round_bytes", 512.0);
        let s = HealthTracker::new().observe(SimTime::ZERO, &m);
        assert_eq!(s.round_bytes, 4096);
        assert_eq!(s.gossip_round_bytes, 512);
        assert!(s.to_json().contains("\"gossip_round_bytes\":512"));
    }

    #[test]
    fn queue_pressure_by_class_is_carried() {
        let m = Metrics::new();
        m.set("broker_queue_depth", 5.0);
        m.set("broker_queue_depth_batch", 3.0);
        m.set("broker_queue_depth_urgent", 2.0);
        m.set("broker_oldest_wait_secs", 700.0);
        let s = HealthTracker::new().observe(SimTime::ZERO, &m);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.queue_by_class, [3, 0, 2]);
        assert_eq!(s.oldest_wait_secs, 700.0);
    }
}
