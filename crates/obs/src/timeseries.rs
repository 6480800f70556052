//! Virtual-time metric time series: bounded rings with lossless-aggregate
//! downsampling.
//!
//! A [`Series`] is a ring of [`Point`]s, each an aggregate (sum, count,
//! min, max, last timestamp) of one or more raw samples. When the ring
//! fills, adjacent points are merged pairwise — the ring halves, the
//! per-point sample stride doubles, and the series keeps covering its
//! whole history at ever-coarser resolution. Total sum and count are
//! preserved exactly across any number of compactions, so rates and means
//! computed over the series stay correct no matter how long a scenario
//! runs.
//!
//! A [`Sampler`] snapshots registered metrics (counter deltas, gauge
//! values, histogram quantiles) out of a [`Metrics`] registry on a fixed
//! virtual-time cadence and appends them to one series per source. It is
//! the mechanical layer under `obs::telemetry`; it knows nothing about
//! health or SLOs.

use crate::json;
use crate::metrics::Metrics;
use nlrm_sim_core::time::{Duration, SimTime};

/// One aggregated point: `count` raw samples folded together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Virtual time of the newest raw sample in the aggregate.
    pub t: SimTime,
    /// Sum of the folded samples.
    pub sum: f64,
    /// Number of folded samples.
    pub count: u64,
    /// Smallest folded sample.
    pub min: f64,
    /// Largest folded sample.
    pub max: f64,
}

impl Point {
    /// A point holding a single raw sample.
    pub fn sample(t: SimTime, v: f64) -> Point {
        Point {
            t,
            sum: v,
            count: 1,
            min: v,
            max: v,
        }
    }

    /// Mean of the folded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold `other` (the newer aggregate) into `self`.
    fn absorb(&mut self, other: &Point) {
        self.t = self.t.max(other.t);
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_json(self) -> String {
        json::object(&[
            ("t_s", json::num(self.t.as_secs_f64())),
            ("sum", json::num(self.sum)),
            ("count", self.count.to_string()),
            ("min", json::num(self.min)),
            ("max", json::num(self.max)),
        ])
    }
}

/// A bounded ring of [`Point`]s with pairwise-merge downsampling.
#[derive(Debug, Clone)]
pub struct Series {
    capacity: usize,
    points: Vec<Point>,
    /// Raw samples each point absorbs before a new point opens; doubles on
    /// every compaction.
    stride: u64,
    /// How many times the ring has been compacted.
    compactions: u64,
    /// Raw samples pushed over the series' lifetime.
    pushed: u64,
}

impl Series {
    /// A series retaining at most `capacity` points (clamped to ≥ 2).
    pub fn new(capacity: usize) -> Series {
        Series {
            capacity: capacity.max(2),
            points: Vec::new(),
            stride: 1,
            compactions: 0,
            pushed: 0,
        }
    }

    /// Append one raw sample. Non-finite values are dropped (they would
    /// poison every aggregate they are folded into). Timestamps are
    /// expected non-decreasing; an out-of-order sample is folded into the
    /// newest point rather than reordering the ring.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.pushed += 1;
        let p = Point::sample(t, v);
        match self.points.last_mut() {
            Some(last) if last.count < self.stride || t < last.t => {
                last.absorb(&p);
            }
            _ => {
                if self.points.len() >= self.capacity {
                    self.compact();
                    // after compaction the (formerly unpaired) tail point
                    // may have room again under the doubled stride
                    if let Some(last) = self.points.last_mut() {
                        if last.count < self.stride {
                            last.absorb(&p);
                            return;
                        }
                    }
                }
                self.points.push(p);
            }
        }
    }

    /// Merge adjacent pairs: halves the ring, doubles the stride. Sum and
    /// count of every folded sample are preserved exactly.
    fn compact(&mut self) {
        let mut merged: Vec<Point> = Vec::with_capacity(self.capacity / 2 + 1);
        for chunk in self.points.chunks(2) {
            let mut p = chunk[0];
            if let Some(b) = chunk.get(1) {
                p.absorb(b);
            }
            merged.push(p);
        }
        self.points = merged;
        self.stride *= 2;
        self.compactions += 1;
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The ring capacity in points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw samples each point currently absorbs (2^compactions).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// How many times the ring has been compacted.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Raw samples pushed over the series' lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Σ sum over all retained points (equals the sum of every finite
    /// sample ever pushed — downsampling never sheds mass).
    pub fn total_sum(&self) -> f64 {
        self.points.iter().map(|p| p.sum).sum()
    }

    /// Σ count over all retained points (equals [`Series::pushed`]).
    pub fn total_count(&self) -> u64 {
        self.points.iter().map(|p| p.count).sum()
    }

    /// The newest point, if any.
    pub fn last(&self) -> Option<&Point> {
        self.points.last()
    }

    /// Largest max over the retained points.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.max)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean over every folded sample.
    pub fn mean(&self) -> Option<f64> {
        let n = self.total_count();
        if n == 0 {
            None
        } else {
            Some(self.total_sum() / n as f64)
        }
    }

    /// Export as a JSON object with ring metadata and the point list.
    pub fn to_json(&self) -> String {
        let pts: Vec<String> = self.points.iter().map(|p| p.to_json()).collect();
        json::object(&[
            ("capacity", self.capacity.to_string()),
            ("stride", self.stride.to_string()),
            ("compactions", self.compactions.to_string()),
            ("pushed", self.pushed.to_string()),
            ("points", json::array(&pts)),
        ])
    }
}

/// What a sampler source reads out of the metrics registry each tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceKind {
    /// Increase of a counter since the previous tick (0 on the first).
    CounterDelta,
    /// Current gauge value.
    Gauge,
    /// A quantile of a histogram (`None` until it has observations).
    HistogramQuantile(f64),
}

/// One registered source: a metric name, how to read it, and the series
/// its samples land in.
#[derive(Debug, Clone)]
struct Source {
    name: String,
    metric: String,
    kind: SourceKind,
    series: Series,
    /// Counter value at the previous tick (deltas only). Series names are
    /// unique and a delta series is named after its counter, so no two
    /// sources share one.
    prev_counter: u64,
}

/// Snapshots registered metrics into [`Series`] on a virtual-time cadence.
#[derive(Debug, Clone)]
pub struct Sampler {
    cadence: Duration,
    capacity: usize,
    /// In registration order; series names are unique.
    sources: Vec<Source>,
    last_tick: Option<SimTime>,
    ticks: u64,
}

impl Sampler {
    /// A sampler ticking every `cadence` of virtual time, retaining
    /// `capacity` points per series.
    pub fn new(cadence: Duration, capacity: usize) -> Sampler {
        Sampler {
            cadence,
            capacity,
            sources: Vec::new(),
            last_tick: None,
            ticks: 0,
        }
    }

    fn track(&mut self, name: String, metric: &str, kind: SourceKind) {
        if self.series(&name).is_some() {
            return; // already tracked
        }
        self.sources.push(Source {
            name,
            metric: metric.to_string(),
            kind,
            series: Series::new(self.capacity),
            prev_counter: 0,
        });
    }

    /// Sources sorted by series name.
    fn by_name(&self) -> Vec<&Source> {
        let mut sorted: Vec<&Source> = self.sources.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        sorted
    }

    /// Track a counter as a per-tick delta series named after the metric.
    pub fn track_counter(&mut self, metric: &str) {
        self.track(metric.to_string(), metric, SourceKind::CounterDelta);
    }

    /// Track a gauge's value, series named after the metric.
    pub fn track_gauge(&mut self, metric: &str) {
        self.track(metric.to_string(), metric, SourceKind::Gauge);
    }

    /// Track a histogram quantile as `"{metric}_p{q*100}"`.
    pub fn track_quantile(&mut self, metric: &str, q: f64) {
        let q = q.clamp(0.0, 1.0);
        let series = format!("{metric}_p{:02}", (q * 100.0).round() as u32);
        self.track(series, metric, SourceKind::HistogramQuantile(q));
    }

    /// Has the cadence elapsed since the last sample?
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_tick {
            None => true,
            Some(last) => now.since(last) >= self.cadence,
        }
    }

    /// Number of sampling ticks taken.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The configured cadence.
    pub fn cadence(&self) -> Duration {
        self.cadence
    }

    /// Take one sample of every source at `now`, unconditionally. Callers
    /// normally gate on [`Sampler::due`].
    pub fn sample(&mut self, now: SimTime, metrics: &Metrics) {
        self.last_tick = Some(now);
        self.ticks += 1;
        metrics.read(|m| {
            for src in &mut self.sources {
                let value = match src.kind {
                    SourceKind::CounterDelta => {
                        let cur = m.counter(&src.metric);
                        let prev = std::mem::replace(&mut src.prev_counter, cur);
                        Some(cur.saturating_sub(prev) as f64)
                    }
                    SourceKind::Gauge => Some(m.gauge(&src.metric)),
                    SourceKind::HistogramQuantile(q) => m.quantile(&src.metric, q),
                };
                if let Some(v) = value {
                    src.series.push(now, v);
                }
            }
        });
    }

    /// The series named `name`, if tracked.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.sources
            .iter()
            .find(|src| src.name == name)
            .map(|src| &src.series)
    }

    /// Export every series as one JSON object keyed by series name.
    pub fn to_json(&self) -> String {
        let pairs: Vec<(&str, String)> = self
            .by_name()
            .into_iter()
            .map(|src| (src.name.as_str(), src.series.to_json()))
            .collect();
        json::object(&pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_preserves_sum_and_count_across_compaction() {
        let mut s = Series::new(8);
        let mut expect_sum = 0.0;
        for i in 0..1000u64 {
            s.push(SimTime::from_secs(i), i as f64);
            expect_sum += i as f64;
        }
        assert!(s.len() <= 8, "ring overflowed: {}", s.len());
        assert_eq!(s.total_count(), 1000);
        assert!((s.total_sum() - expect_sum).abs() < 1e-6 * expect_sum);
        assert!(s.compactions() > 0, "1000 pushes into 8 slots must compact");
        // timestamps stay monotone
        for w in s.points().windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn series_min_max_survive_merges() {
        let mut s = Series::new(4);
        for (i, v) in [5.0, -3.0, 100.0, 0.5, 7.0, 2.0, 9.0, -1.0]
            .iter()
            .enumerate()
        {
            s.push(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.max(), Some(100.0));
        let min = s
            .points()
            .iter()
            .map(|p| p.min)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, -3.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut s = Series::new(4);
        s.push(SimTime::ZERO, f64::NAN);
        s.push(SimTime::ZERO, f64::INFINITY);
        s.push(SimTime::ZERO, 1.0);
        assert_eq!(s.total_count(), 1);
        assert_eq!(s.pushed(), 1);
    }

    #[test]
    fn sampler_reads_counters_as_deltas() {
        let m = Metrics::new();
        let mut sampler = Sampler::new(Duration::from_secs(10), 16);
        sampler.track_counter("reqs_total");
        m.add("reqs_total", 5);
        sampler.sample(SimTime::from_secs(10), &m);
        m.add("reqs_total", 3);
        sampler.sample(SimTime::from_secs(20), &m);
        let s = sampler.series("reqs_total").unwrap();
        let deltas: Vec<f64> = s.points().iter().map(|p| p.sum).collect();
        assert_eq!(deltas, vec![5.0, 3.0]);
    }

    #[test]
    fn sampler_cadence_gates_due() {
        let mut sampler = Sampler::new(Duration::from_secs(30), 16);
        sampler.track_gauge("g");
        let m = Metrics::new();
        assert!(sampler.due(SimTime::ZERO), "first sample is always due");
        sampler.sample(SimTime::from_secs(100), &m);
        assert!(!sampler.due(SimTime::from_secs(120)));
        assert!(sampler.due(SimTime::from_secs(130)));
    }

    #[test]
    fn sampler_quantile_series_waits_for_observations() {
        let m = Metrics::new();
        let mut sampler = Sampler::new(Duration::from_secs(1), 8);
        sampler.track_quantile("lat_secs", 0.99);
        sampler.sample(SimTime::from_secs(1), &m);
        assert!(sampler.series("lat_secs_p99").unwrap().is_empty());
        m.observe("lat_secs", &[1.0, 10.0], 0.5);
        sampler.sample(SimTime::from_secs(2), &m);
        assert_eq!(sampler.series("lat_secs_p99").unwrap().total_count(), 1);
    }

    #[test]
    fn exports_parse_as_json() {
        let m = Metrics::new();
        let mut sampler = Sampler::new(Duration::from_secs(1), 4);
        sampler.track_gauge("depth");
        for i in 0..20u64 {
            m.set("depth", i as f64);
            sampler.sample(SimTime::from_secs(i), &m);
        }
        let js = sampler.to_json();
        assert!(json::validate(&js).is_ok(), "{js}");
        assert!(js.contains("\"depth\""));
    }
}
