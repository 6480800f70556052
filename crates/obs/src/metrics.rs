//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! A [`Metrics`] registry hands out cheap clonable handles ([`Counter`],
//! [`Gauge`], and shared [`Histogram`]s) keyed by name. Instrumented code
//! holds a handle and bumps it; exporters walk the registry and render
//! everything as JSON or Prometheus-style text.
//!
//! Histograms use fixed upper-bound buckets (`value <= bound`, inclusive).
//! Quantile estimates interpolate linearly *within* the bucket containing
//! the requested rank (between the bucket's effective lower and upper
//! edges, clamped to the observed min/max), so a rank landing early in a
//! wide bucket no longer reports the bucket's upper bound. Estimates remain
//! exact whenever the target bucket is degenerate (all its observations
//! share one value, pinned by the min/max clamp).

use crate::json;
use crate::lock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle. The `f64` travels as its bit pattern in an
/// [`AtomicU64`], so hot-path updates never block and a panicking writer
/// can never poison readers. (`0u64` is the bit pattern of `0.0`, so the
/// derived default starts at zero like the old locked version did.)
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram. Bucket `i` counts observations with
/// `value <= bounds[i]` (and greater than the previous bound); values above
/// the last bound land in an implicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts.len() == bounds.len() + 1`; the last slot is the overflow.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given upper bounds. Bounds are sorted and
    /// deduplicated; non-finite bounds are discarded.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Non-finite values are ignored.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts per bucket (last entry equals [`count`](Self::count)).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Quantile estimate for `q` in `[0, 1]`, linearly interpolated within
    /// the bucket whose cumulative count reaches rank `ceil(q * count)`.
    /// The bucket's effective edges are its configured bounds clamped to
    /// the observed min/max, so degenerate buckets stay exact and the
    /// estimate never leaves the observed value range. Returns `None` when
    /// empty; ranks landing in the overflow bucket report the observed max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut before = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                if i >= self.bounds.len() {
                    // overflow bucket has no upper edge; the max is the
                    // only honest estimate
                    return Some(self.max);
                }
                let upper = self.bounds[i].min(self.max);
                let lower_edge = if i == 0 {
                    f64::NEG_INFINITY
                } else {
                    self.bounds[i - 1]
                };
                let lower = lower_edge.max(self.min).min(upper);
                let pos = (rank - before) as f64 / c as f64;
                return Some(lower + (upper - lower) * pos);
            }
            before += c;
        }
        Some(self.max)
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| json::object(&[("le", json::num(*b)), ("count", c.to_string())]))
            .collect();
        let (min, max) = if self.total == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        json::object(&[
            ("count", self.total.to_string()),
            ("sum", json::num(self.sum)),
            ("mean", json::num(self.mean())),
            ("min", json::num(min)),
            ("max", json::num(max)),
            ("overflow", self.counts[self.bounds.len()].to_string()),
            ("buckets", json::array(&buckets)),
        ])
    }
}

/// Escape a Prometheus label *value* per the exposition format: backslash,
/// double-quote, and line-feed must be escaped inside the quoted value.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text per the exposition format: backslash and line-feed
/// (quotes are legal in help text and stay as-is).
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Force `s` into the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: invalid characters become `_`, and a
/// leading digit gets a `_` prefix. Empty input becomes `_`.
pub fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    for (i, c) in s.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// `map[name]`, created by `make` on first use. The key is allocated only
/// then, so updating an existing metric never touches the heap.
fn get_or_insert<T: Clone>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    map.entry(name.to_owned()).or_insert_with(make).clone()
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Arc<Mutex<Histogram>>>,
    help: BTreeMap<String, String>,
}

/// Read-only view of a locked registry (see [`Metrics::read`]). Absent
/// metrics read as 0, and as `None` for quantiles.
pub struct Values<'a>(&'a Inner);

impl Values<'_> {
    /// Current value of the counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counters.get(name).map_or(0, Counter::get)
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> f64 {
        self.0.gauges.get(name).map_or(0.0, Gauge::get)
    }

    /// [`Histogram::quantile`] of the histogram `name`.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.0
            .histograms
            .get(name)
            .and_then(|h| lock::lock(h).quantile(q))
    }
}

/// Registry of named metrics (cheap clonable handle).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, creating it at 0 on first use.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(
            &mut lock::lock(&self.inner).counters,
            name,
            Counter::default,
        )
    }

    /// The gauge named `name`, creating it at 0 on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&mut lock::lock(&self.inner).gauges, name, Gauge::default)
    }

    /// The histogram named `name`, creating it with `bounds` on first use
    /// (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Mutex<Histogram>> {
        get_or_insert(&mut lock::lock(&self.inner).histograms, name, || {
            Arc::new(Mutex::new(Histogram::new(bounds)))
        })
    }

    /// Add 1 to the counter `name`.
    pub fn inc(&self, name: &str) {
        self.counter(name).inc();
    }

    /// Add `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Set the gauge `name` to `v`.
    pub fn set(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Record `v` into the histogram `name` (created with `bounds` on first
    /// use).
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        let h = self.histogram(name, bounds);
        lock::lock(&h).observe(v);
    }

    /// Current value of the counter `name` (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.read(|v| v.counter(name))
    }

    /// Current value of the gauge `name` (0 if absent).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.read(|v| v.gauge(name))
    }

    /// Run `f` over the registry's current values under one lock, for
    /// loops that read many metrics per tick. `f` must not update this
    /// registry (the lock is not reentrant).
    pub fn read<R>(&self, f: impl FnOnce(&Values<'_>) -> R) -> R {
        f(&Values(&lock::lock(&self.inner)))
    }

    /// Attach `# HELP` text to the metric `name` for the Prometheus
    /// exporter (escaped on export; the last call wins).
    pub fn describe(&self, name: &str, help: &str) {
        lock::lock(&self.inner)
            .help
            .insert(name.to_string(), help.to_string());
    }

    /// Snapshot of the histogram `name`, if present.
    pub fn histogram_snapshot(&self, name: &str) -> Option<Histogram> {
        lock::lock(&self.inner)
            .histograms
            .get(name)
            .map(|h| lock::lock(h).clone())
    }

    /// Export the whole registry as one JSON object with `counters`,
    /// `gauges`, and `histograms` sections.
    pub fn to_json(&self) -> String {
        self.to_json_excluding(&[])
    }

    /// [`Metrics::to_json`], omitting every metric whose name contains one
    /// of `excluded`. The flight recorder digests the registry through
    /// this with the wall-clock families excluded: real-time measurements
    /// (tick/decision latencies) legitimately differ between a recording
    /// and its replay, while everything else must be bit-identical.
    pub fn to_json_excluding(&self, excluded: &[&str]) -> String {
        let keep = |name: &str| !excluded.iter().any(|e| name.contains(e));
        let inner = lock::lock(&self.inner);
        let counters: Vec<(&str, String)> = inner
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, c)| (k.as_str(), c.get().to_string()))
            .collect();
        let gauges: Vec<(&str, String)> = inner
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, g)| (k.as_str(), json::num(g.get())))
            .collect();
        let histograms: Vec<(&str, String)> = inner
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| (k.as_str(), lock::lock(h).to_json()))
            .collect();
        json::object(&[
            ("counters", json::object(&counters)),
            ("gauges", json::object(&gauges)),
            ("histograms", json::object(&histograms)),
        ])
    }

    /// Export the registry as Prometheus exposition text: every family gets
    /// a `# TYPE` line (and a `# HELP` line when described), names are
    /// sanitized into the metric-name grammar, and label values are escaped.
    pub fn to_prometheus(&self) -> String {
        let inner = lock::lock(&self.inner);
        let mut out = String::new();
        let header = |out: &mut String, raw: &str, kind: &str| -> String {
            let name = sanitize_metric_name(raw);
            if let Some(help) = inner.help.get(raw) {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            name
        };
        for (raw, c) in &inner.counters {
            let name = header(&mut out, raw, "counter");
            out.push_str(&format!("{name} {}\n", c.get()));
        }
        for (raw, g) in &inner.gauges {
            let name = header(&mut out, raw, "gauge");
            out.push_str(&format!("{name} {}\n", g.get()));
        }
        for (raw, h) in &inner.histograms {
            let h = lock::lock(h);
            let name = header(&mut out, raw, "histogram");
            let mut acc = 0;
            for (b, c) in h.bounds.iter().zip(&h.counts) {
                acc += c;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {acc}\n",
                    escape_label_value(&b.to_string())
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                h.total, h.sum, h.total
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = Metrics::new();
        m.inc("relaunch_total");
        m.add("relaunch_total", 2);
        m.set("queue_depth", 4.0);
        assert_eq!(m.counter_value("relaunch_total"), 3);
        assert_eq!(m.gauge_value("queue_depth"), 4.0);
        // handles are shared, not copies
        let c = m.counter("relaunch_total");
        c.inc();
        assert_eq!(m.counter_value("relaunch_total"), 4);
        assert_eq!(m.counter_value("absent"), 0);
    }

    #[test]
    fn gauge_is_atomic_and_handle_shared() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0, "default bit pattern is 0.0");
        let g2 = g.clone();
        g.set(-2.5);
        assert_eq!(g2.get(), -2.5);
        g2.set(1e-300);
        assert_eq!(g.get(), 1e-300, "full f64 range survives the bit cast");
    }

    #[test]
    fn poisoned_histogram_lock_is_recovered() {
        let m = Metrics::new();
        m.observe("h_secs", &[1.0], 0.5);
        let h = m.histogram("h_secs", &[1.0]);
        let h2 = Arc::clone(&h);
        let _ = std::panic::catch_unwind(move || {
            let _guard = h2.lock().unwrap();
            panic!("poison the histogram");
        });
        assert!(h.is_poisoned());
        // observation, snapshot, and both exporters must all still work
        m.observe("h_secs", &[1.0], 2.0);
        assert_eq!(m.histogram_snapshot("h_secs").unwrap().count(), 2);
        assert!(m.to_json().contains("\"h_secs\""));
        assert!(m.to_prometheus().contains("h_secs_count 2"));
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (inclusive boundary)
        h.observe(1.1); // bucket 1
        h.observe(5.0); // bucket 1 (inclusive boundary)
        h.observe(10.0); // bucket 2
        h.observe(42.0); // overflow
        assert_eq!(h.bucket_counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.cumulative(), vec![2, 4, 5, 6]);
    }

    #[test]
    fn quantiles_are_monotone_and_interpolate_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // all observations land exactly on bucket boundaries
        for v in [1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 8.0, 8.0] {
            h.observe(v);
        }
        // first-bucket ranks clamp to the observed min/degenerate bucket
        assert_eq!(h.quantile(0.25), Some(1.0)); // rank 2 of 8
        assert_eq!(h.quantile(1.0), Some(8.0)); // rank 8
                                                // rank 4 is the first of three samples in the (2, 4] bucket:
                                                // 1/3 of the way in, not the old upper-bound answer of 4.0
        let q50 = h.quantile(0.5).unwrap();
        assert!((q50 - (2.0 + 2.0 / 3.0)).abs() < 1e-12, "q50 = {q50}");
        // monotonicity over a fine sweep
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantiles_match_exact_sample_quantiles_under_uniform_fill() {
        // 1..=100 uniformly into 4 equal-width buckets: interpolation must
        // recover the exact empirical quantiles at every bucket fraction
        let mut h = Histogram::new(&[25.0, 50.0, 75.0, 100.0]);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        for (q, expect) in [
            (0.10, 10.0),
            (0.25, 25.0),
            (0.40, 40.0),
            (0.50, 50.0),
            (0.90, 90.0),
            (0.99, 99.0),
            (1.00, 100.0),
        ] {
            let got = h.quantile(q).unwrap();
            assert!(
                (got - expect).abs() < 1.0 + 1e-9,
                "quantile({q}) = {got}, want ~{expect}"
            );
        }
        // and the mid-bucket cases are exact: rank 40 is 15/25 of (25, 50]
        assert!((h.quantile(0.40).unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_overflow_reports_observed_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.observe(99.0);
        assert_eq!(h.quantile(1.0), Some(99.0));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut h = Histogram::new(&[1.0, f64::NAN, 2.0]);
        assert_eq!(h.bounds(), &[1.0, 2.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn exports_are_well_formed() {
        let m = Metrics::new();
        m.inc("a_total");
        m.set("b", 1.5);
        m.observe("c_secs", &[1.0, 10.0], 0.5);
        let js = m.to_json();
        assert!(js.contains("\"counters\":{\"a_total\":1}"));
        assert!(js.contains("\"b\":1.5"));
        assert!(js.contains("\"histograms\":{\"c_secs\":"));
        let prom = m.to_prometheus();
        assert!(prom.contains("# TYPE a_total counter"));
        assert!(prom.contains("c_secs_bucket{le=\"1\"} 1"));
        assert!(prom.contains("c_secs_count 1"));
    }

    #[test]
    fn escaping_helpers_cover_the_exposition_grammar() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        assert_eq!(
            escape_help("back\\slash\nnewline"),
            "back\\\\slash\\nnewline"
        );
        assert_eq!(escape_help("quotes \"stay\""), "quotes \"stay\"");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name("bad name-有"), "bad_name__");
        assert_eq!(sanitize_metric_name("9lead"), "_9lead");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    /// Hand-parse the whole exposition output: every non-comment line must
    /// be `name[{labels}] value`, every family must have exactly one
    /// `# TYPE`, and HELP/label text must carry no raw specials.
    #[test]
    fn prometheus_exposition_format_holds() {
        let m = Metrics::new();
        m.inc("jobs_total");
        m.describe("jobs_total", "jobs seen\nwith a \\ backslash");
        m.set("weird name", 2.0); // sanitized on export
        m.observe("wait_secs", &[0.5, 1.0], 0.75);
        m.describe("wait_secs", "queue wait");
        let prom = m.to_prometheus();

        let is_name = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut types = 0;
        for line in prom.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap();
                let kind = it.next().unwrap_or("");
                assert!(is_name(name), "bad family name {name:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "bad type {kind:?}"
                );
                types += 1;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let mut it = rest.splitn(2, ' ');
                assert!(is_name(it.next().unwrap()));
                let help = it.next().unwrap_or("");
                assert!(!help.contains('\n'), "raw newline in HELP");
                continue;
            }
            // sample line: name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value {value:?}"
            );
            let name = match name_part.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.strip_suffix('}').expect("labels close");
                    for pair in labels.split(',') {
                        let (k, v) = pair.split_once('=').expect("label k=v");
                        assert!(is_name(k), "bad label name {k:?}");
                        let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
                        let v = v.expect("label value quoted");
                        // no raw quote may survive inside the quoted value
                        let mut chars = v.chars().peekable();
                        while let Some(c) = chars.next() {
                            assert!(c != '"', "raw quote in label value {v:?}");
                            if c == '\\' {
                                assert!(
                                    matches!(chars.next(), Some('\\' | '"' | 'n')),
                                    "bad escape in label value {v:?}"
                                );
                            }
                        }
                    }
                    n
                }
                None => name_part,
            };
            assert!(is_name(name), "bad metric name {name:?}");
        }
        assert_eq!(types, 3, "one TYPE line per family");
        assert!(prom.contains("# HELP jobs_total jobs seen\\nwith a \\\\ backslash\n"));
        assert!(prom.contains("# TYPE weird_name gauge\n"));
    }
}
