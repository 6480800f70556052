//! Time-series recording for figure reproduction.
//!
//! Figures 1 and 2(b) of the paper are two-day traces of node and network
//! metrics. [`TimeSeries`] collects `(time, value)` points and can resample
//! onto a regular grid or render to CSV for the experiment binaries.

use crate::stats::Summary;
use crate::time::{Duration, SimTime};

/// A named sequence of `(time, value)` samples in non-decreasing time order.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Display name (e.g. `"node A cpu load"`).
    pub name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series with a name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample; time must not decrease.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "samples must arrive in time order");
        }
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Values only.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Summary statistics over all values.
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.values())
    }

    /// Resample onto a regular grid by averaging samples inside each bucket.
    /// Empty buckets carry the previous bucket's value (or the first known
    /// value for leading gaps). Returns an empty series if `self` is empty.
    pub fn resample(&self, start: SimTime, step: Duration, buckets: usize) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        if self.points.is_empty() {
            return out;
        }
        let mut idx = 0usize;
        let mut last_value = self.points[0].1;
        for b in 0..buckets {
            let lo = start + step.mul_f64(b as f64);
            let hi = start + step.mul_f64((b + 1) as f64);
            let mut sum = 0.0;
            let mut n = 0usize;
            while idx < self.points.len() && self.points[idx].0 < hi {
                if self.points[idx].0 >= lo {
                    sum += self.points[idx].1;
                    n += 1;
                }
                idx += 1;
            }
            if n > 0 {
                last_value = sum / n as f64;
            }
            out.push(lo, last_value);
        }
        out
    }

    /// Render one or more series (sharing a time base) as CSV:
    /// `time_s,name1,name2,...`. Series must have identical lengths and
    /// timestamps (e.g. produced by [`TimeSeries::resample`] on one grid).
    pub fn to_csv(series: &[&TimeSeries]) -> String {
        assert!(!series.is_empty());
        let n = series[0].len();
        for s in series {
            assert_eq!(s.len(), n, "series lengths differ");
        }
        let mut out = String::from("time_s");
        for s in series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        for i in 0..n {
            let (t, _) = series[0].points[i];
            out.push_str(&format!("{:.1}", t.as_secs_f64()));
            for s in series {
                debug_assert_eq!(s.points[i].0, t, "timestamps differ at row {i}");
                out.push_str(&format!(",{:.6}", s.points[i].1));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_values() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(1), 2.0);
        assert_eq!(s.values(), vec![1.0, 2.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(5), 1.0);
        s.push(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn resample_averages_buckets() {
        let mut s = TimeSeries::new("x");
        for t in 0..10u64 {
            s.push(SimTime::from_secs(t), t as f64);
        }
        let r = s.resample(SimTime::ZERO, Duration::from_secs(5), 2);
        assert_eq!(r.len(), 2);
        // bucket 0: samples 0..4 → mean 2; bucket 1: 5..9 → mean 7
        assert_eq!(r.values(), vec![2.0, 7.0]);
    }

    #[test]
    fn resample_fills_gaps_with_previous() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(0), 3.0);
        s.push(SimTime::from_secs(20), 9.0);
        let r = s.resample(SimTime::ZERO, Duration::from_secs(5), 5);
        assert_eq!(r.values(), vec![3.0, 3.0, 3.0, 3.0, 9.0]);
    }

    #[test]
    fn csv_renders_joint_table() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        for t in 0..3u64 {
            a.push(SimTime::from_secs(t), t as f64);
            b.push(SimTime::from_secs(t), 10.0 * t as f64);
        }
        let csv = TimeSeries::to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert!(lines[1].starts_with("0.0,0.000000,0.000000"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn summary_over_series() {
        let mut s = TimeSeries::new("x");
        for t in 0..5u64 {
            s.push(SimTime::from_secs(t), 2.0);
        }
        let sum = s.summary().unwrap();
        assert_eq!(sum.mean, 2.0);
        assert_eq!(sum.std_dev, 0.0);
    }
}
