//! Summary statistics used by the evaluation harness.
//!
//! The paper reports average/median/maximum percentage gains (Tables 2–3)
//! and coefficients of variation (§5.1–5.2); [`Summary`] computes all of
//! them from a sample vector, and [`OnlineStats`] provides a streaming
//! (Welford) mean/variance for long simulations.

/// Streaming mean/variance via Welford's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation σ/μ; 0 when the mean is 0.
    pub fn cov(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of middle two for even n).
    pub median: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize `data`. Returns `None` for an empty slice.
    pub fn of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let mut stats = OnlineStats::new();
        for &x in data {
            stats.push(x);
        }
        Some(Summary {
            n: data.len(),
            mean: stats.mean(),
            median: median(data),
            std_dev: stats.std_dev(),
            min: stats.min(),
            max: stats.max(),
        })
    }

    /// Coefficient of variation σ/μ (the paper's run-stability metric).
    pub fn cov(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Median of a sample (not required to be sorted).
pub fn median(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "median of empty sample");
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Linearly-interpolated percentile, `p` in `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p));
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return v[0];
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Percentage improvement of `ours` over `baseline`:
/// `(baseline − ours) / baseline × 100`.
///
/// This is the paper's "percentage gain in performance" (Tables 2–3):
/// positive when `ours` is faster.
pub fn percent_gain(baseline: f64, ours: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive");
    (baseline - ours) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_direct() {
        let data = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        let direct_var = data.iter().map(|x| (x - 4.0).powi(2)).sum::<f64>() / 5.0;
        assert!((s.variance() - direct_var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn summary_median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn cov_definition() {
        let s = Summary::of(&[9.0, 11.0]).unwrap();
        // mean 10, std 1 → CoV 0.1
        assert!((s.cov() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&data, 0.0), 10.0);
        assert_eq!(percentile(&data, 100.0), 40.0);
        assert_eq!(percentile(&data, 50.0), 25.0);
    }

    #[test]
    fn percent_gain_matches_paper_convention() {
        // baseline 10 s, ours 5 s → 50% gain
        assert!((percent_gain(10.0, 5.0) - 50.0).abs() < 1e-12);
        // slower than baseline → negative gain
        assert!(percent_gain(10.0, 12.0) < 0.0);
    }
}
