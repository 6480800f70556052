//! Time-windowed running means.
//!
//! The paper's NodeStateD keeps "the running mean of the last 1, 5, and 15
//! minutes of historical data of dynamic attributes" (§4). A
//! [`WindowRing`] serves a whole set of such windows from one ring of
//! samples: `A` attributes sampled together, and `W` windows over them,
//! each a start cursor into the ring plus `A` running sums. A sample is
//! stored once however many windows and attributes read it, and the ring
//! drops it once the longest window has moved past it.

use crate::time::{Duration, SimTime};
use std::collections::VecDeque;

/// The paper's 1/5/15-minute window spans, in [`WindowedValue`] order.
pub fn standard_spans() -> [Duration; 3] {
    [
        Duration::from_mins(1),
        Duration::from_mins(5),
        Duration::from_mins(15),
    ]
}

/// Running means of `A` attributes, sampled together, over `W` sliding
/// time windows.
///
/// Samples are weighted equally (the paper's daemons sample on a fixed-ish
/// period, so sample-mean ≈ time-mean). A window is inclusive: a sample
/// exactly one span older than the newest is still in it. Each running sum
/// sees the same `+=`/`-=` sequence a window of its own would, and is
/// re-accumulated from its samples whenever the window holds a power of
/// two ≥1024 of them, to cancel floating-point drift.
#[derive(Debug, Clone)]
pub struct WindowRing<const A: usize, const W: usize> {
    /// Every sample some window still holds, oldest first.
    ring: VecDeque<(SimTime, [f64; A])>,
    windows: [Window<A>; W],
    /// Samples the longest window holds at the expected sampling period
    /// (`usize::MAX` when unknown): the ring's capacity doubles as it
    /// fills, but not past this.
    max_held: usize,
}

/// One window over the shared ring.
#[derive(Debug, Clone)]
struct Window<const A: usize> {
    span: Duration,
    /// Ring index of the oldest sample in the window.
    start: usize,
    /// Per-attribute sum of the samples in the window.
    sum: [f64; A],
}

impl<const A: usize, const W: usize> WindowRing<A, W> {
    /// Empty windows of the given spans.
    pub fn new(spans: [Duration; W]) -> Self {
        assert!(W > 0, "a ring needs at least one window");
        assert!(
            spans.iter().all(|s| !s.is_zero()),
            "window must be positive"
        );
        WindowRing {
            ring: VecDeque::new(),
            windows: spans.map(|span| Window {
                span,
                start: 0,
                sum: [0.0; A],
            }),
            max_held: usize::MAX,
        }
    }

    /// Empty windows of the given spans, for samples every `period` (> 0).
    /// The ring grows as [`WindowRing::new`]'s does but stops at the
    /// longest window's sample count at that cadence instead of doubling
    /// past it; a faster cadence still grows it as needed.
    pub fn with_period(spans: [Duration; W], period: Duration) -> Self {
        let longest = spans.iter().map(|s| s.as_micros()).max().unwrap_or(0);
        // an inclusive window holds span/period + 1 samples, and a push
        // stores its sample before evicting
        let max_held = (longest / period.as_micros()) as usize + 2;
        WindowRing {
            max_held,
            ..Self::new(spans)
        }
    }

    /// Record the attribute values `x` observed at time `t` (must be
    /// non-decreasing) and return the means it leaves, per attribute and
    /// window. Every window holds at least the sample just pushed.
    pub fn push(&mut self, t: SimTime, x: [f64; A]) -> [[f64; W]; A] {
        if let Some(&(last, _)) = self.ring.back() {
            assert!(t >= last, "samples must arrive in time order");
        }
        let len = self.ring.len();
        if len == self.ring.capacity() && len < self.max_held {
            self.ring.reserve_exact(len.max(4).min(self.max_held - len));
        }
        self.ring.push_back((t, x));
        let cutoff = t.since(SimTime::ZERO);
        for w in &mut self.windows {
            for (sum, v) in w.sum.iter_mut().zip(x) {
                *sum += v;
            }
            while let Some(&(t0, v0)) = self.ring.get(w.start) {
                if t0.since(SimTime::ZERO) + w.span >= cutoff {
                    break;
                }
                for (sum, v) in w.sum.iter_mut().zip(v0) {
                    *sum -= v;
                }
                w.start += 1;
            }
            let held = self.ring.len() - w.start;
            if held.is_power_of_two() && held >= 1024 {
                for (a, sum) in w.sum.iter_mut().enumerate() {
                    *sum = self.ring.range(w.start..).map(|(_, v)| v[a]).sum();
                }
            }
        }
        let passed = self.windows.iter().map(|w| w.start).min().unwrap_or(0);
        if passed > 0 {
            self.ring.drain(..passed);
            for w in &mut self.windows {
                w.start -= passed;
            }
        }
        self.means_of_nonempty()
    }

    /// Means per attribute and window, or `None` before the first sample.
    pub fn means(&self) -> Option<[[f64; W]; A]> {
        (!self.ring.is_empty()).then(|| self.means_of_nonempty())
    }

    fn means_of_nonempty(&self) -> [[f64; W]; A] {
        std::array::from_fn(|a| {
            std::array::from_fn(|i| {
                let w = &self.windows[i];
                w.sum[a] / (self.ring.len() - w.start) as f64
            })
        })
    }

    /// Samples the ring holds: those in its longest window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// A snapshot of the three running means plus the instantaneous value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedValue {
    /// Most recent raw sample.
    pub instant: f64,
    /// 1-minute running mean.
    pub m1: f64,
    /// 5-minute running mean.
    pub m5: f64,
    /// 15-minute running mean.
    pub m15: f64,
}

impl WindowedValue {
    /// The latest sample and its means over the [`standard_spans`].
    pub fn new(instant: f64, [m1, m5, m15]: [f64; 3]) -> Self {
        WindowedValue {
            instant,
            m1,
            m5,
            m15,
        }
    }

    /// A value with all windows pinned to the same constant (useful for
    /// static attributes and for seeding tests).
    pub fn constant(v: f64) -> Self {
        WindowedValue::new(v, [v; 3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(secs: u64) -> WindowRing<1, 1> {
        WindowRing::new([Duration::from_secs(secs)])
    }

    #[test]
    fn empty_window_has_no_mean() {
        let w = WindowRing::<1, 3>::new(standard_spans());
        assert_eq!(w.means(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn mean_over_retained_samples() {
        let mut w = single(100);
        w.push(SimTime::from_secs(0), [1.0]);
        assert_eq!(w.push(SimTime::from_secs(10), [3.0]), [[2.0]]);
        assert_eq!(w.means(), Some([[2.0]]));
    }

    #[test]
    fn old_samples_evicted() {
        let mut w = single(60);
        w.push(SimTime::from_secs(0), [100.0]);
        w.push(SimTime::from_secs(30), [100.0]);
        w.push(SimTime::from_secs(120), [4.0]);
        // the two old samples fell out of the 60 s window
        assert_eq!(w.len(), 1);
        assert_eq!(w.means(), Some([[4.0]]));
    }

    #[test]
    fn boundary_sample_is_retained() {
        let mut w = single(60);
        w.push(SimTime::from_secs(0), [2.0]);
        w.push(SimTime::from_secs(60), [4.0]);
        // exactly window-old: kept (window is inclusive)
        assert_eq!(w.len(), 2);
        assert_eq!(w.means(), Some([[3.0]]));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_panics() {
        let mut w = single(60);
        w.push(SimTime::from_secs(10), [1.0]);
        w.push(SimTime::from_secs(5), [1.0]);
    }

    #[test]
    fn standard_windows_separate_horizons() {
        let mut m = WindowRing::<1, 3>::new(standard_spans());
        // 20 minutes of value 10 sampled every 10 s, then 30 s of value 0
        let mut t = 0u64;
        while t <= 20 * 60 {
            m.push(SimTime::from_secs(t), [10.0]);
            t += 10;
        }
        for s in 1..=3u64 {
            m.push(SimTime::from_secs(20 * 60 + s * 10), [0.0]);
        }
        let v = WindowedValue::new(0.0, m.means().unwrap()[0]);
        // 1-min window holds 7 samples (4×10, 3×0) → mean 40/7
        assert_eq!(v.m1, 40.0 / 7.0);
        assert!(v.m1 < v.m5 && v.m5 < v.m15, "{v:?}");
        assert!(v.m15 > 9.0);
        // the ring holds only the 15-minute window: 91 samples at 10 s
        assert_eq!(m.len(), 91);
    }

    #[test]
    fn attributes_keep_separate_sums() {
        let mut w = WindowRing::<2, 2>::new([Duration::from_secs(10), Duration::from_secs(30)]);
        for s in 0..=30u64 {
            w.push(SimTime::from_secs(s), [s as f64, -(s as f64)]);
        }
        // 10 s window: 20..=30 (mean 25); 30 s window: 0..=30 (mean 15)
        assert_eq!(w.means(), Some([[25.0, 15.0], [-25.0, -15.0]]));
    }

    #[test]
    fn long_run_sum_does_not_drift() {
        let mut w = single(60);
        for i in 0..200_000u64 {
            w.push(SimTime::from_secs(i), [(i % 7) as f64]);
        }
        let direct: f64 = (0..200_000u64)
            .rev()
            .take(61)
            .map(|i| (i % 7) as f64)
            .sum::<f64>()
            / 61.0;
        assert!((w.means().unwrap()[0][0] - direct).abs() < 1e-9);
    }

    #[test]
    fn period_sized_ring_stops_growing_at_its_window() {
        // 15 minutes at 5 s: 181 samples held, one more while pushing
        let period = Duration::from_secs(5);
        let mut sized = WindowRing::<1, 3>::with_period(standard_spans(), period);
        let mut plain = WindowRing::<1, 3>::new(standard_spans());
        for i in 0..400u64 {
            let t = SimTime::from_secs(5 * i);
            let x = [(i as f64 * 0.7).sin()];
            assert_eq!(sized.push(t, x), plain.push(t, x));
        }
        assert_eq!(sized.len(), 181);
        assert_eq!(sized.ring.capacity(), 182);
        assert!(plain.ring.capacity() >= 256);
        // a faster cadence still fits, growing past the sized capacity
        for i in 0..400u64 {
            let t = SimTime::from_secs(2000) + Duration::from_secs(i);
            assert_eq!(sized.push(t, [1.0]), plain.push(t, [1.0]));
        }
        assert_eq!(sized.len(), plain.len());
        assert!(sized.len() > 182);
    }
}
