//! Reference implementations the optimized code must match bit for bit.
//!
//! `WindowedMean` is a reference sliding-window mean: one `VecDeque` of
//! samples per window and attribute, evicting on push. `WindowRing` must
//! publish exactly its means. [`process`] holds the unmemoized process
//! steps.

pub mod process;

use nlrm_sim_core::time::{Duration, SimTime};
use std::collections::VecDeque;

/// Mean of all samples observed within one sliding time window.
#[derive(Debug, Clone)]
pub struct WindowedMean {
    window: Duration,
    samples: VecDeque<(SimTime, f64)>,
    sum: f64,
}

impl WindowedMean {
    /// A window of the given length.
    pub fn new(window: Duration) -> Self {
        WindowedMean {
            window,
            samples: VecDeque::new(),
            sum: 0.0,
        }
    }

    /// Record `value` observed at time `t` (non-decreasing).
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.samples.push_back((t, value));
        self.sum += value;
        let cutoff = t.since(SimTime::ZERO);
        while let Some(&(t0, v0)) = self.samples.front() {
            if t0.since(SimTime::ZERO) + self.window < cutoff {
                self.samples.pop_front();
                self.sum -= v0;
            } else {
                break;
            }
        }
        // periodically re-accumulate to cancel floating point drift
        if self.samples.len().is_power_of_two() && self.samples.len() >= 1024 {
            self.sum = self.samples.iter().map(|&(_, v)| v).sum();
        }
    }

    /// Mean over the window, or `None` if no samples are retained.
    pub fn mean(&self) -> Option<f64> {
        (!self.samples.is_empty()).then(|| self.sum / self.samples.len() as f64)
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
