//! Host-speed reference: a fixed kernel timed throughout every run.
//!
//! The benchmark runs on shared 2-core hosts whose speed drifts by 20–40%
//! over minutes as neighbours come and go. A run's wall-clock metrics are
//! reported at reference host speed: scaled by `NOMINAL_MS` over the
//! median time of this kernel across the run. The kernel is plain std code
//! — hashing, sorting, hash-map updates and square roots over buffers that
//! stay below the allocator's mmap threshold — so no change to the
//! program moves it and it adds nothing to the peak resident set.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an idle 2-core Xeon host, ms: the speed wall metrics
/// are reported at.
pub const NOMINAL_MS: f64 = 2.0;

/// Minimum loop time between two kernel samples, seconds.
pub const SAMPLE_EVERY_S: f64 = 0.5;

const ROUNDS: u64 = 6;
const LEN: u64 = 8 * 1024;
const BUCKETS: u64 = 2 * 1024 - 1;

/// Run the kernel once; its wall time in ms.
pub fn sample_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for round in 0..ROUNDS {
        let mut v: Vec<u64> = (0..LEN)
            .map(|i| crate::splitmix64(round * LEN + i))
            .collect();
        v.sort_unstable();
        let mut m: HashMap<u64, f64> = HashMap::with_capacity(BUCKETS as usize);
        for (i, x) in v.iter().enumerate() {
            *m.entry(x % BUCKETS).or_insert(0.0) += (i as f64).sqrt();
        }
        acc += m.values().sum::<f64>();
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
    last_s: Option<f64>,
}

impl HostSpeed {
    /// Take a sample now.
    pub fn sample(&mut self) {
        self.samples_ms.push(sample_ms());
    }

    /// Take a sample if `SAMPLE_EVERY_S` of loop time passed since the
    /// last one taken here.
    pub fn sample_at(&mut self, loop_s: f64) {
        if self
            .last_s
            .is_none_or(|last| loop_s - last >= SAMPLE_EVERY_S)
        {
            self.sample();
            self.last_s = Some(loop_s);
        }
    }

    /// Median kernel time, ms.
    pub fn median_ms(&self) -> f64 {
        crate::metrics::median(&self.samples_ms)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Factor turning a wall time measured on this run's host into one at
    /// reference speed (divide rates by it).
    pub fn time_scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}
