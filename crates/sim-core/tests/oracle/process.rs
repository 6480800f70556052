//! Reference process steps: `OrnsteinUhlenbeck`, `PoissonSpikes` and
//! `BoundedWalk` as they were before their `dt`-only coefficients were
//! memoized, recomputing every `exp` and `sqrt` on every step. The
//! memoized processes must follow exactly these trajectories, bit for bit.

use nlrm_sim_core::process::{exponential, standard_normal};
use rand::RngCore;

/// Ornstein–Uhlenbeck step recomputing `e^{−θΔt}` and the noise scale.
#[derive(Debug, Clone)]
pub struct Ou {
    pub mean: f64,
    pub rate: f64,
    pub sigma: f64,
    pub floor: f64,
    pub value: f64,
}

impl Ou {
    pub fn new(mean: f64, rate: f64, sigma: f64, floor: f64) -> Self {
        Ou {
            mean,
            rate,
            sigma,
            floor,
            value: mean.max(floor),
        }
    }

    pub fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        let decay = (-self.rate * dt).exp();
        let std = self.sigma * ((1.0 - decay * decay) / (2.0 * self.rate)).sqrt();
        let next = self.mean + (self.value - self.mean) * decay + std * standard_normal(rng);
        self.value = next.max(self.floor);
        self.value
    }
}

/// Poisson spike train recomputing the no-arrival decay on every step.
#[derive(Debug, Clone)]
pub struct Spikes {
    pub arrival_rate: f64,
    pub mean_amplitude: f64,
    pub decay_rate: f64,
    pub value: f64,
    next_arrival_in: f64,
    primed: bool,
}

impl Spikes {
    pub fn new(arrival_rate: f64, mean_amplitude: f64, decay_rate: f64) -> Self {
        Spikes {
            arrival_rate,
            mean_amplitude,
            decay_rate,
            value: 0.0,
            next_arrival_in: 0.0,
            primed: false,
        }
    }

    pub fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        if self.arrival_rate <= 0.0 {
            self.value *= (-self.decay_rate * dt).exp();
            return self.value;
        }
        if !self.primed {
            self.next_arrival_in = exponential(1.0 / self.arrival_rate, rng);
            self.primed = true;
        }
        let mut remaining = dt;
        while self.next_arrival_in <= remaining {
            self.value *= (-self.decay_rate * self.next_arrival_in).exp();
            self.value += exponential(self.mean_amplitude, rng);
            remaining -= self.next_arrival_in;
            self.next_arrival_in = exponential(1.0 / self.arrival_rate, rng);
        }
        self.next_arrival_in -= remaining;
        self.value *= (-self.decay_rate * remaining).exp();
        self.value
    }
}

/// Reflected random walk recomputing `√Δt` on every step.
#[derive(Debug, Clone)]
pub struct Walk {
    pub lo: f64,
    pub hi: f64,
    pub sigma: f64,
    pub value: f64,
}

impl Walk {
    pub fn new(lo: f64, hi: f64, sigma: f64, start: f64) -> Self {
        Walk {
            lo,
            hi,
            sigma,
            value: start.clamp(lo, hi),
        }
    }

    fn reflect(&self, mut x: f64) -> f64 {
        let span = self.hi - self.lo;
        loop {
            if x < self.lo {
                x = 2.0 * self.lo - x;
            } else if x > self.hi {
                x = 2.0 * self.hi - x;
            } else {
                return x;
            }
            if (x - self.lo).abs() > 1e6 * span {
                return self.lo + span * 0.5;
            }
        }
    }

    pub fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        let next = self.value + self.sigma * dt.sqrt() * standard_normal(rng);
        self.value = self.reflect(next);
        self.value
    }
}
