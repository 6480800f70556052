//! Stochastic processes driving the simulated cluster's background activity.
//!
//! The paper's Figures 1–2 show what a real shared cluster does: CPU load is
//! usually low with occasional spikes, utilization hovers in a band, network
//! traffic is bursty, and P2P bandwidth fluctuates around a topology-defined
//! base value. The processes here are the smallest standard toolbox that
//! reproduces those shapes:
//!
//! * [`OrnsteinUhlenbeck`] — mean-reverting noise (utilization, traffic base),
//! * [`PoissonSpikes`] — random impulses with exponential decay (load spikes
//!   from users launching jobs),
//! * [`BoundedWalk`] — a reflected random walk (memory usage),
//! * [`MarkovChain`] — discrete regimes (user count, lab-session on/off),
//! * [`Diurnal`] — deterministic time-of-day modulation.

use crate::time::SimTime;
use rand::Rng;
use rand::RngCore;

/// A scalar-valued stochastic process advanced in continuous virtual time.
pub trait Process: Send {
    /// Advance the process by `dt` seconds and return the new value.
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64;

    /// Current value without advancing.
    fn value(&self) -> f64;
}

/// Sample a standard normal via Box–Muller (no extra crates needed).
pub fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample Exp(mean) — exponential with the given mean.
pub fn exponential(mean: f64, rng: &mut dyn RngCore) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// A one-entry cache of `f(x)` keyed on the bits of `x`.
///
/// The cluster steps every process by the same `dt` again and again, so
/// the `exp`/`sqrt` of a step's coefficients is worth computing once. The
/// owner's parameters are private and fixed, so the cached value is
/// exactly what recomputing it would give.
#[derive(Debug, Clone, Copy, Default)]
struct Memo<T>(Option<(u64, T)>);

impl<T: Copy> Memo<T> {
    fn get(&mut self, x: f64, f: impl FnOnce(f64) -> T) -> T {
        match self.0 {
            Some((key, value)) if key == x.to_bits() => value,
            _ => {
                let value = f(x);
                self.0 = Some((x.to_bits(), value));
                value
            }
        }
    }
}

/// Mean-reverting Ornstein–Uhlenbeck process, clamped to `[floor, ∞)`.
///
/// Uses the exact transition density, so step size does not bias the
/// stationary distribution: `x' = μ + (x−μ)e^{−θΔt} + σ√((1−e^{−2θΔt})/(2θ))·N(0,1)`.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    /// Long-run mean μ.
    mean: f64,
    /// Reversion rate θ (1/seconds).
    rate: f64,
    /// Volatility σ.
    sigma: f64,
    /// Lower clamp (e.g. 0 for loads).
    floor: f64,
    value: f64,
    /// `(e^{−θΔt}, σ√((1−e^{−2θΔt})/(2θ)))` of the last `Δt`.
    coeffs: Memo<(f64, f64)>,
}

impl OrnsteinUhlenbeck {
    /// New process starting at its mean.
    pub fn new(mean: f64, rate: f64, sigma: f64, floor: f64) -> Self {
        assert!(rate > 0.0, "reversion rate must be positive");
        assert!(sigma >= 0.0);
        OrnsteinUhlenbeck {
            mean,
            rate,
            sigma,
            floor,
            value: mean.max(floor),
            coeffs: Memo::default(),
        }
    }

    /// Override the starting value.
    pub fn starting_at(mut self, value: f64) -> Self {
        self.value = value.max(self.floor);
        self
    }

    /// Construct from the desired *stationary* standard deviation instead
    /// of the raw volatility: `σ = std·√(2θ)`. This is the calibration-
    /// friendly constructor — "the load hovers around `mean` ± `std`".
    pub fn with_stationary_std(mean: f64, rate: f64, std: f64, floor: f64) -> Self {
        assert!(std >= 0.0);
        OrnsteinUhlenbeck::new(mean, rate, std * (2.0 * rate).sqrt(), floor)
    }
}

impl Process for OrnsteinUhlenbeck {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        let (decay, std) = self.coeffs.get(dt, |dt| {
            let decay = (-self.rate * dt).exp();
            (
                decay,
                self.sigma * ((1.0 - decay * decay) / (2.0 * self.rate)).sqrt(),
            )
        });
        let next = self.mean + (self.value - self.mean) * decay + std * standard_normal(rng);
        self.value = next.max(self.floor);
        self.value
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Poisson-arrival impulses with exponential decay.
///
/// Between arrivals the value decays as `e^{−λ_d t}`; each arrival adds an
/// Exp(mean_amplitude) jump. Models users launching short jobs: CPU load
/// shoots up, then drains.
#[derive(Debug, Clone)]
pub struct PoissonSpikes {
    /// Arrival rate (events per second).
    arrival_rate: f64,
    /// Mean spike amplitude (exponentially distributed).
    mean_amplitude: f64,
    /// Decay rate of the value (1/seconds).
    decay_rate: f64,
    value: f64,
    /// Virtual time remaining until the next arrival.
    next_arrival_in: f64,
    primed: bool,
    /// `e^{−λ_d t}` of the last arrival-free stretch `t`.
    no_arrival: Memo<f64>,
}

impl PoissonSpikes {
    /// New spike train starting at zero.
    pub fn new(arrival_rate: f64, mean_amplitude: f64, decay_rate: f64) -> Self {
        assert!(arrival_rate >= 0.0 && mean_amplitude >= 0.0 && decay_rate > 0.0);
        PoissonSpikes {
            arrival_rate,
            mean_amplitude,
            decay_rate,
            value: 0.0,
            next_arrival_in: 0.0,
            primed: false,
            no_arrival: Memo::default(),
        }
    }

    /// `e^{−λ_d t}`, the decay over an arrival-free stretch `t`.
    fn no_arrival_factor(&mut self, t: f64) -> f64 {
        self.no_arrival.get(t, |t| (-self.decay_rate * t).exp())
    }
}

impl Process for PoissonSpikes {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        if self.arrival_rate <= 0.0 {
            self.value *= self.no_arrival_factor(dt);
            return self.value;
        }
        if !self.primed {
            self.next_arrival_in = exponential(1.0 / self.arrival_rate, rng);
            self.primed = true;
        }
        let mut remaining = dt;
        while self.next_arrival_in <= remaining {
            // decay up to the arrival, then jump
            self.value *= (-self.decay_rate * self.next_arrival_in).exp();
            self.value += exponential(self.mean_amplitude, rng);
            remaining -= self.next_arrival_in;
            self.next_arrival_in = exponential(1.0 / self.arrival_rate, rng);
        }
        self.next_arrival_in -= remaining;
        self.value *= self.no_arrival_factor(remaining);
        self.value
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Random walk reflected into `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct BoundedWalk {
    /// Lower bound.
    lo: f64,
    /// Upper bound.
    hi: f64,
    /// Per-√second step scale.
    sigma: f64,
    value: f64,
    /// `√Δt` of the last `Δt`.
    sqrt_dt: Memo<f64>,
}

impl BoundedWalk {
    /// New walk starting at `start`, clamped into the band.
    pub fn new(lo: f64, hi: f64, sigma: f64, start: f64) -> Self {
        assert!(lo < hi, "empty band [{lo}, {hi}]");
        BoundedWalk {
            lo,
            hi,
            sigma,
            value: start.clamp(lo, hi),
            sqrt_dt: Memo::default(),
        }
    }

    fn reflect(&self, mut x: f64) -> f64 {
        let span = self.hi - self.lo;
        // Fold x into the band by reflecting at the walls.
        loop {
            if x < self.lo {
                x = 2.0 * self.lo - x;
            } else if x > self.hi {
                x = 2.0 * self.hi - x;
            } else {
                return x;
            }
            // A pathological step larger than several spans still terminates:
            // each reflection moves the excursion closer by at least `span`.
            if (x - self.lo).abs() > 1e6 * span {
                return self.lo + span * 0.5;
            }
        }
    }
}

impl Process for BoundedWalk {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        let next = self.value + self.sigma * self.sqrt_dt.get(dt, f64::sqrt) * standard_normal(rng);
        self.value = self.reflect(next);
        self.value
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Continuous-time Markov chain over a small set of scalar levels.
///
/// Each state has a mean dwell time; on departure the next state is drawn
/// from that state's transition distribution.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    /// Value emitted in each state.
    pub levels: Vec<f64>,
    /// Mean dwell time per state, seconds.
    pub dwell: Vec<f64>,
    /// Row-stochastic transition matrix (self-transitions allowed).
    pub transition: Vec<Vec<f64>>,
    state: usize,
    time_left: f64,
    primed: bool,
}

impl MarkovChain {
    /// New chain starting in `start_state`.
    pub fn new(
        levels: Vec<f64>,
        dwell: Vec<f64>,
        transition: Vec<Vec<f64>>,
        start_state: usize,
    ) -> Self {
        let n = levels.len();
        assert!(n > 0 && dwell.len() == n && transition.len() == n);
        for row in &transition {
            assert_eq!(row.len(), n);
            let s: f64 = row.iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-9,
                "transition rows must sum to 1, got {s}"
            );
        }
        assert!(start_state < n);
        MarkovChain {
            levels,
            dwell,
            transition,
            state: start_state,
            time_left: 0.0,
            primed: false,
        }
    }

    /// A two-state on/off chain: `off_level`/`on_level` with given mean dwells.
    pub fn on_off(off_level: f64, on_level: f64, mean_off: f64, mean_on: f64) -> Self {
        MarkovChain::new(
            vec![off_level, on_level],
            vec![mean_off, mean_on],
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            0,
        )
    }

    /// Index of the current state.
    pub fn state(&self) -> usize {
        self.state
    }

    fn draw_next(&self, rng: &mut dyn RngCore) -> usize {
        let row = &self.transition[self.state];
        let mut u: f64 = rng.gen();
        for (i, &p) in row.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        row.len() - 1
    }
}

impl Process for MarkovChain {
    fn step(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        if !self.primed {
            self.time_left = exponential(self.dwell[self.state], rng);
            self.primed = true;
        }
        let mut remaining = dt;
        while self.time_left <= remaining {
            remaining -= self.time_left;
            self.state = self.draw_next(rng);
            self.time_left = exponential(self.dwell[self.state], rng);
        }
        self.time_left -= remaining;
        self.levels[self.state]
    }

    fn value(&self) -> f64 {
        self.levels[self.state]
    }
}

/// Deterministic time-of-day multiplier: `1 + amplitude·sin(2π(t−phase)/period)`.
///
/// Used to give the simulated cluster the "busy afternoons, quiet nights"
/// pattern visible in the paper's two-day traces.
#[derive(Debug, Clone)]
pub struct Diurnal {
    /// Relative amplitude in `[0, 1]`.
    pub amplitude: f64,
    /// Phase offset in seconds (where in the day the peak sits).
    pub phase: f64,
    /// Period in seconds (24 h by default).
    pub period: f64,
}

impl Diurnal {
    /// Standard 24-hour cycle peaking `peak_hour` hours into the day.
    pub fn daily(amplitude: f64, peak_hour: f64) -> Self {
        assert!((0.0..=1.0).contains(&amplitude));
        Diurnal {
            amplitude,
            // sin peaks at period/4, so shift the peak to peak_hour
            phase: (peak_hour - 6.0) * 3600.0,
            period: 24.0 * 3600.0,
        }
    }

    /// Multiplier at absolute time `t`.
    pub fn multiplier(&self, t: SimTime) -> f64 {
        let x = 2.0 * std::f64::consts::PI * (t.as_secs_f64() - self.phase) / self.period;
        1.0 + self.amplitude * x.sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> rand::rngs::StdRng {
        RngFactory::new(1234).named("process-tests")
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut p = OrnsteinUhlenbeck::new(5.0, 0.5, 0.1, 0.0).starting_at(50.0);
        let mut r = rng();
        for _ in 0..2000 {
            p.step(1.0, &mut r);
        }
        assert!((p.value() - 5.0).abs() < 1.5, "value {}", p.value());
    }

    #[test]
    fn ou_stationary_spread_matches_sigma() {
        // stationary std = sigma / sqrt(2*theta)
        let mut p = OrnsteinUhlenbeck::new(10.0, 1.0, 2.0, f64::NEG_INFINITY);
        let mut r = rng();
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            samples.push(p.step(1.0, &mut r));
        }
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let expected_std = 2.0 / (2.0_f64).sqrt();
        assert!(
            (var.sqrt() - expected_std).abs() < 0.15,
            "std {}",
            var.sqrt()
        );
    }

    #[test]
    fn ou_respects_floor() {
        let mut p = OrnsteinUhlenbeck::new(0.1, 0.2, 1.0, 0.0);
        let mut r = rng();
        for _ in 0..5000 {
            assert!(p.step(1.0, &mut r) >= 0.0);
        }
    }

    #[test]
    fn spikes_arrive_and_decay() {
        let mut p = PoissonSpikes::new(0.05, 2.0, 0.01);
        let mut r = rng();
        let mut peak: f64 = 0.0;
        for _ in 0..5000 {
            peak = peak.max(p.step(1.0, &mut r));
        }
        assert!(peak > 1.0, "no spikes observed, peak {peak}");
        // with arrivals disabled it must decay to ~0
        let mut quiet = PoissonSpikes::new(0.0, 2.0, 0.05);
        quiet.value = 10.0;
        for _ in 0..1000 {
            quiet.step(1.0, &mut r);
        }
        assert!(quiet.value() < 1e-6);
    }

    #[test]
    fn zero_rate_decay_recomputes_nothing_it_would_change() {
        // repeated, changed and repeated-again steps decay a quiet train
        // exactly as recomputing `e^{−λ_d Δt}` every step would
        let mut quiet = PoissonSpikes::new(0.0, 2.0, 0.05);
        quiet.value = 10.0;
        let mut want = 10.0f64;
        let mut r = rng();
        for dt in [5.0f64, 5.0, 0.3, 0.3, 5.0, 0.0, 7.25, 5.0] {
            want *= (-0.05 * dt).exp();
            assert_eq!(quiet.step(dt, &mut r).to_bits(), want.to_bits(), "dt {dt}");
        }
    }

    #[test]
    fn spikes_mean_matches_theory() {
        // Stationary mean of a shot-noise process = rate * amplitude / decay.
        let mut p = PoissonSpikes::new(0.1, 1.0, 0.05);
        let mut r = rng();
        // warm-up
        for _ in 0..2000 {
            p.step(1.0, &mut r);
        }
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| p.step(1.0, &mut r)).sum::<f64>() / n as f64;
        let expected = 0.1 * 1.0 / 0.05; // = 2.0
        assert!((mean - expected).abs() < 0.4, "mean {mean} vs {expected}");
    }

    #[test]
    fn bounded_walk_stays_in_band() {
        let mut p = BoundedWalk::new(0.2, 0.3, 0.05, 0.25);
        let mut r = rng();
        for _ in 0..10_000 {
            let v = p.step(1.0, &mut r);
            assert!((0.2..=0.3).contains(&v), "escaped: {v}");
        }
    }

    #[test]
    fn markov_chain_visits_states_proportionally() {
        let mut p = MarkovChain::on_off(0.0, 1.0, 100.0, 50.0);
        let mut r = rng();
        let n = 100_000;
        let on_frac: f64 = (0..n).map(|_| p.step(1.0, &mut r)).sum::<f64>() / n as f64;
        // expected fraction of time on = 50 / (100 + 50) = 1/3
        assert!((on_frac - 1.0 / 3.0).abs() < 0.05, "on fraction {on_frac}");
    }

    #[test]
    fn diurnal_cycle_peaks_at_requested_hour() {
        let d = Diurnal::daily(0.5, 14.0);
        let at = |h: f64| d.multiplier(SimTime::from_secs_f64(h * 3600.0));
        assert!((at(14.0) - 1.5).abs() < 1e-9);
        assert!((at(2.0) - 0.5).abs() < 1e-9);
        // period of 24h
        assert!((at(14.0) - at(38.0)).abs() < 1e-9);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
