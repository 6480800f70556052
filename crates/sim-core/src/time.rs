//! Virtual time for the discrete-event simulator.
//!
//! Time is represented in integer **microseconds** so that [`SimTime`] is
//! totally ordered (usable as a heap key) and arithmetic is exact: replaying
//! a simulation never diverges due to floating-point accumulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of microseconds in one second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in virtual time, measured in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Panics on negative or NaN input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from raw microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// This time in raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Largest representable span; used as a "never" staleness bound.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Duration::from_secs(mins * 60)
    }

    /// Construct from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        Duration::from_secs(hours * 3600)
    }

    /// Construct from fractional seconds. Panics on negative or NaN input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        Duration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from raw microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// This span in raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// True when the span is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply the span by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(Duration::from_mins(5).as_secs_f64(), 300.0);
        assert_eq!(Duration::from_hours(2).as_secs_f64(), 7200.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + Duration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(12), Duration::from_secs(3));
        // saturating subtraction
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            Duration::ZERO
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs_f64(0.5),
            SimTime::ZERO,
            SimTime::from_secs(3),
            SimTime::from_secs_f64(0.25),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[3], SimTime::from_secs(3));
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(Duration::from_secs(10).mul_f64(0.5), Duration::from_secs(5));
        assert_eq!(Duration::from_secs(1).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
