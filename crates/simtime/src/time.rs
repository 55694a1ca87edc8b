//! Simulation time.
//!
//! `SimTime` is an absolute instant measured in exact rational seconds
//! from simulation start. All event timestamps, packet arrival times, and
//! transmission completion times use this type, so the discrete-event
//! engine is bit-for-bit deterministic and the paper's inequalities can
//! be checked exactly.
//!
//! Both types hold an [`Unreduced`] fraction: the exact value on the
//! lattice it was made on, put in lowest terms only when it is read
//! ([`SimTime::as_ratio`], `Debug`). Equality, order and hash are by
//! value, so nothing that compares, hashes or reads a time can tell.

use crate::ratio::Ratio;
use crate::units::Rate;
use crate::unreduced::Unreduced;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute simulation instant (exact rational seconds since t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub(crate) Unreduced);

/// A span of simulation time (exact rational seconds; may be negative as
/// the result of subtraction, though scheduling APIs require `>= 0`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(Unreduced);

impl SimTime {
    /// The simulation origin, t = 0.
    pub const ZERO: SimTime = SimTime(Unreduced::ZERO);

    /// Construct from an exact rational number of seconds.
    pub fn from_ratio(seconds: Ratio) -> Self {
        SimTime(seconds.into())
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: i128) -> Self {
        SimTime(Unreduced::over(s, 1))
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: i128) -> Self {
        SimTime(Unreduced::over(ms, 1_000))
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: i128) -> Self {
        SimTime(Unreduced::over(us, 1_000_000))
    }

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: i128) -> Self {
        SimTime(Unreduced::over(ns, 1_000_000_000))
    }

    /// The exact rational seconds since simulation start, in lowest
    /// terms (one gcd).
    pub fn as_ratio(self) -> Ratio {
        self.0.reduce()
    }

    /// Numerator and denominator as stored: the value is `num / den`
    /// with `den > 0`, not necessarily in lowest terms.
    pub fn parts(self) -> (i128, i128) {
        self.0.parts()
    }

    /// Lossy seconds, for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.as_ratio().to_f64()
    }

    /// `self + bits / rate`, exactly; `bits` may be negative. On the
    /// lattice of `rate` — a denominator the rate divides, which every
    /// instant this returns is on — one multiply-add
    /// ([`Unreduced::advance`]). `None` where reduced [`Ratio`]
    /// arithmetic overflows, and for a zero rate.
    pub fn advance(self, bits: i128, rate: Rate) -> Option<SimTime> {
        self.0.advance(bits, rate.as_bps()).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(Unreduced::ZERO);

    /// Construct from an exact rational number of seconds.
    pub fn from_ratio(seconds: Ratio) -> Self {
        SimDuration(seconds.into())
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: i128) -> Self {
        SimDuration(Unreduced::over(s, 1))
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: i128) -> Self {
        SimDuration(Unreduced::over(ms, 1_000))
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: i128) -> Self {
        SimDuration(Unreduced::over(us, 1_000_000))
    }

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: i128) -> Self {
        SimDuration(Unreduced::over(ns, 1_000_000_000))
    }

    /// The exact rational seconds, in lowest terms (one gcd).
    pub fn as_ratio(self) -> Ratio {
        self.0.reduce()
    }

    /// Lossy seconds, for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.as_ratio().to_f64()
    }

    /// `true` if the span is negative (only possible via subtraction).
    pub fn is_negative(self) -> bool {
        self.0.is_negative()
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}s", self.as_ratio())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_ratio())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_millis(500) + SimDuration::from_millis(250);
        assert_eq!(t, SimTime::from_millis(750));
    }

    #[test]
    fn time_difference_is_duration() {
        let d = SimTime::from_secs(2) - SimTime::from_millis(500);
        assert_eq!(d, SimDuration::from_millis(1500));
        let neg = SimTime::ZERO - SimTime::from_secs(1);
        assert!(neg.is_negative());
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
    }

    #[test]
    fn exactness_of_thirds() {
        // 1/3 second steps never accumulate error.
        let step = SimDuration::from_ratio(crate::Ratio::new(1, 3));
        let mut t = SimTime::ZERO;
        for _ in 0..3000 {
            t += step;
        }
        assert_eq!(t, SimTime::from_secs(1000));
    }
}
