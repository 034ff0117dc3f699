//! Virtual time for the network and campaign simulators.
//!
//! Time is kept in integer nanoseconds so that event ordering is exact and
//! deterministic across platforms.  Convenience constructors and accessors in
//! seconds/milliseconds/microseconds are provided because the paper reports
//! its measurements in seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the virtual clock, measured from the start of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds since the simulation origin.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds since the simulation origin.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds since the simulation origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds since the origin.
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.  Saturates at zero if `earlier`
    /// is actually later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds.
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
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
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_millis(3).as_secs_f64(), 0.003);
        assert_eq!(SimDuration::from_micros(250).as_nanos(), 250_000);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        let t1 = t0 + d;
        assert_eq!(t1.as_nanos(), 150_000_000);
        assert_eq!((t1 - t0).as_nanos(), d.as_nanos());
        assert_eq!(t1.duration_since(t0), d);
        // saturating behaviour
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!((t0 - SimDuration::from_millis(500)).as_nanos(), 0);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_millis(1);
        let db = SimDuration::from_millis(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn duration_scaling_and_sum() {
        let d = SimDuration::from_secs_f64(2.0);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total.as_secs_f64(), 6.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(10)), "10.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(10.0)), "10.000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
