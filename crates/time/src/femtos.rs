//! Absolute simulation time, measured in femtoseconds.
//!
//! A femtosecond granularity lets us represent a 1 GHz period exactly
//! (1 000 000 fs) while still covering more than five hours of simulated time
//! in a `u64`, far beyond any run this simulator performs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute point in (or span of) simulated time, in femtoseconds.
///
/// `Femtos` is used both for instants and durations; the arithmetic provided
/// keeps either interpretation consistent.
///
/// # Example
///
/// ```
/// use mcd_time::Femtos;
///
/// let edge = Femtos::from_nanos(3);
/// assert_eq!(edge + Femtos::from_picos(500), Femtos::from_femtos(3_500_000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Femtos(u64);

impl Femtos {
    /// The zero instant / empty duration.
    pub const ZERO: Femtos = Femtos(0);
    /// The maximum representable instant. Used as an "infinitely far" sentinel.
    pub const MAX: Femtos = Femtos(u64::MAX);

    /// Creates a time value from raw femtoseconds.
    pub const fn from_femtos(fs: u64) -> Self {
        Femtos(fs)
    }

    /// Creates a time value from picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        Femtos(ps * 1_000)
    }

    /// Creates a time value from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Femtos(ns * 1_000_000)
    }

    /// Creates a time value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Femtos(us * 1_000_000_000)
    }

    /// Creates a time value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Femtos(ms * 1_000_000_000_000)
    }

    /// Creates a time value from a (non-negative, finite) count of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid seconds: {secs}");
        let fs = secs * 1e15;
        assert!(fs <= u64::MAX as f64, "seconds value too large: {secs}");
        Femtos(fs.round() as u64)
    }

    /// Raw femtosecond count.
    pub const fn as_femtos(self) -> u64 {
        self.0
    }

    /// This time expressed in nanoseconds (floating point).
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in microseconds (floating point).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in milliseconds (floating point).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// This time expressed in seconds (floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is later.
    pub fn saturating_sub(self, other: Femtos) -> Femtos {
        Femtos(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, other: Femtos) -> Option<Femtos> {
        self.0.checked_add(other.0).map(Femtos)
    }

    /// The earlier of two instants.
    pub fn min(self, other: Femtos) -> Femtos {
        Femtos(self.0.min(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Femtos) -> Femtos {
        Femtos(self.0.max(other.0))
    }
}

impl Add for Femtos {
    type Output = Femtos;
    fn add(self, rhs: Femtos) -> Femtos {
        Femtos(self.0 + rhs.0)
    }
}

impl AddAssign for Femtos {
    fn add_assign(&mut self, rhs: Femtos) {
        self.0 += rhs.0;
    }
}

impl Sub for Femtos {
    type Output = Femtos;
    fn sub(self, rhs: Femtos) -> Femtos {
        Femtos(self.0 - rhs.0)
    }
}

impl SubAssign for Femtos {
    fn sub_assign(&mut self, rhs: Femtos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Femtos {
    type Output = Femtos;
    fn mul(self, rhs: u64) -> Femtos {
        Femtos(self.0 * rhs)
    }
}

impl Div<u64> for Femtos {
    type Output = Femtos;
    fn div(self, rhs: u64) -> Femtos {
        Femtos(self.0 / rhs)
    }
}

impl Sum for Femtos {
    fn sum<I: Iterator<Item = Femtos>>(iter: I) -> Femtos {
        iter.fold(Femtos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Femtos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} us", self.as_micros_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ns", self.as_nanos_f64())
        } else {
            write!(f, "{} fs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Femtos::from_picos(1).as_femtos(), 1_000);
        assert_eq!(Femtos::from_nanos(1).as_femtos(), 1_000_000);
        assert_eq!(Femtos::from_micros(1).as_femtos(), 1_000_000_000);
        assert_eq!(Femtos::from_millis(1).as_femtos(), 1_000_000_000_000);
        assert_eq!(Femtos::from_secs_f64(1e-15).as_femtos(), 1);
    }

    #[test]
    fn arithmetic_behaves_like_u64() {
        let a = Femtos::from_femtos(100);
        let b = Femtos::from_femtos(40);
        assert_eq!((a + b).as_femtos(), 140);
        assert_eq!((a - b).as_femtos(), 60);
        assert_eq!((a * 3).as_femtos(), 300);
        assert_eq!((a / 4).as_femtos(), 25);
        assert_eq!(b.saturating_sub(a), Femtos::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn float_conversions_agree() {
        let t = Femtos::from_micros(55);
        assert!((t.as_secs_f64() - 55e-6).abs() < 1e-18);
        assert!((t.as_millis_f64() - 0.055).abs() < 1e-12);
        assert!((t.as_micros_f64() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(Femtos::from_femtos(12).to_string(), "12 fs");
        assert_eq!(Femtos::from_nanos(2).to_string(), "2.000 ns");
        assert_eq!(Femtos::from_micros(3).to_string(), "3.000 us");
        assert_eq!(Femtos::from_millis(4).to_string(), "4.000 ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: Femtos = (1..=4).map(Femtos::from_nanos).sum();
        assert_eq!(total, Femtos::from_nanos(10));
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_rejects_negative() {
        let _ = Femtos::from_secs_f64(-1.0);
    }
}
