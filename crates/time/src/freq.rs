//! Frequency and supply-voltage quantities.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::femtos::Femtos;

/// A clock frequency in hertz.
///
/// The paper's operating range is 250 MHz – 1 GHz; this type represents any
/// frequency but provides the paper's landmarks as constants.
///
/// # Example
///
/// ```
/// use mcd_time::Frequency;
///
/// let f = Frequency::from_mhz(500);
/// assert_eq!(f.period().as_femtos(), 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Frequency(u64);

impl Frequency {
    /// 1 GHz — the paper's maximum (and front-end) frequency.
    pub const GHZ: Frequency = Frequency(1_000_000_000);
    /// 250 MHz — the paper's minimum scaled frequency (¼ of maximum).
    pub const MIN_SCALED: Frequency = Frequency(250_000_000);

    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero: a zero-frequency clock never produces an edge
    /// and would deadlock the simulation.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be positive");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz (floating point, e.g. `0.25`).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz_f64(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz} GHz");
        Frequency::from_hz((ghz * 1e9).round() as u64)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The frequency in megahertz (floating point).
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The frequency in gigahertz (floating point).
    pub fn as_ghz_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The clock period, rounded to the nearest femtosecond.
    pub fn period(self) -> Femtos {
        Femtos::from_femtos(((1e15 / self.0 as f64).round()) as u64)
    }

    /// The clock period as an exact floating-point femtosecond count.
    pub fn period_femtos_f64(self) -> f64 {
        1e15 / self.0 as f64
    }

    /// The number of whole cycles of this clock that fit in `span`.
    pub fn cycles_in(self, span: Femtos) -> u64 {
        (span.as_femtos() as f64 / self.period_femtos_f64()) as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} GHz", self.as_ghz_f64())
        } else {
            write!(f, "{:.1} MHz", self.as_mhz_f64())
        }
    }
}

/// A supply voltage in volts.
///
/// # Example
///
/// ```
/// use mcd_time::Voltage;
///
/// let nominal = Voltage::from_volts(1.2);
/// let scaled = Voltage::from_volts(0.65);
/// assert!(scaled.squared_ratio_to(nominal) < 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Voltage(f64);

impl Voltage {
    /// The paper's nominal supply: 1.2 V (TSMC CL010LP projection).
    pub const NOMINAL: Voltage = Voltage(1.2);
    /// The paper's minimum scaled supply: 0.65 V.
    pub const MIN_SCALED: Voltage = Voltage(0.65);

    /// Creates a voltage from volts.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not strictly positive and finite.
    pub fn from_volts(v: f64) -> Self {
        assert!(v.is_finite() && v > 0.0, "invalid voltage: {v} V");
        Voltage(v)
    }

    /// The voltage in volts.
    pub const fn as_volts(self) -> f64 {
        self.0
    }

    /// `(self / other)²` — the factor by which dynamic energy scales when the
    /// supply moves from `other` to `self`.
    pub fn squared_ratio_to(self, other: Voltage) -> f64 {
        let r = self.0 / other.0;
        r * r
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_landmarks() {
        assert_eq!(Frequency::GHZ.period().as_femtos(), 1_000_000);
        assert_eq!(Frequency::MIN_SCALED.period().as_femtos(), 4_000_000);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Frequency::from_mhz(1000), Frequency::GHZ);
        assert_eq!(Frequency::from_ghz_f64(0.25), Frequency::MIN_SCALED);
    }

    #[test]
    fn cycles_in_span() {
        let f = Frequency::from_mhz(500);
        assert_eq!(f.cycles_in(Femtos::from_nanos(10)), 5);
        assert_eq!(f.cycles_in(Femtos::from_nanos(1)), 0);
    }

    #[test]
    fn voltage_energy_ratio() {
        let full = Voltage::NOMINAL;
        let half = Voltage::from_volts(0.6);
        assert!((half.squared_ratio_to(full) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn displays() {
        assert_eq!(Frequency::GHZ.to_string(), "1.000 GHz");
        assert_eq!(Frequency::from_mhz(920).to_string(), "920.0 MHz");
        assert_eq!(Voltage::NOMINAL.to_string(), "1.2000 V");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    #[should_panic(expected = "invalid voltage")]
    fn negative_voltage_rejected() {
        let _ = Voltage::from_volts(-0.1);
    }
}
