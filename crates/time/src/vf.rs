//! The voltage/frequency operating region of the paper.
//!
//! The paper assumes 32 frequency points spanning a *linear* range from
//! 1 GHz down to 250 MHz, with a corresponding linear voltage range from
//! 1.2 V down to 0.65 V. The XScale scaling model quantizes the same region
//! into 320 steps (used by the off-line tool's histograms), while the
//! Transmeta model uses the 32-point grid.

use serde::{Deserialize, Serialize};

use crate::freq::{Frequency, Voltage};

/// A (frequency, voltage) pair on the operating curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Clock frequency of the point.
    pub frequency: Frequency,
    /// Minimum supply voltage that sustains `frequency`.
    pub voltage: Voltage,
}

/// The linear voltage/frequency relation of the paper.
///
/// `V(f) = V_min + (f − f_min) / (f_max − f_min) · (V_max − V_min)`, clamped
/// to the operating region. Note the deliberate range compression the paper
/// highlights: a 4× frequency range maps onto a < 2× voltage range, which is
/// exactly why conventional whole-chip scaling saves so little energy.
///
/// # Example
///
/// ```
/// use mcd_time::{Frequency, VfTable};
///
/// let table = VfTable::paper();
/// let v = table.voltage_for(Frequency::from_mhz(625));
/// assert!((v.as_volts() - 0.925).abs() < 1e-9); // midpoint of 0.65..1.2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfTable {
    f_min: Frequency,
    f_max: Frequency,
    v_min: Voltage,
    v_max: Voltage,
}

impl VfTable {
    /// The paper's operating region: 250 MHz–1 GHz, 0.65 V–1.2 V.
    pub fn paper() -> Self {
        VfTable::new(
            Frequency::MIN_SCALED,
            Frequency::GHZ,
            Voltage::MIN_SCALED,
            Voltage::NOMINAL,
        )
    }

    /// Creates a custom linear operating region.
    ///
    /// # Panics
    ///
    /// Panics unless `f_min < f_max` and `v_min < v_max`.
    pub fn new(f_min: Frequency, f_max: Frequency, v_min: Voltage, v_max: Voltage) -> Self {
        assert!(f_min < f_max, "need f_min < f_max");
        assert!(v_min < v_max, "need v_min < v_max");
        VfTable {
            f_min,
            f_max,
            v_min,
            v_max,
        }
    }

    /// Lowest frequency of the region.
    pub fn f_min(&self) -> Frequency {
        self.f_min
    }

    /// Highest frequency of the region.
    pub fn f_max(&self) -> Frequency {
        self.f_max
    }

    /// Lowest voltage of the region.
    pub fn v_min(&self) -> Voltage {
        self.v_min
    }

    /// Highest voltage of the region.
    pub fn v_max(&self) -> Voltage {
        self.v_max
    }

    /// The minimum supply voltage for `f`, clamped to the region.
    pub fn voltage_for(&self, f: Frequency) -> Voltage {
        let fr = f.as_hz() as f64;
        let (lo, hi) = (self.f_min.as_hz() as f64, self.f_max.as_hz() as f64);
        let t = ((fr - lo) / (hi - lo)).clamp(0.0, 1.0);
        let v = self.v_min.as_volts() + t * (self.v_max.as_volts() - self.v_min.as_volts());
        Voltage::from_volts(v)
    }

    /// The operating point for `f`.
    pub fn point_for(&self, f: Frequency) -> OperatingPoint {
        OperatingPoint {
            frequency: f,
            voltage: self.voltage_for(f),
        }
    }

    /// The highest grid frequency whose fraction-of-max is at most `scale`
    /// (e.g. `scale = 0.5` → 500 MHz on the paper table).
    pub fn frequency_at_scale(&self, scale: f64) -> Frequency {
        let hz = (self.f_max.as_hz() as f64 * scale.clamp(0.0, 1.0)).max(self.f_min.as_hz() as f64);
        Frequency::from_hz(hz.round() as u64)
    }
}

/// A discrete grid of equally spaced frequency points over an operating
/// region, as used for DVFS target selection.
///
/// The paper uses a 32-point grid under the Transmeta model and a 320-point
/// grid under the XScale model.
///
/// # Example
///
/// ```
/// use mcd_time::{Frequency, FrequencyGrid, VfTable};
///
/// let grid = FrequencyGrid::new(VfTable::paper(), 32);
/// assert_eq!(grid.len(), 32);
/// assert_eq!(grid.point(0).frequency, Frequency::MIN_SCALED);
/// assert_eq!(grid.point(31).frequency, Frequency::GHZ);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyGrid {
    table: VfTable,
    points: Vec<OperatingPoint>,
}

impl FrequencyGrid {
    /// Builds a grid of `steps` equally spaced points, lowest frequency first.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`.
    pub fn new(table: VfTable, steps: usize) -> Self {
        assert!(steps >= 2, "a frequency grid needs at least two points");
        let lo = table.f_min().as_hz() as f64;
        let hi = table.f_max().as_hz() as f64;
        let points = (0..steps)
            .map(|i| {
                let f = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
                table.point_for(Frequency::from_hz(f.round() as u64))
            })
            .collect();
        FrequencyGrid { table, points }
    }

    /// The paper's 32-point grid (Transmeta-granularity).
    pub fn paper32() -> Self {
        FrequencyGrid::new(VfTable::paper(), 32)
    }

    /// The paper's 320-point grid (XScale-granularity).
    pub fn paper320() -> Self {
        FrequencyGrid::new(VfTable::paper(), 320)
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false — grids have at least two points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying operating region.
    pub fn table(&self) -> &VfTable {
        &self.table
    }

    /// The `i`-th point (index 0 is the lowest frequency).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn point(&self, i: usize) -> OperatingPoint {
        self.points[i]
    }

    /// All points, lowest frequency first.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// The lowest grid point with frequency ≥ `f` (clamped to the top point).
    ///
    /// This is how a target frequency computed by the off-line tool is
    /// quantized: rounding *up* guarantees the dilation bound still holds.
    pub fn quantize_up(&self, f: Frequency) -> OperatingPoint {
        match self.points.iter().find(|p| p.frequency >= f) {
            Some(p) => *p,
            None => *self.points.last().expect("grid is non-empty"),
        }
    }

    /// The grid point nearest to `f` in frequency.
    pub fn nearest(&self, f: Frequency) -> OperatingPoint {
        *self
            .points
            .iter()
            .min_by_key(|p| p.frequency.as_hz().abs_diff(f.as_hz()))
            .expect("grid is non-empty")
    }

    /// Snaps an arbitrary target in Hz — typically the continuous output of
    /// an on-line controller — to the nearest grid point.
    ///
    /// Unlike [`nearest`], the input is a raw `f64`, so it accepts values a
    /// control law can produce but [`Frequency`] cannot represent: zero,
    /// negative, above the region, or non-finite. Out-of-region targets
    /// clamp to the end points; `NaN` snaps to the lowest point (the safe
    /// choice for a DVFS request).
    ///
    /// [`nearest`]: FrequencyGrid::nearest
    pub fn snap(&self, hz: f64) -> OperatingPoint {
        let lo = self.table.f_min().as_hz() as f64;
        let hi = self.table.f_max().as_hz() as f64;
        let t = (hz - lo) / (hi - lo);
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        // The grid is equally spaced, so the nearest point is index
        // arithmetic; t ≤ 1 keeps the rounded index in bounds.
        let i = (t * (self.points.len() - 1) as f64).round() as usize;
        self.points[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_endpoints() {
        let t = VfTable::paper();
        assert!((t.voltage_for(Frequency::GHZ).as_volts() - 1.2).abs() < 1e-12);
        assert!((t.voltage_for(Frequency::MIN_SCALED).as_volts() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn voltage_clamps_outside_region() {
        let t = VfTable::paper();
        assert!((t.voltage_for(Frequency::from_mhz(100)).as_volts() - 0.65).abs() < 1e-12);
        assert!((t.voltage_for(Frequency::from_mhz(2000)).as_volts() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn four_fold_frequency_is_under_two_fold_voltage() {
        // The paper's central observation about range compression.
        let t = VfTable::paper();
        let v_hi = t.voltage_for(Frequency::GHZ).as_volts();
        let v_lo = t.voltage_for(Frequency::MIN_SCALED).as_volts();
        assert!(v_hi / v_lo < 2.0);
        assert!(v_hi / v_lo > 1.8);
    }

    #[test]
    fn grid32_matches_paper_spacing() {
        let g = FrequencyGrid::paper32();
        assert_eq!(g.len(), 32);
        let step = g.point(1).frequency.as_hz() as f64 - g.point(0).frequency.as_hz() as f64;
        // 750 MHz span over 31 intervals ≈ 24.19 MHz.
        assert!((step - 750e6 / 31.0).abs() < 1.0);
    }

    #[test]
    fn grid_is_sorted_ascending() {
        for grid in [FrequencyGrid::paper32(), FrequencyGrid::paper320()] {
            for w in grid.points().windows(2) {
                assert!(w[0].frequency < w[1].frequency);
                assert!(w[0].voltage < w[1].voltage);
            }
        }
    }

    #[test]
    fn quantize_up_never_lowers_frequency() {
        let g = FrequencyGrid::paper32();
        let f = Frequency::from_mhz(300);
        let p = g.quantize_up(f);
        assert!(p.frequency >= f);
        // Above the top of the grid we clamp to the maximum point.
        let top = g.quantize_up(Frequency::from_mhz(1500));
        assert_eq!(top.frequency, Frequency::GHZ);
    }

    #[test]
    fn nearest_finds_closest_point() {
        let g = FrequencyGrid::paper32();
        let p = g.nearest(Frequency::from_mhz(997));
        assert_eq!(p.frequency, Frequency::GHZ);
    }

    #[test]
    fn snap_agrees_with_nearest_on_representable_targets() {
        for grid in [FrequencyGrid::paper32(), FrequencyGrid::paper320()] {
            for hz in (200_000_000u64..=1_100_000_000).step_by(7_654_321) {
                let snapped = grid.snap(hz as f64);
                let nearest = grid.nearest(Frequency::from_hz(hz));
                assert_eq!(snapped, nearest, "hz = {hz}");
            }
        }
    }

    #[test]
    fn snap_handles_unrepresentable_targets() {
        let g = FrequencyGrid::paper32();
        let floor = g.point(0);
        let top = g.point(31);
        assert_eq!(g.snap(0.0), floor);
        assert_eq!(g.snap(-3e9), floor);
        assert_eq!(g.snap(f64::NAN), floor);
        assert_eq!(g.snap(f64::NEG_INFINITY), floor);
        assert_eq!(g.snap(f64::INFINITY), top);
        assert_eq!(g.snap(1e18), top);
    }

    #[test]
    fn frequency_at_scale() {
        let t = VfTable::paper();
        assert_eq!(t.frequency_at_scale(1.0), Frequency::GHZ);
        assert_eq!(t.frequency_at_scale(0.0), Frequency::MIN_SCALED);
        assert_eq!(t.frequency_at_scale(0.5), Frequency::from_mhz(500));
    }
}
