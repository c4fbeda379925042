//! Per-domain frequency histograms (§3.2).
//!
//! After the shaker finishes an interval, each scaled event lands in one of
//! 320 frequency bins (the XScale step count — "being the maximum of the
//! number of steps for the two models"), weighted by the event's cycle
//! count. The clustering phase then picks the minimum domain frequency whose
//! total dilation stays within the target.

use serde::{Deserialize, Serialize};

use mcd_time::{Femtos, Frequency, FrequencyGrid};

/// Number of histogram bins: the finer (XScale) grid.
pub const HISTOGRAM_BINS: usize = 320;

/// A cycle-weighted frequency histogram for one domain and interval.
///
/// # Example
///
/// ```
/// use mcd_offline::FreqHistogram;
/// use mcd_time::Frequency;
///
/// let mut h = FreqHistogram::new(Frequency::GHZ);
/// h.add(Frequency::from_mhz(500), 100.0);
/// h.add(Frequency::GHZ, 50.0);
/// assert_eq!(h.total_cycles(), 150.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreqHistogram {
    /// Cycle mass per bin, lowest frequency first.
    bins: Vec<f64>,
    /// The full-speed frequency (top of the range).
    base: Frequency,
}

impl FreqHistogram {
    /// Creates an empty histogram over `250 MHz .. base`.
    pub fn new(base: Frequency) -> Self {
        FreqHistogram {
            bins: vec![0.0; HISTOGRAM_BINS],
            base,
        }
    }

    /// The frequency at the center of bin `i`.
    pub fn bin_frequency(&self, i: usize) -> Frequency {
        let lo = self.base.as_hz() as f64 / 4.0;
        let hi = self.base.as_hz() as f64;
        let f = lo + (hi - lo) * i as f64 / (HISTOGRAM_BINS - 1) as f64;
        Frequency::from_hz(f.round() as u64)
    }

    /// The bin index for a frequency (clamped to the range).
    pub fn bin_for(&self, f: Frequency) -> usize {
        self.bin_for_hz(f.as_hz() as f64)
    }

    /// The bin index for a raw frequency in Hz, always in
    /// `0..HISTOGRAM_BINS`.
    ///
    /// Accepts the full `f64` range: frequencies below the 250 MHz floor or
    /// above `base` (chaos-feature grids produce both) clamp to the end
    /// bins, and non-finite values cannot escape the range — `NaN` lands in
    /// bin 0 rather than poisoning the index arithmetic.
    pub fn bin_for_hz(&self, hz: f64) -> usize {
        let lo = self.base.as_hz() as f64 / 4.0;
        let hi = self.base.as_hz() as f64;
        let t = (hz - lo) / (hi - lo);
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        let bin = (t * (HISTOGRAM_BINS - 1) as f64).round() as usize;
        bin.min(HISTOGRAM_BINS - 1)
    }

    /// Adds `cycles` of work that the shaker scaled to run at `f`.
    pub fn add(&mut self, f: Frequency, cycles: f64) {
        let bin = self.bin_for(f);
        self.bins[bin] += cycles;
    }

    /// Total cycle mass.
    pub fn total_cycles(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Whether no work was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_cycles() == 0.0
    }

    /// Bin-wise merge (used when clustering adjacent intervals).
    pub fn merge(&mut self, other: &FreqHistogram) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
    }

    /// Extra execution time incurred if the whole domain runs at `f`: the
    /// sum over bins *above* `f` of `cycles × (1/f − 1/f_bin)`.
    pub fn dilation_at(&self, f: Frequency) -> Femtos {
        let f_hz = f.as_hz() as f64;
        let mut extra = 0.0; // seconds
        for (i, &cycles) in self.bins.iter().enumerate() {
            if cycles == 0.0 {
                continue;
            }
            let fb = self.bin_frequency(i).as_hz() as f64;
            if fb > f_hz {
                extra += cycles * (1.0 / f_hz - 1.0 / fb);
            }
        }
        Femtos::from_secs_f64(extra.max(0.0))
    }

    /// The minimum grid frequency keeping dilation within `budget`.
    /// Returns the top grid point if even that dilates (it never does when
    /// the grid top equals the base frequency).
    ///
    /// Equals the first grid point whose [`FreqHistogram::dilation_at`] is
    /// within `budget`, bit for bit: the nonzero bins, with each bin's
    /// frequency and its reciprocal, are collected once, and each grid
    /// point then repeats `dilation_at`'s operations in its bin order.
    pub fn choose_frequency(&self, grid: &FrequencyGrid, budget: Femtos) -> Frequency {
        let bins: Vec<(f64, f64, f64)> = self
            .bins
            .iter()
            .enumerate()
            .filter(|&(_, &cycles)| cycles != 0.0)
            .map(|(i, &cycles)| {
                let fb = self.bin_frequency(i).as_hz() as f64;
                (cycles, fb, 1.0 / fb)
            })
            .collect();
        for p in grid.points() {
            let f_hz = p.frequency.as_hz() as f64;
            let inv_f = 1.0 / f_hz;
            let mut extra = 0.0; // seconds
            for &(cycles, fb, inv_fb) in &bins {
                if fb > f_hz {
                    extra += cycles * (inv_f - inv_fb);
                }
            }
            if Femtos::from_secs_f64(extra.max(0.0)) <= budget {
                return p.frequency;
            }
        }
        grid.points().last().expect("grid non-empty").frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_time::FrequencyGrid;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Full-f64-range robustness: raw bit patterns cover NaN, ±inf,
        // subnormals, negatives and astronomically large values. Whatever
        // comes in, the bin index must stay inside 0..HISTOGRAM_BINS.
        #[test]
        fn bin_for_hz_never_escapes_the_bin_range(
            bits in any::<u64>(),
            base_hz in 1u64..10_000_000_000,
        ) {
            let h = FreqHistogram::new(Frequency::from_hz(base_hz));
            let hz = f64::from_bits(bits);
            prop_assert!(h.bin_for_hz(hz) < HISTOGRAM_BINS);
        }

        // Representable frequencies (the `add` path) are likewise clamped,
        // even far outside the 250 MHz..base region.
        #[test]
        fn bin_for_clamps_out_of_range_frequencies(
            hz in 1u64..u64::MAX,
            base_hz in 1u64..10_000_000_000,
        ) {
            let h = FreqHistogram::new(Frequency::from_hz(base_hz));
            let bin = h.bin_for(Frequency::from_hz(hz));
            prop_assert!(bin < HISTOGRAM_BINS);
        }
    }

    #[test]
    fn bin_round_trip() {
        let h = FreqHistogram::new(Frequency::GHZ);
        for i in [0, 1, 100, 319] {
            let f = h.bin_frequency(i);
            assert_eq!(h.bin_for(f), i);
        }
        assert_eq!(h.bin_frequency(0), Frequency::MIN_SCALED);
        assert_eq!(h.bin_frequency(HISTOGRAM_BINS - 1), Frequency::GHZ);
    }

    #[test]
    fn dilation_zero_at_top_frequency() {
        let mut h = FreqHistogram::new(Frequency::GHZ);
        h.add(Frequency::from_mhz(600), 1000.0);
        h.add(Frequency::GHZ, 500.0);
        assert_eq!(h.dilation_at(Frequency::GHZ), Femtos::ZERO);
    }

    #[test]
    fn dilation_grows_as_frequency_drops() {
        let mut h = FreqHistogram::new(Frequency::GHZ);
        h.add(Frequency::GHZ, 10_000.0);
        let d_750 = h.dilation_at(Frequency::from_mhz(750));
        let d_500 = h.dilation_at(Frequency::from_mhz(500));
        let d_250 = h.dilation_at(Frequency::MIN_SCALED);
        assert!(d_750 < d_500 && d_500 < d_250);
        // 10 000 cycles at 1 GHz = 10 µs; at 500 MHz they take 20 µs.
        assert_eq!(d_500, Femtos::from_micros(10));
    }

    #[test]
    fn choose_frequency_respects_budget() {
        let mut h = FreqHistogram::new(Frequency::GHZ);
        h.add(Frequency::GHZ, 10_000.0); // 10 µs of critical work
        let grid = FrequencyGrid::paper32();
        // 1 % of a 50 µs interval = 0.5 µs budget: must stay fast.
        let strict = h.choose_frequency(&grid, Femtos::from_femtos(500_000_000));
        // A very generous budget allows the bottom of the grid.
        let loose = h.choose_frequency(&grid, Femtos::from_millis(1));
        assert!(strict > Frequency::from_mhz(900), "strict {strict}");
        assert_eq!(loose, Frequency::MIN_SCALED);
    }

    #[test]
    fn choose_frequency_ignores_work_already_slow() {
        let mut h = FreqHistogram::new(Frequency::GHZ);
        h.add(Frequency::MIN_SCALED, 1_000_000.0);
        let grid = FrequencyGrid::paper32();
        assert_eq!(
            h.choose_frequency(&grid, Femtos::ZERO),
            Frequency::MIN_SCALED
        );
    }

    #[test]
    fn merge_adds_mass() {
        let mut a = FreqHistogram::new(Frequency::GHZ);
        let mut b = FreqHistogram::new(Frequency::GHZ);
        a.add(Frequency::from_mhz(500), 10.0);
        b.add(Frequency::from_mhz(500), 5.0);
        b.add(Frequency::GHZ, 1.0);
        a.merge(&b);
        assert_eq!(a.total_cycles(), 16.0);
    }

    #[test]
    fn empty_histogram_chooses_bottom() {
        let h = FreqHistogram::new(Frequency::GHZ);
        assert!(h.is_empty());
        let grid = FrequencyGrid::paper32();
        assert_eq!(
            h.choose_frequency(&grid, Femtos::ZERO),
            Frequency::MIN_SCALED
        );
    }
}
