//! Cycle-to-cycle clock jitter.
//!
//! The paper models each domain clock's jitter as a normal distribution with
//! zero mean and a 110 ps standard deviation — 100 ps from the external PLL
//! (a survey of available ICs) plus 10 ps from the internal PLL, assuming a
//! 1 GHz on-chip clock generated from a common external 100 MHz source.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// Parameters of the per-cycle jitter distribution.
///
/// # Example
///
/// ```
/// use mcd_time::JitterModel;
///
/// let paper = JitterModel::paper();
/// assert_eq!(paper.std_dev_femtos(), 110_000.0);
/// assert!(JitterModel::disabled().std_dev_femtos() == 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterModel {
    /// Standard deviation of the external PLL jitter, in femtoseconds.
    external_fs: f64,
    /// Standard deviation of the internal PLL jitter, in femtoseconds.
    internal_fs: f64,
}

impl JitterModel {
    /// The paper's model: 100 ps external + 10 ps internal.
    pub fn paper() -> Self {
        JitterModel {
            external_fs: 100_000.0,
            internal_fs: 10_000.0,
        }
    }

    /// No jitter — useful for deterministic unit tests and ablations.
    pub fn disabled() -> Self {
        JitterModel {
            external_fs: 0.0,
            internal_fs: 0.0,
        }
    }

    /// A custom model from explicit standard deviations (in femtoseconds).
    ///
    /// # Panics
    ///
    /// Panics if either deviation is negative or non-finite.
    pub fn new(external_fs: f64, internal_fs: f64) -> Self {
        assert!(
            external_fs.is_finite() && external_fs >= 0.0,
            "invalid external jitter: {external_fs}"
        );
        assert!(
            internal_fs.is_finite() && internal_fs >= 0.0,
            "invalid internal jitter: {internal_fs}"
        );
        JitterModel {
            external_fs,
            internal_fs,
        }
    }

    /// Combined standard deviation in femtoseconds.
    ///
    /// The paper simply sums the two contributions (110 ps total), so we do
    /// the same rather than combining in quadrature.
    pub fn std_dev_femtos(&self) -> f64 {
        self.external_fs + self.internal_fs
    }

    /// Whether jitter is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.std_dev_femtos() > 0.0
    }

    /// Samples one cycle's jitter in femtoseconds (signed).
    ///
    /// Samples are clamped to ±3σ, and the caller additionally bounds them to
    /// less than half the current period so edges stay strictly ordered.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let sd = self.std_dev_femtos();
        if sd == 0.0 {
            return 0.0;
        }
        rng.normal(0.0, sd).clamp(-3.0 * sd, 3.0 * sd)
    }
}

/// Draws between generator checkpoints on a [`JitterTape`].
const CHECKPOINT_EVERY: usize = 64;

/// One clock's [`JitterModel::sample`] values, recorded in draw order.
///
/// A clock's jitter stream is a pure function of its seed and jitter model,
/// so every run that builds a clock from the same pair draws the same
/// values; a [`DomainClock`](crate::DomainClock) replaying a tape reads
/// them back instead of sampling. The tape also keeps the generator state
/// every 64 draws, so a replaying clock can rebuild the
/// exact [`SimRng`] state at any position and continue live from there.
/// The values are pre-clamp: the clock's `max_jitter` bound depends on its
/// current frequency and stays a run-time step.
#[derive(Debug, Clone)]
pub struct JitterTape {
    seed: u64,
    model: JitterModel,
    samples: Vec<f64>,
    /// `checkpoints[i]` is the generator state before draw
    /// `i * CHECKPOINT_EVERY`, for every such draw recorded.
    checkpoints: Vec<SimRng>,
}

impl JitterTape {
    /// An empty tape for the clock stream of `seed` under `model`.
    pub fn new(seed: u64, model: JitterModel) -> Self {
        JitterTape {
            seed,
            model,
            samples: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Seed of the clock stream this tape records.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Jitter model of the clock stream this tape records.
    pub fn model(&self) -> JitterModel {
        self.model
    }

    /// Draws recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded draw at `pos`, if there is one.
    #[inline]
    pub(crate) fn get(&self, pos: usize) -> Option<f64> {
        self.samples.get(pos).copied()
    }

    /// The generator state before draw `pos` (at most [`JitterTape::len`]),
    /// rebuilt from the nearest checkpoint at or before it.
    ///
    /// # Panics
    ///
    /// Panics if the tape is empty (its first checkpoint is the stream's
    /// start, which only a recording clock knows).
    pub(crate) fn state_at(&self, pos: usize) -> SimRng {
        debug_assert!(pos <= self.len());
        let i = (pos / CHECKPOINT_EVERY).min(self.checkpoints.len() - 1);
        let mut rng = self.checkpoints[i].clone();
        for _ in i * CHECKPOINT_EVERY..pos {
            self.model.sample(&mut rng);
        }
        rng
    }

    /// Draws the next value live from `rng` (which must be at the tape's
    /// end) and appends it.
    pub(crate) fn record(&mut self, rng: &mut SimRng) -> f64 {
        if self.samples.len().is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(rng.clone());
        }
        let v = self.model.sample(rng);
        self.samples.push(v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_is_110ps() {
        assert_eq!(JitterModel::paper().std_dev_femtos(), 110_000.0);
        assert!(JitterModel::paper().is_enabled());
    }

    #[test]
    fn disabled_model_samples_zero() {
        let mut rng = SimRng::seed_from_u64(1);
        let j = JitterModel::disabled();
        for _ in 0..10 {
            assert_eq!(j.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn samples_are_clamped_to_three_sigma() {
        let mut rng = SimRng::seed_from_u64(2);
        let j = JitterModel::paper();
        let sd = j.std_dev_femtos();
        for _ in 0..10_000 {
            let s = j.sample(&mut rng);
            assert!(s.abs() <= 3.0 * sd + 1e-9);
        }
    }

    #[test]
    fn sample_std_dev_matches_model() {
        let mut rng = SimRng::seed_from_u64(3);
        let j = JitterModel::paper();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| j.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        assert!((sd - 110_000.0).abs() / 110_000.0 < 0.05, "sd {sd}");
    }

    #[test]
    #[should_panic(expected = "invalid external jitter")]
    fn negative_jitter_rejected() {
        let _ = JitterModel::new(-1.0, 0.0);
    }
}
