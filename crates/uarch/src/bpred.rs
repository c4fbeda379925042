//! The paper's branch predictor (Table 1): a McFarling-style combination of
//! a bimodal predictor and a 2-level PAg predictor, plus a 4096-set 2-way
//! BTB for target prediction.
//!
//! * Bimodal: 1024 2-bit counters indexed by PC.
//! * 2-level PAg: level 1 is a 1024-entry per-address history table holding
//!   10 bits of local history; level 2 is a 1024-entry table of 2-bit
//!   counters indexed by the history pattern.
//! * Chooser: 4096 2-bit counters selecting between the two, trained on
//!   which component was right.

use serde::{Deserialize, Serialize};

/// Predictor table sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// Bimodal table entries.
    pub bimodal_entries: usize,
    /// PAg level-1 (history) entries.
    pub l1_entries: usize,
    /// Bits of local history kept per level-1 entry.
    pub history_bits: u32,
    /// PAg level-2 (pattern counter) entries.
    pub l2_entries: usize,
    /// Chooser (meta) table entries.
    pub chooser_entries: usize,
    /// BTB sets.
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_ways: usize,
}

impl BranchPredictorConfig {
    /// Table 1 of the paper.
    pub fn paper() -> Self {
        BranchPredictorConfig {
            bimodal_entries: 1024,
            l1_entries: 1024,
            history_bits: 10,
            l2_entries: 1024,
            chooser_entries: 4096,
            btb_sets: 4096,
            btb_ways: 2,
        }
    }
}

/// The outcome of a prediction lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the BTB knows this branch.
    pub target: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    valid: bool,
    lru: u64,
}

/// Saturating 2-bit counter helpers.
fn bump(counter: &mut u8, up: bool) {
    if up {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// Combining branch predictor with BTB.
///
/// # Example
///
/// ```
/// use mcd_uarch::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::paper());
/// // A loop branch that is always taken becomes perfectly predicted.
/// for _ in 0..64 {
///     bp.update(0x4000, true, 0x4100);
/// }
/// let p = bp.predict(0x4000);
/// assert!(p.taken);
/// assert_eq!(p.target, Some(0x4100));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    bimodal: Vec<u8>,
    l1_history: Vec<u16>,
    l2_counters: Vec<u8>,
    chooser: Vec<u8>,
    /// BTB entries, set-major: set `s` occupies
    /// `btb[s * btb_ways..(s + 1) * btb_ways]`.
    btb: Vec<BtbEntry>,
    tick: u64,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Builds a predictor with weakly-not-taken initial state.
    pub fn new(config: BranchPredictorConfig) -> Self {
        BranchPredictor {
            config,
            bimodal: vec![1; config.bimodal_entries],
            l1_history: vec![0; config.l1_entries],
            l2_counters: vec![1; config.l2_entries],
            chooser: vec![2; config.chooser_entries],
            btb: vec![
                BtbEntry {
                    tag: 0,
                    target: 0,
                    valid: false,
                    lru: 0
                };
                config.btb_sets * config.btb_ways
            ],
            tick: 0,
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// Predictor configuration.
    pub fn config(&self) -> BranchPredictorConfig {
        self.config
    }

    /// Number of direction lookups made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of mispredicted directions (recorded by `update`).
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Clears lookup/mispredict counters (keeps learned state).
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.mispredicts = 0;
    }

    /// Direction misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }

    fn pc_index(pc: u64, len: usize) -> usize {
        ((pc >> 2) as usize) & (len - 1)
    }

    fn pag_counter_index(&self, pc: u64) -> usize {
        let h = self.l1_history[Self::pc_index(pc, self.config.l1_entries)];
        (h as usize) & (self.l2_counters.len() - 1)
    }

    fn components(&self, pc: u64) -> (bool, bool, bool) {
        let bimodal = predicts_taken(self.bimodal[Self::pc_index(pc, self.config.bimodal_entries)]);
        let pag = predicts_taken(self.l2_counters[self.pag_counter_index(pc)]);
        let use_pag = predicts_taken(self.chooser[Self::pc_index(pc, self.config.chooser_entries)]);
        (bimodal, pag, use_pag)
    }

    /// Looks up direction and target for `pc`. Counts as one lookup.
    pub fn predict(&mut self, pc: u64) -> Prediction {
        self.lookups += 1;
        let (bimodal, pag, use_pag) = self.components(pc);
        let taken = if use_pag { pag } else { bimodal };
        Prediction {
            taken,
            target: self.btb_lookup(pc),
        }
    }

    /// The BTB entries of `pc`'s set.
    fn btb_set(&self, pc: u64) -> std::ops::Range<usize> {
        let start = Self::pc_index(pc, self.config.btb_sets) * self.config.btb_ways;
        start..start + self.config.btb_ways
    }

    fn btb_lookup(&self, pc: u64) -> Option<u64> {
        let tag = pc >> 2;
        self.btb[self.btb_set(pc)]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.target)
    }

    /// Trains the predictor with the architectural outcome. Records a
    /// misprediction if the *current* tables would have predicted wrongly
    /// (call before or after `predict`; training is idempotent per branch).
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) {
        let (bimodal, pag, use_pag) = self.components(pc);
        let predicted = if use_pag { pag } else { bimodal };
        if predicted != taken {
            self.mispredicts += 1;
        }

        // Chooser trains toward whichever component was right.
        if bimodal != pag {
            let idx = Self::pc_index(pc, self.config.chooser_entries);
            bump(&mut self.chooser[idx], pag == taken);
        }
        // Component counters.
        let bi = Self::pc_index(pc, self.config.bimodal_entries);
        bump(&mut self.bimodal[bi], taken);
        let l2 = self.pag_counter_index(pc);
        bump(&mut self.l2_counters[l2], taken);
        // History update.
        let l1 = Self::pc_index(pc, self.config.l1_entries);
        let mask = (1u16 << self.config.history_bits) - 1;
        self.l1_history[l1] = ((self.l1_history[l1] << 1) | taken as u16) & mask;
        // BTB allocation for taken branches.
        if taken {
            self.btb_insert(pc, target);
        }
    }

    fn btb_insert(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let set = self.btb_set(pc);
        let tag = pc >> 2;
        let ways = &mut self.btb[set];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.lru = self.tick;
            return;
        }
        let victim = match ways.iter().position(|e| !e.valid) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("ways non-empty"),
        };
        ways[victim] = BtbEntry {
            tag,
            target,
            valid: true,
            lru: self.tick,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::paper())
    }

    #[test]
    fn learns_always_taken() {
        let mut bp = predictor();
        for _ in 0..16 {
            bp.update(0x100, true, 0x200);
        }
        assert!(bp.predict(0x100).taken);
        assert_eq!(bp.predict(0x100).target, Some(0x200));
    }

    #[test]
    fn learns_never_taken() {
        let mut bp = predictor();
        for _ in 0..16 {
            bp.update(0x104, false, 0x200);
        }
        assert!(!bp.predict(0x104).taken);
    }

    #[test]
    fn pag_learns_alternating_pattern() {
        // taken/not-taken alternation is invisible to bimodal but trivial
        // for 10 bits of local history.
        let mut bp = predictor();
        let mut taken = false;
        let mut wrong_late = 0;
        for i in 0..4000 {
            let (b, p, use_pag) = bp.components(0x108);
            let predicted = if use_pag { p } else { b };
            if i > 2000 && predicted != taken {
                wrong_late += 1;
            }
            bp.update(0x108, taken, 0x300);
            taken = !taken;
        }
        assert!(
            wrong_late < 20,
            "PAg should nail the pattern, wrong {wrong_late}"
        );
    }

    #[test]
    fn mispredict_rate_reflects_randomness() {
        // A branch with i.i.d. 50/50 outcomes cannot be predicted: rate≈0.5.
        let mut bp = predictor();
        let mut x = 0x12345678u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 63) != 0;
            bp.predict(0x10c);
            bp.update(0x10c, taken, 0x400);
        }
        let r = bp.mispredict_rate();
        assert!(r > 0.4 && r < 0.6, "rate {r}");
    }

    #[test]
    fn biased_branches_predict_well() {
        let mut bp = predictor();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x % 100) < 95; // 95 % taken
            bp.predict(0x110);
            bp.update(0x110, taken, 0x500);
        }
        let r = bp.mispredict_rate();
        assert!(r < 0.12, "rate {r}");
    }

    #[test]
    fn btb_unknown_branch_has_no_target() {
        let mut bp = predictor();
        assert_eq!(bp.predict(0x999000).target, None);
    }

    #[test]
    fn btb_conflict_evicts_lru() {
        let mut bp = predictor();
        let stride = (4096u64) << 2; // same BTB set, different tags
        bp.update(0x1000, true, 0xa);
        bp.update(0x1000 + stride, true, 0xb);
        bp.update(0x1000, true, 0xa); // refresh
        bp.update(0x1000 + 2 * stride, true, 0xc); // evicts +stride
        assert_eq!(bp.predict(0x1000).target, Some(0xa));
        assert_eq!(bp.predict(0x1000 + stride).target, None);
        assert_eq!(bp.predict(0x1000 + 2 * stride).target, Some(0xc));
    }
}
