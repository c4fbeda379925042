//! Shared constants for the criterion benches (`kernel`, `micro`,
//! `offline`).

/// Experiment seed the benches run at.
pub const SEED: u64 = 5;
