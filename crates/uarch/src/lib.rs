//! Microarchitectural building blocks for the MCD pipeline.
//!
//! Everything here is a self-contained, synchronously-clocked structure —
//! the clock-domain machinery lives in `mcd-time` and the pipeline glue in
//! `mcd-pipeline`. The parameters follow Table 1 of the paper (Alpha
//! 21264-like): 64 KB 2-way L1 caches, 1 MB direct-mapped L2, a combining
//! bimodal + 2-level PAg branch predictor with a 4096-set 2-way BTB, an
//! 80-entry ROB, 20/15-entry integer/FP issue queues, a 64-entry load/store
//! queue, and 72+72 physical registers.

pub mod bpred;
pub mod cache;
pub mod fu;
pub mod lsq;
pub mod queues;
pub mod regfile;

pub use bpred::{BranchPredictor, BranchPredictorConfig, Prediction};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use fu::{FuKind, FuPool, FuPoolConfig};
pub use lsq::{LoadStoreQueue, LsqEntryId, MemAccessKind};
pub use queues::CircularQueue;
pub use regfile::{PhysReg, RenameError, RenameUnit};
