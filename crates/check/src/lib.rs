//! Correctness harness for the MCD simulator.
//!
//! Three layers, cheapest first:
//!
//! 1. **Differential oracle** ([`diff`]): every configuration in a small
//!    lattice (and anything the fuzzer samples) runs twice — once on the
//!    optimized engine with its three shortcuts (warm-state cache,
//!    incremental operating-point bookkeeping, the issue-queue ready mask)
//!    and once on the deliberately-naive reference interpreter with none
//!    of them. The two serialized
//!    [`RunResult`](mcd_pipeline::RunResult)s must be byte-identical.
//! 2. **Runtime invariants**: the optimized run is audited from the
//!    inside, with the [`InvariantChecker`](mcd_pipeline::InvariantChecker)
//!    as its probe — clock monotonicity, queue occupancy,
//!    sync-window cache coherence, operating-point ranges, on-grid
//!    governor requests, and the `T_s` jitter breach-rate bound.
//! 3. **Post-run energy checks** ([`post`]): the power model's breakdown
//!    of any result must have non-negative terms, domain energies that sum
//!    to the total, and shares in `[0, 1]`.
//!
//! The seeded fuzzer ([`mod@fuzz`]) samples configurations across all three
//! layers, greedily shrinks any failure, and publishes a minimal repro
//! JSON ([`repro`]) through the harness's atomic write path.

pub mod case;
pub mod diff;
pub mod fuzz;
pub mod lattice;
pub mod post;
pub mod repro;

pub use case::CheckCase;
pub use diff::{run_differential, DiffOutcome};
pub use fuzz::{fuzz, FailureKind, FuzzConfig, FuzzFailure, FuzzReport};
pub use lattice::lattice;
pub use post::check_energy;
