//! Cycle-level simulator of a four-clock-domain out-of-order processor.
//!
//! This crate is the timing heart of the MCD-DVFS reproduction: an Alpha
//! 21264-like dynamic superscalar (Table 1 of the paper) whose front-end,
//! integer, floating-point and load/store sections each run from an
//! independent, jittered, optionally DVFS-scaled clock. Values crossing a
//! domain boundary pay the synchronization cost of §2.2.
//!
//! The main entry point is [`simulate`]; lower-level control is available
//! through [`Pipeline::run`] and its [`RunControl`].
//!
//! ```
//! use mcd_pipeline::{simulate, MachineConfig};
//! use mcd_workload::suites;
//!
//! let profile = suites::by_name("adpcm").expect("known benchmark");
//! let baseline = simulate(&MachineConfig::baseline(1), &profile, 1_000);
//! let mcd = simulate(&MachineConfig::baseline_mcd(1), &profile, 1_000);
//! // Four domains cost some performance relative to a single clock.
//! assert!(mcd.total_time >= baseline.total_time);
//! ```

pub mod config;
pub mod core;
pub mod domains;
pub mod driver;
pub mod events;
pub mod governor;
pub mod invariants;
pub mod machine;
pub mod replay;
pub mod result;
pub mod schedule;
pub mod stats;
pub(crate) mod warm;

pub use config::PipelineConfig;
pub use core::{Engine, Pipeline, RunControl};
pub use domains::DomainId;
pub use driver::{
    simulate, simulate_governed, simulate_governed_traced, simulate_reference_governed,
};
pub use events::{EventKind, EventSpan, InstrTrace};
pub use governor::{AttackDecay, ControlSample, Governor, PolicySpec, QueuePi, POLICY_IDS};
pub use invariants::{
    ClockStats, InvariantChecker, InvariantKind, InvariantReport, InvariantViolation,
};
pub use machine::{ClockingMode, MachineConfig};
pub use replay::Recording;
pub use result::RunResult;
pub use schedule::{FrequencySchedule, ScheduleEntry};
pub use stats::{ActivityLedger, Unit};

// Re-exported so probed runs can be driven without naming mcd-trace
// directly (the trait and record types are defined there).
pub use mcd_trace::{
    ClockEdge, Probe, RequestSource, RunTrace, StallCause, TraceConfig, TraceRecorder,
};
