//! # MCD-DVFS — Multiple Clock Domain processor simulation
//!
//! A from-scratch Rust reproduction of *Semeraro et al., "Energy-Efficient
//! Processor Design Using Multiple Clock Domains with Dynamic Voltage and
//! Frequency Scaling" (HPCA 2002)*: an Alpha-21264-like out-of-order
//! processor split into four clock domains (front end / integer / floating
//! point / load-store), with per-domain dynamic voltage and frequency
//! scaling, an off-line slack-analysis tool that derives reconfiguration
//! schedules, and a Wattch-style power model.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`time`] — clocks, jitter, synchronization windows, DVFS models;
//! * [`workload`] — the synthetic benchmark suite (Table 2);
//! * [`uarch`] — caches, predictors, queues, rename, functional units;
//! * [`pipeline`] — the four-domain cycle-level simulator;
//! * [`power`] — the energy model;
//! * [`offline`] — the shaker / clustering analysis tool;
//! * [`core`] — the five machine configurations and the experiment driver;
//! * [`harness`] — the parallel campaign engine (sweeps, result cache,
//!   worker pool, fault isolation, JSONL telemetry);
//! * [`grid`] — distributed campaign execution (TCP coordinator/worker
//!   sharding with deterministic assembly and fault-tolerant
//!   reassignment);
//! * [`trace`] — the observability layer (per-domain event sinks,
//!   run traces, Chrome trace_event export);
//! * [`check`] — the correctness harness (differential oracle against a
//!   naive reference interpreter, runtime invariants, config fuzzer);
//! * [`paper`] — the one path from a campaign to every published number
//!   (`mcd-cli report paper`).
//!
//! # Quickstart
//!
//! ```
//! use mcd::pipeline::{simulate, MachineConfig};
//! use mcd::power::PowerModel;
//! use mcd::workload::suites;
//!
//! let profile = suites::by_name("gcc").expect("known benchmark");
//! let run = simulate(&MachineConfig::baseline(1), &profile, 5_000);
//! let energy = PowerModel::paper_calibrated().energy_of(&run);
//! println!("IPC {:.2}, energy {:.0} units", run.ipc(), energy.total());
//! ```

pub mod golden;
pub mod paper;

pub use mcd_check as check;
pub use mcd_core as core;
pub use mcd_grid as grid;
pub use mcd_harness as harness;
pub use mcd_offline as offline;
pub use mcd_pipeline as pipeline;
pub use mcd_power as power;
pub use mcd_time as time;
pub use mcd_trace as trace;
pub use mcd_uarch as uarch;
pub use mcd_workload as workload;
