//! MCD-DVFS experiment driver: the paper's five machine configurations,
//! end-to-end experiment runs, and the metrics its figures report.
//!
//! This crate ties the substrates together: synthetic workloads
//! (`mcd-workload`) run on the four-domain pipeline (`mcd-pipeline`) under
//! the clocking models of `mcd-time`; the off-line tool (`mcd-offline`)
//! derives per-domain reconfiguration schedules from full-speed traces; and
//! the power model (`mcd-power`) converts activity into energy. The driver
//! reproduces the comparison of §4: baseline vs. baseline-MCD vs.
//! dynamic-1 % vs. dynamic-5 % vs. global voltage scaling.

pub mod cell;
pub mod experiment;
pub mod metrics;
pub mod report;

pub use cell::{
    BenchmarkSession, CellResult, Control, PhaseTimes, RunOptions, ScenarioSpec, SlackStore,
    Topology,
};
pub use experiment::{
    run_benchmark, run_benchmark_scenarios, BenchmarkResults, DomainSummary, ExperimentConfig,
    OnlineRow,
};
pub use metrics::{DegenerateBaseline, Metrics};
pub use report::{average, finite, format_percent_table, NonFinitePercent, PercentRow};
