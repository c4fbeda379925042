//! Observability for the multiple-clock-domain simulator.
//!
//! The paper's entire result set (§4–§5) is per-domain frequency/voltage
//! *timelines*: energy, slowdown, and interval decisions are only
//! explainable by watching what each domain did over time. This crate
//! provides the machinery to watch without perturbing:
//!
//! * [`Probe`] — the hook surface the pipeline drives. Every hook is a
//!   plain observer: the simulator behaves byte-identically whether a probe
//!   is lent to the run or not (the golden-fixture tests enforce this).
//! * [`TraceRecorder`] — the recording probe: cycle-weighted per-domain
//!   counters ([`DomainCounters`]) plus ring-buffered event samples
//!   ([`Ring`]), folded into a [`RunTrace`] at the end of a run.
//! * [`chrome_trace_json`] — renders a [`RunTrace`] as Chrome
//!   `trace_event` JSON (one track per clock domain: frequency stairstep,
//!   PLL re-lock slices, synchronization stalls) for `chrome://tracing`
//!   or Perfetto.
//!
//! The crate deliberately depends only on `mcd-time`: hooks identify
//! domains by index (`0..DOMAINS`), so the pipeline crate can depend on
//! this one without a cycle.

mod chrome;
mod model;
mod probe;
mod recorder;
mod ring;

pub use chrome::{chrome_trace_json, chrome_trace_value};
pub use model::{
    DomainCounters, DomainTrace, FreqStep, OccupancySample, RelockSpan, RunTrace, StallCause,
    SyncStall, DOMAINS, DOMAIN_LABELS, RESIDENCY_BINS, TRACE_SCHEMA,
};
pub use probe::{ClockEdge, Probe, RequestSource};
pub use recorder::{TraceConfig, TraceRecorder};
pub use ring::Ring;
