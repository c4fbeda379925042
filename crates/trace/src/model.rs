//! The trace data model: what a traced run leaves behind.

use serde::{Deserialize, Serialize};

use mcd_time::Femtos;

/// Number of clock domains in the machine under trace.
pub const DOMAINS: usize = 4;

/// Display labels per domain index, matching the pipeline's domain order.
pub const DOMAIN_LABELS: [&str; DOMAINS] = ["front-end", "integer", "floating-point", "load-store"];

/// Frequency-residency bins: the paper's 32-point (Transmeta) grid
/// granularity over the 250 MHz..1 GHz operating region.
pub const RESIDENCY_BINS: usize = 32;

/// Schema tag embedded in every serialized [`RunTrace`].
pub const TRACE_SCHEMA: &str = "mcd-run-trace/2";

/// Why a domain spent cycles not doing useful work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallCause {
    /// Waiting out a §2.2 synchronization window on a cross-domain value.
    SyncWindow,
    /// Edges suppressed while the PLL re-locked after a frequency change.
    PllRelock,
    /// Fetch blocked on an unresolved mispredicted branch (redirect).
    BranchRedirect,
    /// Fetch blocked on an instruction-cache miss in flight.
    MemoryWait,
}

impl StallCause {
    /// Number of causes (array dimension for per-cause counters).
    pub const COUNT: usize = 4;

    /// All causes, in counter-index order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::SyncWindow,
        StallCause::PllRelock,
        StallCause::BranchRedirect,
        StallCause::MemoryWait,
    ];

    /// The counter index of this cause.
    pub fn index(self) -> usize {
        match self {
            StallCause::SyncWindow => 0,
            StallCause::PllRelock => 1,
            StallCause::BranchRedirect => 2,
            StallCause::MemoryWait => 3,
        }
    }

    /// A short human-readable tag.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::SyncWindow => "sync-window",
            StallCause::PllRelock => "pll-relock",
            StallCause::BranchRedirect => "branch-redirect",
            StallCause::MemoryWait => "memory-wait",
        }
    }
}

/// A frequency/voltage change applied to a domain's clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreqStep {
    /// When the new operating point took effect.
    pub at: Femtos,
    /// New frequency in Hz.
    pub hz: u64,
    /// New supply voltage in volts (0.0 for request events, where the
    /// voltage is decided later by the DVFS model).
    pub volts: f64,
}

/// A PLL re-lock window during which a domain's clock produced no edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelockSpan {
    /// First suppressed instant.
    pub start: Femtos,
    /// When edges resumed.
    pub end: Femtos,
}

/// A value that had to wait out a synchronization window at a domain
/// boundary. Recorded against the *destination* domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncStall {
    /// When the value was produced.
    pub at: Femtos,
    /// How long it waited to become visible.
    pub wait: Femtos,
    /// Producing domain index.
    pub src: usize,
}

/// A queue-occupancy sample for a domain's issue structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Sample time (a clock edge of the domain).
    pub at: Femtos,
    /// Occupancy as a fraction of capacity.
    pub occupancy: f64,
}

/// Cycle-weighted counters for one domain, exact over the whole run (not
/// subject to ring-buffer truncation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DomainCounters {
    /// Operating-point changes applied to this domain's clock.
    pub freq_changes: u64,
    /// Frequency requests issued to this domain (governor or schedule).
    pub freq_requests: u64,
    /// PLL re-lock windows.
    pub relocks: u64,
    /// Stall time per [`StallCause`] (femtoseconds, indexed by
    /// [`StallCause::index`]).
    pub stall_femtos: [u64; StallCause::COUNT],
    /// Stall events per [`StallCause`].
    pub stall_events: [u64; StallCause::COUNT],
    /// Incoming cross-domain values that hit a synchronization window
    /// (subset of `stall_events[SyncWindow]` — identical, kept explicit).
    pub sync_crossings: u64,
    /// Queue-occupancy integration: Σ occupancy over sampled edges, and the
    /// sample count (mean occupancy = sum / samples).
    pub occupancy_sum: f64,
    pub occupancy_samples: u64,
    /// Cycle mass per frequency bin over the 250 MHz..1 GHz region
    /// (cycle-weighted residency; [`RESIDENCY_BINS`] entries).
    pub residency_cycles: Vec<f64>,
}

impl DomainCounters {
    /// Fresh counters with the residency histogram allocated.
    pub fn new() -> Self {
        DomainCounters {
            residency_cycles: vec![0.0; RESIDENCY_BINS],
            ..DomainCounters::default()
        }
    }

    /// The residency bin for a frequency in Hz (clamped into range).
    pub fn residency_bin(hz: f64) -> usize {
        let (lo, hi) = (250e6, 1e9);
        let t = (hz - lo) / (hi - lo);
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        ((t * (RESIDENCY_BINS - 1) as f64).round() as usize).min(RESIDENCY_BINS - 1)
    }

    /// Total synchronization-penalty time (femtoseconds).
    pub fn sync_penalty_femtos(&self) -> u64 {
        self.stall_femtos[StallCause::SyncWindow.index()]
    }

    /// Total PLL re-lock time (femtoseconds).
    pub fn relock_femtos(&self) -> u64 {
        self.stall_femtos[StallCause::PllRelock.index()]
    }

    /// Mean queue occupancy over the sampled edges.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum / self.occupancy_samples as f64
        }
    }

    /// Cycle-weighted mean frequency from the residency histogram, in Hz.
    pub fn mean_frequency_hz(&self) -> f64 {
        let total: f64 = self.residency_cycles.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let (lo, hi) = (250e6, 1e9);
        self.residency_cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let f = lo + (hi - lo) * i as f64 / (RESIDENCY_BINS - 1) as f64;
                f * c
            })
            .sum::<f64>()
            / total
    }
}

/// Everything recorded about one domain.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DomainTrace {
    /// Exact whole-run counters.
    pub counters: DomainCounters,
    /// Operating-point changes (ring-limited; newest kept).
    pub freq_steps: Vec<FreqStep>,
    /// Frequency requests (governor decisions, schedule entries).
    pub freq_requests: Vec<FreqStep>,
    /// PLL re-lock windows.
    pub relocks: Vec<RelockSpan>,
    /// Synchronization-window stalls into this domain.
    pub sync_stalls: Vec<SyncStall>,
    /// Queue-occupancy samples.
    pub occupancy: Vec<OccupancySample>,
    /// Events the ring buffers discarded (sum across this domain's rings).
    pub dropped_events: u64,
}

/// The observational record of one traced run: per-domain counters and
/// ring-buffered event samples. Produced *alongside* a byte-identical
/// `RunResult` — nothing here feeds back into the simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Wall-clock end of the traced run (last commit time).
    pub total_time: Femtos,
    /// Queue-occupancy downsampling factor the recorder used.
    pub sample_every: u64,
    /// Ring capacity the recorder used for each event class.
    pub ring_capacity: u64,
    /// One entry per domain, in domain-index order ([`DOMAIN_LABELS`]).
    pub domains: Vec<DomainTrace>,
}

impl RunTrace {
    /// Total synchronization-penalty time across all domains (femtoseconds).
    pub fn total_sync_penalty_femtos(&self) -> u64 {
        self.domains
            .iter()
            .map(|d| d.counters.sync_penalty_femtos())
            .sum()
    }

    /// Total stall time per cause across all domains (femtoseconds).
    pub fn stall_breakdown_femtos(&self) -> [u64; StallCause::COUNT] {
        let mut out = [0u64; StallCause::COUNT];
        for d in &self.domains {
            for (acc, v) in out.iter_mut().zip(d.counters.stall_femtos) {
                *acc += v;
            }
        }
        out
    }
}
