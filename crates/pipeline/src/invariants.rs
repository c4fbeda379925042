//! Runtime invariant checking for the optimized run loop.
//!
//! An [`InvariantChecker`] lent to a run as its [`Probe`] audits the
//! engine's internal contracts *while it runs*, from the values the probe
//! hooks hand it; like every probe it cannot perturb the run (the golden
//! byte-identity test runs with it).
//!
//! Checked invariants:
//!
//! - **Clock monotonicity** — every clock's pending-edge time strictly
//!   increases edge over edge.
//! - **Queue occupancy** — fetch queue, both issue queues, LSQ and ROB
//!   never exceed their configured capacities.
//! - **Synchronization-window matrix** — the incrementally maintained §2.2
//!   window cache always equals a wholesale recomputation from the current
//!   periods (zero diagonal included).
//! - **Operating-point range** — cached per-clock frequency and voltage
//!   stay inside the machine's VF-table clamp region.
//! - **On-grid requests** — governor frequency requests land on the
//!   machine's quantized frequency grid (static-schedule entries are
//!   exempt: the golden schedules deliberately use off-grid points).
//! - **Jitter breach rate** — the fraction of steady-state edges whose
//!   interval deviates from the nominal period by more than the
//!   synchronization window `T_s`. Clean paper-parameter runs sit well
//!   under 1 %; a clock whose jitter defeats the §2.2 window (the
//!   `mcd-time` chaos models) blows past the 5 % bound. This is a *rate*
//!   bound, not a per-edge bound, because the paper's own jitter clamp
//!   (±0.45 T) legitimately exceeds the 0.30 T window on a small tail of
//!   edges.

use mcd_time::{Femtos, Frequency, FrequencyGrid, SyncParams, VfTable};
use mcd_trace::{ClockEdge, Probe, RequestSource};
use serde::{Deserialize, Serialize};

use crate::domains::DomainId;

/// Which invariant a [`InvariantViolation`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvariantKind {
    /// A clock's pending-edge time failed to strictly increase.
    ClockMonotonicity,
    /// A pipeline queue exceeded its configured capacity.
    QueueOverflow,
    /// The incremental sync-window cache diverged from recomputation.
    SyncWindowMatrix,
    /// A cached frequency or voltage left the VF clamp region.
    OperatingPointOutOfRange,
    /// A governor requested a frequency off the quantized grid.
    OffGridFrequency,
    /// A clock's jitter breached the `T_s` window too often.
    JitterBreachRate,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantViolation {
    /// Which invariant failed.
    pub kind: InvariantKind,
    /// Physical clock (or domain) index the violation is attributed to.
    pub clock: usize,
    /// Simulation time of the observation.
    pub at: Femtos,
    /// Human-readable specifics.
    pub detail: String,
}

/// Per-clock edge statistics feeding the jitter breach-rate bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockStats {
    /// Edges observed.
    pub edges: u64,
    /// Steady-state edges qualifying for the jitter bound (frequency
    /// unchanged, interval under 2× the period — i.e. not a relock gap).
    pub qualifying: u64,
    /// Qualifying edges whose interval missed the period by more than
    /// `T_s`.
    pub breaches: u64,
}

impl ClockStats {
    /// Breach fraction over qualifying edges (0 when none qualified).
    pub fn breach_rate(&self) -> f64 {
        if self.qualifying == 0 {
            return 0.0;
        }
        self.breaches as f64 / self.qualifying as f64
    }
}

/// Everything an invariant-checked run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantReport {
    /// Total edges audited across all clocks.
    pub checked_edges: u64,
    /// Per-clock edge statistics.
    pub clocks: Vec<ClockStats>,
    /// Recorded violations (capped; see `truncated`).
    pub violations: Vec<InvariantViolation>,
    /// Violations dropped after the recording cap was hit.
    pub truncated: u64,
}

impl InvariantReport {
    /// Whether the run upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.truncated == 0
    }

    /// One-line summary for logs and failure messages.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("clean ({} edges audited)", self.checked_edges)
        } else {
            let first = &self.violations[0];
            format!(
                "{} violation(s) over {} edges; first: {:?} on clock {} at {} fs: {}",
                self.violations.len() as u64 + self.truncated,
                self.checked_edges,
                first.kind,
                first.clock,
                first.at.as_femtos(),
                first.detail
            )
        }
    }
}

/// Name and owning domain of each queue in [`ClockEdge::queues`].
const QUEUES: [(&str, DomainId); 5] = [
    ("fetch queue", DomainId::FrontEnd),
    ("integer IQ", DomainId::Integer),
    ("FP IQ", DomainId::FloatingPoint),
    ("LSQ", DomainId::LoadStore),
    ("ROB", DomainId::FrontEnd),
];

/// Recorded violations are capped so a systematically broken run cannot
/// accumulate an unbounded report; the overflow is counted in
/// [`InvariantReport::truncated`].
const MAX_VIOLATIONS: usize = 32;

/// The runtime invariant checker. Lend one to a run as its probe
/// ([`Engine::Optimized`](crate::Engine::Optimized)), then read the
/// [`InvariantReport`] back with [`InvariantChecker::finish`].
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    vf: VfTable,
    sync: SyncParams,
    /// Grid governor requests must land on; `None` disables the check.
    grid: Option<FrequencyGrid>,
    /// Jitter breach-rate bound over qualifying edges.
    breach_rate_limit: f64,
    /// Minimum qualifying edges before the rate bound is evaluated.
    min_qualifying: u64,
    /// Time and frequency of the previous edge per clock (None before the
    /// first).
    last: Vec<Option<(Femtos, Frequency)>>,
    stats: Vec<ClockStats>,
    checked_edges: u64,
    violations: Vec<InvariantViolation>,
    truncated: u64,
}

impl InvariantChecker {
    /// Builds a checker for a machine using `vf` and `sync`, with the
    /// default 32-step grid over `vf` and a 5 % jitter breach-rate bound.
    pub fn new(vf: VfTable, sync: SyncParams) -> Self {
        InvariantChecker {
            grid: Some(FrequencyGrid::new(vf, 32)),
            vf,
            sync,
            breach_rate_limit: 0.05,
            min_qualifying: 200,
            last: Vec::new(),
            stats: Vec::new(),
            checked_edges: 0,
            violations: Vec::new(),
            truncated: 0,
        }
    }

    /// Replaces (or disables, with `None`) the on-grid request check.
    pub fn with_grid(mut self, grid: Option<FrequencyGrid>) -> Self {
        self.grid = grid;
        self
    }

    /// Overrides the jitter breach-rate bound.
    pub fn with_breach_rate_limit(mut self, limit: f64) -> Self {
        self.breach_rate_limit = limit;
        self
    }

    fn record(&mut self, kind: InvariantKind, clock: usize, at: Femtos, detail: String) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.truncated += 1;
            return;
        }
        self.violations.push(InvariantViolation {
            kind,
            clock,
            at,
            detail,
        });
    }

    /// Closes the audit of a run that ended at `end`: evaluates the
    /// per-clock jitter breach-rate bound and yields the report.
    pub fn finish(mut self, end: Femtos) -> InvariantReport {
        for ci in 0..self.stats.len() {
            let s = self.stats[ci];
            if s.qualifying >= self.min_qualifying && s.breach_rate() > self.breach_rate_limit {
                self.record(
                    InvariantKind::JitterBreachRate,
                    ci,
                    end,
                    format!(
                        "{} of {} steady-state edges ({:.1} %) breached T_s, bound {:.1} %",
                        s.breaches,
                        s.qualifying,
                        100.0 * s.breach_rate(),
                        100.0 * self.breach_rate_limit
                    ),
                );
            }
        }
        InvariantReport {
            checked_edges: self.checked_edges,
            clocks: self.stats,
            violations: self.violations,
            truncated: self.truncated,
        }
    }
}

impl Probe for InvariantChecker {
    /// Audits the clock that produced `edge` (its operating point and the
    /// sync-window cache are fresh), and the queue occupancies.
    fn clock_edge(&mut self, edge: &ClockEdge<'_>) {
        let ci = edge.clock;
        if self.stats.len() <= ci {
            self.stats.resize(ci + 1, ClockStats::default());
            self.last.resize(ci + 1, None);
        }
        self.checked_edges += 1;
        self.stats[ci].edges += 1;
        let t = edge.at;
        let freq = edge.frequency;
        let last = self.last[ci].replace((t, freq));

        // Clock monotonicity: edges strictly advance.
        if let Some((prev, _)) = last.filter(|&(prev, _)| t <= prev) {
            self.record(
                InvariantKind::ClockMonotonicity,
                ci,
                t,
                format!(
                    "edge at {} fs does not advance past {} fs",
                    t.as_femtos(),
                    prev.as_femtos()
                ),
            );
        }

        // Operating point inside the VF clamp region.
        let volt = edge.volts;
        if freq < self.vf.f_min() || freq > self.vf.f_max() {
            self.record(
                InvariantKind::OperatingPointOutOfRange,
                ci,
                t,
                format!(
                    "frequency {} Hz outside [{}, {}] Hz",
                    freq.as_hz(),
                    self.vf.f_min().as_hz(),
                    self.vf.f_max().as_hz()
                ),
            );
        }
        let (v_lo, v_hi) = (self.vf.v_min().as_volts(), self.vf.v_max().as_volts());
        if volt < v_lo - 1e-9 || volt > v_hi + 1e-9 {
            self.record(
                InvariantKind::OperatingPointOutOfRange,
                ci,
                t,
                format!("voltage {volt} V outside [{v_lo}, {v_hi}] V"),
            );
        }

        // Jitter breach statistics over steady-state edges.
        if let Some((prev, _)) = last.filter(|&(_, prev_freq)| prev_freq == freq) {
            let period = freq.period();
            let interval = t - prev;
            if interval < period * 2 {
                self.stats[ci].qualifying += 1;
                let window = self.sync.window(period, period);
                let deviation = if interval > period {
                    interval - period
                } else {
                    period - interval
                };
                if deviation > window {
                    self.stats[ci].breaches += 1;
                }
            }
        }

        // Sync-window cache vs. wholesale recomputation.
        for src in 0..DomainId::COUNT {
            for dst in 0..DomainId::COUNT {
                let expected = if src == dst {
                    Femtos::ZERO
                } else {
                    self.sync.window(edge.periods[src], edge.periods[dst])
                };
                let cached = edge.windows.window(src, dst);
                if cached != expected {
                    self.record(
                        InvariantKind::SyncWindowMatrix,
                        ci,
                        t,
                        format!(
                            "window[{src}][{dst}] cached {} fs, recomputed {} fs",
                            cached.as_femtos(),
                            expected.as_femtos()
                        ),
                    );
                }
            }
        }

        // Queue occupancy within capacity.
        for ((name, domain), (len, cap)) in QUEUES.into_iter().zip(edge.queues) {
            if len > cap {
                self.record(
                    InvariantKind::QueueOverflow,
                    domain.index(),
                    t,
                    format!("{name} holds {len} entries over capacity {cap}"),
                );
            }
        }
    }

    /// Audits one governor frequency request (static-schedule entries are
    /// exempt).
    fn freq_request(&mut self, domain: usize, at: Femtos, f: Frequency, source: RequestSource) {
        let Some(grid) = &self.grid else { return };
        if source == RequestSource::Governor && !grid.points().iter().any(|p| p.frequency == f) {
            self.record(
                InvariantKind::OffGridFrequency,
                domain,
                at,
                format!("governor requested {} Hz, not a grid point", f.as_hz()),
            );
        }
    }
}
