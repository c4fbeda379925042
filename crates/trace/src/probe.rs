//! The hook surface the simulator drives.

use mcd_time::{Femtos, Frequency, SyncWindowCache};

use crate::model::{StallCause, DOMAINS};

/// Who issued a frequency request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestSource {
    /// An entry of the machine's static reconfiguration schedule.
    Schedule,
    /// An on-line governor's decision.
    Governor,
}

/// The machine state right after a clock produced an edge.
#[derive(Debug, Clone, Copy)]
pub struct ClockEdge<'a> {
    /// Physical clock index: the domain index on a four-clock machine, 0
    /// on a single-clock one.
    pub clock: usize,
    /// Time of the edge.
    pub at: Femtos,
    /// The clock's frequency after the edge.
    pub frequency: Frequency,
    /// The clock's voltage after the edge.
    pub volts: f64,
    /// Every domain's current clock period.
    pub periods: &'a [Femtos; DOMAINS],
    /// The §2.2 synchronization windows the pipeline holds for the current
    /// periods.
    pub windows: &'a SyncWindowCache<DOMAINS>,
    /// `(length, capacity)` of the fetch queue, the integer and FP issue
    /// queues, the LSQ and the ROB, in that order, as the preceding tick
    /// left them.
    pub queues: [(usize, usize); 5],
}

/// Observer hooks invoked by the pipeline while it runs.
///
/// Every method is a pure observer with a no-op default, so a probe
/// implements only the events it cares about. Domains are identified by
/// index (`0..`[`DOMAINS`]`) in the pipeline's domain order
/// ([`DOMAIN_LABELS`]).
///
/// The contract: a probe must not influence the simulation. The pipeline
/// passes the values it computes for its own use, and the golden-fixture
/// tests prove `RunResult` bytes are identical with and without a probe.
///
/// [`DOMAIN_LABELS`]: crate::DOMAIN_LABELS
pub trait Probe {
    /// A clock produced an edge; see [`ClockEdge`].
    fn clock_edge(&mut self, edge: &ClockEdge<'_>) {
        let _ = edge;
    }

    /// A new operating point took effect on `domain`'s clock at `at`.
    fn freq_change(&mut self, domain: usize, at: Femtos, frequency: Frequency, volts: f64) {
        let _ = (domain, at, frequency, volts);
    }

    /// A frequency request was issued for `domain`. The change itself lands
    /// later, through the DVFS transition model, and is reported by
    /// [`Probe::freq_change`].
    fn freq_request(
        &mut self,
        domain: usize,
        at: Femtos,
        frequency: Frequency,
        source: RequestSource,
    ) {
        let _ = (domain, at, frequency, source);
    }

    /// `domain`'s clock produced no edges in `start..end` while its PLL
    /// re-locked after a frequency change.
    fn pll_relock(&mut self, domain: usize, start: Femtos, end: Femtos) {
        let _ = (domain, start, end);
    }

    /// A value produced in `src` at `at` waited `wait` before becoming
    /// visible in `dst` (§2.2 synchronization window).
    fn sync_stall(&mut self, src: usize, dst: usize, at: Femtos, wait: Femtos) {
        let _ = (src, dst, at, wait);
    }

    /// Queue occupancy of `domain`'s issue structure, sampled at every clock
    /// edge the domain ticks on, idle ones included.
    fn queue_sample(&mut self, domain: usize, at: Femtos, occupancy: f64) {
        let _ = (domain, at, occupancy);
    }

    /// `domain` lost `duration` of potential work at `at` for `cause`
    /// (used for stall causes not already implied by the span hooks, e.g.
    /// fetch stalled on a branch redirect).
    fn stall(&mut self, domain: usize, at: Femtos, cause: StallCause, duration: Femtos) {
        let _ = (domain, at, cause, duration);
    }
}
