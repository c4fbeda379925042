//! The recording probe.

use mcd_time::{Femtos, Frequency};

use crate::model::{
    DomainCounters, DomainTrace, FreqStep, OccupancySample, RelockSpan, RunTrace, StallCause,
    SyncStall, DOMAINS, TRACE_SCHEMA,
};
use crate::probe::{Probe, RequestSource};
use crate::ring::Ring;

/// Recording parameters: how aggressively to downsample and how much event
/// history to retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Keep every `sample_every`-th queue-occupancy sample per domain
    /// (counters still integrate every sample). 1 = keep all.
    pub sample_every: u64,
    /// Ring capacity for each event class per domain; the newest events are
    /// kept and the eviction count is reported.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Keep everything (unbounded memory; debugging runs only).
    pub fn full() -> Self {
        TraceConfig {
            sample_every: 1,
            ring_capacity: usize::MAX,
        }
    }
}

/// Ring-buffered storage for one domain.
struct DomainRec {
    counters: DomainCounters,
    freq_steps: Ring<FreqStep>,
    freq_requests: Ring<FreqStep>,
    relocks: Ring<RelockSpan>,
    sync_stalls: Ring<SyncStall>,
    occupancy: Ring<OccupancySample>,
    /// Occupancy-downsampling phase counter.
    sample_phase: u64,
    /// Operating point in force since `residency_from` (Hz), for
    /// cycle-weighted residency accounting.
    current_hz: Option<(Femtos, f64)>,
}

impl DomainRec {
    fn new(cfg: &TraceConfig) -> Self {
        DomainRec {
            counters: DomainCounters::new(),
            freq_steps: Ring::new(cfg.ring_capacity),
            freq_requests: Ring::new(cfg.ring_capacity),
            relocks: Ring::new(cfg.ring_capacity),
            sync_stalls: Ring::new(cfg.ring_capacity),
            occupancy: Ring::new(cfg.ring_capacity),
            sample_phase: 0,
            current_hz: None,
        }
    }

    /// Adds `from..to` at `hz` to the residency histogram.
    fn accumulate_residency(&mut self, from: Femtos, to: Femtos, hz: f64) {
        if to <= from {
            return;
        }
        let cycles = (to - from).as_secs_f64() * hz;
        self.counters.residency_cycles[DomainCounters::residency_bin(hz)] += cycles;
    }

    fn stall(&mut self, cause: StallCause, duration: Femtos) {
        self.counters.stall_femtos[cause.index()] += duration.as_femtos();
        self.counters.stall_events[cause.index()] += 1;
    }

    fn into_trace(mut self, total_time: Femtos) -> DomainTrace {
        if let Some((from, hz)) = self.current_hz.take() {
            self.accumulate_residency(from, total_time, hz);
        }
        let dropped_events = self.freq_steps.dropped()
            + self.freq_requests.dropped()
            + self.relocks.dropped()
            + self.sync_stalls.dropped()
            + self.occupancy.dropped();
        DomainTrace {
            counters: self.counters,
            freq_steps: self.freq_steps.into_vec(),
            freq_requests: self.freq_requests.into_vec(),
            relocks: self.relocks.into_vec(),
            sync_stalls: self.sync_stalls.into_vec(),
            occupancy: self.occupancy.into_vec(),
            dropped_events,
        }
    }
}

/// A [`Probe`] that accumulates everything into a [`RunTrace`].
///
/// Deterministic by construction: the record is a pure function of the
/// hook stream, which is itself a pure function of the simulation — two
/// traced runs of the same cell produce identical `RunTrace`s.
pub struct TraceRecorder {
    cfg: TraceConfig,
    domains: Vec<DomainRec>,
}

impl TraceRecorder {
    /// Creates a recorder with the given sampling parameters.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRecorder {
            domains: (0..DOMAINS).map(|_| DomainRec::new(&cfg)).collect(),
            cfg,
        }
    }

    /// Folds the record into a [`RunTrace`] of a run that ended at
    /// `total_time`.
    pub fn into_trace(self, total_time: Femtos) -> RunTrace {
        RunTrace {
            schema: TRACE_SCHEMA.to_string(),
            total_time,
            sample_every: self.cfg.sample_every,
            ring_capacity: self.cfg.ring_capacity as u64,
            domains: self
                .domains
                .into_iter()
                .map(|d| d.into_trace(total_time))
                .collect(),
        }
    }
}

impl Probe for TraceRecorder {
    fn freq_change(&mut self, domain: usize, at: Femtos, frequency: Frequency, volts: f64) {
        let rec = &mut self.domains[domain];
        let hz = frequency.as_hz() as f64;
        if let Some((from, prev_hz)) = rec.current_hz.replace((at, hz)) {
            rec.accumulate_residency(from, at, prev_hz);
        }
        rec.counters.freq_changes += 1;
        rec.freq_steps.push(FreqStep {
            at,
            hz: frequency.as_hz(),
            volts,
        });
    }

    fn freq_request(
        &mut self,
        domain: usize,
        at: Femtos,
        frequency: Frequency,
        _source: RequestSource,
    ) {
        let rec = &mut self.domains[domain];
        rec.counters.freq_requests += 1;
        rec.freq_requests.push(FreqStep {
            at,
            hz: frequency.as_hz(),
            volts: 0.0,
        });
    }

    fn pll_relock(&mut self, domain: usize, start: Femtos, end: Femtos) {
        let rec = &mut self.domains[domain];
        rec.counters.relocks += 1;
        rec.stall(StallCause::PllRelock, end - start);
        rec.relocks.push(RelockSpan { start, end });
    }

    fn sync_stall(&mut self, src: usize, dst: usize, at: Femtos, wait: Femtos) {
        let rec = &mut self.domains[dst];
        rec.counters.sync_crossings += 1;
        rec.stall(StallCause::SyncWindow, wait);
        rec.sync_stalls.push(SyncStall { at, wait, src });
    }

    fn queue_sample(&mut self, domain: usize, at: Femtos, occupancy: f64) {
        let rec = &mut self.domains[domain];
        rec.counters.occupancy_sum += occupancy;
        rec.counters.occupancy_samples += 1;
        rec.sample_phase += 1;
        if rec.sample_phase >= self.cfg.sample_every {
            rec.sample_phase = 0;
            rec.occupancy.push(OccupancySample { at, occupancy });
        }
    }

    fn stall(&mut self, domain: usize, at: Femtos, cause: StallCause, duration: Femtos) {
        let _ = at;
        self.domains[domain].stall(cause, duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RESIDENCY_BINS;

    fn fs(n: u64) -> Femtos {
        Femtos::from_femtos(n)
    }

    #[test]
    fn residency_is_cycle_weighted_across_changes() {
        let mut rec = TraceRecorder::new(TraceConfig::default());
        // 1 GHz for 1 µs, then 250 MHz for 1 µs.
        rec.freq_change(1, fs(0), Frequency::GHZ, 1.2);
        rec.freq_change(1, Femtos::from_micros(1), Frequency::MIN_SCALED, 0.65);
        let trace = rec.into_trace(Femtos::from_micros(2));
        let c = &trace.domains[1].counters;
        let top = c.residency_cycles[RESIDENCY_BINS - 1];
        let bottom = c.residency_cycles[0];
        assert!((top - 1000.0).abs() < 1e-6, "1 µs at 1 GHz = 1000 cycles");
        assert!(
            (bottom - 250.0).abs() < 1e-6,
            "1 µs at 250 MHz = 250 cycles"
        );
        assert_eq!(c.freq_changes, 2);
        let mean = c.mean_frequency_hz();
        assert!(mean > 250e6 && mean < 1e9);
    }

    #[test]
    fn stalls_fold_into_per_cause_counters() {
        let mut rec = TraceRecorder::new(TraceConfig::default());
        rec.pll_relock(2, fs(100), fs(300));
        rec.sync_stall(0, 2, fs(400), fs(50));
        rec.sync_stall(1, 2, fs(500), fs(25));
        rec.stall(0, fs(600), StallCause::BranchRedirect, fs(10));
        let trace = rec.into_trace(fs(1000));
        let c2 = &trace.domains[2].counters;
        assert_eq!(c2.relock_femtos(), 200);
        assert_eq!(c2.sync_penalty_femtos(), 75);
        assert_eq!(c2.sync_crossings, 2);
        assert_eq!(c2.relocks, 1);
        let c0 = &trace.domains[0].counters;
        assert_eq!(c0.stall_femtos[StallCause::BranchRedirect.index()], 10);
        assert_eq!(trace.stall_breakdown_femtos(), [75, 200, 10, 0]);
    }

    #[test]
    fn occupancy_downsampling_keeps_counters_exact() {
        let mut rec = TraceRecorder::new(TraceConfig {
            sample_every: 10,
            ring_capacity: 8,
        });
        for i in 0..100u64 {
            rec.queue_sample(3, fs(i), 0.5);
        }
        let trace = rec.into_trace(fs(100));
        let d = &trace.domains[3];
        assert_eq!(d.counters.occupancy_samples, 100, "counters see all");
        assert!((d.counters.mean_occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(d.occupancy.len(), 8, "ring keeps the newest 8 of 10 kept");
        assert_eq!(d.dropped_events, 2);
    }

    #[test]
    fn trace_is_serializable_and_round_trips() {
        let mut rec = TraceRecorder::new(TraceConfig::default());
        rec.freq_change(0, fs(0), Frequency::GHZ, 1.2);
        let trace = rec.into_trace(fs(100));
        let json = serde_json::to_string(&trace).expect("serializes");
        let back: RunTrace = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, trace);
        assert_eq!(back.schema, "mcd-run-trace/2");
    }
}
