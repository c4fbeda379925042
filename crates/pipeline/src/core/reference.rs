//! The deliberately-naive reference interpreter.
//!
//! This is the differential oracle's "obviously correct" half: a
//! straight-line event loop over the same tick machinery and edge
//! selection as the optimized engine, with its three engineering
//! shortcuts removed:
//!
//! - no process-wide warm-state cache — the warm-up stream is rebuilt from
//!   scratch for every run;
//! - no incremental operating-point bookkeeping — cached frequencies,
//!   voltages, periods and the §2.2 synchronization-window matrix are
//!   recomputed wholesale from the clocks after every edge;
//! - no issue-queue ready mask — every entry, in age order, is checked
//!   against the ROB ([`Pipeline::issue_ready`]) before it may issue, and
//!   an issued entry is removed by seq.
//!
//! The claim under test is that all three shortcuts are results-neutral:
//! for any configuration, [`Engine::Reference`] and [`Engine::Optimized`]
//! produce byte-identical [`RunResult`]s. `mcd-check` drives that
//! comparison across a configuration lattice and a seeded fuzzer.
//!
//! The reference engine takes no probe: probes watch the optimized loop,
//! the one with shortcuts to audit.
//!
//! [`Engine::Reference`]: super::Engine::Reference
//! [`Engine::Optimized`]: super::Engine::Optimized

use mcd_time::{Femtos, SyncWindowCache};

use crate::domains::DomainId;
use crate::governor::Governor;
use crate::result::RunResult;

use super::{build_warm_state, warm_stream_len, Pipeline, MAX_EDGES_PER_INSTRUCTION};

impl<'p> Pipeline<'p> {
    /// The naive event loop. Mirrors [`Pipeline::run_optimized`] decision
    /// for decision, minus every shortcut.
    pub(super) fn run_reference(
        mut self,
        mut governor: Option<Box<dyn Governor + 'p>>,
    ) -> RunResult {
        let target = self.target;
        if self.cfg.warmup_instructions > 0 {
            // Same stream length as the optimized path, but built fresh —
            // the process-wide cache is one of the shortcuts under test, so
            // the constructor's copy of the shared state is replaced.
            let profile = self.input.profile();
            let n = warm_stream_len(&self.cfg, profile);
            let state = build_warm_state(&self.pcfg, profile, self.cfg.seed, n);
            self.l1i = state.l1i;
            self.l1d = state.l1d;
            self.l2 = state.l2;
            self.bpred = state.bpred;
        }
        let n_clocks = self.clocks.len();
        let mut pending: Vec<Femtos> = Vec::with_capacity(n_clocks);
        for i in 0..n_clocks {
            pending.push(self.clocks[i].next_edge());
        }
        self.refresh_operating_points();
        let mut edges: u64 = 0;
        let max_edges = target
            .saturating_mul(MAX_EDGES_PER_INSTRUCTION)
            .max(1_000_000);
        while self.committed < target {
            edges += 1;
            assert!(
                edges < max_edges,
                "pipeline deadlock: {} of {} committed after {} edges",
                self.committed,
                target,
                edges
            );
            // Earliest pending clock edge wins; strict `<` keeps the first
            // (lowest-indexed) clock on ties, matching the optimized loop's
            // tie-break contract.
            let mut ci = 0;
            for (i, &t) in pending.iter().enumerate().skip(1) {
                if t < pending[ci] {
                    ci = i;
                }
            }
            let now = pending[ci];
            self.apply_schedule(now);
            if let Some(g) = governor.as_mut() {
                self.sample_utilization(ci, n_clocks);
                if now >= self.control_next {
                    self.control_decision(now, &mut **g);
                }
            }
            if n_clocks == 1 {
                // Single clock: all logical domains tick on the same edge.
                self.tick_commit_dispatch_fetch(now);
                self.walk_issue_queue(DomainId::Integer, now);
                self.walk_issue_queue(DomainId::FloatingPoint, now);
                self.tick_loadstore(now);
            } else {
                match DomainId::ALL[ci] {
                    DomainId::FrontEnd => self.tick_commit_dispatch_fetch(now),
                    DomainId::Integer => self.walk_issue_queue(DomainId::Integer, now),
                    DomainId::FloatingPoint => self.walk_issue_queue(DomainId::FloatingPoint, now),
                    DomainId::LoadStore => self.tick_loadstore(now),
                }
            }
            pending[ci] = self.clocks[ci].next_edge();
            self.refresh_operating_points();
        }
        self.into_result()
    }

    /// [`Pipeline::tick_exec`] without the ready mask: every entry, oldest
    /// first, is checked against the ROB, and an issued entry leaves the
    /// queue by seq.
    fn walk_issue_queue(&mut self, domain: DomainId, now: Femtos) {
        let width = match domain {
            DomainId::Integer => self.pcfg.issue_width_int,
            _ => self.pcfg.issue_width_fp,
        };
        let mut issued = 0;
        let mut i = 0;
        while issued < width {
            let Some(seq) = self.iq(domain).seq_at(i) else {
                break;
            };
            if self.issue_ready(domain, seq, now) && self.try_issue(domain, seq, now) {
                self.iq_mut(domain).remove_seq(seq);
                issued += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Recomputes every cached operating-point value wholesale from the
    /// clocks: per-clock frequency/voltage, per-domain period/voltage, and
    /// a freshly built synchronization-window matrix. The optimized loop
    /// maintains the same values incrementally in
    /// [`Pipeline::note_clock_advanced`]; this is the no-bookkeeping
    /// equivalent.
    fn refresh_operating_points(&mut self) {
        for (i, c) in self.clocks.iter().enumerate() {
            self.clock_freq[i] = c.frequency();
            self.clock_volt[i] = c.voltage().as_volts();
        }
        for d in 0..DomainId::COUNT {
            let ci = if self.single_clock { 0 } else { d };
            self.periods[d] = self.clocks[ci].period();
            self.volts[d] = self.clock_volt[ci];
        }
        self.sync_win = SyncWindowCache::new(self.cfg.sync, &self.periods);
    }
}
