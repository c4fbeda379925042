//! Convenience entry points for running simulations: thin wrappers
//! over [`Pipeline::run`].

use mcd_trace::{RunTrace, TraceConfig, TraceRecorder};
use mcd_workload::{BenchmarkProfile, WorkloadGenerator};

use crate::core::{Engine, Pipeline, RunControl};
use crate::governor::Governor;
use crate::machine::MachineConfig;
use crate::result::RunResult;

/// A pipeline for `machine` on `profile`, its workload stream seeded by the
/// machine seed.
fn pipeline<'p>(machine: &MachineConfig, profile: &BenchmarkProfile) -> Pipeline<'p> {
    let generator = WorkloadGenerator::new(profile.clone(), machine.seed);
    Pipeline::new(machine.clone(), generator)
}

/// Runs `machine` on `profile` until `instructions` commit.
///
/// The workload stream is derived deterministically from the machine seed,
/// so two runs with different clocking but equal seeds execute the same
/// dynamic instruction sequence — the property the paper's two-phase
/// (trace, then dynamic) methodology depends on.
///
/// # Example
///
/// ```
/// use mcd_pipeline::{simulate, MachineConfig};
/// use mcd_workload::suites;
///
/// let profile = suites::by_name("g721").expect("known benchmark");
/// let r = simulate(&MachineConfig::baseline(3), &profile, 1_000);
/// assert_eq!(r.committed, 1_000);
/// ```
pub fn simulate(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    instructions: u64,
) -> RunResult {
    pipeline(machine, profile).run(instructions, RunControl::default())
}

/// [`simulate`] under an on-line governor: the machine starts from its
/// static configuration and the governor's grid-snapped requests drive the
/// per-domain clocks through the normal DVFS transition model.
pub fn simulate_governed<G: Governor>(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    instructions: u64,
    governor: G,
) -> RunResult {
    let control = RunControl {
        governor: Some(Box::new(governor)),
        ..RunControl::default()
    };
    pipeline(machine, profile).run(instructions, control)
}

/// [`simulate_governed`] with a [`TraceRecorder`] lent as the probe:
/// returns the observability record alongside the (byte-identical)
/// result; the trace's frequency stairsteps follow the governor's
/// decisions.
pub fn simulate_governed_traced<G: Governor>(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    instructions: u64,
    governor: G,
    cfg: TraceConfig,
) -> (RunResult, RunTrace) {
    let mut recorder = TraceRecorder::new(cfg);
    let control = RunControl {
        governor: Some(Box::new(governor)),
        engine: Engine::Optimized(Some(&mut recorder)),
    };
    let run = pipeline(machine, profile).run(instructions, control);
    let trace = recorder.into_trace(run.total_time);
    (run, trace)
}

/// [`simulate_governed`] on the deliberately naive reference interpreter
/// (no warm-state cache, no incremental operating-point bookkeeping).
/// Results are byte-identical to [`simulate_governed`]'s; `mcd-check`
/// exists to prove that claim.
pub fn simulate_reference_governed<G: Governor>(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    instructions: u64,
    governor: G,
) -> RunResult {
    let control = RunControl {
        governor: Some(Box::new(governor)),
        engine: Engine::Reference,
    };
    pipeline(machine, profile).run(instructions, control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DomainId;
    use crate::machine::ClockingMode;
    use crate::schedule::{FrequencySchedule, ScheduleEntry};
    use mcd_time::{DvfsModel, Femtos, Frequency};
    use mcd_workload::suites;

    const N: u64 = 4_000;

    fn profile(name: &str) -> mcd_workload::BenchmarkProfile {
        suites::by_name(name).expect("known benchmark")
    }

    /// A static run with a [`TraceRecorder`] lent as the probe.
    fn simulate_traced(
        machine: &MachineConfig,
        profile: &BenchmarkProfile,
        instructions: u64,
        cfg: TraceConfig,
    ) -> (RunResult, RunTrace) {
        let mut recorder = TraceRecorder::new(cfg);
        let control = RunControl {
            engine: Engine::Optimized(Some(&mut recorder)),
            ..RunControl::default()
        };
        let run = pipeline(machine, profile).run(instructions, control);
        let trace = recorder.into_trace(run.total_time);
        (run, trace)
    }

    #[test]
    fn baseline_commits_target() {
        let r = simulate(&MachineConfig::baseline(1), &profile("adpcm"), N);
        assert_eq!(r.committed, N);
        assert!(r.total_time > Femtos::ZERO);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc < 4.0, "IPC {ipc}");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = simulate(&MachineConfig::baseline(9), &profile("gcc"), N);
        let b = simulate(&MachineConfig::baseline(9), &profile("gcc"), N);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    }

    #[test]
    fn different_seeds_change_timing() {
        let a = simulate(&MachineConfig::baseline(1), &profile("gcc"), N);
        let b = simulate(&MachineConfig::baseline(2), &profile("gcc"), N);
        assert_ne!(a.total_time, b.total_time);
    }

    #[test]
    fn mcd_is_slower_than_baseline() {
        // Pure synchronization overhead: the baseline MCD machine must lose
        // performance, and not catastrophically (paper: < 4 % on average).
        let base = simulate(&MachineConfig::baseline(5), &profile("g721"), N);
        let mcd = simulate(&MachineConfig::baseline_mcd(5), &profile("g721"), N);
        let slowdown = mcd.slowdown_vs(&base);
        assert!(slowdown > 1.0, "MCD should pay sync cost, got {slowdown}");
        assert!(slowdown < 1.25, "MCD overhead implausibly high: {slowdown}");
    }

    #[test]
    fn global_scaling_slows_proportionally() {
        let base = simulate(&MachineConfig::baseline(5), &profile("adpcm"), N);
        let half = simulate(
            &MachineConfig::global(5, Frequency::from_mhz(500)),
            &profile("adpcm"),
            N,
        );
        let slowdown = half.slowdown_vs(&base);
        // adpcm is compute-bound: halving the clock roughly doubles time.
        assert!(slowdown > 1.6 && slowdown < 2.4, "slowdown {slowdown}");
    }

    #[test]
    fn memory_bound_app_scales_sublinearly() {
        let base = simulate(&MachineConfig::baseline(5), &profile("mcf"), N);
        let half = simulate(
            &MachineConfig::global(5, Frequency::from_mhz(500)),
            &profile("mcf"),
            N,
        );
        let slowdown = half.slowdown_vs(&base);
        let compute_base = simulate(&MachineConfig::baseline(5), &profile("adpcm"), N);
        let compute_half = simulate(
            &MachineConfig::global(5, Frequency::from_mhz(500)),
            &profile("adpcm"),
            N,
        );
        assert!(
            slowdown < compute_half.slowdown_vs(&compute_base),
            "memory-bound mcf ({slowdown}) should scale better than compute-bound adpcm"
        );
    }

    #[test]
    fn schedule_scales_fp_domain_down() {
        // Use the Transmeta model: frequency drops right after the PLL
        // re-lock instead of slewing for ~55 us as under XScale.
        let sched = FrequencySchedule::from_entries(vec![ScheduleEntry {
            at: Femtos::from_micros(1),
            domain: DomainId::FloatingPoint,
            frequency: Frequency::MIN_SCALED,
        }]);
        let m = MachineConfig::dynamic(5, DvfsModel::Transmeta, sched);
        let r = simulate(&m, &profile("gcc"), 60_000);
        assert_eq!(r.committed, 60_000);
        assert_eq!(r.domain_transitions[DomainId::FloatingPoint.index()], 1);
        // The FP clock should settle far below the integer clock.
        let fp = r.avg_frequency_hz[DomainId::FloatingPoint.index()];
        let int = r.avg_frequency_hz[DomainId::Integer.index()];
        assert!(fp < 0.6 * int, "fp {fp:.3e} vs int {int:.3e}");
    }

    #[test]
    fn scaling_integer_domain_hurts_integer_code() {
        let m0 = MachineConfig::baseline_mcd(5);
        let base = simulate(&m0, &profile("bzip2"), 60_000);
        let sched = FrequencySchedule::from_entries(vec![ScheduleEntry {
            at: Femtos::from_micros(1),
            domain: DomainId::Integer,
            frequency: Frequency::MIN_SCALED,
        }]);
        let m = MachineConfig::dynamic(5, DvfsModel::Transmeta, sched);
        let slow = simulate(&m, &profile("bzip2"), 60_000);
        let slowdown = slow.slowdown_vs(&base);
        assert!(slowdown > 1.5, "integer scaling should hurt: {slowdown}");
    }

    #[test]
    fn scaling_fp_domain_barely_hurts_integer_code() {
        let base = simulate(&MachineConfig::baseline_mcd(5), &profile("bzip2"), 60_000);
        let sched = FrequencySchedule::from_entries(vec![ScheduleEntry {
            at: Femtos::from_micros(1),
            domain: DomainId::FloatingPoint,
            frequency: Frequency::MIN_SCALED,
        }]);
        let m = MachineConfig::dynamic(5, DvfsModel::Transmeta, sched);
        let slow = simulate(&m, &profile("bzip2"), 60_000);
        let slowdown = slow.slowdown_vs(&base);
        assert!(
            slowdown < 1.05,
            "FP scaling should be ~free for bzip2: {slowdown}"
        );
    }

    #[test]
    fn trace_collection_produces_one_record_per_instruction() {
        let mut m = MachineConfig::baseline_mcd(3);
        m.collect_trace = true;
        let r = simulate(&m, &profile("adpcm"), 1_000);
        let trace = r.trace.as_ref().expect("trace requested");
        assert_eq!(trace.len(), 1_000);
        // Sequence numbers are dense and ordered.
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(t.seq, i as u64);
            assert!(t.commit >= t.dispatch.end);
        }
        // Memory ops carry address-calculation and memory events.
        assert!(trace.iter().any(|t| t.addr_calc.is_some()));
        let loads_have_mem = trace
            .iter()
            .filter(|t| t.op == mcd_workload::OpClass::Load)
            .all(|t| t.mem_access.is_some());
        assert!(loads_have_mem);
    }

    #[test]
    fn transmeta_relock_makes_reconfiguration_expensive() {
        // One small downward step: under XScale the domain executes through
        // the ramp; under Transmeta it idles 10-20 us re-locking the PLL.
        let sched = FrequencySchedule::from_entries(vec![ScheduleEntry {
            at: Femtos::from_micros(1),
            domain: DomainId::Integer,
            frequency: Frequency::from_mhz(900),
        }]);
        let xs = simulate(
            &MachineConfig::dynamic(5, DvfsModel::XScale, sched.clone()),
            &profile("g721"),
            30_000,
        );
        let tm = simulate(
            &MachineConfig::dynamic(5, DvfsModel::Transmeta, sched),
            &profile("g721"),
            30_000,
        );
        assert!(
            tm.total_time > xs.total_time + Femtos::from_micros(5),
            "PLL re-lock idling should cost time: tm {} vs xs {}",
            tm.total_time,
            xs.total_time
        );
        let idle: Femtos = tm.domain_idle.iter().copied().sum();
        assert!(idle > Femtos::from_micros(5));
    }

    #[test]
    fn branch_mispredict_rate_tracks_profile() {
        let r_pred = simulate(&MachineConfig::baseline(5), &profile("adpcm"), N);
        let r_rand = simulate(&MachineConfig::baseline(5), &profile("parser"), N);
        assert!(
            r_rand.mispredict_rate() > r_pred.mispredict_rate(),
            "parser ({:.3}) should mispredict more than adpcm ({:.3})",
            r_rand.mispredict_rate(),
            r_pred.mispredict_rate()
        );
    }

    #[test]
    fn gcc_misses_more_than_g721() {
        let gcc = simulate(&MachineConfig::baseline(5), &profile("gcc"), N);
        let g721 = simulate(&MachineConfig::baseline(5), &profile("g721"), N);
        assert!(
            gcc.l1d.miss_rate() > 0.05,
            "gcc L1D miss {}",
            gcc.l1d.miss_rate()
        );
        assert!(
            g721.l1d.miss_rate() < 0.05,
            "g721 L1D miss {}",
            g721.l1d.miss_rate()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_populates_trace() {
        let m = MachineConfig::baseline_mcd(7);
        let plain = simulate(&m, &profile("gcc"), N);
        let (traced, trace) = simulate_traced(&m, &profile("gcc"), N, TraceConfig::full());
        assert_eq!(plain.total_time, traced.total_time);
        assert_eq!(plain.ledger, traced.ledger);
        assert_eq!(plain.domain_cycles, traced.domain_cycles);
        assert_eq!(trace.total_time, traced.total_time);
        assert_eq!(trace.domains.len(), DomainId::COUNT);
        // Every domain opens its frequency track at t = 0.
        for dom in &trace.domains {
            let first = dom.freq_steps.first().expect("opening sample");
            assert_eq!(first.at, Femtos::ZERO);
        }
        // An MCD machine realizes cross-domain synchronization stalls.
        assert!(trace.total_sync_penalty_femtos() > 0);
        // Queue occupancy was sampled on ticking edges.
        assert!(trace.domains.iter().any(|d| !d.occupancy.is_empty()));
    }

    #[test]
    fn traced_occupancy_covers_every_ticked_edge() {
        // Each clock's last edge is still pending when the run stops, so a
        // domain ticks, and is sampled, on all but one of its edges: idle
        // edges included, as the governor's utilization average counts them.
        use crate::governor::AttackDecay;
        let m = MachineConfig::baseline_mcd(5);
        for name in ["gcc", "adpcm"] {
            let p = profile(name);
            let runs = [
                simulate_traced(&m, &p, 20_000, TraceConfig::default()),
                simulate_governed_traced(
                    &m,
                    &p,
                    20_000,
                    AttackDecay::paper_like(),
                    TraceConfig::default(),
                ),
            ];
            for (run, trace) in &runs {
                for (d, dom) in trace.domains.iter().enumerate() {
                    assert_eq!(
                        dom.counters.occupancy_samples,
                        run.domain_cycles[d] - 1,
                        "{name}, domain {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn governed_traced_run_records_requests_and_changes() {
        use crate::governor::AttackDecay;
        let m = MachineConfig::baseline_mcd(7);
        let (r, trace) = simulate_governed_traced(
            &m,
            &profile("bzip2"),
            60_000,
            AttackDecay::paper_like(),
            TraceConfig::full(),
        );
        assert_eq!(r.committed, 60_000);
        let requests: u64 = trace.domains.iter().map(|d| d.counters.freq_requests).sum();
        assert!(requests > 0, "governor should issue frequency requests");
        // The requested changes eventually land on the clocks.
        let changes: u64 = trace.domains.iter().map(|d| d.counters.freq_changes).sum();
        assert!(changes > 0);
    }

    #[test]
    fn single_clock_traced_run_mirrors_events_to_all_domains() {
        let m = MachineConfig::baseline(3);
        let (_, trace) = simulate_traced(&m, &profile("adpcm"), 1_000, TraceConfig::default());
        for dom in &trace.domains {
            assert!(!dom.freq_steps.is_empty());
            assert_eq!(dom.counters.sync_crossings, 0, "single clock never stalls");
        }
    }

    #[test]
    fn single_clock_mode_has_four_equal_domain_cycle_counts() {
        let r = simulate(&MachineConfig::baseline(5), &profile("adpcm"), 1_000);
        let c = r.domain_cycles;
        assert!(c.iter().all(|&x| x == c[0]));
        match MachineConfig::baseline(5).mode {
            ClockingMode::SingleDomain { frequency } => {
                assert_eq!(frequency, Frequency::GHZ)
            }
            _ => panic!("baseline must be single-domain"),
        }
    }
}
