//! Property-based tests for pipeline-level invariants.

use proptest::prelude::*;

use mcd_pipeline::{
    simulate, ActivityLedger, AttackDecay, DomainId, Engine, FrequencySchedule, Governor,
    MachineConfig, Pipeline, RunControl, ScheduleEntry, Unit,
};
use mcd_time::{DvfsModel, Femtos, Frequency};
use mcd_workload::{suites, WorkloadGenerator};

/// Benchmarks with distinct domain-activity shapes: integer-heavy (FP idle),
/// FP-heavy, memory-bound, and compute-bound — each exercising different
/// edge interleavings and sync-window crossings.
const ORACLE_BENCHES: [&str; 4] = ["gcc", "swim", "mcf", "adpcm"];

/// Runs `machine` twice — the production loop (shared warm state,
/// incremental operating-point and sync-window bookkeeping) and the naive
/// reference interpreter (neither) — each under the governor `governor`
/// builds, if any, and returns both results serialized, for byte-level
/// comparison.
fn run_optimized_and_reference(
    machine: &MachineConfig,
    bench: &str,
    n: u64,
    governor: fn() -> Option<Box<dyn Governor>>,
) -> (String, String) {
    let profile = suites::by_name(bench).expect("known benchmark");
    let run = |engine| {
        let generator = WorkloadGenerator::new(profile.clone(), machine.seed);
        let control = RunControl {
            governor: governor(),
            engine,
        };
        let result = Pipeline::new(machine.clone(), generator).run(n, control);
        serde_json::to_string(&result).expect("result serializes")
    };
    (run(Engine::default()), run(Engine::Reference))
}

fn arbitrary_schedule() -> impl Strategy<Value = FrequencySchedule> {
    proptest::collection::vec((0u64..200, 1usize..4, 250u64..1000), 0..6).prop_map(|entries| {
        FrequencySchedule::from_entries(
            entries
                .into_iter()
                .map(|(us, d, mhz)| ScheduleEntry {
                    at: Femtos::from_micros(us),
                    domain: DomainId::ALL[d],
                    frequency: Frequency::from_mhz(mhz),
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_schedule_still_commits_every_instruction(
        schedule in arbitrary_schedule(),
        model_is_xscale in any::<bool>(),
    ) {
        // Whatever reconfiguration sequence is thrown at the machine, the
        // pipeline must make forward progress and commit the exact target.
        let model = if model_is_xscale { DvfsModel::XScale } else { DvfsModel::Transmeta };
        let machine = MachineConfig::dynamic(1, model, schedule);
        let profile = suites::by_name("epic").expect("known benchmark");
        let run = simulate(&machine, &profile, 5_000);
        prop_assert_eq!(run.committed, 5_000);
        prop_assert!(run.total_time > Femtos::ZERO);
        // While the clock runs, the cycle rate stays inside the operating
        // region. Idle time is excluded: Transmeta PLL re-locks stop the
        // domain clock entirely, so a re-lock-heavy schedule can pull the
        // wall-clock average frequency below the region's floor without any
        // set point ever leaving it.
        for d in DomainId::ALL {
            let busy = (run.total_time.as_secs_f64()
                - run.domain_idle[d.index()].as_secs_f64())
            .max(1e-18);
            let f = run.domain_cycles[d.index()] as f64 / busy;
            prop_assert!(f > 200e6 && f < 1.2e9, "{d} at {f:.3e} Hz of busy time");
        }
    }

    #[test]
    fn schedule_json_round_trips(schedule in arbitrary_schedule()) {
        let json = schedule.to_json().expect("serializable");
        let back = FrequencySchedule::from_json(&json).expect("parses");
        prop_assert_eq!(schedule, back);
    }

    #[test]
    fn optimized_engine_is_byte_identical_to_reference(
        schedule in arbitrary_schedule(),
        model_is_xscale in any::<bool>(),
        seed in 0u64..1_000,
        bench_idx in 0usize..ORACLE_BENCHES.len(),
        trace in any::<bool>(),
    ) {
        // The production loop's shortcuts must be invisible: any seed, DVFS
        // model and reconfiguration schedule must produce a RunResult
        // byte-identical to the naive reference loop's.
        let model = if model_is_xscale { DvfsModel::XScale } else { DvfsModel::Transmeta };
        let mut machine = MachineConfig::dynamic(seed, model, schedule);
        machine.collect_trace = trace;
        let (optimized, reference) =
            run_optimized_and_reference(&machine, ORACLE_BENCHES[bench_idx], 4_000, || None);
        prop_assert_eq!(optimized, reference);
    }

    #[test]
    fn optimized_engine_is_byte_identical_under_a_governor(
        seed in 0u64..1_000,
        bench_idx in 0usize..ORACLE_BENCHES.len(),
    ) {
        // Same invariant with an on-line governor in the loop: control
        // decisions must land on exactly the same edges in both modes.
        let machine = MachineConfig::baseline_mcd(seed);
        let (optimized, reference) = run_optimized_and_reference(
            &machine,
            ORACLE_BENCHES[bench_idx],
            4_000,
            || Some(Box::new(AttackDecay::paper_like())),
        );
        prop_assert_eq!(optimized, reference);
    }

    #[test]
    fn ledger_merge_is_commutative_and_additive(
        a in proptest::collection::vec((0usize..Unit::COUNT, 0.5f64..1.3), 0..50),
        b in proptest::collection::vec((0usize..Unit::COUNT, 0.5f64..1.3), 0..50),
    ) {
        let build = |entries: &[(usize, f64)]| {
            let mut ledger = ActivityLedger::new();
            for (u, v) in entries {
                ledger.record(Unit::ALL[*u], *v);
            }
            ledger
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        for u in Unit::ALL {
            prop_assert_eq!(ab.count(u), ba.count(u));
            prop_assert!((ab.weighted_v2(u) - ba.weighted_v2(u)).abs() < 1e-9);
        }
    }
}
