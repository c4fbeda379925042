//! Behavioral tests of the pipeline against hand-reasoned expectations.

use mcd_pipeline::{
    simulate, ClockingMode, DomainId, FrequencySchedule, MachineConfig, Pipeline, PipelineConfig,
    RunControl, ScheduleEntry,
};
use mcd_time::{DvfsModel, Femtos, Frequency, JitterModel, SyncParams};
use mcd_workload::{suites, WorkloadGenerator};

fn quiet_baseline(seed: u64) -> MachineConfig {
    let mut m = MachineConfig::baseline(seed);
    m.jitter = JitterModel::disabled();
    m
}

#[test]
fn ipc_never_exceeds_decode_width() {
    for name in suites::names() {
        let profile = suites::by_name(name).expect("known benchmark");
        let run = simulate(&quiet_baseline(1), &profile, 10_000);
        assert!(
            run.ipc() <= 4.0,
            "{name}: IPC {:.2} exceeds the fetch/decode width",
            run.ipc()
        );
        assert!(
            run.ipc() > 0.05,
            "{name}: IPC {:.2} implausibly low",
            run.ipc()
        );
    }
}

#[test]
fn narrower_machine_is_slower() {
    let profile = suites::by_name("g721").expect("known benchmark");
    let wide = simulate(&quiet_baseline(3), &profile, 20_000);
    let mut narrow_cfg = quiet_baseline(3);
    narrow_cfg.pipeline = PipelineConfig::tiny();
    let narrow = simulate(&narrow_cfg, &profile, 20_000);
    assert!(
        narrow.total_time > wide.total_time,
        "tiny machine ({}) should lose to the 21264 ({})",
        narrow.total_time,
        wide.total_time
    );
}

#[test]
fn bigger_rob_does_not_hurt() {
    let profile = suites::by_name("mcf").expect("known benchmark");
    let base = simulate(&quiet_baseline(3), &profile, 15_000);
    let mut big_cfg = quiet_baseline(3);
    big_cfg.pipeline.rob_size = 160;
    let big = simulate(&big_cfg, &profile, 15_000);
    // More reordering window can only help a memory-bound code.
    assert!(big.total_time <= base.total_time + Femtos::from_micros(1));
}

#[test]
fn memory_latency_matters_for_memory_bound_code() {
    let profile = suites::by_name("mcf").expect("known benchmark");
    let fast = simulate(&quiet_baseline(3), &profile, 15_000);
    let mut slow_cfg = quiet_baseline(3);
    slow_cfg.pipeline.mem_latency = Femtos::from_nanos(200);
    let slow = simulate(&slow_cfg, &profile, 15_000);
    assert!(
        slow.total_time.as_femtos() as f64 > 1.2 * fast.total_time.as_femtos() as f64,
        "mcf must feel a 2.5x memory latency increase: {} vs {}",
        slow.total_time,
        fast.total_time
    );
}

#[test]
fn mispredict_penalty_shows_up_in_runtime() {
    let profile = suites::by_name("parser").expect("known benchmark");
    let short = simulate(&quiet_baseline(3), &profile, 15_000);
    let mut long_cfg = quiet_baseline(3);
    long_cfg.pipeline.mispredict_penalty = 30;
    let long = simulate(&long_cfg, &profile, 15_000);
    assert!(
        long.total_time > short.total_time,
        "a 30-cycle redirect penalty must cost time on a branchy code"
    );
}

#[test]
fn schedule_entries_beyond_the_run_are_harmless() {
    let profile = suites::by_name("epic").expect("known benchmark");
    let late = FrequencySchedule::from_entries(vec![ScheduleEntry {
        at: Femtos::from_millis(100), // far beyond the simulated window
        domain: DomainId::Integer,
        frequency: Frequency::MIN_SCALED,
    }]);
    let with = simulate(
        &MachineConfig::dynamic(3, DvfsModel::XScale, late),
        &profile,
        5_000,
    );
    let without = simulate(
        &MachineConfig::dynamic(3, DvfsModel::XScale, FrequencySchedule::new()),
        &profile,
        5_000,
    );
    assert_eq!(with.total_time, without.total_time);
    assert_eq!(with.domain_transitions, [0; 4]);
}

#[test]
fn repeated_requests_for_the_same_frequency_are_noops_once_settled() {
    // A re-request issued mid-ramp counts as a retarget, but a re-request
    // after the transition has settled is a no-op. The 1 GHz → 500 MHz
    // XScale ramp takes ~36 µs, so the second entry at 50 µs finds the
    // domain already at the target.
    let profile = suites::by_name("mst").expect("known benchmark");
    let schedule = FrequencySchedule::from_entries(vec![
        ScheduleEntry {
            at: Femtos::from_micros(1),
            domain: DomainId::FloatingPoint,
            frequency: Frequency::from_mhz(500),
        },
        ScheduleEntry {
            at: Femtos::from_micros(50),
            domain: DomainId::FloatingPoint,
            frequency: Frequency::from_mhz(500),
        },
    ]);
    let run = simulate(
        &MachineConfig::dynamic(3, DvfsModel::XScale, schedule),
        &profile,
        60_000,
    );
    assert!(
        run.total_time > Femtos::from_micros(55),
        "run covers both entries"
    );
    assert_eq!(run.domain_transitions[DomainId::FloatingPoint.index()], 1);
}

#[test]
fn activity_counts_scale_with_instruction_count() {
    use mcd_pipeline::Unit;
    let profile = suites::by_name("bzip2").expect("known benchmark");
    let small = simulate(&quiet_baseline(3), &profile, 5_000);
    let large = simulate(&quiet_baseline(3), &profile, 20_000);
    for unit in [Unit::Rename, Unit::Rob, Unit::ICache] {
        let ratio = large.ledger.count(unit) as f64 / small.ledger.count(unit).max(1) as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "{unit:?} activity should scale ~4x with instructions, got {ratio:.2}"
        );
    }
}

#[test]
fn every_committed_instruction_renames_exactly_once() {
    use mcd_pipeline::Unit;
    let profile = suites::by_name("adpcm").expect("known benchmark");
    let run = simulate(&quiet_baseline(3), &profile, 8_000);
    // Every committed instruction renamed once; a handful of dispatched but
    // not-yet-committed instructions may remain in flight at run end.
    let renames = run.ledger.count(Unit::Rename);
    assert!(renames >= 8_000, "renames {renames}");
    assert!(
        renames <= 8_000 + 80,
        "at most one ROB of in-flight work: {renames}"
    );
}

#[test]
fn loads_hit_the_dcache_stores_write_at_commit() {
    use mcd_pipeline::Unit;
    let profile = suites::by_name("treeadd").expect("known benchmark");
    let run = simulate(&quiet_baseline(3), &profile, 20_000);
    // D-cache accesses = load issues + store commits, minus forwarded loads.
    let mem_ops = run.trace.as_ref().map(|t| t.len()).unwrap_or(0);
    assert_eq!(mem_ops, 0, "trace off by default");
    let dcache = run.ledger.count(Unit::Dcache);
    assert!(dcache > 4_000, "treeadd is memory-rich: {dcache} accesses");
    assert_eq!(dcache, run.l1d.accesses, "ledger and cache stats agree");
}

#[test]
fn pipeline_can_be_driven_directly() {
    let machine = MachineConfig::baseline(11);
    let generator = WorkloadGenerator::new(
        suites::by_name("tsp").expect("known benchmark"),
        machine.seed,
    );
    let run = Pipeline::new(machine, generator).run(3_000, RunControl::default());
    assert_eq!(run.committed, 3_000);
}

#[test]
fn single_domain_mode_reports_uniform_frequencies() {
    let profile = suites::by_name("power").expect("known benchmark");
    let m = MachineConfig::global(3, Frequency::from_mhz(600));
    assert!(matches!(m.mode, ClockingMode::SingleDomain { .. }));
    let run = simulate(&m, &profile, 5_000);
    for d in DomainId::ALL {
        let f = run.avg_frequency_hz[d.index()];
        assert!((f - 600e6).abs() / 600e6 < 0.02, "{d} at {f:.3e}");
    }
}

#[test]
fn free_sync_beats_paper_sync() {
    let profile = suites::by_name("adpcm").expect("known benchmark");
    let mut free_cfg = MachineConfig::baseline_mcd(3);
    free_cfg.sync = SyncParams::free();
    free_cfg.jitter = JitterModel::disabled();
    let mut paper_cfg = MachineConfig::baseline_mcd(3);
    paper_cfg.jitter = JitterModel::disabled();
    let free = simulate(&free_cfg, &profile, 15_000);
    let paper = simulate(&paper_cfg, &profile, 15_000);
    assert!(free.total_time <= paper.total_time);
}
