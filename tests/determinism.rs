//! Reproducibility guarantees the paper's two-phase methodology relies on.

use mcd::offline::{derive_schedule, OfflineConfig};
use mcd::pipeline::{simulate, FrequencySchedule, MachineConfig};
use mcd::time::DvfsModel;
use mcd::workload::{suites, WorkloadGenerator};

#[test]
fn whole_toolchain_is_deterministic() {
    let profile = suites::by_name("art").expect("known benchmark");
    let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
    let (a1, r1) = derive_schedule(9, &profile, 15_000, &cfg);
    let (a2, r2) = derive_schedule(9, &profile, 15_000, &cfg);
    assert_eq!(r1.total_time, r2.total_time);
    assert_eq!(a1.schedule, a2.schedule);

    let m = MachineConfig::dynamic(9, DvfsModel::XScale, a1.schedule);
    let d1 = simulate(&m, &profile, 15_000);
    let d2 = simulate(&m, &profile, 15_000);
    assert_eq!(d1.total_time, d2.total_time);
    assert_eq!(d1.ledger, d2.ledger);
}

#[test]
fn trace_and_dynamic_runs_execute_the_same_program() {
    // Same seed ⇒ the workload generator replays the identical instruction
    // stream for both the analysis run and the dynamic run.
    let profile = suites::by_name("parser").expect("known benchmark");
    let mut a = WorkloadGenerator::new(profile.clone(), 42);
    let mut b = WorkloadGenerator::new(profile, 42);
    for _ in 0..50_000 {
        assert_eq!(a.next_instruction(), b.next_instruction());
    }
}

#[test]
fn schedules_round_trip_through_json() {
    let profile = suites::by_name("em3d").expect("known benchmark");
    let cfg = OfflineConfig::paper(0.05, DvfsModel::Transmeta);
    let (analysis, _) = derive_schedule(3, &profile, 15_000, &cfg);
    let json = analysis.schedule.to_json().expect("serializable");
    let back = FrequencySchedule::from_json(&json).expect("parses");
    assert_eq!(analysis.schedule, back);

    // And the round-tripped schedule drives the simulator identically.
    let m1 = MachineConfig::dynamic(3, DvfsModel::Transmeta, analysis.schedule);
    let m2 = MachineConfig::dynamic(3, DvfsModel::Transmeta, back);
    let r1 = simulate(&m1, &suites::by_name("em3d").expect("known"), 10_000);
    let r2 = simulate(&m2, &suites::by_name("em3d").expect("known"), 10_000);
    assert_eq!(r1.total_time, r2.total_time);
}

#[test]
fn different_seeds_give_statistically_similar_but_distinct_runs() {
    let profile = suites::by_name("g721").expect("known benchmark");
    let a = simulate(&MachineConfig::baseline(1), &profile, 20_000);
    let b = simulate(&MachineConfig::baseline(2), &profile, 20_000);
    assert_ne!(a.total_time, b.total_time);
    let rel = (a.ipc() - b.ipc()).abs() / a.ipc();
    assert!(
        rel < 0.15,
        "seeds should not change IPC by {:.1}%",
        rel * 100.0
    );
}
