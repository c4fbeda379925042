//! Runtime invariant checker tests: the checker rides the optimized run as
//! its probe.

use mcd_pipeline::{
    AttackDecay, Engine, InvariantChecker, InvariantReport, MachineConfig, Pipeline, RunControl,
    RunResult,
};
use mcd_workload::{suites, WorkloadGenerator};

/// Runs `m` on `bench` with a default checker as the probe, under
/// attack/decay when `governed`.
fn run_checked(
    m: &MachineConfig,
    bench: &str,
    n: u64,
    governed: bool,
) -> (RunResult, InvariantReport) {
    let profile = suites::by_name(bench).expect("known benchmark");
    let mut checker = InvariantChecker::new(m.vf, m.sync);
    let control = RunControl {
        governor: governed.then(|| Box::new(AttackDecay::paper_like()) as _),
        engine: Engine::Optimized(Some(&mut checker)),
    };
    let run = Pipeline::new(m.clone(), WorkloadGenerator::new(profile, m.seed)).run(n, control);
    let report = checker.finish(run.total_time);
    (run, report)
}

#[test]
fn clean_mcd_run_upholds_every_invariant() {
    let m = MachineConfig::baseline_mcd(7);
    let (r, report) = run_checked(&m, "gcc", 10_000, false);
    assert_eq!(r.committed, 10_000);
    assert!(report.is_clean(), "{}", report.summary());
    assert!(report.checked_edges > 10_000, "audit covered the run");
    // Steady-state edges qualified for the jitter bound on every clock, and
    // the clean breach rate sits far under the 5 % bound.
    for s in &report.clocks {
        assert!(s.qualifying > 200, "qualifying edges {}", s.qualifying);
        assert!(s.breach_rate() < 0.05, "breach rate {}", s.breach_rate());
    }
}

#[test]
fn clean_governed_run_upholds_every_invariant() {
    // AttackDecay snaps its requests to the 32-point paper grid, so the
    // on-grid check must stay quiet too.
    let m = MachineConfig::baseline_mcd(5);
    let (r, report) = run_checked(&m, "bzip2", 20_000, true);
    assert_eq!(r.committed, 20_000);
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn single_clock_run_is_audited_and_clean() {
    let m = MachineConfig::baseline(9);
    let (_, report) = run_checked(&m, "g721", 5_000, false);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.clocks.len(), 1, "one physical clock audited");
}
