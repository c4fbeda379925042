//! Differential smoke tests: the naive reference interpreter must produce
//! byte-identical results to the optimized engine. The exhaustive lattice
//! lives in `mcd-check`; these catch divergence at the crate boundary.

use mcd_pipeline::{
    simulate, simulate_governed, simulate_reference_governed, AttackDecay, Engine, MachineConfig,
    Pipeline, RunControl, RunResult,
};
use mcd_workload::{suites, BenchmarkProfile, WorkloadGenerator};

fn profile(name: &str) -> BenchmarkProfile {
    suites::by_name(name).expect("known benchmark")
}

fn bytes(r: &RunResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

fn simulate_reference(m: &MachineConfig, p: &BenchmarkProfile, n: u64) -> RunResult {
    let control = RunControl {
        engine: Engine::Reference,
        ..RunControl::default()
    };
    Pipeline::new(m.clone(), WorkloadGenerator::new(p.clone(), m.seed)).run(n, control)
}

#[test]
fn reference_matches_optimized_single_clock() {
    let mut m = MachineConfig::baseline(11);
    m.warmup_instructions = 0;
    let p = profile("adpcm");
    let fast = simulate(&m, &p, 2_000);
    let slow = simulate_reference(&m, &p, 2_000);
    assert_eq!(bytes(&fast), bytes(&slow));
}

#[test]
fn reference_matches_optimized_mcd() {
    let mut m = MachineConfig::baseline_mcd(7);
    m.warmup_instructions = 0;
    let p = profile("gcc");
    let fast = simulate(&m, &p, 2_000);
    let slow = simulate_reference(&m, &p, 2_000);
    assert_eq!(bytes(&fast), bytes(&slow));
}

#[test]
fn reference_matches_optimized_with_warmup() {
    // Warm-up exercises the process-wide warm cache on the optimized side
    // against the reference's from-scratch rebuild.
    let m = MachineConfig::baseline_mcd(3);
    let p = profile("g721");
    let fast = simulate(&m, &p, 1_500);
    let slow = simulate_reference(&m, &p, 1_500);
    assert_eq!(bytes(&fast), bytes(&slow));
}

#[test]
fn reference_matches_optimized_under_governor() {
    let mut m = MachineConfig::baseline_mcd(5);
    m.warmup_instructions = 0;
    let p = profile("bzip2");
    let fast = simulate_governed(&m, &p, 2_000, AttackDecay::paper_like());
    let slow = simulate_reference_governed(&m, &p, 2_000, AttackDecay::paper_like());
    assert_eq!(bytes(&fast), bytes(&slow));
}
