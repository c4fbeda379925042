//! Byte-identity regression gate for the simulation kernel.
//!
//! Re-runs the golden configuration matrix and compares the serialized
//! results against the committed fixture, byte for byte. Performance work on
//! the kernel (edge selection, warm-state sharing, sync-window caching,
//! queue layout) must leave this fixture untouched; a mismatch means
//! simulated behaviour changed. To change behaviour deliberately, regenerate
//! with
//!
//! ```text
//! cargo run --release --example golden_dump > tests/fixtures/golden_runresults.json
//! ```
//!
//! and let the fixture diff be part of the review.

use mcd::pipeline::{
    simulate_governed_traced, AttackDecay, Engine, InvariantChecker, MachineConfig, Pipeline,
    Probe, RunControl, RunResult, TraceConfig, TraceRecorder,
};
use mcd::workload::{suites, BenchmarkProfile, WorkloadGenerator};

/// Runs `machine` on `prof` for `n` instructions, under attack/decay when
/// `governed`, with `probe` lent to the run.
fn run(
    machine: &MachineConfig,
    prof: &BenchmarkProfile,
    n: u64,
    governed: bool,
    probe: Option<&mut dyn Probe>,
) -> RunResult {
    let control = RunControl {
        governor: governed.then(|| Box::new(AttackDecay::paper_like()) as _),
        engine: Engine::Optimized(probe),
    };
    let generator = WorkloadGenerator::new(prof.clone(), machine.seed);
    Pipeline::new(machine.clone(), generator).run(n, control)
}

#[test]
fn run_results_match_committed_fixture() {
    let fixture = include_str!("fixtures/golden_runresults.json");
    let rendered = mcd::golden::render();
    if rendered != fixture {
        // A full-file assert_eq! dump is unreadable; report the first
        // configuration that diverged instead.
        for (got, want) in rendered.lines().zip(fixture.lines()) {
            assert_eq!(
                got, want,
                "RunResult diverged from tests/fixtures/golden_runresults.json \
                 (regenerate with `cargo run --release --example golden_dump` \
                 only if the behaviour change is intended)"
            );
        }
        panic!(
            "golden fixture length mismatch: rendered {} bytes, fixture {} bytes",
            rendered.len(),
            fixture.len()
        );
    }
}

/// The observability layer's core contract: lending a probe to a run must
/// not perturb the simulation. Serialized `RunResult` bytes are compared
/// with no probe, the trace recorder and the invariant checker, so any
/// drift — timing, energy ledger, cache statistics — fails; the checker
/// must also find the run clean.
#[test]
fn run_result_bytes_identical_with_tracing_on_and_off() {
    let prof = suites::by_name("gcc").expect("known benchmark");
    // The governed machine fires the probe hooks on the control path too.
    for (what, machine, n, governed) in [
        (
            "static machine",
            MachineConfig::baseline_mcd(5),
            6_000,
            false,
        ),
        (
            "governed machine",
            MachineConfig::baseline_mcd(7),
            12_000,
            true,
        ),
    ] {
        let bytes = |r: &RunResult| serde_json::to_string(r).expect("serializable");
        let plain = bytes(&run(&machine, &prof, n, governed, None));
        let mut recorder = TraceRecorder::new(TraceConfig::full());
        let traced = run(&machine, &prof, n, governed, Some(&mut recorder));
        assert_eq!(
            plain,
            bytes(&traced),
            "tracing must not change RunResult bytes ({what})"
        );
        let mut checker = InvariantChecker::new(machine.vf, machine.sync);
        let checked = run(&machine, &prof, n, governed, Some(&mut checker));
        assert_eq!(
            plain,
            bytes(&checked),
            "invariant checking must not change RunResult bytes ({what})"
        );
        let report = checker.finish(checked.total_time);
        assert!(report.is_clean(), "{what}: {}", report.summary());
    }
}

/// Two identical traced runs must produce byte-identical `RunTrace`s — the
/// trace is as deterministic as the simulation it observes.
#[test]
fn run_trace_is_deterministic() {
    let prof = suites::by_name("bzip2").expect("known benchmark");
    let machine = MachineConfig::baseline_mcd(3);
    let governed = || {
        simulate_governed_traced(
            &machine,
            &prof,
            12_000,
            AttackDecay::paper_like(),
            TraceConfig::default(),
        )
    };
    let (ra, ta) = governed();
    let (rb, tb) = governed();
    assert_eq!(ra.total_time, rb.total_time);
    assert_eq!(
        serde_json::to_string(&ta).expect("serializable"),
        serde_json::to_string(&tb).expect("serializable"),
        "RunTrace must be byte-deterministic"
    );
    // Sampled mode is deterministic too, and strictly smaller.
    let traced = |cfg| {
        let mut recorder = TraceRecorder::new(cfg);
        let r = run(&machine, &prof, 6_000, false, Some(&mut recorder));
        recorder.into_trace(r.total_time)
    };
    let (sampled, full) = (traced(TraceConfig::default()), traced(TraceConfig::full()));
    let occ = |t: &mcd::trace::RunTrace| t.domains.iter().map(|d| d.occupancy.len()).sum::<usize>();
    assert!(occ(&sampled) < occ(&full), "sampling must thin the record");
}
