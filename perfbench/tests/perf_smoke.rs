//! Runs every workload and the traced layer suite at a tiny size (2
//! benchmarks × 3k instructions, the grid against a freshly built
//! `mcd-cli`) and checks what the benchmark reports: every metric with its
//! unit, exactly the names `BENCHMARK.json` declares (each per-layer name
//! led by its layer), and outputs equal to the reference digests — for the
//! grid, equal to a local campaign run.

use std::path::{Path, PathBuf};
use std::process::Command;

use mcd_perf::layers;
use mcd_perf::runner::{end_to_end_metrics, verdict};
use mcd_perf::workloads::{prepare, reference_digest, Env, Mix, ScratchDir, Workload};
use serde::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds the repository's `mcd-cli` (debug) in this test's scratch space.
fn mcd_cli() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mcd-cli-build");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--offline", "--quiet", "--bin", "mcd-cli"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo_root())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building mcd-cli failed");
    target.join("debug").join("mcd-cli")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Parses `workload metric value unit` lines back into `(name, unit)`,
/// checking each value is a finite number.
fn printed(lines: &str, workload: &str) -> Vec<(String, String)> {
    lines
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 4, "malformed line `{line}`");
            assert_eq!(fields[0], workload);
            let value: f64 = fields[2].parse().expect("numeric value");
            assert!(value.is_finite(), "non-finite value in `{line}`");
            (fields[1].to_string(), fields[3].to_string())
        })
        .collect()
}

fn tiny(workload: Workload) -> Mix {
    Mix {
        benchmarks: vec!["adpcm".into(), "gcc".into()],
        instructions: 3_000,
        ..workload.mix(5)
    }
}

#[test]
fn tiny_workloads_report_the_declared_metrics_and_match_their_references() {
    let scratch =
        ScratchDir::new(Path::new(env!("CARGO_TARGET_TMPDIR")), "perf-smoke").expect("scratch dir");
    let env = Env {
        work: scratch.path().to_path_buf(),
        cli: mcd_cli(),
        par: 2,
    };

    for workload in Workload::ALL {
        let mix = tiny(workload);
        let (prepared, setup_s) = prepare(workload, &mix, &env).expect("set-up succeeds");
        let pass = prepared.execute().expect("pass succeeds");
        let units = match workload {
            Workload::PaperCold => 2,      // benchmarks
            Workload::GovernedKernel => 4, // benchmarks × policies
            Workload::GridLoopback => 8,   // benchmarks × seeds × models
        };
        assert_eq!(pass.units, units);
        let expected = reference_digest(workload, &mix, &env).expect("reference runs");
        let passes = [pass];
        let outcome = verdict(&passes, &expected, end_to_end_metrics(&passes, &[setup_s]));
        assert!(
            outcome.correct,
            "{} output differs from its reference",
            workload.name()
        );
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
        assert_eq!(
            printed(&outcome.lines(workload.name()), workload.name()),
            declared("end_to_end")
        );
    }

    let traced = layers::run(&tiny(Workload::GridLoopback), &env)
        .expect("layer suite runs")
        .outcome;
    assert!(traced.correct, "grid bytes must equal the local run's");
    let lines = traced.lines("grid-loopback");
    let per_layer = declared("per_layer");
    assert_eq!(printed(&lines, "grid-loopback"), per_layer);
    // BENCHMARK.json entries carry only name, unit and better, so a
    // per-layer metric names its layer (a crate) as its first component.
    const LAYERS: [&str; 7] = [
        "workload", "pipeline", "trace", "offline", "core", "harness", "grid",
    ];
    for (name, _) in &per_layer {
        let layer = name.split('.').next().unwrap_or_default();
        assert!(LAYERS.contains(&layer), "`{name}` names no layer");
    }
}
