//! Smoke tests through the real `mcd-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcd-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_dry_run_previews_the_grid_without_executing() {
    let cache = scratch("dryrun");
    let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args([
            "campaign",
            "run",
            "--dry-run",
            "--benchmarks",
            "adpcm,gcc",
            "--seeds",
            "5",
            "--instructions",
            "2000",
            "--policy",
            "attack-decay:decay=0.01,attack=0.1",
            "--policy",
            "queue-pi",
            "--cache-dir",
            cache.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("run mcd-cli");
    assert!(out.status.success(), "dry run exits 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    // The preview names every scenario each cell will run, with the policy
    // specs canonicalized, and one row per expanded cell with a cache
    // verdict.
    assert!(stdout.contains("2 cells x 7 scenarios"), "{stdout}");
    assert!(
        stdout.contains(
            "baseline baseline-mcd dynamic-1% dynamic-5% global \
             online-attack-decay:attack=0.1,decay=0.01 online-queue-pi"
        ),
        "{stdout}"
    );
    for cell in [
        "adpcm/s5/n2000/XScale+attack-decay:attack=0.1,decay=0.01+queue-pi",
        "gcc/s5/n2000/XScale+attack-decay:attack=0.1,decay=0.01+queue-pi",
    ] {
        assert!(stdout.contains(cell), "missing {cell} in:\n{stdout}");
    }
    assert!(stdout.contains("missing"), "{stdout}");
    assert!(stdout.contains("2 to compute"), "{stdout}");

    // Nothing ran: the cache holds no cell results.
    let computed = std::fs::read_dir(&cache)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(computed, 0, "dry run must not execute cells");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn campaign_rejects_unknown_policies_before_running() {
    let cache = scratch("badpolicy");
    let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args([
            "campaign",
            "run",
            "--dry-run",
            "--benchmarks",
            "adpcm",
            "--policy",
            "thermal-cap",
            "--cache-dir",
            cache.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("run mcd-cli");
    assert!(!out.status.success(), "unknown policy must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(stderr.contains("thermal-cap"), "{stderr}");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn grid_serve_refuses_a_heartbeat_timeout_inside_the_interval() {
    let cache = scratch("heartbeats");
    let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args([
            "grid",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--benchmarks",
            "adpcm",
            "--heartbeat",
            "2",
            "--heartbeat-timeout",
            "1",
            "--cache-dir",
            cache.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("run mcd-cli");
    assert!(!out.status.success(), "an evict-everyone timeout must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(stderr.contains("must exceed"), "{stderr}");
    assert!(
        !stderr.contains("listening on"),
        "the coordinator must refuse before it serves: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn analyze_reports_the_schedule_the_dynamic_cell_runs() {
    use mcd::core::{BenchmarkSession, ExperimentConfig, ScenarioSpec};
    use mcd::time::DvfsModel;

    let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args(["analyze", "gcc", "--theta", "5", "--instructions", "20000"])
        .output()
        .expect("run mcd-cli");
    assert!(out.status.success(), "analyze exits 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let reported: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("reconfigurations: "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no reconfiguration count in:\n{stdout}"));

    // The CLI's defaults: seed 5, XScale.
    let cfg = ExperimentConfig::paper(5, 20_000, DvfsModel::XScale);
    let gcc = mcd::workload::suites::by_name("gcc").expect("known benchmark");
    let cell = BenchmarkSession::new(&gcc, &cfg).cell(&ScenarioSpec::dynamic(0.05));
    assert_eq!(Some(reported), cell.reconfigurations);
}

#[test]
fn report_paper_takes_no_size_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args(["report", "paper", "--instructions", "8000"])
        .output()
        .expect("run mcd-cli");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(
        stderr.contains("mcd-cli report paper [--cache-dir DIR]"),
        "{stderr}"
    );
}

#[test]
fn removed_surface_exits_with_usage() {
    let cache = scratch("removed-surface");
    let cache_arg = cache.to_str().expect("utf-8 temp path");
    let dry_run = ["campaign", "run", "--dry-run", "--cache-dir", cache_arg];
    let worker = ["grid", "worker", "--connect", "127.0.0.1:1", "--name", "w"];
    let fan_out = ["--analysis-threads", "2"];
    let removed: [Vec<&str>; 4] = [
        [&dry_run[..], &fan_out].concat(),
        [&worker[..], &fan_out].concat(),
        [&dry_run[..], &["--checkpoint-every", "2"]].concat(),
        vec!["campaign", "status", "--cache-dir", cache_arg],
    ];
    for args in removed {
        let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
            .args(&args)
            .output()
            .expect("run mcd-cli");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn zero_instructions_exit_with_usage_instead_of_panicking() {
    for verb in ["run", "analyze", "experiment", "trace"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
            .args([verb, "gcc", "--instructions", "0"])
            .output()
            .expect("run mcd-cli");
        assert_eq!(out.status.code(), Some(2), "{verb}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
        assert!(
            stderr.contains("--instructions must be at least 1"),
            "{verb}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{verb}: {stderr}");
    }
}
