//! Runs one workload for a fixed time and reduces its passes to the
//! end-to-end metrics.
//!
//! Each pass runs in a fresh child process (`mcd-perf pass …`) that
//! prints a JSON [`PassOutcome`]; each timed set-up runs in one that exits
//! once it is ready. Passes repeat until the next one would overrun the
//! run's time (at least [`MIN_PASSES`]). `task_p50_s` is the median over
//! the units of every pass, `setup_s` the median over the set-ups,
//! `peak_rss_mb` the mean over passes and every other metric the median
//! over them.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::stats::{mean, median};
use crate::sys::Calibration;
use crate::workloads::{reference_digest, Env, PassOutcome, Workload};
use crate::{Metric, Outcome};

/// The end-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("task_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups timed after each pass, each in a child that exits once it is
/// ready: at least 21 per run, spread over its length.
pub const SETUPS_PER_PASS: usize = 7;
/// Passes per run even when they overrun its time, so a median never
/// rests on fewer than three samples.
pub const MIN_PASSES: usize = 3;

/// Expected output digests by workload and seed, from the reference paths
/// of [`reference_digest`] (`mcd-perf expect`).
const EXPECTED: &str = include_str!("../expected.json");

/// The committed digest of `workload`'s output at `seed`, if tabulated.
pub fn expected_digest(workload: Workload, seed: u64) -> Option<String> {
    let doc: Value = serde_json::from_str(EXPECTED).expect("expected.json parses");
    doc.get(workload.name())?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_string)
}

/// `mcd-perf pass` for `workload` at `seed`, its stdout captured.
fn pass_command(exe: &Path, workload: Workload, seed: u64, env: &Env) -> Command {
    let mut command = Command::new(exe);
    command
        .args(["pass", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .arg("--work")
        .arg(&env.work)
        .arg("--cli")
        .arg(&env.cli)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    command
}

/// The stdout of `command`, if it ran and exited cleanly.
fn stdout_of(mut command: Command, workload: Workload) -> Result<String, String> {
    let output = command
        .output()
        .map_err(|e| format!("cannot run a {} pass: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} pass exited {}", workload.name(), output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Runs one pass in a child process.
pub fn run_pass(
    exe: &Path,
    workload: Workload,
    seed: u64,
    env: &Env,
) -> Result<PassOutcome, String> {
    let out = stdout_of(pass_command(exe, workload, seed, env), workload)?;
    serde_json::from_str(out.trim()).map_err(|e| format!("unreadable pass result ({e}): {out}"))
}

/// Times one set-up in a child process that exits once it is ready.
/// Returns the set-up's seconds and the host's speed right after it, as
/// [`Calibration::speed`] gives it.
pub fn time_setup(
    exe: &Path,
    workload: Workload,
    seed: u64,
    env: &Env,
) -> Result<(f64, f64), String> {
    let mut command = pass_command(exe, workload, seed, env);
    command.arg("--setup-only");
    let out = stdout_of(command, workload)?;
    let fields: Vec<f64> = out
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("unreadable set-up line ({e}): {out}"))?;
    match fields[..] {
        [setup_s, speed] => Ok((setup_s, speed)),
        _ => Err(format!("unreadable set-up line: {out}")),
    }
}

/// Reduces passes and set-up samples to the end-to-end metrics.
pub fn end_to_end_metrics(passes: &[PassOutcome], setups: &[f64]) -> Vec<Metric> {
    let med = |f: fn(&PassOutcome) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let units: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_s.iter().copied())
        .collect();
    let values = [
        med(|p| p.wall_s),
        med(|p| p.cpu_s),
        median(&units).unwrap_or(f64::NAN),
        median(setups).unwrap_or(f64::NAN),
        // A mean: the grid's peak moves with which worker ran which cells,
        // so single passes scatter evenly either side of it.
        mean(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// Checks every pass's digest against `expected`; a pass whose bytes
/// differ counts all its units as failed.
pub fn verdict(passes: &[PassOutcome], expected: &str, metrics: Vec<Metric>) -> Outcome {
    let attempted = passes.iter().map(|p| p.units).sum();
    let failed = passes
        .iter()
        .map(|p| {
            if p.digest == expected {
                p.failed
            } else {
                p.units
            }
        })
        .sum();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// `pass` with its times multiplied by `speed`.
fn at_reference_speed(pass: &PassOutcome, speed: f64) -> PassOutcome {
    PassOutcome {
        wall_s: pass.wall_s * speed,
        cpu_s: pass.cpu_s * speed,
        unit_s: pass.unit_s.iter().map(|u| u * speed).collect(),
        ..pass.clone()
    }
}

/// The untraced run: fresh-process passes of `workload` for `seconds`,
/// each followed by [`SETUPS_PER_PASS`] set-ups, then the output check.
///
/// Every time is scaled to the reference host so that runs made minutes
/// apart on a shared host compare: the passes' by the median of the
/// [`Calibration::PASS`] speeds measured before the first pass and after
/// each one, a set-up's by the [`Calibration::SETUP`] speed its own process
/// measured right after it. A seed outside `expected.json` has its
/// reference output computed first, inside the same time budget (about one
/// pass: 5.7 s `paper-cold`, 3.7 s `governed-kernel`, 4.4 s
/// `grid-loopback` on 2 Xeon vCPUs).
pub fn end_to_end(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let expected = match expected_digest(workload, seed) {
        Some(d) => d,
        None => {
            let d = reference_digest(workload, &workload.mix(seed), env)?;
            eprintln!(
                "seed {seed} has no committed digest; reference output computed in {:.2}s",
                started.elapsed().as_secs_f64()
            );
            d
        }
    };
    let passes_started = Instant::now();
    let mut speeds = vec![Calibration::PASS.speed(env.par)];
    let mut passes = Vec::new();
    let mut timed = Vec::new();
    loop {
        let outcome = run_pass(exe, workload, seed, env)?;
        if passes.is_empty() {
            for note in &outcome.notes {
                eprintln!("{note}");
            }
        }
        passes.push(outcome);
        for _ in 0..SETUPS_PER_PASS {
            timed.push(time_setup(exe, workload, seed, env)?);
        }
        speeds.push(Calibration::PASS.speed(env.par));
        let per_pass = passes_started.elapsed().as_secs_f64() / passes.len() as f64;
        let next_ends = started.elapsed().as_secs_f64() + per_pass;
        if passes.len() >= MIN_PASSES && next_ends > seconds {
            break;
        }
    }
    let speed = median(&speeds).unwrap_or(f64::NAN);
    let scaled: Vec<PassOutcome> = passes
        .iter()
        .map(|p| at_reference_speed(p, speed))
        .collect();
    let setups: Vec<f64> = timed.iter().map(|&(s, _)| s).collect();
    let scaled_setups: Vec<f64> = timed.iter().map(|&(s, speed)| s * speed).collect();
    eprintln!(
        "{}: {} passes, {} set-ups, output digest {}",
        workload.name(),
        passes.len(),
        setups.len(),
        passes[0].digest
    );
    eprintln!(
        "scale (reference / measured calibration): {speed:.3} for passes, {:.3} median for set-ups; as measured, unscaled:",
        median(&timed.iter().map(|&(_, speed)| speed).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    );
    for m in end_to_end_metrics(&passes, &setups) {
        eprintln!("  {} {} {}", m.name, m.value, m.unit);
    }
    Ok(verdict(
        &scaled,
        &expected,
        end_to_end_metrics(&scaled, &scaled_setups),
    ))
}
