//! `mcd-perf`: the repository benchmark.
//!
//! ```text
//! mcd-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//!          [--work DIR] [--cli PATH]
//! mcd-perf expect --seeds A-B [--workload NAME]
//! ```
//!
//! With `--workload`, runs that workload and prints one line per metric
//! (`workload metric value unit`) followed by the JSON result as the last
//! line. Without it, runs every workload, each in its own process, and
//! writes the combined document to `--out`. `--trace 1` runs the traced
//! layer suite instead of the timed passes. `expect` prints the reference
//! digest table that `expected.json` holds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use mcd_perf::runner::{end_to_end, expected_digest};
use mcd_perf::span::Tracer;
use mcd_perf::sys::{self, Calibration};
use mcd_perf::workloads::{prepare, reference_digest, Env, Workload};
use mcd_perf::{layers, Outcome};
use serde::{Map, Serialize, Value};

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("mcd-perf: {message}");
    std::process::exit(1)
}

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seeds: Option<(u64, u64)>,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    out: Option<PathBuf>,
    work: Option<PathBuf>,
    cli: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 5,
        seeds: None,
        seconds: 20,
        trace: false,
        setup_only: false,
        out: None,
        work: None,
        cli: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(c) = it.next_if(|a| !a.starts_with("--")) {
        args.command = Some(c);
    }
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| fail(format!("missing value for {flag}")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(format!("{flag} takes a whole number, got `{v}`")))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| fail(format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => args.seed = number(&value),
            "--seeds" => {
                let (a, b) = value
                    .split_once('-')
                    .unwrap_or_else(|| fail("--seeds takes a range A-B"));
                args.seeds = Some((number(a), number(b)));
            }
            "--seconds" => args.seconds = number(&value).max(1),
            "--trace" => args.trace = number(&value) != 0,
            "--out" => args.out = Some(value.into()),
            "--work" => args.work = Some(value.into()),
            "--cli" => args.cli = Some(value.into()),
            _ => fail(format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("no executable path: {e}")));
    let env = Env {
        work: args.work.clone().unwrap_or_else(|| {
            let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
            PathBuf::from(target).join("mcd-perf-work")
        }),
        cli: args
            .cli
            .clone()
            .unwrap_or_else(|| exe.with_file_name("mcd-cli")),
        par: sys::nproc(),
    };
    std::fs::create_dir_all(&env.work)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", env.work.display())));
    match args.command.as_deref() {
        None => match args.workload {
            Some(workload) => run_one(&exe, workload, &args, &env),
            None => run_all(&exe, &args, &env),
        },
        Some("pass") => pass(&args, &env),
        Some("expect") => expect(&args, &env),
        Some(other) => fail(format!("unknown command `{other}`")),
    }
}

/// One workload, untraced or traced; the JSON result is the last line.
fn run_one(exe: &Path, workload: Workload, args: &Args, env: &Env) {
    if !env.cli.is_file() {
        fail(format!("no mcd-cli at {}", env.cli.display()));
    }
    let outcome = if args.trace {
        traced(workload, args.seed, env)
    } else {
        end_to_end(exe, workload, args.seed, args.seconds as f64, env).unwrap_or_else(|e| fail(e))
    };
    print!("{}", outcome.lines(workload.name()));
    println!(
        "{}",
        serde_json::to_string(&outcome.to_value()).expect("JSON writing is infallible")
    );
}

fn traced(workload: Workload, seed: u64, env: &Env) -> Outcome {
    let started = Instant::now();
    let report = layers::run(&workload.mix(seed), env).unwrap_or_else(|e| fail(e));
    let wall = started.elapsed().as_secs_f64();
    for note in &report.notes {
        eprintln!("{note}");
    }
    // The benchmark's own tracing cost: span bookkeeping, timed on empty
    // spans, times the spans the run recorded.
    let mut probe = Tracer::new();
    let probes = 10_000;
    let t = Instant::now();
    for _ in 0..probes {
        probe.span("probe", |_| ());
    }
    let per_span = t.elapsed().as_secs_f64() / probes as f64;
    let spans = report.tracer.spans().len();
    eprintln!(
        "traced run: {wall:.2}s wall, {spans} spans, span bookkeeping {:.1} us ({:.4}% of the run)",
        per_span * spans as f64 * 1e6,
        100.0 * per_span * spans as f64 / wall
    );
    for (layer, secs) in report.tracer.self_seconds_by_layer() {
        eprintln!("  self time {layer:<9} {secs:>8.3}s");
    }
    let dir = env.work.join("traces");
    let path = dir.join(format!("{}-s{seed}.json", workload.name()));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report.tracer.chrome_json()))
    {
        Ok(()) => eprintln!("span trace -> {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    report.outcome
}

/// Every workload, each in its own process, combined into one document.
fn run_all(exe: &Path, args: &Args, env: &Env) {
    let mut results = Map::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let output = Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--work")
            .arg(&env.work)
            .arg("--cli")
            .arg(&env.cli)
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| fail(format!("cannot run {}: {e}", exe.display())));
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        let result: Value = match (output.status.success(), serde_json::from_str(last)) {
            (true, Ok(v)) => v,
            _ => fail(format!("{} exited {}", workload.name(), output.status)),
        };
        for line in lines {
            println!("{line}");
        }
        all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        results.insert(workload.name().to_string(), result);
    }
    let mut doc = Map::new();
    doc.insert("seed".into(), args.seed.to_value());
    doc.insert("seconds".into(), args.seconds.to_value());
    doc.insert("trace".into(), Value::Bool(args.trace));
    doc.insert("nproc".into(), env.par.to_value());
    doc.insert("cpu_model".into(), Value::String(sys::cpu_model()));
    doc.insert("correct".into(), Value::Bool(all_correct));
    doc.insert("workloads".into(), Value::Object(results));
    let doc = Value::Object(doc);
    if let Some(out) = &args.out {
        let text = serde_json::to_string_pretty(&doc).expect("JSON writing is infallible");
        std::fs::write(out, text + "\n")
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", out.display())));
    }
    println!(
        "{}",
        serde_json::to_string(&doc).expect("JSON writing is infallible")
    );
}

/// Child side of one pass: set up, run, print the outcome as JSON. With
/// `--setup-only`, print instead the set-up's seconds and the host's speed
/// measured right after it ([`Calibration::SETUP`]), then exit.
fn pass(args: &Args, env: &Env) {
    let workload = args
        .workload
        .unwrap_or_else(|| fail("pass needs --workload"));
    let (prepared, setup_s) =
        prepare(workload, &workload.mix(args.seed), env).unwrap_or_else(|e| fail(e));
    let line = if args.setup_only {
        // Stop the grid's processes first, so they do not share the host
        // with the calibration.
        drop(prepared);
        format!("{setup_s} {}", Calibration::SETUP.speed(1))
    } else {
        let outcome = prepared.execute().unwrap_or_else(|e| fail(e));
        serde_json::to_string(&outcome).expect("JSON writing is infallible")
    };
    println!("{line}");
}

/// Prints the reference digest table for a seed range.
fn expect(args: &Args, env: &Env) {
    let (first, last) = args
        .seeds
        .unwrap_or_else(|| fail("expect needs --seeds A-B"));
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut table = Map::new();
    for workload in workloads {
        let mut digests = Map::new();
        for seed in first..=last {
            let digest =
                reference_digest(workload, &workload.mix(seed), env).unwrap_or_else(|e| fail(e));
            if let Some(old) = expected_digest(workload, seed) {
                if old != digest {
                    eprintln!(
                        "{} seed {seed}: committed {old}, now {digest}",
                        workload.name()
                    );
                }
            }
            eprintln!("{} seed {seed}: {digest}", workload.name());
            digests.insert(seed.to_string(), Value::String(digest));
        }
        table.insert(workload.name().to_string(), Value::Object(digests));
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Object(table)).expect("JSON writing is infallible")
    );
}
