//! Command-line front end for the MCD-DVFS simulator.
//!
//! ```text
//! mcd-cli list
//! mcd-cli run        <benchmark> [--config base|mcd|global:<mhz>] [--instructions N] [--seed S]
//! mcd-cli analyze    <benchmark> [--theta PCT] [--model xscale|transmeta] [--instructions N]
//! mcd-cli experiment <benchmark> [--instructions N] [--seed S] [--json]
//! mcd-cli campaign   run [--benchmarks a,b,..] [--seeds 1,2,..] [--instructions N]
//!                    [--models xscale,transmeta] [--policy SPEC]... [--dry-run]
//!                    [--workers W] [--cache-dir DIR] [--telemetry FILE|-] [--checkpoint FILE]
//!                    [--deadline SECS] [--json]
//! mcd-cli campaign   resume --checkpoint FILE [--workers W] [--cache-dir DIR]
//!                    [--telemetry FILE|-] [--deadline SECS] [--json]
//! mcd-cli campaign   report [--cache-dir DIR] [--json]
//! mcd-cli campaign   run --grid <addr> ...   # serve the campaign to TCP workers
//! mcd-cli cache      verify|scrub [--cache-dir DIR] [--recompute] [--json]
//! mcd-cli grid       serve --listen ADDR [--audit-rate N] [--heartbeat SECS]
//!                    [--heartbeat-timeout SECS] [sweep/cache/telemetry/checkpoint flags]
//! mcd-cli grid       worker --connect ADDR [--name TAG] [--deadline SECS]
//! mcd-cli trace      <benchmark> [--instructions N] [--seed S] [--out FILE]
//!                    [--sample-every N] [--governor SPEC] [--static]
//! mcd-cli check      diff
//! mcd-cli check      fuzz [--seed S] [--cases N] [--out DIR]
//! mcd-cli check      replay FILE
//! mcd-cli report     paper [--cache-dir DIR]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mcd::check::{self, FuzzConfig};
use mcd::core::{run_benchmark, BenchmarkSession, ExperimentConfig, ScenarioSpec};
use mcd::grid::{GridServer, GridWorker};
use mcd::harness::{
    parse_model, Campaign, CampaignReport, CampaignRollup, CampaignSpec, CellOutcome, ResultCache,
    ScrubReport, SlackDiskCache, Telemetry, ROLLUP_FILE, SLACK_CACHE_DIR,
};
use mcd::paper::{self, RECORD};
use mcd::pipeline::{
    simulate, DomainId, Engine, MachineConfig, Pipeline, PolicySpec, RunControl, TraceConfig,
    TraceRecorder,
};
use mcd::power::PowerModel;
use mcd::time::{DvfsModel, Frequency};
use mcd::trace::{chrome_trace_json, DOMAIN_LABELS};
use mcd::workload::{suites, WorkloadGenerator};

fn usage() -> ! {
    eprintln!(
        "usage:\n  mcd-cli list\n  mcd-cli run <benchmark> [--config base|mcd|global:<mhz>] \
         [--instructions N] [--seed S]\n  mcd-cli analyze <benchmark> [--theta PCT] \
         [--model xscale|transmeta] [--instructions N]\n  mcd-cli experiment <benchmark> \
         [--instructions N] [--seed S] [--json]\n  mcd-cli campaign run \
         [--benchmarks a,b,..] [--seeds 1,2,..] [--instructions N] \
         [--models xscale,transmeta] [--policy SPEC]... [--dry-run] [--workers W] \
         [--cache-dir DIR] [--telemetry FILE|-] [--checkpoint FILE] \
         [--deadline SECS] [--json]\n  \
         mcd-cli campaign resume \
         --checkpoint FILE [--workers W] [--cache-dir DIR] [--telemetry FILE|-] \
         [--deadline SECS] [--json]\n  mcd-cli campaign report [--cache-dir DIR] [--json]\n  \
         mcd-cli campaign run --grid ADDR [sweep/cache/telemetry/checkpoint flags]\n  \
         mcd-cli cache verify|scrub [--cache-dir DIR] [--recompute] [--json]\n  \
         mcd-cli grid serve --listen ADDR [--audit-rate N] [--heartbeat SECS] \
         [--heartbeat-timeout SECS] [sweep/cache/telemetry/checkpoint flags]\n  \
         mcd-cli grid worker --connect ADDR [--name TAG] [--deadline SECS]\n  \
         mcd-cli trace <benchmark> [--instructions N] [--seed S] [--out FILE] \
         [--sample-every N] [--governor SPEC] [--static]\n  \
         mcd-cli check diff\n  \
         mcd-cli check fuzz [--seed S] [--cases N] [--out DIR]\n  \
         mcd-cli check replay FILE\n  \
         mcd-cli report paper [--cache-dir DIR]"
    );
    std::process::exit(2)
}

/// The value after flag `name`; a missing value prints the usage text.
fn value(it: &mut std::slice::Iter<'_, String>, name: &str) -> String {
    it.next()
        .unwrap_or_else(|| {
            eprintln!("missing value for {name}");
            usage()
        })
        .clone()
}

/// The value after flag `name`, parsed; an unparsable value prints the
/// usage text.
fn parsed<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, name: &str) -> T {
    value(it, name).parse().unwrap_or_else(|_| usage())
}

/// The positive number of seconds after flag `name`.
fn secs(it: &mut std::slice::Iter<'_, String>, name: &str) -> Duration {
    let secs: f64 = parsed(it, name);
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("{name} must be a positive number of seconds");
        usage()
    }
    Duration::from_secs_f64(secs)
}

/// The instruction count after `--instructions`: a simulation must commit
/// at least one instruction.
fn instructions(it: &mut std::slice::Iter<'_, String>) -> u64 {
    let n = parsed(it, "--instructions");
    if n == 0 {
        eprintln!("--instructions must be at least 1");
        usage()
    }
    n
}

struct Opts {
    benchmark: String,
    instructions: u64,
    seed: u64,
    config: String,
    theta: f64,
    model: DvfsModel,
    json: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        benchmark: String::new(),
        instructions: 120_000,
        seed: 5,
        config: "base".into(),
        theta: 0.05,
        model: DvfsModel::XScale,
        json: false,
    };
    let mut it = args.iter();
    match it.next() {
        Some(b) => opts.benchmark = b.clone(),
        None => usage(),
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--instructions" => opts.instructions = instructions(&mut it),
            "--seed" => opts.seed = parsed(&mut it, "--seed"),
            "--config" => opts.config = value(&mut it, "--config"),
            "--theta" => opts.theta = parsed::<f64>(&mut it, "--theta") / 100.0,
            "--model" => {
                opts.model = match value(&mut it, "--model").as_str() {
                    "xscale" => DvfsModel::XScale,
                    "transmeta" => DvfsModel::Transmeta,
                    _ => usage(),
                }
            }
            "--json" => opts.json = true,
            _ => usage(),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "list" => {
            println!("{:<9} {:<14} paper window", "name", "suite");
            for p in suites::all() {
                println!("{:<9} {:<14} {}", p.name, p.suite.label(), p.paper_window);
            }
        }
        "run" => cmd_run(parse_opts(&args[1..])),
        "analyze" => cmd_analyze(parse_opts(&args[1..])),
        "experiment" => cmd_experiment(parse_opts(&args[1..])),
        "campaign" => cmd_campaign(&args[1..]),
        "cache" => cmd_cache(&args[1..]),
        "grid" => cmd_grid(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "report" => cmd_report(&args[1..]),
        _ => usage(),
    }
}

struct CampaignOpts {
    spec: CampaignSpec,
    workers: usize,
    cache_dir: String,
    telemetry: Option<String>,
    checkpoint: Option<String>,
    deadline: Option<Duration>,
    grid: Option<String>,
    audit_rate: Option<u64>,
    heartbeat: Option<Duration>,
    heartbeat_timeout: Option<Duration>,
    dry_run: bool,
    json: bool,
}

fn parse_campaign_opts(args: &[String]) -> CampaignOpts {
    let mut opts = CampaignOpts {
        spec: CampaignSpec::paper(5, 120_000, DvfsModel::XScale),
        workers: 0,
        cache_dir: "target/mcd-campaign-cache".into(),
        telemetry: None,
        checkpoint: None,
        deadline: None,
        grid: None,
        audit_rate: None,
        heartbeat: None,
        heartbeat_timeout: None,
        dry_run: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--benchmarks" => {
                opts.spec.benchmarks = value(&mut it, "--benchmarks")
                    .split(',')
                    .map(str::to_string)
                    .collect()
            }
            "--seeds" => {
                opts.spec.seeds = value(&mut it, "--seeds")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--instructions" => opts.spec.instructions = parsed(&mut it, "--instructions"),
            "--models" => {
                opts.spec.models = value(&mut it, "--models")
                    .split(',')
                    .map(|m| {
                        parse_model(m).unwrap_or_else(|e| {
                            eprintln!("{e}");
                            usage()
                        })
                    })
                    .collect()
            }
            "--policy" => opts.spec.policies.push(value(&mut it, "--policy")),
            "--dry-run" => opts.dry_run = true,
            "--workers" => opts.workers = parsed(&mut it, "--workers"),
            "--cache-dir" => opts.cache_dir = value(&mut it, "--cache-dir"),
            "--telemetry" => opts.telemetry = Some(value(&mut it, "--telemetry")),
            "--checkpoint" => opts.checkpoint = Some(value(&mut it, "--checkpoint")),
            "--deadline" => opts.deadline = Some(secs(&mut it, "--deadline")),
            "--grid" => opts.grid = Some(value(&mut it, "--grid")),
            "--audit-rate" => opts.audit_rate = Some(parsed(&mut it, "--audit-rate")),
            "--heartbeat" => opts.heartbeat = Some(secs(&mut it, "--heartbeat")),
            "--heartbeat-timeout" => {
                opts.heartbeat_timeout = Some(secs(&mut it, "--heartbeat-timeout"))
            }
            "--json" => opts.json = true,
            _ => usage(),
        }
    }
    opts
}

/// Opens the telemetry sink a campaign was asked for (`append` keeps one
/// log narrating the whole campaign across interruptions).
fn open_telemetry(spec: Option<&str>, append: bool) -> Telemetry {
    match spec {
        None => Telemetry::disabled(),
        Some("-") => Telemetry::stderr(),
        Some(path) if append => Telemetry::append_file(path.as_ref()).unwrap_or_else(|e| {
            eprintln!("cannot open telemetry file {path}: {e}");
            std::process::exit(1)
        }),
        Some(path) => Telemetry::to_file(path.as_ref()).unwrap_or_else(|e| {
            eprintln!("cannot open telemetry file {path}: {e}");
            std::process::exit(1)
        }),
    }
}

/// Builds the campaign the flags describe. On resume the manifest at
/// `--checkpoint` rebuilds it (the spec is embedded, sweep flags are
/// ignored and `opts.spec` is updated to match); otherwise the sweep flags
/// do. Either way the campaign persists to its checkpoint, and SIGINT
/// drains it.
fn build_campaign(resume: bool, opts: &mut CampaignOpts) -> Campaign {
    let mut campaign = if resume {
        let Some(path) = opts.checkpoint.clone() else {
            eprintln!("campaign resume requires --checkpoint FILE");
            usage()
        };
        let campaign = Campaign::from_checkpoint(path.as_ref()).unwrap_or_else(|e| {
            eprintln!("cannot resume from {path}: {e}");
            std::process::exit(2)
        });
        opts.spec = campaign.spec().clone();
        campaign
    } else {
        let mut campaign = Campaign::new(opts.spec.clone());
        if let Some(path) = &opts.checkpoint {
            campaign = campaign.checkpoint(path);
        }
        campaign
    };
    if let Some(deadline) = opts.deadline {
        campaign = campaign.deadline(deadline);
    }
    campaign.workers(opts.workers).interrupt(install_sigint())
}

/// Serves `campaign` to TCP workers: binds `addr`, streams cells to
/// whoever connects, and reports like a local run. Used by both
/// `campaign run|resume --grid ADDR` and `grid serve --listen ADDR`.
fn serve_grid(
    addr: &str,
    campaign: Campaign,
    resume: bool,
    opts: &CampaignOpts,
    cache: &ResultCache,
) -> ! {
    if opts.workers != 0 {
        eprintln!("note: --workers is ignored with --grid (workers are remote processes)");
    }
    if opts.deadline.is_some() {
        eprintln!("note: --deadline is ignored with --grid (set it on each `grid worker`)");
    }
    let mut server = GridServer::bind(campaign, addr).unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        std::process::exit(1)
    });
    if let Some(rate) = opts.audit_rate {
        server = server.audit_rate(rate);
    }
    if opts.heartbeat.is_some() || opts.heartbeat_timeout.is_some() {
        // Defaults mirror the coordinator's own: 1 s interval, 10 s
        // timeout. Setting only one flag still validates the pair.
        let interval = opts.heartbeat.unwrap_or(Duration::from_secs(1));
        let timeout = opts.heartbeat_timeout.unwrap_or(Duration::from_secs(10));
        server = server.heartbeats(interval, timeout).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        });
    }
    match server.local_addr() {
        Ok(bound) => eprintln!("grid coordinator listening on {bound}"),
        Err(_) => eprintln!("grid coordinator listening on {addr}"),
    }
    let telemetry = open_telemetry(opts.telemetry.as_deref(), resume);
    let report = server.run(cache, &telemetry).unwrap_or_else(|e| {
        eprintln!("grid campaign failed: {e}");
        std::process::exit(2)
    });
    let mut code = report_campaign(&report, opts);
    if code == 0 {
        // A clean report can still hide integrity trouble (a quarantined
        // worker whose cells were recomputed, say); the rollup knows.
        if let Ok(rollup) = CampaignRollup::load(&cache.dir().join(ROLLUP_FILE)) {
            if !rollup.healthy() {
                eprintln!("grid campaign finished with integrity findings (see `campaign report`)");
                code = 1;
            }
        }
    }
    std::process::exit(code)
}

fn cmd_grid(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    match verb.as_str() {
        "serve" => {
            // `grid serve --listen ADDR` is `campaign run --grid ADDR`
            // under a name that reads naturally on the coordinator host.
            let mut listen = None;
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--listen" {
                    listen = it.next().cloned();
                    if listen.is_none() {
                        eprintln!("missing value for --listen");
                        usage()
                    }
                } else {
                    rest.push(flag.clone());
                }
            }
            let Some(addr) = listen else {
                eprintln!("grid serve requires --listen ADDR");
                usage()
            };
            let mut opts = parse_campaign_opts(&rest);
            let cache = ResultCache::open(&opts.cache_dir).unwrap_or_else(|e| {
                eprintln!("cannot open cache dir {}: {e}", opts.cache_dir);
                std::process::exit(1)
            });
            let campaign = build_campaign(false, &mut opts);
            serve_grid(&addr, campaign, false, &opts, &cache)
        }
        "worker" => cmd_grid_worker(&args[1..]),
        _ => usage(),
    }
}

fn cmd_grid_worker(args: &[String]) {
    let mut connect: Option<String> = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut deadline: Option<Duration> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = Some(value(&mut it, "--connect")),
            "--name" => name = value(&mut it, "--name"),
            "--deadline" => deadline = Some(secs(&mut it, "--deadline")),
            _ => usage(),
        }
    }
    let Some(addr) = connect else {
        eprintln!("grid worker requires --connect ADDR");
        usage()
    };
    let mut worker = GridWorker::connect(addr.clone()).name(&name);
    if let Some(d) = deadline {
        worker = worker.deadline(d);
    }
    eprintln!("grid worker {name}: connecting to {addr}");
    match worker.run() {
        Ok(summary) => {
            eprintln!(
                "grid worker {name}: {} cells over {} session(s), {}",
                summary.cells,
                summary.sessions,
                if summary.drained {
                    "coordinator drained (campaign interrupted)"
                } else {
                    "campaign complete"
                }
            );
        }
        Err(e) => {
            eprintln!("grid worker {name}: {e}");
            std::process::exit(1);
        }
    }
}

/// The campaign interrupt flag shared with the SIGINT handler. The handler
/// only performs an atomic load of the `OnceLock` and an atomic store on
/// the flag — both async-signal-safe (no allocation, no locking).
static SIGINT_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(flag) = SIGINT_FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs a SIGINT handler that raises the campaign interrupt flag, so
/// Ctrl-C drains in-flight cells and leaves a resumable checkpoint instead
/// of killing the process mid-write.
fn install_sigint() -> Arc<AtomicBool> {
    let flag = SIGINT_FLAG
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    // Raw libc `signal` so the build needs no external crates. On error
    // (SIG_ERR) the flag simply never fires and Ctrl-C keeps its default
    // kill behavior — strictly no worse than before.
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        signal(SIGINT, on_sigint);
    }
    flag
}

/// Prints the per-cell table and summary line for a finished campaign and
/// returns the process exit code.
fn report_campaign(report: &CampaignReport, opts: &CampaignOpts) -> i32 {
    if opts.json {
        match report.to_json() {
            Some(json) => println!("{json}"),
            None => {
                eprintln!("campaign has unfinished cells; no result document");
            }
        }
    } else {
        println!("{:<28} {:>9}  outcome", "cell", "elapsed");
        for record in &report.cells {
            let outcome = match &record.outcome {
                CellOutcome::Cached(_) => "cached".to_string(),
                CellOutcome::Computed { attempts: 1, .. } => "computed".to_string(),
                CellOutcome::Computed { attempts, .. } => {
                    format!("computed (attempt {attempts})")
                }
                CellOutcome::Failed(f) => format!("FAILED: {f}"),
                CellOutcome::Stalled { waited } => {
                    format!("STALLED after {:.1}s (abandoned)", waited.as_secs_f64())
                }
                CellOutcome::Skipped => "skipped (interrupted)".to_string(),
            };
            println!(
                "{:<28} {:>8.2}s  {}",
                record.cell.label(),
                record.elapsed.as_secs_f64(),
                outcome
            );
        }
    }
    eprintln!(
        "campaign: {} computed, {} cached, {} failed, {} stalled, {} skipped in {:.1}s",
        report.computed(),
        report.cached(),
        report.failed(),
        report.stalled(),
        report.skipped(),
        report.wall.as_secs_f64()
    );
    if report.interrupted {
        match &opts.checkpoint {
            Some(path) => eprintln!(
                "campaign interrupted; resume with: mcd-cli campaign resume --checkpoint {path}"
            ),
            None => eprintln!(
                "campaign interrupted (no checkpoint; rerun recomputes only uncached cells)"
            ),
        }
        return 130;
    }
    if report.failed() > 0 || report.stalled() > 0 {
        return 1;
    }
    0
}

/// `mcd-cli campaign run --dry-run`: prints the expanded cell grid — one
/// row per cell with its cache key and hit/miss preview, plus the scenario
/// column every cell runs — and exits without executing anything.
fn dry_run_campaign(opts: &CampaignOpts, cache: &ResultCache) -> ! {
    let campaign = Campaign::new(opts.spec.clone());
    let rows = campaign.status(cache).unwrap_or_else(|e| {
        eprintln!("invalid campaign: {e}");
        std::process::exit(2)
    });
    // Every cell of one spec runs the same scenario column: the five paper
    // configurations plus one governed row per policy.
    let mut scenarios = vec![
        ScenarioSpec::baseline().label(),
        ScenarioSpec::baseline_mcd().label(),
        ScenarioSpec::dynamic(opts.spec.thetas[0]).label(),
        ScenarioSpec::dynamic(opts.spec.thetas[1]).label(),
        ScenarioSpec::global_matched().label(),
    ];
    if let Some((cell, _, _)) = rows.first() {
        for policy in &cell.policies {
            let policy = PolicySpec::parse(policy).expect("expanded policies are canonical");
            scenarios.push(ScenarioSpec::online(policy).label());
        }
    }
    println!(
        "dry run: {} cells x {} scenarios (nothing executed)",
        rows.len(),
        scenarios.len()
    );
    println!("scenarios: {}", scenarios.join(" "));
    println!("{:<44} {:<12}  cache", "cell", "key");
    let cached = rows.iter().filter(|(_, _, hit)| *hit).count();
    for (cell, key, hit) in &rows {
        println!(
            "{:<44} {}  {}",
            cell.label(),
            &key.hex()[..12],
            if *hit { "cached" } else { "missing" }
        );
    }
    println!(
        "{cached}/{} cells cached in {}; {} to compute",
        rows.len(),
        cache.dir().display(),
        rows.len() - cached
    );
    std::process::exit(0)
}

fn cmd_campaign(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    let mut opts = parse_campaign_opts(&args[1..]);
    let cache = ResultCache::open(&opts.cache_dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache dir {}: {e}", opts.cache_dir);
        std::process::exit(1)
    });
    match verb.as_str() {
        "run" | "resume" => {
            if opts.dry_run {
                if verb != "run" {
                    eprintln!("--dry-run only applies to `campaign run`");
                    usage()
                }
                dry_run_campaign(&opts, &cache)
            }
            let resume = verb == "resume";
            if opts.grid.is_none()
                && (opts.audit_rate.is_some()
                    || opts.heartbeat.is_some()
                    || opts.heartbeat_timeout.is_some())
            {
                eprintln!("note: --audit-rate/--heartbeat flags only apply with --grid");
            }
            let campaign = build_campaign(resume, &mut opts);
            if let Some(addr) = opts.grid.clone() {
                serve_grid(&addr, campaign, resume, &opts, &cache)
            }
            let telemetry = open_telemetry(opts.telemetry.as_deref(), resume);
            let report = campaign.run(&cache, &telemetry).unwrap_or_else(|e| {
                eprintln!("campaign failed: {e}");
                std::process::exit(2)
            });
            let code = report_campaign(&report, &opts);
            if code != 0 {
                std::process::exit(code);
            }
        }
        "report" => {
            let path = cache.dir().join(ROLLUP_FILE);
            let rollup = CampaignRollup::load(&path).unwrap_or_else(|e| {
                eprintln!(
                    "no campaign rollup at {} ({e}); run `mcd-cli campaign run` first",
                    path.display()
                );
                std::process::exit(1)
            });
            if opts.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&rollup).expect("serializable")
                );
            } else {
                print!("{}", rollup.table());
            }
            if !rollup.healthy() {
                eprintln!("campaign report: failed, stalled, or diverged cells present");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

/// `mcd-cli cache verify|scrub`: re-verifies every result-cache entry and
/// slack profile against its recorded digest. `verify` is read-only and
/// exits nonzero if anything is corrupt; `scrub` moves corrupt entries to
/// `quarantine/` so the next campaign recomputes them, and with
/// `--recompute` runs that repair campaign immediately (pass the same
/// sweep flags the cache was built with).
fn cmd_cache(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    let quarantine = match verb.as_str() {
        "verify" => false,
        "scrub" => true,
        _ => usage(),
    };
    let mut recompute = false;
    let mut rest = Vec::new();
    for flag in &args[1..] {
        if flag == "--recompute" {
            recompute = true;
        } else {
            rest.push(flag.clone());
        }
    }
    if recompute && !quarantine {
        eprintln!("--recompute only applies to `cache scrub`");
        usage()
    }
    let mut opts = parse_campaign_opts(&rest);
    let cache = ResultCache::open(&opts.cache_dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache dir {}: {e}", opts.cache_dir);
        std::process::exit(1)
    });
    let results = cache.scrub(quarantine).unwrap_or_else(|e| {
        eprintln!("cannot walk result cache: {e}");
        std::process::exit(1)
    });
    let slack = SlackDiskCache::open(cache.dir().join(SLACK_CACHE_DIR))
        .and_then(|store| store.scrub(quarantine))
        .unwrap_or_else(|e| {
            eprintln!("cannot walk slack cache: {e}");
            std::process::exit(1)
        });

    if opts.json {
        let mut doc = serde::Map::new();
        doc.insert("mode".to_string(), serde::Value::String(verb.to_string()));
        doc.insert("results".to_string(), scrub_value(&results));
        doc.insert("slack".to_string(), scrub_value(&slack));
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Object(doc)).expect("serializable")
        );
    } else {
        print_scrub("result cache", &results);
        print_scrub("slack cache", &slack);
    }

    let clean = results.clean() && slack.clean();
    if recompute {
        // The quarantined entries are gone from the cache, so an ordinary
        // campaign run recomputes exactly those cells (everything intact
        // is a cache hit).
        let telemetry = open_telemetry(opts.telemetry.as_deref(), true);
        let report = build_campaign(false, &mut opts)
            .run(&cache, &telemetry)
            .unwrap_or_else(|e| {
                eprintln!("repair campaign failed: {e}");
                std::process::exit(2)
            });
        eprintln!(
            "cache scrub: repair recomputed {} cell(s), {} cached",
            report.computed(),
            report.cached()
        );
        if report.failed() > 0 || report.stalled() > 0 {
            std::process::exit(1);
        }
    } else if !quarantine && !clean {
        std::process::exit(1);
    }
}

fn print_scrub(label: &str, report: &ScrubReport) {
    println!(
        "{label}: {} entries checked, {} corrupt",
        report.checked,
        report.findings.len()
    );
    for f in &report.findings {
        match &f.evidence {
            Some(path) => println!("  {} {} -> {}", &f.key[..12], f.kind.tag(), path.display()),
            None => println!("  {} {}", &f.key[..12], f.kind.tag()),
        }
    }
}

fn scrub_value(report: &ScrubReport) -> serde::Value {
    use serde::{Map, Serialize, Value};
    let mut doc = Map::new();
    doc.insert("checked".to_string(), report.checked.to_value());
    doc.insert(
        "corrupt".to_string(),
        Value::Array(
            report
                .findings
                .iter()
                .map(|f| {
                    let mut e = Map::new();
                    e.insert("key".to_string(), Value::String(f.key.clone()));
                    e.insert("kind".to_string(), Value::String(f.kind.tag().to_string()));
                    if let Some(p) = &f.evidence {
                        e.insert(
                            "quarantined_to".to_string(),
                            Value::String(p.display().to_string()),
                        );
                    }
                    Value::Object(e)
                })
                .collect(),
        ),
    );
    Value::Object(doc)
}

/// `mcd-cli trace <benchmark>`: run one cell with the trace recorder
/// attached and export the timeline as Chrome trace_event JSON (load the
/// file in `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// By default the run is driven by the online attack/decay governor on the
/// baseline MCD machine, so the per-domain frequency stairsteps actually
/// move; `--governor SPEC` swaps in any registry policy
/// (`id[:key=value,…]`, e.g. `queue-pi:setpoint=0.6`) and `--static`
/// traces the ungoverned machine instead.
fn cmd_trace(args: &[String]) {
    let Some(benchmark) = args.first() else {
        usage()
    };
    if benchmark.starts_with("--") {
        usage()
    }
    let mut window: u64 = 120_000;
    let mut seed: u64 = 5;
    let mut out = format!("trace_{benchmark}.json");
    let mut cfg = TraceConfig::full();
    let mut governed = true;
    let mut governor_spec = "attack-decay".to_string();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--instructions" => window = instructions(&mut it),
            "--seed" => seed = parsed(&mut it, "--seed"),
            "--out" => out = value(&mut it, "--out"),
            "--sample-every" => cfg.sample_every = parsed(&mut it, "--sample-every"),
            "--governor" => governor_spec = value(&mut it, "--governor"),
            "--static" => governed = false,
            _ => usage(),
        }
    }
    let profile = suites::by_name(benchmark).unwrap_or_else(|| {
        eprintln!("unknown benchmark {benchmark:?}; try `mcd-cli list`");
        std::process::exit(2)
    });
    let machine = MachineConfig::baseline_mcd(seed);
    let governor = governed.then(|| {
        PolicySpec::parse(&governor_spec)
            .and_then(|policy| policy.build())
            .unwrap_or_else(|e| {
                eprintln!("invalid --governor {governor_spec:?}: {e}");
                std::process::exit(2)
            })
    });
    let mut recorder = TraceRecorder::new(cfg);
    let control = RunControl {
        governor,
        engine: Engine::Optimized(Some(&mut recorder)),
    };
    let generator = WorkloadGenerator::new(profile.clone(), seed);
    let run = Pipeline::new(machine, generator).run(window, control);
    let trace = recorder.into_trace(run.total_time);
    std::fs::write(&out, chrome_trace_json(&trace)).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "traced {} x {} instructions ({}, IPC {:.3}) -> {out}",
        profile.name,
        run.committed,
        run.total_time,
        run.ipc()
    );
    eprintln!(
        "{:<16} {:>9} {:>7} {:>8} {:>11} {:>10}",
        "domain", "mean MHz", "steps", "re-locks", "sync stalls", "occupancy"
    );
    for (i, label) in DOMAIN_LABELS.iter().enumerate() {
        let d = &trace.domains[i];
        eprintln!(
            "{:<16} {:>9.1} {:>7} {:>8} {:>11} {:>10.3}",
            label,
            d.counters.mean_frequency_hz() / 1e6,
            d.counters.freq_changes,
            d.counters.relocks,
            d.counters.sync_crossings,
            d.counters.mean_occupancy()
        );
    }
    eprintln!(
        "total sync penalty: {:.3} us over {} crossings",
        trace.total_sync_penalty_femtos() as f64 / 1e9,
        trace
            .domains
            .iter()
            .map(|d| d.counters.sync_crossings)
            .sum::<u64>()
    );
    eprintln!("open in chrome://tracing or https://ui.perfetto.dev");
}

/// `mcd-cli report paper`: runs the configuration of record (or loads it
/// from the result cache) and prints every generated block of
/// `EXPERIMENTS.md`; a failed shape claim exits nonzero naming the claim,
/// model and seed.
fn cmd_report(args: &[String]) {
    let cache_dir = match args {
        [verb] if verb == "paper" => "target/mcd-campaign-cache",
        [verb, flag, dir] if verb == "paper" && flag == "--cache-dir" => dir.as_str(),
        _ => usage(),
    };
    let cache = ResultCache::open(cache_dir).unwrap_or_else(|e| {
        eprintln!("cannot open cache dir {cache_dir}: {e}");
        std::process::exit(1)
    });
    let campaign = Campaign::new(RECORD.spec()).interrupt(install_sigint());
    let report = campaign
        .run(&cache, &Telemetry::disabled())
        .unwrap_or_else(|e| {
            eprintln!("campaign failed: {e}");
            std::process::exit(2)
        });
    let (computed, cached) = (report.computed(), report.cached());
    let wall = report.wall.as_secs_f64();
    eprintln!("report paper: campaign {computed} computed, {cached} cached in {wall:.1}s");
    let rendered = paper::collect(&RECORD, &report).and_then(|data| paper::render(&data));
    let rendered = rendered.unwrap_or_else(|e| {
        eprintln!("report paper: {e}");
        std::process::exit(1)
    });
    print!("{}", rendered.text);
    for failure in &rendered.failures {
        eprintln!("report paper: {failure}");
    }
    if !rendered.failures.is_empty() {
        std::process::exit(1);
    }
}

/// `mcd-cli check`: the correctness harness. `diff` sweeps the built-in
/// configuration lattice through the differential oracle (reference
/// interpreter vs. optimized engine, byte equality); `fuzz` runs a seeded
/// campaign over random configurations, shrinks any failure to a minimal
/// case, and publishes it as repro JSON (default `check-failures/`);
/// `replay` re-runs one published repro file.
fn cmd_check(args: &[String]) {
    let Some(verb) = args.first() else { usage() };
    match verb.as_str() {
        "diff" => {
            let cases = check::lattice();
            let mut failed = 0usize;
            for case in &cases {
                let verdict = match check::run_differential(case) {
                    Ok(out) if out.is_pass() => "ok".to_string(),
                    Ok(out) => {
                        failed += 1;
                        format!("FAILED: {out:?}")
                    }
                    Err(e) => {
                        failed += 1;
                        format!("INVALID: {e}")
                    }
                };
                println!(
                    "{:<8} {:<6} {:<7} {:>5} MHz {:<13} {verdict}",
                    case.benchmark, case.pipeline, case.mode, case.mhz, case.governor
                );
            }
            eprintln!(
                "check diff: {}/{} cases match the reference interpreter",
                cases.len() - failed,
                cases.len()
            );
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "fuzz" => {
            let mut cfg = FuzzConfig {
                seed: 5,
                cases: 64,
                out_dir: "check-failures".into(),
            };
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => cfg.seed = parsed(&mut it, "--seed"),
                    "--cases" => cfg.cases = parsed(&mut it, "--cases"),
                    "--out" => cfg.out_dir = value(&mut it, "--out").into(),
                    _ => usage(),
                }
            }
            let report = check::fuzz(&cfg).unwrap_or_else(|e| {
                eprintln!("check fuzz: {e}");
                std::process::exit(1)
            });
            if report.swept_tmp > 0 {
                eprintln!(
                    "check fuzz: swept {} stale tmp file(s) from {}",
                    report.swept_tmp,
                    cfg.out_dir.display()
                );
            }
            for f in &report.failures {
                eprintln!(
                    "check fuzz: {} — {} -> {}",
                    f.kind.as_str(),
                    f.detail,
                    f.repro.display()
                );
            }
            eprintln!(
                "check fuzz: {} case(s), {} fault-injected, {} failure(s)",
                report.executed,
                report.chaos_cases,
                report.failures.len()
            );
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
        "replay" => {
            let Some(path) = args.get(1) else {
                eprintln!("check replay requires FILE");
                usage()
            };
            match check::fuzz::replay_file(path.as_ref()) {
                Ok(None) => eprintln!("check replay: {path}: no longer reproduces"),
                Ok(Some((kind, detail))) => {
                    eprintln!(
                        "check replay: {path}: still fails ({}): {detail}",
                        kind.as_str()
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("check replay: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => usage(),
    }
}

fn machine_for(opts: &Opts) -> MachineConfig {
    match opts.config.as_str() {
        "base" => MachineConfig::baseline(opts.seed),
        "mcd" => MachineConfig::baseline_mcd(opts.seed),
        other => match other.strip_prefix("global:") {
            Some(mhz) => MachineConfig::global(
                opts.seed,
                Frequency::from_mhz(mhz.parse().unwrap_or_else(|_| usage())),
            ),
            None => usage(),
        },
    }
}

fn profile_for(opts: &Opts) -> mcd::workload::BenchmarkProfile {
    suites::by_name(&opts.benchmark).unwrap_or_else(|| {
        eprintln!("unknown benchmark {:?}; try `mcd-cli list`", opts.benchmark);
        std::process::exit(2)
    })
}

fn cmd_run(opts: Opts) {
    let profile = profile_for(&opts);
    let machine = machine_for(&opts);
    let run = simulate(&machine, &profile, opts.instructions);
    let energy = PowerModel::paper_calibrated().energy_of(&run);
    println!("benchmark      {}", profile.name);
    println!("configuration  {}", opts.config);
    println!("instructions   {}", run.committed);
    println!("time           {}", run.total_time);
    println!("IPC            {:.3}", run.ipc());
    println!("L1D miss       {:.2}%", 100.0 * run.l1d.miss_rate());
    println!("L1I miss       {:.2}%", 100.0 * run.l1i.miss_rate());
    println!("L2 miss        {:.2}%", 100.0 * run.l2.miss_rate());
    println!("bpred miss     {:.2}%", 100.0 * run.mispredict_rate());
    println!("energy         {:.0} units", energy.total());
    for d in DomainId::ALL {
        println!(
            "  {:<16} {:>5.1}%",
            d.label(),
            100.0 * energy.domain_share(d)
        );
    }
}

/// `mcd-cli analyze`: the refined schedule a dynamic-θ cell runs, from the
/// same session code as every campaign cell.
fn cmd_analyze(opts: Opts) {
    let profile = profile_for(&opts);
    if let Err(e) = ScenarioSpec::dynamic(opts.theta).validate() {
        eprintln!("invalid --theta: {e}");
        usage()
    }
    let cfg = ExperimentConfig::paper(opts.seed, opts.instructions, opts.model);
    let mut session = BenchmarkSession::new(&profile, &cfg);
    let trace_time = session.mcd_run().total_time;
    let analysis = session.analysis(opts.theta);
    println!(
        "analyzed {} instructions ({trace_time}) at θ = {:.1}%, {:?} model",
        opts.instructions,
        100.0 * opts.theta,
        opts.model
    );
    println!("reconfigurations: {}", analysis.schedule.len());
    for d in &DomainId::ALL[1..] {
        let s = &analysis.stats[d.index()];
        println!(
            "  {:<16} mean {:>7.0} MHz, range {:>4.0}-{:<4.0} MHz, {} changes",
            d.label(),
            s.mean_frequency_hz / 1e6,
            s.min_frequency.as_mhz_f64(),
            s.max_frequency.as_mhz_f64(),
            s.reconfigurations
        );
    }
    println!("\nschedule (JSON):");
    println!("{}", analysis.schedule.to_json().expect("serializable"));
}

fn cmd_experiment(opts: Opts) {
    let profile = profile_for(&opts);
    let cfg = ExperimentConfig::paper(opts.seed, opts.instructions, opts.model);
    let results = run_benchmark(&profile, &cfg);
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&results).expect("serializable")
        );
        return;
    }
    let labels = ["baseline MCD", "dynamic-1%", "dynamic-5%", "global"];
    let perf = results.perf_degradation();
    let energy = results.energy_savings();
    let ed = results.energy_delay_improvement();
    println!(
        "benchmark {}; global settled on {}",
        results.name, results.global_frequency
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "config", "perf deg", "energy", "energy-delay"
    );
    for i in 0..4 {
        println!(
            "{:<14} {:>9.2}% {:>9.2}% {:>11.2}%",
            labels[i],
            100.0 * perf[i],
            100.0 * energy[i],
            100.0 * ed[i]
        );
    }
}
