//! The three workloads: their inputs, their set-up, and one timed pass.
//!
//! A pass is the unit the benchmark repeats. Set-up ([`prepare`]) is timed
//! apart from the pass proper ([`Prepared::execute`]) so work moved into
//! set-up shows in `setup_s`. Every pass runs in a fresh process (see
//! `runner`), so the simulator's process-wide warm-state cache and the
//! peak-RSS counter start empty for each one.

use std::io::{BufRead, BufReader, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use mcd::core::{run_benchmark, BenchmarkResults, ExperimentConfig};
use mcd::harness::{
    Campaign, CampaignReport, CampaignRollup, CampaignSpec, ResultCache, Telemetry, ROLLUP_FILE,
};
use mcd::pipeline::{simulate_governed, simulate_reference_governed, MachineConfig, PolicySpec};
use mcd::time::DvfsModel;
use mcd::workload::{suites, BenchmarkProfile};
use serde::{Deserialize, Serialize};

use crate::stats::{digest, mean};
use crate::sys;

/// Committed instructions per run of `paper-cold`. The paper window is
/// 240k; a 40k cold suite keeps three passes inside one 20 s run.
pub const PAPER_COLD_INSTRUCTIONS: u64 = 40_000;
/// Committed instructions per governed run: the paper window.
pub const GOVERNED_INSTRUCTIONS: u64 = 240_000;
/// Committed instructions per `grid-loopback` cell: short cells, so the
/// per-cell costs of transport, audits and fsynced checkpoints show. 64
/// cells per pass keep the seed-dependent audit sample (1 in 16) from
/// dominating the spread.
pub const GRID_INSTRUCTIONS: u64 = 8_000;
/// The on-line policies `governed-kernel` runs, each on every benchmark.
pub const GOVERNED_POLICIES: [&str; 2] = ["attack-decay", "queue-pi"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16-benchmark × 5-configuration paper suite through
    /// `Campaign::run`, cold result and slack caches.
    PaperCold,
    /// 16 benchmarks × 2 on-line governors through `simulate_governed`:
    /// the kernel and the governors only.
    GovernedKernel,
    /// A 16-benchmark × 2-model campaign served by the real `mcd-cli grid
    /// serve` to `mcd-cli grid worker` processes over loopback TCP.
    GridLoopback,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::GovernedKernel,
        Workload::GridLoopback,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::GovernedKernel => "governed-kernel",
            Workload::GridLoopback => "grid-loopback",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's full-size inputs for `seed`.
    pub fn mix(self, seed: u64) -> Mix {
        let benchmarks = suites::names().iter().map(|n| n.to_string()).collect();
        let (seeds, instructions, models) = match self {
            Workload::PaperCold => (vec![seed], PAPER_COLD_INSTRUCTIONS, vec![DvfsModel::XScale]),
            Workload::GovernedKernel => {
                (vec![seed], GOVERNED_INSTRUCTIONS, vec![DvfsModel::XScale])
            }
            Workload::GridLoopback => (
                vec![seed, seed.wrapping_add(1)],
                GRID_INSTRUCTIONS,
                vec![DvfsModel::XScale, DvfsModel::Transmeta],
            ),
        };
        Mix {
            benchmarks,
            seeds,
            instructions,
            models,
        }
    }
}

/// The inputs of one workload: which benchmarks, at what size, under which
/// DVFS models. Everything is a function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Benchmark names, in figure order.
    pub benchmarks: Vec<String>,
    /// Experiment seeds (workload stream, jitter, PLL lock times).
    pub seeds: Vec<u64>,
    /// Committed instructions per simulator run.
    pub instructions: u64,
    /// DVFS transition models.
    pub models: Vec<DvfsModel>,
}

impl Mix {
    /// The campaign spec covering this mix (paper dilation targets, no
    /// policy axis).
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            benchmarks: self.benchmarks.clone(),
            seeds: self.seeds.clone(),
            instructions: self.instructions,
            models: self.models.clone(),
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    /// The benchmark profiles, in order.
    pub fn profiles(&self) -> Result<Vec<BenchmarkProfile>, String> {
        self.benchmarks
            .iter()
            .map(|b| suites::by_name(b).ok_or_else(|| format!("unknown benchmark `{b}`")))
            .collect()
    }
}

/// Where a pass may write, which `mcd-cli` it drives, and how many cores
/// it may load.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory; every pass works in a fresh subdirectory.
    pub work: PathBuf,
    /// The `mcd-cli` binary the grid workload runs.
    pub cli: PathBuf,
    /// Threads, campaign workers and grid worker processes per pass.
    pub par: usize,
}

/// What one pass measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassOutcome {
    /// Host seconds from the first unit dispatched to the last result.
    pub wall_s: f64,
    /// User + system CPU seconds of every process of the pass.
    pub cpu_s: f64,
    /// Peak RSS of the largest process of the pass, MiB.
    pub peak_rss_mb: f64,
    /// Host seconds of each unit: a cell or a governed run. For
    /// `grid-loopback`, each benchmark's median cell round trip, as the
    /// coordinator's rollup records them.
    pub unit_s: Vec<f64>,
    /// Units attempted.
    pub units: u64,
    /// Units failed, stalled or skipped.
    pub failed: u64,
    /// [`digest`] of the pass's canonical result bytes.
    pub digest: String,
    /// Lines for the human reader: simulated headline, grid counters.
    pub notes: Vec<String>,
}

/// A workload whose set-up is done: the next step dispatches work.
pub enum Prepared {
    /// Cold cache opened and spec expanded.
    PaperCold {
        /// The campaign to run.
        campaign: Campaign,
        /// Its fresh result cache.
        cache: ResultCache,
        /// Removed when the pass ends.
        dir: ScratchDir,
    },
    /// Profiles looked up and policies parsed.
    Governed {
        /// Runs in dispatch order.
        jobs: Vec<GovernedJob>,
        /// Instructions per run.
        instructions: u64,
        /// Threads pulling from the shared job index.
        par: usize,
    },
    /// Coordinator listening and workers spawned.
    Grid {
        /// The running grid.
        server: GridServer,
        /// Removed when the pass ends.
        dir: ScratchDir,
    },
}

/// One governed run: a benchmark under one policy on the baseline MCD
/// machine.
pub struct GovernedJob {
    /// The benchmark.
    pub profile: BenchmarkProfile,
    /// The policy driving the domain clocks.
    pub policy: PolicySpec,
    /// The machine (baseline MCD at one of the mix seeds).
    pub machine: MachineConfig,
}

/// A directory removed (with its contents) when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `parent/name-<pid>-<n>`, empty.
    pub fn new(parent: &Path, name: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up of one pass: everything before the first unit can be dispatched.
/// Returns the prepared pass and the set-up's seconds, which leave out the
/// creation of the pass's own scratch directory.
pub fn prepare(workload: Workload, mix: &Mix, env: &Env) -> Result<(Prepared, f64), String> {
    let started;
    let prepared = match workload {
        Workload::PaperCold => {
            let dir = ScratchDir::new(&env.work, "paper-cold")?;
            started = Instant::now();
            let cache = ResultCache::open(dir.path().join("cache"))
                .map_err(|e| format!("cannot open cache: {e}"))?;
            let spec = mix.spec();
            spec.expand().map_err(|e| e.to_string())?;
            let campaign = Campaign::new(spec).workers(env.par);
            Prepared::PaperCold {
                campaign,
                cache,
                dir,
            }
        }
        Workload::GovernedKernel => {
            started = Instant::now();
            Prepared::Governed {
                jobs: governed_jobs(mix)?,
                instructions: mix.instructions,
                par: env.par,
            }
        }
        Workload::GridLoopback => {
            let dir = ScratchDir::new(&env.work, "grid-loopback")?;
            started = Instant::now();
            let server = GridServer::start(&env.cli, &mix.spec(), dir.path(), env.par)?;
            Prepared::Grid { server, dir }
        }
    };
    Ok((prepared, started.elapsed().as_secs_f64()))
}

/// Every governed run of `mix`, in dispatch order: seeds, then
/// benchmarks, then policies.
fn governed_jobs(mix: &Mix) -> Result<Vec<GovernedJob>, String> {
    let policies = GOVERNED_POLICIES
        .iter()
        .map(|p| PolicySpec::parse(p))
        .collect::<Result<Vec<_>, _>>()?;
    let profiles = mix.profiles()?;
    let mut jobs = Vec::new();
    for &seed in &mix.seeds {
        for profile in &profiles {
            for policy in &policies {
                jobs.push(GovernedJob {
                    profile: profile.clone(),
                    policy: policy.clone(),
                    machine: MachineConfig::baseline_mcd(seed),
                });
            }
        }
    }
    Ok(jobs)
}

impl Prepared {
    /// Dispatches every unit, waits for the last result, checks and digests
    /// the output.
    pub fn execute(self) -> Result<PassOutcome, String> {
        let mut outcome = match self {
            Prepared::PaperCold {
                campaign,
                cache,
                dir,
            } => {
                let started = Instant::now();
                let report = campaign
                    .run(&cache, &Telemetry::disabled())
                    .map_err(|e| e.to_string())?;
                let wall_s = started.elapsed().as_secs_f64();
                drop(dir);
                paper_outcome(&report, wall_s)
            }
            Prepared::Governed {
                jobs,
                instructions,
                par,
            } => run_governed(&jobs, instructions, par),
            Prepared::Grid { server, dir } => {
                let started = Instant::now();
                let run = server.finish()?;
                let wall_s = started.elapsed().as_secs_f64();
                drop(dir);
                grid_outcome(&run, wall_s)
            }
        };
        let usage = sys::process_tree();
        outcome.cpu_s = usage.cpu_s;
        outcome.peak_rss_mb = usage.peak_rss_mb;
        Ok(outcome)
    }
}

fn paper_outcome(report: &CampaignReport, wall_s: f64) -> PassOutcome {
    let unit_s = report
        .cells
        .iter()
        .map(|c| c.elapsed.as_secs_f64())
        .collect();
    let json = report.to_json();
    let mut notes = Vec::new();
    if let Some(results) = report.results() {
        notes.extend(headline(&results));
    }
    PassOutcome {
        wall_s,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        unit_s,
        units: report.cells.len() as u64,
        failed: (report.failed() + report.stalled() + report.skipped()) as u64,
        digest: json
            .as_deref()
            .map(|j| digest(j.as_bytes()))
            .unwrap_or_default(),
        notes,
    }
}

/// The simulated headline beside the paper's values (EXPERIMENTS.md). The
/// model is unvalidated and the numbers are not gated.
fn headline(results: &[&BenchmarkResults]) -> Vec<String> {
    let avg = |f: &dyn Fn(&BenchmarkResults) -> f64| {
        100.0 * mean(&results.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    vec![
        "simulated headline (unvalidated model, not gated): this run vs paper".to_string(),
        format!(
            "  baseline-MCD perf cost      {:>6.1}%   paper < 4%",
            avg(&|r| r.perf_degradation()[0])
        ),
        format!(
            "  dynamic-5% energy savings   {:>6.1}%   paper ~27%",
            avg(&|r| r.energy_savings()[2])
        ),
        format!(
            "  dynamic-5% ED improvement   {:>6.1}%   paper ~20%",
            avg(&|r| r.energy_delay_improvement()[2])
        ),
        format!(
            "  dynamic-1% ED improvement   {:>6.1}%   paper ~13%",
            avg(&|r| r.energy_delay_improvement()[1])
        ),
    ]
}

fn run_governed(jobs: &[GovernedJob], instructions: u64, par: usize) -> PassOutcome {
    let started = Instant::now();
    let runs = parallel_map(jobs.len(), par, |i| {
        let job = &jobs[i];
        let t = Instant::now();
        let json = catch_unwind(AssertUnwindSafe(|| {
            let governor = job.policy.build().ok()?;
            let run = simulate_governed(&job.machine, &job.profile, instructions, governor);
            serde_json::to_string(&run).ok()
        }))
        .ok()
        .flatten();
        (t.elapsed().as_secs_f64(), json)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut unit_s = Vec::new();
    let mut bytes = String::new();
    let mut failed = 0;
    for (secs, json) in runs {
        match json {
            Some(json) => {
                unit_s.push(secs);
                bytes.push_str(&json);
                bytes.push('\n');
            }
            None => failed += 1,
        }
    }
    PassOutcome {
        wall_s,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        unit_s,
        units: jobs.len() as u64,
        failed,
        digest: if failed == 0 {
            digest(bytes.as_bytes())
        } else {
            String::new()
        },
        notes: Vec::new(),
    }
}

fn grid_outcome(run: &GridRun, wall_s: f64) -> PassOutcome {
    let r = &run.rollup;
    let unfinished = r.failed + r.stalled + r.skipped;
    let grid = r.grid.as_ref();
    let notes = vec![format!(
        "grid: {} cells, {} audits, {} reassignments, {:.1} KiB on the wire, cell rtt p95 {:.3}s",
        r.cells,
        grid.map_or(0, |g| g.audits),
        grid.map_or(0, |g| g.reassignments),
        run.wire_kib(),
        grid.map_or(0.0, |g| g.cell_rtt_seconds_p95),
    )];
    PassOutcome {
        wall_s,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        unit_s: r.per_benchmark.iter().map(|b| b.cell_seconds_p50).collect(),
        units: r.cells,
        failed: if run.healthy() {
            unfinished
        } else {
            unfinished.max(1)
        },
        digest: digest(run.report_json.as_bytes()),
        notes,
    }
}

/// The reference digest of a workload's output, computed by a path
/// independent of the one the pass times: `run_benchmark` cell by cell
/// (`paper-cold`), the naive reference interpreter (`governed-kernel`),
/// and an in-process `Campaign::run` of the grid's spec (`grid-loopback`,
/// so a match also proves the transport byte-identical).
pub fn reference_digest(workload: Workload, mix: &Mix, env: &Env) -> Result<String, String> {
    match workload {
        Workload::PaperCold => {
            let cells = mix.spec().expand().map_err(|e| e.to_string())?;
            let results = parallel_map(cells.len(), env.par, |i| {
                let cell = &cells[i];
                let cfg = ExperimentConfig::paper(cell.seed, cell.instructions, cell.model);
                run_benchmark(&cell.profile(), &cfg)
            });
            let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
            Ok(digest(json.as_bytes()))
        }
        Workload::GovernedKernel => {
            let jobs = governed_jobs(mix)?;
            let runs = parallel_map(jobs.len(), env.par, |i| {
                let job = &jobs[i];
                let governor = job.policy.build().expect("registry policies build");
                let run = simulate_reference_governed(
                    &job.machine,
                    &job.profile,
                    mix.instructions,
                    governor,
                );
                serde_json::to_string(&run).expect("JSON writing is infallible")
            });
            let bytes: String = runs.iter().map(|r| format!("{r}\n")).collect();
            Ok(digest(bytes.as_bytes()))
        }
        Workload::GridLoopback => {
            let dir = ScratchDir::new(&env.work, "grid-reference")?;
            let report = local_campaign(&mix.spec(), dir.path(), env.par)?;
            let json = report
                .to_json()
                .ok_or("reference campaign left cells unfinished")?;
            Ok(digest(json.as_bytes()))
        }
    }
}

/// Runs `spec` in-process on `par` workers with a fresh cache and a
/// per-cell fsynced checkpoint under `dir` (the grid coordinator's default
/// cadence), the local twin of a [`GridServer`] run.
pub fn local_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    par: usize,
) -> Result<CampaignReport, String> {
    let cache =
        ResultCache::open(dir.join("cache")).map_err(|e| format!("cannot open cache: {e}"))?;
    Campaign::new(spec.clone())
        .workers(par)
        .checkpoint(dir.join("campaign.checkpoint.json"))
        .run(&cache, &Telemetry::disabled())
        .map_err(|e| e.to_string())
}

/// `f(0..n)` on `par` threads pulling from a shared index; results in
/// index order.
pub fn parallel_map<T: Send>(n: usize, par: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..par.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index ran")
        })
        .collect()
}

fn model_arg(model: DvfsModel) -> &'static str {
    match model {
        DvfsModel::XScale => "xscale",
        DvfsModel::Transmeta => "transmeta",
    }
}

/// A running `mcd-cli grid serve` coordinator and its `mcd-cli grid
/// worker` processes. Dropping it kills and reaps whatever still runs.
pub struct GridServer {
    coordinator: Child,
    workers: Vec<Child>,
    report: Option<JoinHandle<String>>,
    log: Option<JoinHandle<String>>,
    cache_dir: PathBuf,
}

/// What a finished grid campaign left behind.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// The coordinator's `--json` report, trailing newline removed: the
    /// same bytes as `CampaignReport::to_json` of a local run.
    pub report_json: String,
    /// The coordinator's `campaign-rollup.json`.
    pub rollup: CampaignRollup,
    /// Coordinator exit status.
    pub coordinator: ExitStatus,
    /// Worker exit statuses.
    pub workers: Vec<ExitStatus>,
}

impl GridRun {
    /// Whether every process exited cleanly and the rollup reports no
    /// failed, stalled or diverged cells.
    pub fn healthy(&self) -> bool {
        self.coordinator.success()
            && self.workers.iter().all(ExitStatus::success)
            && self.rollup.healthy()
    }

    /// Bytes the coordinator sent and received, KiB.
    pub fn wire_kib(&self) -> f64 {
        self.rollup.grid.as_ref().map_or(0.0, |g| {
            (g.wire_bytes_in + g.wire_bytes_out) as f64 / 1024.0
        })
    }
}

impl GridServer {
    /// Spawns the coordinator on an ephemeral loopback port, waits for its
    /// `listening` line, then spawns `workers` worker processes.
    pub fn start(
        cli: &Path,
        spec: &CampaignSpec,
        dir: &Path,
        workers: usize,
    ) -> Result<GridServer, String> {
        let cache_dir = dir.join("cache");
        let models: Vec<&str> = spec.models.iter().map(|&m| model_arg(m)).collect();
        let seeds: Vec<String> = spec.seeds.iter().map(u64::to_string).collect();
        let mut coordinator = Command::new(cli)
            .args(["grid", "serve", "--listen", "127.0.0.1:0", "--json"])
            .args(["--benchmarks", &spec.benchmarks.join(",")])
            .args(["--seeds", &seeds.join(",")])
            .args(["--instructions", &spec.instructions.to_string()])
            .args(["--models", &models.join(",")])
            .arg("--cache-dir")
            .arg(&cache_dir)
            .arg("--checkpoint")
            .arg(dir.join("campaign.checkpoint.json"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
        let mut stdout = coordinator.stdout.take().expect("stdout piped");
        let report = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            text
        });
        let mut stderr = BufReader::new(coordinator.stderr.take().expect("stderr piped"));
        let mut early = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break None,
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("grid coordinator listening on ") {
                break Some(addr.to_string());
            }
            early.push_str(&line);
        };
        let log = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let mut server = GridServer {
            coordinator,
            workers: Vec::new(),
            report: Some(report),
            log: Some(log),
            cache_dir,
        };
        let Some(addr) = addr else {
            return Err(format!("grid coordinator never listened:\n{early}"));
        };
        for i in 0..workers.max(1) {
            let worker = Command::new(cli)
                .args(["grid", "worker", "--connect", &addr, "--name"])
                .arg(format!("perf-{i}"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
            server.workers.push(worker);
        }
        Ok(server)
    }

    /// Waits for the campaign to finish and every process to exit.
    pub fn finish(mut self) -> Result<GridRun, String> {
        let coordinator = self
            .coordinator
            .wait()
            .map_err(|e| format!("waiting for the coordinator: {e}"))?;
        let report = self.report.take().expect("joined once").join();
        let log = self.log.take().expect("joined once").join();
        if !coordinator.success() {
            // Workers of a dead coordinator would spend their whole
            // reconnect budget before exiting.
            for worker in &mut self.workers {
                let _ = worker.kill();
            }
        }
        let workers = self
            .workers
            .iter_mut()
            .map(|w| w.wait())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("waiting for a worker: {e}"))?;
        self.workers.clear();
        let report_json = report.map_err(|_| "report reader panicked")?;
        let rollup = CampaignRollup::load(&self.cache_dir.join(ROLLUP_FILE)).map_err(|e| {
            format!(
                "no rollup ({e}); coordinator exited {coordinator}:\n{}",
                log.unwrap_or_default()
            )
        })?;
        Ok(GridRun {
            report_json: report_json
                .strip_suffix('\n')
                .unwrap_or(&report_json)
                .to_string(),
            rollup,
            coordinator,
            workers,
        })
    }
}

impl Drop for GridServer {
    fn drop(&mut self) {
        for child in self.workers.iter_mut().chain([&mut self.coordinator]) {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        for handle in [self.report.take(), self.log.take()].into_iter().flatten() {
            let _ = handle.join();
        }
    }
}
