//! Parallel experiment campaign engine for the MCD-DVFS workspace.
//!
//! A *campaign* is a sweep — benchmarks × seeds × DVFS models — expanded
//! into independent cells ([`spec`]). One [`scheduler`] executes every
//! campaign: it probes the cache up front (quarantining corrupt entries),
//! queues the misses, hands them to workers, stores what comes back with
//! exponential backoff on transient IO, and checkpoints progress.
//! [`Campaign::run`] drives it with in-process worker threads; the
//! `mcd-grid` coordinator drives the same scheduler with TCP workers.
//! Each worker computes a cell under the [`supervisor`]: panic retry with
//! deterministic fail-fast ([`retry`]) and watchdog deadlines for hung
//! cells. Results are memoized in a content-addressed result cache
//! ([`cache`]), progress is persisted in a crash-safe checkpoint manifest
//! ([`checkpoint`]), and the run is narrated as JSONL structured telemetry
//! ([`telemetry`]). Deterministic fault injection for all of the above
//! lives in [`chaos`].
//!
//! Determinism is the design invariant: a cell's result depends only on
//! its [`CellSpec`] (the simulator derives all randomness from the spec's
//! seed), results are assembled by cell index rather than completion
//! order, and JSON objects serialize with sorted keys — so a campaign's
//! result bytes are identical for 1, 2 or N workers and identical to the
//! serial driver ([`mcd_core::run_benchmark`]) run cell by cell. That
//! invariant is also what makes the cache sound (a key collision can only
//! come from identical inputs, which produce identical results) and what
//! makes recovery sound: a campaign interrupted and resumed produces the
//! same bytes as one that never failed.
//!
//! ```no_run
//! use mcd_harness::{CampaignSpec, Campaign, ResultCache, Telemetry};
//! use mcd_time::DvfsModel;
//!
//! let spec = CampaignSpec::paper(5, 240_000, DvfsModel::XScale);
//! let cache = ResultCache::open("target/mcd-campaign-cache").unwrap();
//! let report = Campaign::new(spec).workers(4).run(&cache, &Telemetry::stderr()).unwrap();
//! println!("{} computed, {} cached", report.computed(), report.cached());
//! ```

pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod durable;
pub mod error;
pub mod retry;
pub mod rollup;
pub mod scheduler;
pub mod slack;
pub mod spec;
pub mod supervisor;
pub mod telemetry;

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcd_core::BenchmarkResults;

pub use cache::{
    CacheKey, CacheProbe, ResultCache, ScrubFinding, ScrubReport, SpotCheck, CACHE_FORMAT_VERSION,
    QUARANTINE_DIR, SPOT_CHECK_LIMIT,
};
pub use chaos::{Fault, FaultPlan};
pub use checkpoint::{spec_digest, CheckpointManifest, CHECKPOINT_SCHEMA};
pub use durable::{sweep_stale_tmp, write_atomic_durable};
pub use error::{CacheOp, CorruptKind, HarnessError};
pub use retry::{CellFailure, RetryPolicy};
pub use rollup::{
    BenchmarkRollup, CampaignRollup, GridRollup, StallCauseCount, WorkerRollup, ROLLUP_FILE,
    ROLLUP_SCHEMA,
};
pub use scheduler::{NextStep, Role, Scheduler};
pub use slack::{SlackCacheStats, SlackDiskCache, SLACK_CACHE_DIR};
pub use spec::{parse_model, CampaignSpec, CellSpec, SpecError};
pub use supervisor::BackoffPolicy;
pub use telemetry::{CellSource, Telemetry};

/// How one cell of a finished campaign was produced.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Result served from the cache.
    Cached(BenchmarkResults),
    /// Result computed this run (with the attempt count that succeeded).
    Computed {
        /// The computed result.
        result: BenchmarkResults,
        /// 1 = first try.
        attempts: u32,
    },
    /// All attempts panicked.
    Failed(CellFailure),
    /// The cell blew its watchdog deadline and was abandoned.
    Stalled {
        /// How long the supervisor waited before giving up.
        waited: Duration,
    },
    /// The campaign was interrupted before any worker claimed this cell.
    Skipped,
}

impl CellOutcome {
    /// The result, unless the cell failed, stalled, or was skipped.
    pub fn result(&self) -> Option<&BenchmarkResults> {
        match self {
            CellOutcome::Cached(r) | CellOutcome::Computed { result: r, .. } => Some(r),
            CellOutcome::Failed(_) | CellOutcome::Stalled { .. } | CellOutcome::Skipped => None,
        }
    }
}

/// Wall time a computed cell spent in each §3.2 pipeline phase, collected
/// from the driver's `phase:` observer labels. Cached cells report zero
/// (nothing ran); the four spans do not sum to the cell's `elapsed` —
/// metrics assembly and supervision overhead sit outside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellPhases {
    /// Full-speed traced run feeding the off-line analysis.
    pub trace_run: Duration,
    /// DAG construction + shaker slack analysis (both dilation targets).
    pub slack: Duration,
    /// Greedy clustering of per-domain histograms into schedules.
    pub cluster: Duration,
    /// Every dynamic-run simulation (schedule refinement, probes, the
    /// global-frequency search, and the five configuration runs).
    pub simulate: Duration,
}

impl CellPhases {
    /// Accumulates a `phase:`-labelled observer span into the matching
    /// field; returns `false` (and does nothing) for any other label.
    pub fn record(&mut self, stage: &str, span: Duration) -> bool {
        let slot = match stage {
            "phase:trace-run" => &mut self.trace_run,
            "phase:slack" => &mut self.slack,
            "phase:cluster" => &mut self.cluster,
            "phase:simulate" => &mut self.simulate,
            _ => return false,
        };
        *slot += span;
        true
    }
}

/// One cell's record in a [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's parameters.
    pub cell: CellSpec,
    /// Its content-addressed cache key.
    pub key: CacheKey,
    /// What happened.
    pub outcome: CellOutcome,
    /// Wall time spent on this cell: from assignment to a worker until
    /// the outcome was recorded (store included, queue wait excluded), or
    /// the cache probe for a hit.
    pub elapsed: Duration,
    /// Pipeline-phase breakdown (zero unless the cell was computed
    /// in-process this run).
    pub phases: CellPhases,
}

/// Everything a finished campaign produced, in cell (spec-expansion) order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-cell records, in the order [`CampaignSpec::expand`] produced.
    pub cells: Vec<CellReport>,
    /// Total wall time.
    pub wall: Duration,
    /// Whether the campaign was interrupted (SIGINT or an injected fault)
    /// and drained instead of finishing. An interrupted campaign with a
    /// checkpoint can be resumed.
    pub interrupted: bool,
}

impl CampaignReport {
    fn count(&self, pred: impl Fn(&CellOutcome) -> bool) -> usize {
        self.cells.iter().filter(|c| pred(&c.outcome)).count()
    }

    /// Number of cells served from the cache.
    pub fn cached(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Cached(_)))
    }

    /// Number of cells computed this run.
    pub fn computed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Computed { .. }))
    }

    /// Number of cells that failed all attempts.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Failed(_)))
    }

    /// Number of cells abandoned past their watchdog deadline.
    pub fn stalled(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Stalled { .. }))
    }

    /// Number of cells skipped because the campaign was interrupted.
    pub fn skipped(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Skipped))
    }

    /// All results in cell order, or `None` if any cell is unfinished.
    pub fn results(&self) -> Option<Vec<&BenchmarkResults>> {
        self.cells.iter().map(|c| c.outcome.result()).collect()
    }

    /// The campaign's canonical result document: the JSON array of results
    /// in cell order. This is the byte-stable artifact — identical across
    /// worker counts, cache states, and interrupt/resume histories. `None`
    /// if any cell is unfinished.
    pub fn to_json(&self) -> Option<String> {
        let results: Vec<BenchmarkResults> = self
            .cells
            .iter()
            .map(|c| c.outcome.result().cloned())
            .collect::<Option<Vec<_>>>()?;
        Some(serde_json::to_string_pretty(&results).expect("JSON writing is infallible"))
    }
}

/// A configured, ready-to-run campaign. [`Campaign::run`] serves it to
/// in-process worker threads; `mcd_grid::GridServer` serves the same
/// campaign to TCP workers.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) spec: CampaignSpec,
    workers: usize,
    pub(crate) retry: RetryPolicy,
    pub(crate) backoff: BackoffPolicy,
    pub(crate) deadline: Option<Duration>,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) checkpoint_every: usize,
    pub(crate) chaos: Arc<FaultPlan>,
    pub(crate) interrupt: Option<Arc<AtomicBool>>,
    pub(crate) analysis_threads: usize,
}

impl Campaign {
    /// A campaign over `spec` with default worker count (one per core),
    /// retry and backoff policies, no deadline, and no checkpoint.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            workers: 0,
            retry: RetryPolicy::default(),
            backoff: BackoffPolicy::default(),
            deadline: None,
            checkpoint: None,
            checkpoint_every: 1,
            chaos: Arc::new(FaultPlan::none()),
            interrupt: None,
            analysis_threads: 1,
        }
    }

    /// Rebuilds a campaign from a checkpoint manifest: the spec is embedded
    /// in the manifest, and the returned campaign persists its progress
    /// back to the same path. Completed cells are re-verified against the
    /// result cache when the campaign runs — the manifest says where to
    /// look first, the cache is the source of truth for bytes.
    pub fn from_checkpoint(path: &Path) -> Result<Campaign, HarnessError> {
        let manifest = CheckpointManifest::load(path)?;
        Ok(Campaign::new(manifest.spec().clone()).checkpoint(path))
    }

    /// Sets the in-process worker count (`0` = one per available core).
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Sets the panic retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Campaign {
        self.retry = retry;
        self
    }

    /// Sets the backoff policy for transient cache IO failures.
    pub fn backoff(mut self, backoff: BackoffPolicy) -> Campaign {
        self.backoff = backoff;
        self
    }

    /// Sets a per-attempt watchdog deadline: a cell attempt that runs
    /// longer is abandoned and reported as [`CellOutcome::Stalled`]
    /// (instead of hanging its worker forever).
    pub fn deadline(mut self, deadline: Duration) -> Campaign {
        self.deadline = Some(deadline);
        self
    }

    /// Persists progress to a checkpoint manifest at `path` (rewritten
    /// atomically after every completed cell, or every N with
    /// [`Campaign::checkpoint_every`]). If the file already exists it is
    /// loaded and verified against this campaign's spec, so a restarted
    /// run continues where the last one stopped.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets the checkpoint cadence: persist the manifest every `every`
    /// completed cells instead of every cell (0 is clamped to 1). A
    /// SIGKILLed campaign then re-verifies at most `every` cells against
    /// the cache on resume — results are never lost (the cache stores
    /// per cell regardless), only done-marks.
    pub fn checkpoint_every(mut self, every: usize) -> Campaign {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Sets the off-line analysis fan-out inside each cell (`1` = serial,
    /// `0` = one thread per core). Results-neutral: any value produces
    /// byte-identical cell results — this only trades cell latency against
    /// cross-cell parallelism when workers already saturate the cores.
    pub fn analysis_threads(mut self, threads: usize) -> Campaign {
        self.analysis_threads = threads;
        self
    }

    /// Installs a deterministic fault plan (chaos testing only).
    pub fn chaos(mut self, plan: FaultPlan) -> Campaign {
        self.chaos = Arc::new(plan);
        self
    }

    /// Installs an external interrupt flag (e.g. raised by a SIGINT
    /// handler). When it becomes `true`, workers finish their in-flight
    /// cells, skip everything unclaimed, and the campaign returns a
    /// resumable report instead of aborting. An injected
    /// [`Fault::InterruptAfter`] raises the same flag.
    pub fn interrupt(mut self, flag: Arc<AtomicBool>) -> Campaign {
        self.interrupt = Some(flag);
        self
    }

    /// The spec this campaign will run.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Runs the campaign in-process: the [`Scheduler`] probes the cache
    /// and queues the misses, `min(workers, misses)` threads compute them
    /// under supervision, and the report lists per-cell outcomes in
    /// spec-expansion order.
    pub fn run(
        &self,
        cache: &ResultCache,
        telemetry: &Telemetry,
    ) -> Result<CampaignReport, HarnessError> {
        self.run_with(cache, telemetry, &|scheduler, i| scheduler.compute(i))
    }

    /// [`Campaign::run`] with the workers' compute step supplied.
    fn run_with(
        &self,
        cache: &ResultCache,
        telemetry: &Telemetry,
        compute: &scheduler::ComputeStep,
    ) -> Result<CampaignReport, HarnessError> {
        let workers = scheduler::resolve_workers(self.workers);
        let scheduler = Scheduler::start(self, cache, telemetry, workers, 0)?;
        let threads = workers.min(scheduler.queued());
        thread::scope(|scope| {
            for worker in 1..=threads as u64 {
                let scheduler = &scheduler;
                scope.spawn(move || scheduler.work(worker, compute));
            }
        });
        Ok(scheduler.finish(false))
    }

    /// Expands the spec and probes the cache without running anything:
    /// `(cell, key, cached?)` per cell, for `campaign status`.
    pub fn status(
        &self,
        cache: &ResultCache,
    ) -> Result<Vec<(CellSpec, CacheKey, bool)>, SpecError> {
        Ok(self
            .spec
            .expand()?
            .into_iter()
            .map(|cell| {
                let key = CacheKey::of(&cell);
                let cached = cache.contains(&key);
                (cell, key, cached)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_time::DvfsModel;
    use std::path::PathBuf;

    fn scratch_cache(tag: &str) -> (ResultCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mcd-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).expect("create cache"), dir)
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec!["adpcm".into(), "mst".into(), "gcc".into()],
            seeds: vec![5],
            instructions: 4_000,
            models: vec![DvfsModel::XScale],
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    #[test]
    fn second_run_is_fully_cached_and_byte_identical() {
        let (cache, dir) = scratch_cache("rerun");
        let campaign = Campaign::new(tiny_spec()).workers(2);

        let first = campaign
            .run(&cache, &Telemetry::disabled())
            .expect("first run");
        assert_eq!(first.computed(), 3);
        assert_eq!(first.cached(), 0);
        assert_eq!(first.failed(), 0);
        assert!(!first.interrupted);

        let second = campaign
            .run(&cache, &Telemetry::disabled())
            .expect("second run");
        assert_eq!(
            second.computed(),
            0,
            "unchanged campaign must recompute nothing"
        );
        assert_eq!(second.cached(), 3);
        assert_eq!(first.to_json(), second.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_matches_serial_driver_per_cell() {
        let (cache, dir) = scratch_cache("serial");
        let spec = tiny_spec();
        let report = Campaign::new(spec.clone())
            .workers(2)
            .run(&cache, &Telemetry::disabled())
            .unwrap();
        for (cell, record) in spec.expand().unwrap().iter().zip(&report.cells) {
            let serial = cell.run();
            let parallel = record.outcome.result().expect("cell succeeded");
            assert_eq!(
                serde_json::to_string(parallel).unwrap(),
                serde_json::to_string(&serial).unwrap(),
                "cell {} differs from the serial driver",
                cell.label()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_reflects_cache_population() {
        let (cache, dir) = scratch_cache("status");
        let campaign = Campaign::new(tiny_spec());
        let before = campaign.status(&cache).unwrap();
        assert!(before.iter().all(|(_, _, cached)| !cached));

        campaign.run(&cache, &Telemetry::disabled()).unwrap();
        let after = campaign.status(&cache).unwrap();
        assert!(after.iter().all(|(_, _, cached)| *cached));
        assert_eq!(after.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_records_every_cell_and_resumes_complete() {
        let (cache, dir) = scratch_cache("ckpt");
        let ckpt = dir.join("campaign.checkpoint.json");
        let campaign = Campaign::new(tiny_spec()).workers(2).checkpoint(&ckpt);
        let report = campaign.run(&cache, &Telemetry::disabled()).expect("run");
        assert_eq!(report.computed(), 3);

        let manifest = CheckpointManifest::load(&ckpt).expect("manifest written");
        assert!(manifest.is_complete());
        assert_eq!(manifest.total(), 3);

        // Rebuilding from the manifest alone reproduces the same bytes,
        // fully from cache.
        let resumed = Campaign::from_checkpoint(&ckpt)
            .expect("manifest round-trips")
            .run(&cache, &Telemetry::disabled())
            .expect("resume");
        assert_eq!(resumed.cached(), 3);
        assert_eq!(resumed.to_json(), report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_checkpoint_cadence_still_finishes_exact() {
        let (cache, dir) = scratch_cache("ckpt-cadence");
        let ckpt = dir.join("campaign.checkpoint.json");
        // Cadence far above the cell count: only the initial save and the
        // final flush ever write, and the manifest must still end complete.
        let report = Campaign::new(tiny_spec())
            .workers(2)
            .checkpoint(&ckpt)
            .checkpoint_every(100)
            .run(&cache, &Telemetry::disabled())
            .expect("run");
        assert_eq!(report.computed(), 3);
        let manifest = CheckpointManifest::load(&ckpt).expect("manifest written");
        assert!(manifest.is_complete());

        // Resume under the same cadence is a no-op rerun from cache.
        let resumed = Campaign::from_checkpoint(&ckpt)
            .expect("manifest round-trips")
            .checkpoint_every(100)
            .run(&cache, &Telemetry::disabled())
            .expect("resume");
        assert_eq!(resumed.cached(), 3);
        assert_eq!(resumed.to_json(), report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_campaign_saves_a_manifest_before_any_work() {
        let (cache, dir) = scratch_cache("ckpt-initial");
        let ckpt = dir.join("campaign.checkpoint.json");
        // Interrupt immediately: no cell ever completes, yet the manifest
        // must already be on disk and resumable.
        let stop = Arc::new(AtomicBool::new(true));
        let report = Campaign::new(tiny_spec())
            .checkpoint(&ckpt)
            .checkpoint_every(50)
            .interrupt(Arc::clone(&stop))
            .run(&cache, &Telemetry::disabled())
            .expect("run");
        assert!(report.interrupted);
        assert_eq!(report.skipped(), 3);
        let manifest = CheckpointManifest::load(&ckpt).expect("initial manifest exists");
        assert_eq!(manifest.completed().len(), 0);
        assert_eq!(manifest.total(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_escaping_the_compute_step_fails_only_its_own_cell() {
        let (cache, dir) = scratch_cache("escaped-panic");
        let telemetry_log = dir.join("telemetry.jsonl");
        // The fake step panics outside the supervised attempt for cell 1
        // and computes every other cell normally.
        let report = Campaign::new(tiny_spec())
            .workers(2)
            .run_with(
                &cache,
                &Telemetry::to_file(&telemetry_log).unwrap(),
                &|scheduler, i| {
                    if i == 1 {
                        panic!("escaped the supervisor");
                    }
                    scheduler.compute(i)
                },
            )
            .expect("the campaign completes");
        assert!(!report.interrupted);
        assert_eq!(report.computed(), 2, "siblings are unaffected");
        let CellOutcome::Failed(failure) = &report.cells[1].outcome else {
            panic!("cell 1 must fail, got {:?}", report.cells[1].outcome);
        };
        assert_eq!(failure.message, "escaped the supervisor");
        assert!(!failure.deterministic, "nothing was retried");
        let (events, _) = telemetry::replay(&telemetry_log).unwrap();
        let failed: Vec<_> = events
            .iter()
            .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("cell_failed"))
            .collect();
        assert_eq!(failed.len(), 1, "the escaped panic is narrated once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_telemetry_narrates_each_cell_once_without_grid_events() {
        let (cache, dir) = scratch_cache("narration");
        let campaign = Campaign::new(tiny_spec()).workers(2);
        let cold = dir.join("cold.jsonl");
        let hot = dir.join("hot.jsonl");
        campaign
            .run(&cache, &Telemetry::to_file(&cold).unwrap())
            .unwrap();
        let rerun = campaign
            .run(&cache, &Telemetry::to_file(&hot).unwrap())
            .unwrap();
        assert_eq!(rerun.cached(), 3);
        for log in [cold, hot] {
            let (events, _) = telemetry::replay(&log).unwrap();
            let count = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some(name))
                    .count()
            };
            assert_eq!(count("cell_started"), 3, "{}", log.display());
            assert_eq!(count("cell_finished"), 3, "{}", log.display());
            assert!(
                events.iter().all(|e| !e
                    .get("event")
                    .and_then(|v| v.as_str())
                    .is_some_and(|name| name.starts_with("grid_"))),
                "a local stream carries no grid events"
            );
        }
        let rollup = CampaignRollup::load(&cache.dir().join(ROLLUP_FILE)).unwrap();
        assert!(rollup.grid.is_none(), "local rollups carry no grid section");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_for_a_different_spec_is_refused() {
        let (cache, dir) = scratch_cache("ckpt-mismatch");
        let ckpt = dir.join("campaign.checkpoint.json");
        Campaign::new(tiny_spec())
            .checkpoint(&ckpt)
            .run(&cache, &Telemetry::disabled())
            .expect("seed the checkpoint");

        let mut other = tiny_spec();
        other.seeds = vec![6];
        let err = Campaign::new(other)
            .checkpoint(&ckpt)
            .run(&cache, &Telemetry::disabled())
            .expect_err("mismatched spec must refuse to resume");
        assert!(matches!(err, HarnessError::CheckpointMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
