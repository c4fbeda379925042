//! Parallel experiment campaign engine for the MCD-DVFS workspace.
//!
//! A *campaign* is a sweep — benchmarks × seeds × DVFS models — expanded
//! into independent cells ([`spec`]). One [`scheduler`] executes every
//! campaign: it probes the cache up front (quarantining corrupt entries),
//! queues the misses, hands them to workers, and stores what comes back
//! with exponential backoff on transient IO.
//! [`Campaign::run`] drives it with in-process worker threads; the
//! `mcd-grid` coordinator drives the same scheduler with TCP workers.
//! Each worker computes a cell under the [`supervisor`]: panic retry with
//! deterministic fail-fast ([`retry`]) and watchdog deadlines for hung
//! cells. Results are memoized in a content-addressed result cache
//! ([`cache`]), which is also the only record of progress; a crash-safe
//! checkpoint manifest ([`checkpoint`]) holds the spec a resume rebuilds
//! the campaign from, and the run is narrated as JSONL structured telemetry
//! ([`telemetry`]) — the only record of each computed cell's configuration
//! and phase spans (`cell_stage` events). Every file the harness publishes
//! goes through [`durable`]'s atomic writes. Deterministic fault injection
//! for all of the above lives in [`chaos`].
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
    pub(crate) chaos: Arc<FaultPlan>,
    pub(crate) interrupt: Option<Arc<AtomicBool>>,
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
            chaos: Arc::new(FaultPlan::none()),
            interrupt: None,
        }
    }

    /// Rebuilds a campaign from a checkpoint manifest: the spec is embedded
    /// in the manifest, and the returned campaign checkpoints back to the
    /// same path. Which cells are done is decided by probing the result
    /// cache when the campaign runs; the manifest's done-marks are not
    /// read.
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

    /// Keeps a checkpoint manifest at `path` so the campaign can be
    /// resumed with [`Campaign::from_checkpoint`]. If the file already
    /// exists it is loaded and verified against this campaign's spec;
    /// otherwise it is saved durably before any work. The campaign's end
    /// rewrites it once with the cells that hold a result marked done.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.checkpoint = Some(path.into());
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
    /// `(cell, key, cached?)` per cell, for `campaign run --dry-run`.
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
    fn resume_reads_progress_from_the_cache_not_the_manifest() {
        let (cache, dir) = scratch_cache("ckpt-marks");
        let ckpt = dir.join("campaign.checkpoint.json");
        let total = tiny_spec().expand().unwrap().len();

        // Every cell marked done over an empty cache: every cell computes.
        let mut claims_all = CheckpointManifest::new(tiny_spec(), total);
        for i in 0..total {
            claims_all.mark_done(i);
        }
        claims_all.save(&ckpt).unwrap();
        let cold = Campaign::from_checkpoint(&ckpt)
            .unwrap()
            .workers(2)
            .run(&cache, &Telemetry::disabled())
            .unwrap();
        assert_eq!(cold.computed(), total);

        // No cell marked done over the full cache: nothing computes.
        CheckpointManifest::new(tiny_spec(), total)
            .save(&ckpt)
            .unwrap();
        let hot = Campaign::from_checkpoint(&ckpt)
            .unwrap()
            .run(&cache, &Telemetry::disabled())
            .unwrap();
        assert_eq!((hot.computed(), hot.cached()), (0, total));
        assert!(hot.to_json().is_some());
        assert_eq!(hot.to_json(), cold.to_json());
        assert!(CheckpointManifest::load(&ckpt).unwrap().is_complete());
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

    /// A telemetry sink the test can read back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn computed_cell_narrates_every_stage_and_phase_span_inline_and_watched() {
        let mut spec = tiny_spec();
        spec.benchmarks.truncate(1);
        let mut expected: Vec<String> = mcd_core::ScenarioSpec::PAPER
            .iter()
            .map(|s| s.label())
            .collect();
        for phase in ["trace-run", "slack", "cluster", "simulate"] {
            expected.push(format!("phase:{phase}"));
        }
        // Without a deadline the attempt runs inline; with one it runs on a
        // watchdog thread that sends its spans over a channel.
        for deadline in [None, Some(Duration::from_secs(600))] {
            let (cache, dir) = scratch_cache(&format!("stages-{}", deadline.is_some()));
            let mut campaign = Campaign::new(spec.clone()).workers(1);
            if let Some(d) = deadline {
                campaign = campaign.deadline(d);
            }
            let buf = SharedBuf::default();
            let report = campaign
                .run(&cache, &Telemetry::to_writer(Box::new(buf.clone())))
                .unwrap();
            assert_eq!(report.computed(), 1);
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let stages: Vec<String> = text
                .lines()
                .map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap())
                .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("cell_stage"))
                .map(|e| {
                    let cell = e.get("cell").and_then(|v| v.as_number());
                    assert_eq!(cell.and_then(|n| n.as_u64()), Some(0));
                    e.get("stage").and_then(|v| v.as_str()).unwrap().to_string()
                })
                .collect();
            assert_eq!(stages, expected, "deadline {deadline:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
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
