//! The campaign scheduler: the one executor behind every campaign.
//!
//! A [`Scheduler`] owns a running campaign. [`Scheduler::start`] expands
//! the spec, spot-checks the cache, verifies (or creates) the checkpoint
//! manifest, and probes every cell serially — hits resolve at once,
//! corrupt entries are quarantined, misses queue up in cell order. The
//! result cache is the only progress record: a resume computes exactly
//! the misses this probe finds. Workers then ask for cells
//! ([`Scheduler::next_step`]) and hand back outcomes
//! ([`Scheduler::record`]), which the scheduler stores and slots by cell
//! index; [`Scheduler::finish`] assembles the report in spec-expansion
//! order and saves the manifest and the rollup. Two transports do the asking:
//! [`Campaign::run`] spawns in-process threads that call the scheduler
//! directly, and the `mcd-grid` coordinator turns TCP frames into the same
//! calls. Which worker computed which cell, and how many there were, is
//! unobservable in the result bytes.
//!
//! ## Audits, arbitration, quarantine
//!
//! Its caller may pass an audit rate. A deterministic, spec-digest-seeded
//! ~1-in-rate subset of worker-computed cells is then redundantly
//! assigned to a second worker, and the two canonical result JSON
//! documents are byte-compared. On a match the cell (and, transitively,
//! the primary worker's honesty) is *verified*. On a mismatch the
//! scheduler recomputes the cell itself — the simulator is deterministic,
//! so its result is ground truth — and whichever side the arbiter
//! contradicts is **quarantined**: the worker is rejected at its next
//! scheduling step, its poisoned cache entries move to `quarantine/`, and
//! every still-unverified cell it computed goes back on the front of the
//! queue. Audits ride the ordinary assignment path, so a lying worker
//! cannot tell an audit from a first assignment. Because quarantine
//! rewinds every tainted cell before the campaign can finish, the final
//! report stays byte-identical to a serial run. Only the TCP transport audits:
//! in-process workers run the arbiter's own code in the arbiter's own
//! process, so a second opinion would only repeat the computation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use mcd_core::{BenchmarkResults, RunOptions};

use crate::cache::{CacheKey, CacheProbe, ResultCache, SpotCheck, SPOT_CHECK_LIMIT};
use crate::chaos::FaultPlan;
use crate::checkpoint::{spec_digest, CheckpointManifest};
use crate::error::HarnessError;
use crate::retry::{payload_text, CellFailure};
use crate::rollup::{percentile, CampaignRollup, GridRollup, WorkerRollup, ROLLUP_FILE};
use crate::slack::{SlackDiskCache, SLACK_CACHE_DIR};
use crate::spec::CellSpec;
use crate::supervisor::{
    backoff_delay, compute_cell, compute_narrated, ComputeContext, BACKOFF_ATTEMPTS,
};
use crate::telemetry::{CellSource, Telemetry};
use crate::{Campaign, CampaignReport, CellOutcome, CellReport};

/// Worker id the rollup and telemetry use for the scheduler itself when
/// it audits a cell locally (real workers start at 1).
const ARBITER_ID: u64 = 0;

/// Resolves a requested worker count: `0` means "one per available core".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Whether a worker was assigned a cell as its primary computation or as
/// a redundant audit of someone else's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The cell's first computation.
    Primary,
    /// A second opinion on another worker's result.
    Audit,
}

/// What a worker should do after asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextStep {
    /// Compute this cell in this role, then [`Scheduler::record`] it.
    Assign(usize, Role),
    /// The campaign is draining (interrupted): stop asking.
    Drain,
    /// Every cell is resolved and settled: stop asking.
    Shutdown,
    /// This worker was caught lying: its session ends.
    Quarantined,
}

/// One pending redundant assignment: a cell computed by `primary` that
/// awaits a second opinion.
struct AuditTask {
    /// Worker whose result is under audit.
    primary: u64,
    /// Canonical compact JSON of the primary's result — the bytes the
    /// second opinion must reproduce exactly.
    json: String,
    /// Whether some auditor currently holds this task.
    assigned: bool,
}

/// A resolved cell: its outcome and assignment→record time.
type Slot = (CellOutcome, Duration);

/// Everything the scheduler mutates, under one lock.
struct State {
    /// Cell indices waiting for a worker, front = next to assign.
    queue: VecDeque<usize>,
    /// Assignments handed out and not yet recorded or evicted.
    in_flight: usize,
    /// Outcome slot per cell, filled once (a quarantine can empty it).
    slots: Vec<Option<Slot>>,
    /// How many slots are filled.
    resolved: usize,
    /// Pending audits, keyed by cell index.
    audits: BTreeMap<usize, AuditTask>,
    /// Audit results currently being settled (compared / arbitrated).
    /// The campaign cannot complete while any settlement is in progress:
    /// a divergence may rewind resolved cells.
    settling: usize,
    /// Cells each worker computed that no audit has verified yet.
    unverified: BTreeMap<u64, Vec<usize>>,
    /// Workers caught lying; rejected on their next scheduling step.
    quarantined: BTreeSet<u64>,
    /// Drain flag: stop assigning, let in-flight cells finish.
    stop: bool,
    /// Next remote worker id to hand out.
    next_worker: u64,
    /// Per-worker attribution rows plus their round-trip samples (s).
    workers: BTreeMap<u64, (WorkerRollup, Vec<f64>)>,
    /// Audits the scheduler settled itself (local arbiter fallback).
    local_audits: u64,
}

impl State {
    /// Every cell resolved and no audit left that could rewind one.
    fn finished(&self) -> bool {
        self.resolved == self.slots.len() && self.audits.is_empty() && self.settling == 0
    }

    /// The (possibly new) attribution row of `worker`.
    fn row(&mut self, worker: u64) -> &mut (WorkerRollup, Vec<f64>) {
        self.workers.entry(worker).or_insert_with(|| {
            let row = WorkerRollup {
                worker,
                ..WorkerRollup::default()
            };
            (row, Vec::new())
        })
    }

    /// Folds the attribution rows into the rollup shape, in worker order.
    fn grid_rollup(&self) -> GridRollup {
        let sorted = |mut samples: Vec<f64>| {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            samples
        };
        let workers: Vec<WorkerRollup> = self
            .workers
            .values()
            .map(|(row, rtts)| WorkerRollup {
                cell_rtt_seconds_p95: percentile(&sorted(rtts.clone()), 0.95),
                ..row.clone()
            })
            .collect();
        let all = sorted(self.workers.values().flat_map(|(_, r)| r.clone()).collect());
        GridRollup {
            reassignments: workers.iter().map(|w| w.reassignments).sum(),
            audits: workers.iter().map(|w| w.audits).sum::<u64>() + self.local_audits,
            divergences: workers.iter().map(|w| w.divergences).sum(),
            quarantined_workers: workers.iter().filter(|w| w.quarantined).count() as u64,
            wire_bytes_in: workers.iter().map(|w| w.wire_bytes_in).sum(),
            wire_bytes_out: workers.iter().map(|w| w.wire_bytes_out).sum(),
            cell_rtt_seconds_p95: percentile(&all, 0.95),
            workers,
        }
    }
}

/// A running campaign: cells, cache and the assignment state its workers
/// share. See the [module docs](self).
pub struct Scheduler<'a> {
    campaign: &'a Campaign,
    cache: &'a ResultCache,
    telemetry: &'a Telemetry,
    cells: Vec<CellSpec>,
    keys: Vec<CacheKey>,
    /// Results-neutral execution options for cells computed here.
    options: RunOptions,
    slack: Option<Arc<SlackDiskCache>>,
    spot: SpotCheck,
    digest: String,
    /// Seed for the deterministic audit sample, derived from the digest.
    audit_seed: u64,
    audit_rate: u64,
    started: Instant,
    state: Mutex<State>,
    cv: Condvar,
}

impl<'a> Scheduler<'a> {
    /// Starts `campaign` against `cache`: expands it, spot-checks the
    /// cache, verifies its checkpoint manifest against the spec (or
    /// creates one and saves it before any work), then probes every cell.
    /// `workers` is only narrated. `audit_rate` sends roughly one in that
    /// many worker-computed cells to a second worker (`0` = never, `1` =
    /// all); the sample is a pure function of the spec digest.
    pub fn start(
        campaign: &'a Campaign,
        cache: &'a ResultCache,
        telemetry: &'a Telemetry,
        workers: usize,
        audit_rate: u64,
    ) -> Result<Scheduler<'a>, HarnessError> {
        let started = Instant::now();
        let cells = campaign.spec.expand()?;
        let keys: Vec<CacheKey> = cells.iter().map(CacheKey::of).collect();

        // Fast integrity sample before trusting the cache (a full walk is
        // `mcd-cli cache verify`); the probe below quarantines what it finds.
        let spot = cache.spot_check(SPOT_CHECK_LIMIT);
        if spot.checked > 0 {
            telemetry.cache_spot_check(spot.checked, spot.corrupt);
        }

        // Resume reads only the spec, its digest and the cell total from
        // the manifest; the probe below finds which cells are done.
        match &campaign.checkpoint {
            Some(path) if path.exists() => {
                let m = CheckpointManifest::load(path)?;
                m.verify_spec(&campaign.spec)?;
                if m.total() != cells.len() {
                    return Err(HarnessError::CheckpointInvalid {
                        path: path.clone(),
                        reason: format!(
                            "manifest records {} cells, campaign expands to {}",
                            m.total(),
                            cells.len()
                        ),
                    });
                }
            }
            // Persist the manifest before any work: a campaign killed
            // during its very first cells still leaves a resumable file.
            Some(path) => CheckpointManifest::new(campaign.spec.clone(), cells.len()).save(path)?,
            None => {}
        }
        telemetry.campaign_started(cells.len(), workers);

        // Slack profiles are results-neutral and expensive, so campaigns
        // always share them across processes through a content-addressed
        // store beside the result cache. Best-effort: a cache directory
        // that cannot be created just means recomputing slack.
        let slack = SlackDiskCache::open(cache.dir().join(SLACK_CACHE_DIR))
            .ok()
            .map(Arc::new);
        let options = RunOptions {
            slack_store: slack
                .as_ref()
                .map(|s| Arc::clone(s) as Arc<dyn mcd_core::SlackStore>),
        };
        let digest = spec_digest(&campaign.spec);
        let scheduler = Scheduler {
            campaign,
            cache,
            telemetry,
            options,
            slack,
            spot,
            audit_seed: u64::from_str_radix(digest.get(..16).unwrap_or(""), 16).unwrap_or(0),
            digest,
            audit_rate,
            started,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: 0,
                slots: vec![None; cells.len()],
                resolved: 0,
                audits: BTreeMap::new(),
                settling: 0,
                unverified: BTreeMap::new(),
                quarantined: BTreeSet::new(),
                stop: false,
                next_worker: 1,
                workers: BTreeMap::new(),
                local_audits: 0,
            }),
            cv: Condvar::new(),
            cells,
            keys,
        };
        scheduler.probe();
        Ok(scheduler)
    }

    /// Serial upfront probe: hits resolve, corrupt entries are quarantined
    /// as evidence and recomputed, misses form the assignment queue in cell
    /// order. Only hits are narrated here; the worker that computes a miss
    /// narrates it.
    fn probe(&self) {
        for (i, key) in self.keys.iter().enumerate() {
            let probe_start = Instant::now();
            match self.cache.probe(key) {
                CacheProbe::Hit(result) => {
                    let elapsed = probe_start.elapsed();
                    self.telemetry.cell_started(i, &self.cells[i]);
                    self.telemetry.cell_finished(i, CellSource::Cached, elapsed);
                    let mut st = self.lock();
                    st.slots[i] = Some((CellOutcome::Cached(result), elapsed));
                    st.resolved += 1;
                }
                CacheProbe::Corrupt(kind) => {
                    // If the move itself fails, the recomputation's store
                    // still overwrites the bad entry atomically.
                    let _ = self.cache.quarantine(key);
                    self.telemetry.cache_quarantined(i, key.hex(), kind);
                    self.lock().queue.push_back(i);
                }
                CacheProbe::Miss => self.lock().queue.push_back(i),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler state")
    }

    /// The telemetry sink the campaign narrates to.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// The spec of cell `i`.
    pub fn cell(&self, i: usize) -> &CellSpec {
        &self.cells[i]
    }

    /// How many cells the campaign expanded to.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The campaign's spec digest (as the checkpoint manifest records it).
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Raises the drain once the campaign's interrupt flag is up.
    fn observe_interrupt(&self, st: &mut State) {
        let raised = self.campaign.interrupt.as_ref();
        if !st.stop && raised.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            st.stop = true;
            self.cv.notify_all();
        }
    }

    /// Blocks until there is work for `worker` — a queued cell, or an audit
    /// of *someone else's* result — or the campaign drains, completes, or
    /// turns out to have quarantined this worker.
    pub fn next_step(&self, worker: u64) -> NextStep {
        let mut st = self.lock();
        loop {
            if st.quarantined.contains(&worker) {
                return NextStep::Quarantined;
            }
            if st.finished() {
                return NextStep::Shutdown;
            }
            self.observe_interrupt(&mut st);
            if st.stop {
                return NextStep::Drain;
            }
            if let Some(i) = st.queue.pop_front() {
                st.in_flight += 1;
                return NextStep::Assign(i, Role::Primary);
            }
            // No fresh cells: offer an audit, but never of this worker's
            // own result — a liar must not get to confirm itself.
            let pick = st
                .audits
                .iter()
                .find(|(_, t)| !t.assigned && t.primary != worker)
                .map(|(&i, _)| i);
            if let Some(i) = pick {
                st.audits.get_mut(&i).expect("picked task exists").assigned = true;
                st.in_flight += 1;
                return NextStep::Assign(i, Role::Audit);
            }
            st = self.cv.wait(st).expect("scheduler state");
        }
    }

    /// Records what `worker` returned for assignment `(i, role)`, handed
    /// out at `assigned_at`, and returns the time since then — the cell's
    /// reported `elapsed` for a primary, store included.
    pub fn record(
        &self,
        worker: u64,
        i: usize,
        role: Role,
        outcome: CellOutcome,
        assigned_at: Instant,
    ) -> Duration {
        match role {
            Role::Primary => self.record_result(worker, i, outcome, assigned_at),
            Role::Audit => self.record_audit(worker, i, outcome, assigned_at),
        }
    }

    /// Stores (if computed), slots and — for the audit sample — schedules
    /// a second opinion on one primary outcome.
    fn record_result(
        &self,
        worker: u64,
        i: usize,
        outcome: CellOutcome,
        assigned_at: Instant,
    ) -> Duration {
        // A worker quarantined while this cell was in flight is no longer
        // trusted: discard the result unexamined and requeue the cell for
        // an honest worker. Its next scheduling step rejects it.
        {
            let mut st = self.lock();
            if st.quarantined.contains(&worker) {
                st.in_flight -= 1;
                if st.slots[i].is_none() {
                    st.queue.push_front(i);
                }
                self.cv.notify_all();
                return assigned_at.elapsed();
            }
        }
        // Store before recording: once a cell counts as resolved the
        // campaign may finish, and the bytes must already be published.
        let computed = matches!(outcome, CellOutcome::Computed { .. });
        let audit_json = match &outcome {
            CellOutcome::Computed { result, .. } => {
                self.store(i, result);
                self.audit_sampled(i).then(|| canonical(result))
            }
            _ => None,
        };
        let elapsed = assigned_at.elapsed();
        // An injected interrupt takes the same path a SIGINT does.
        let interrupt = computed && self.campaign.chaos.record_computed();
        {
            let mut st = self.lock();
            st.in_flight -= 1;
            if st.slots[i].is_none() {
                st.slots[i] = Some((outcome, elapsed));
                st.resolved += 1;
                if computed {
                    // Unverified until an audit (of this cell or none at
                    // all) clears it.
                    st.unverified.entry(worker).or_default().push(i);
                }
                if let Some(json) = audit_json {
                    let task = AuditTask {
                        primary: worker,
                        json,
                        assigned: false,
                    };
                    st.audits.insert(i, task);
                }
            }
            let (row, rtts) = st.row(worker);
            row.cells += 1;
            rtts.push(elapsed.as_secs_f64());
            st.stop |= interrupt;
            self.cv.notify_all();
        }
        if let (true, Some(flag)) = (interrupt, &self.campaign.interrupt) {
            flag.store(true, Ordering::SeqCst);
        }
        elapsed
    }

    /// Settles one returned audit: byte-compare against the primary's
    /// canonical JSON; on a mismatch, arbitrate locally and quarantine
    /// whoever the ground truth contradicts.
    fn record_audit(
        &self,
        auditor: u64,
        i: usize,
        outcome: CellOutcome,
        assigned_at: Instant,
    ) -> Duration {
        let rtt = assigned_at.elapsed();
        let task = {
            let mut st = self.lock();
            st.in_flight -= 1;
            let (row, rtts) = st.row(auditor);
            row.audits += 1;
            rtts.push(rtt.as_secs_f64());
            // A second opinion from a worker already caught lying is
            // worthless: release the task for someone trustworthy.
            if st.quarantined.contains(&auditor) {
                if let Some(task) = st.audits.get_mut(&i) {
                    task.assigned = false;
                }
                self.cv.notify_all();
                return rtt;
            }
            // The task may be gone (its primary was quarantined through
            // another cell while this audit was in flight): nothing left
            // to settle.
            let task = st.audits.remove(&i);
            if task.is_some() {
                st.settling += 1;
            }
            self.cv.notify_all();
            task
        };
        let Some(task) = task else { return rtt };
        let audit_json = outcome.result().map(canonical);
        if audit_json.as_deref() == Some(task.json.as_str()) {
            self.settle_verified(i, task.primary, auditor);
        } else {
            self.telemetry
                .grid_audit_divergence(i, task.primary, auditor);
            let arbiter = self.arbitrate(i);
            self.settle_with_arbiter(i, task, auditor, audit_json, arbiter);
        }
        self.settled();
        rtt
    }

    /// One tick of a polling accept loop: raises the drain on interrupt and,
    /// once every cell is resolved, settles one audit no worker is taking
    /// (every candidate is the primary, or no workers are left) —
    /// the scheduler is its own arbiter, so one computation settles it.
    /// Returns `false` once the campaign is over.
    pub fn tick(&self) -> bool {
        let orphan = {
            let mut st = self.lock();
            self.observe_interrupt(&mut st);
            if st.finished() || (st.stop && st.in_flight == 0) {
                return false;
            }
            let resolved = st.resolved == self.cells.len();
            let pick = st.audits.iter().find(|(_, t)| !t.assigned).map(|(&i, _)| i);
            match pick {
                Some(i) if resolved && !st.stop => {
                    let task = st.audits.remove(&i).expect("picked task exists");
                    st.settling += 1;
                    Some((i, task))
                }
                _ => None,
            }
        };
        if let Some((i, task)) = orphan {
            let (outcome, json) = self.arbitrate(i);
            self.lock().local_audits += 1;
            if json == task.json {
                self.settle_verified(i, task.primary, ARBITER_ID);
            } else {
                self.telemetry
                    .grid_audit_divergence(i, task.primary, ARBITER_ID);
                let arbiter_json = json.clone();
                self.settle_with_arbiter(i, task, ARBITER_ID, Some(json), (outcome, arbiter_json));
            }
            self.settled();
        }
        true
    }

    /// Ends one settlement, letting the campaign complete.
    fn settled(&self) {
        let mut st = self.lock();
        st.settling -= 1;
        self.cv.notify_all();
    }

    /// Sleeps until the state changes or `timeout` passes.
    pub fn wait(&self, timeout: Duration) {
        let st = self.lock();
        let _ = self.cv.wait_timeout(st, timeout).expect("scheduler state");
    }

    /// Wakes every waiting worker so it re-reads the state.
    pub fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Admits a remote worker: a fresh id and its attribution row.
    pub fn join(&self, name: &str, peer: &str, fingerprint: &str) -> u64 {
        let mut st = self.lock();
        let id = st.next_worker;
        st.next_worker += 1;
        let (row, _) = st.row(id);
        row.peer = format!("{name}@{peer}");
        row.fingerprint = fingerprint.to_string();
        id
    }

    /// Adds wire traffic to a worker's attribution row.
    pub fn add_bytes(&self, worker: u64, bytes_in: u64, bytes_out: u64) {
        let mut st = self.lock();
        let (row, _) = st.row(worker);
        row.wire_bytes_in += bytes_in;
        row.wire_bytes_out += bytes_out;
    }

    /// Evicts a worker, returning its in-flight assignment (if any): a
    /// primary cell goes back on the front of the queue, so reassignment
    /// cannot starve; an audit task becomes assignable again. Narrates and
    /// flushes telemetry — an eviction often precedes shutdown and the
    /// evidence must survive.
    pub fn evict(&self, worker: u64, assignment: Option<(usize, Role)>, reason: &str) {
        {
            let mut st = self.lock();
            match assignment {
                Some((i, Role::Primary)) => st.queue.push_front(i),
                Some((i, Role::Audit)) => {
                    if let Some(task) = st.audits.get_mut(&i) {
                        task.assigned = false;
                    }
                }
                None => {}
            }
            if assignment.is_some() {
                st.in_flight -= 1;
                st.row(worker).0.reassignments += 1;
            }
            self.cv.notify_all();
        }
        self.telemetry
            .grid_worker_evicted(worker, assignment.map(|(i, _)| i), reason);
        self.telemetry.sync();
    }

    /// Whether cell `i` is in the deterministic audit sample.
    fn audit_sampled(&self, i: usize) -> bool {
        let rate = self.audit_rate;
        if rate == 0 {
            return false;
        }
        // splitmix64 finalizer over the seeded index, as FaultPlan::storm.
        let mut z = self.audit_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)).is_multiple_of(rate)
    }

    /// Records a passed audit: the primary's cell is verified.
    fn settle_verified(&self, i: usize, primary: u64, auditor: u64) {
        {
            let mut st = self.lock();
            if let Some(list) = st.unverified.get_mut(&primary) {
                list.retain(|&c| c != i);
            }
            st.row(primary).0.verified += 1;
        }
        self.telemetry.grid_cell_audited(i, primary, auditor, true);
    }

    /// Compares both sides against the arbiter's ground truth and
    /// quarantines whichever disagree. If the primary lied, its poisoned
    /// cache entry and report slot are replaced with the arbiter's result
    /// so the final report stays byte-identical to a serial run.
    fn settle_with_arbiter(
        &self,
        i: usize,
        task: AuditTask,
        auditor: u64,
        audit_json: Option<String>,
        arbiter: (CellOutcome, String),
    ) {
        let (arbiter_outcome, arbiter_json) = arbiter;
        let primary_lied = task.json != arbiter_json;
        let auditor_lied =
            auditor != ARBITER_ID && audit_json.as_deref() != Some(arbiter_json.as_str());
        if primary_lied {
            self.telemetry
                .grid_cell_audited(i, task.primary, auditor, false);
            // Replace the poisoned entry with the ground truth before
            // touching scheduling state, so nothing can observe the lie.
            let _ = self.cache.quarantine(&self.keys[i]);
            if let CellOutcome::Computed { result, .. } = &arbiter_outcome {
                self.store(i, result);
            }
            {
                let mut st = self.lock();
                if let Some(slot) = st.slots[i].as_mut() {
                    slot.0 = arbiter_outcome;
                }
                if let Some(list) = st.unverified.get_mut(&task.primary) {
                    list.retain(|&c| c != i);
                }
                st.row(task.primary).0.divergences += 1;
            }
            self.quarantine_worker(task.primary, "audit divergence: contradicted by arbiter");
        } else {
            // Primary honest; the auditor is the liar.
            self.settle_verified(i, task.primary, auditor);
        }
        if auditor_lied {
            self.lock().row(auditor).0.divergences += 1;
            self.quarantine_worker(auditor, "audit divergence: audit contradicted by arbiter");
        }
    }

    /// Recomputes cell `i` here — the deterministic ground truth — with
    /// no fault plan and no deadline, returning the outcome and its
    /// canonical compact JSON.
    fn arbitrate(&self, i: usize) -> (CellOutcome, String) {
        let ctx = ComputeContext {
            index: i,
            cell: &self.cells[i],
            telemetry: self.telemetry,
            chaos: &Arc::new(FaultPlan::none()),
            deadline: None,
            options: &self.options,
        };
        let outcome = compute_cell(&ctx);
        let json = outcome.result().map(canonical).unwrap_or_default();
        (outcome, json)
    }

    /// Quarantines a lying worker: evicts its cached results to
    /// `quarantine/`, rewinds and requeues every cell it computed that no
    /// audit verified, and drops its pending audit tasks. The worker's
    /// next scheduling step rejects the session.
    fn quarantine_worker(&self, worker: u64, reason: &str) {
        let tainted: Vec<usize> = {
            let mut st = self.lock();
            if !st.quarantined.insert(worker) {
                return;
            }
            st.row(worker).0.quarantined = true;
            let cells = st.unverified.remove(&worker).unwrap_or_default();
            for &c in &cells {
                st.audits.remove(&c);
            }
            cells
        };
        // Move the evidence out of the cache *before* requeueing, so an
        // honest recomputation cannot race the quarantine and lose its
        // freshly stored result.
        for &c in &tainted {
            let _ = self.cache.quarantine(&self.keys[c]);
        }
        {
            let mut st = self.lock();
            for &c in &tainted {
                if st.slots[c].take().is_some() {
                    st.resolved -= 1;
                }
                st.queue.push_front(c);
            }
            self.cv.notify_all();
        }
        self.telemetry
            .worker_quarantined(worker, tainted.len(), reason);
        self.telemetry.sync();
    }

    /// Publishes a computed result, retrying transient IO failures on the
    /// supervisor's backoff schedule. A store that still fails on its last
    /// attempt is absorbed — the in-memory result is good, and the cache
    /// recomputes the cell next run. The campaign's fault plan injects
    /// torn and failing stores here.
    fn store(&self, i: usize, result: &BenchmarkResults) {
        let (key, cell) = (&self.keys[i], &self.cells[i]);
        let chaos = &self.campaign.chaos;
        if let Some(keep) = chaos.torn_store(i) {
            // Injected crash mid-flush: the next run's probe must detect
            // and quarantine the torn entry.
            let _ = self.cache.store_torn(key, cell, result, keep);
            return;
        }
        for attempt in 1..=BACKOFF_ATTEMPTS {
            let stored = if chaos.take_store_io_error(i) {
                Err(std::io::Error::other("chaos: injected store failure"))
            } else {
                self.cache.store(key, cell, result)
            };
            match stored {
                Ok(()) => return,
                Err(_) if attempt == BACKOFF_ATTEMPTS => return,
                Err(e) => {
                    self.telemetry.io_retry(i, "store", attempt, &e.to_string());
                    thread::sleep(backoff_delay(attempt));
                }
            }
        }
    }

    /// The in-process compute step: cell `i` under the campaign's own
    /// supervision settings, narrated.
    pub(crate) fn compute(&self, i: usize) -> CellOutcome {
        compute_narrated(&ComputeContext {
            index: i,
            cell: &self.cells[i],
            telemetry: self.telemetry,
            chaos: &self.campaign.chaos,
            deadline: self.campaign.deadline,
            options: &self.options,
        })
    }

    /// One in-process worker: claims cells until the campaign drains or
    /// completes, running each through `compute`. A panic that escapes
    /// `compute` fails only its own cell (never classified deterministic:
    /// nothing was retried) and the worker keeps claiming — an assignment
    /// that is never recorded would hold the drain open forever.
    pub(crate) fn work(&self, worker: u64, compute: &ComputeStep) {
        while let NextStep::Assign(i, role) = self.next_step(worker) {
            let assigned_at = Instant::now();
            let contained = panic::catch_unwind(AssertUnwindSafe(|| compute(self, i)));
            let outcome = contained.unwrap_or_else(|payload| {
                let message = payload_text(payload.as_ref());
                self.telemetry.cell_failed(i, 1, &message, false);
                let failure = CellFailure {
                    attempts: 1,
                    message,
                    deterministic: false,
                };
                CellOutcome::Failed(failure)
            });
            self.record(worker, i, role, outcome, assigned_at);
        }
    }

    /// How many cells are queued for workers right now.
    pub(crate) fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Ends the campaign: saves the checkpoint manifest with every cell
    /// that holds a result marked done, assembles the report in cell order
    /// (unresolved cells are `Skipped`), saves the rollup — with per-worker
    /// attribution when `grid` — and narrates the finish.
    pub fn finish(self, grid: bool) -> CampaignReport {
        let st = self.state.into_inner().expect("scheduler state");
        if let Some(path) = &self.campaign.checkpoint {
            // Marked from the final slots, so a finished and a drained
            // campaign alike record what the cache holds, and cells a
            // quarantined worker computed are not marked. Best-effort: a
            // resume re-probes the cache whatever the marks say.
            let mut manifest =
                CheckpointManifest::new(self.campaign.spec.clone(), self.cells.len());
            for (i, slot) in st.slots.iter().enumerate() {
                if slot
                    .as_ref()
                    .is_some_and(|(outcome, _)| outcome.result().is_some())
                {
                    manifest.mark_done(i);
                }
            }
            let _ = manifest.save(path);
        }
        let grid = grid.then(|| st.grid_rollup());
        let cells = self
            .cells
            .into_iter()
            .zip(self.keys)
            .zip(st.slots)
            .map(|((cell, key), slot)| {
                let (outcome, elapsed) = slot.unwrap_or((CellOutcome::Skipped, Duration::ZERO));
                CellReport {
                    cell,
                    key,
                    outcome,
                    elapsed,
                }
            })
            .collect();
        let report = CampaignReport {
            cells,
            wall: self.started.elapsed(),
            interrupted: st.stop,
        };
        let telemetry = self.telemetry;
        let slack = self.slack.as_ref().map(|s| s.stats()).unwrap_or_default();
        if slack.loads > 0 || slack.stores > 0 {
            telemetry.slack_cache(slack.loads, slack.hits, slack.stores);
        }
        // Persist the aggregate view next to the result cache for
        // `mcd-cli campaign report`. Best-effort: losing the summary must
        // not fail a campaign whose results are already safe.
        let mut rollup = CampaignRollup::from_report(&report)
            .with_slack(slack)
            .with_integrity(self.spot.checked, self.spot.corrupt);
        rollup.grid = grid;
        let _ = rollup.save(&self.cache.dir().join(ROLLUP_FILE));
        if report.interrupted {
            telemetry.campaign_interrupted(report.cached() + report.computed(), report.skipped());
        }
        telemetry.campaign_finished(
            report.computed(),
            report.cached(),
            report.failed(),
            report.wall,
        );
        report
    }
}

/// An in-process worker's compute step: runs cell `i` of the scheduler.
pub(crate) type ComputeStep = dyn Fn(&Scheduler<'_>, usize) -> CellOutcome + Sync;

/// A result's canonical compact JSON: the bytes audits compare.
fn canonical(result: &BenchmarkResults) -> String {
    serde_json::to_string(result).expect("results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::lie_about;
    use crate::CampaignSpec;
    use mcd_time::DvfsModel;
    use std::path::PathBuf;

    fn scratch_cache(tag: &str) -> (ResultCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mcd-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultCache::open(&dir).expect("create cache"), dir)
    }

    fn spec(benchmarks: &[&str]) -> CampaignSpec {
        CampaignSpec {
            benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
            seeds: vec![3],
            instructions: 600,
            models: vec![DvfsModel::XScale],
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    /// Computes `cell` honestly, as an in-process worker would.
    fn honest(cell: &CellSpec) -> CellOutcome {
        CellOutcome::Computed {
            result: cell.run(),
            attempts: 1,
        }
    }

    #[test]
    fn zero_requested_workers_resolves_to_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn audit_sample_is_a_pure_function_of_the_campaign_and_rate() {
        let (cache, dir) = scratch_cache("sample");
        let campaign = Campaign::new(spec(&["adpcm"]));
        let telemetry = Telemetry::disabled();
        let sampled = |rate| {
            let scheduler = Scheduler::start(&campaign, &cache, &telemetry, 0, rate).unwrap();
            (0..4096)
                .filter(|&i| scheduler.audit_sampled(i))
                .collect::<Vec<_>>()
        };
        assert!(sampled(0).is_empty(), "rate 0 never audits");
        assert_eq!(sampled(1).len(), 4096, "rate 1 audits every cell");
        let sixteenth = sampled(16);
        assert_eq!(sixteenth, sampled(16), "same campaign, same sample");
        assert!(
            (4096 / 32..4096 / 8).contains(&sixteenth.len()),
            "about one cell in 16 is sampled: {}",
            sixteenth.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_primary_is_quarantined_and_its_unverified_cells_rewound() {
        let (cache, dir) = scratch_cache("rewind");
        let campaign = Campaign::new(spec(&["adpcm", "mst"]));
        let telemetry = Telemetry::disabled();
        let scheduler = Scheduler::start(&campaign, &cache, &telemetry, 0, 1).unwrap();
        let (liar, auditor) = (
            scheduler.join("liar", "a", ""),
            scheduler.join("ok", "b", ""),
        );
        let assigned = Instant::now();

        // The liar forges cell 0 and honestly computes cell 1, which stays
        // unverified until an audit clears it.
        assert_eq!(
            scheduler.next_step(liar),
            NextStep::Assign(0, Role::Primary)
        );
        let mut forged = scheduler.cell(0).run();
        assert!(lie_about(&mut forged, 7));
        let forged = CellOutcome::Computed {
            result: forged,
            attempts: 1,
        };
        scheduler.record(liar, 0, Role::Primary, forged, assigned);
        assert_eq!(
            scheduler.next_step(liar),
            NextStep::Assign(1, Role::Primary)
        );
        let cell1 = honest(scheduler.cell(1));
        scheduler.record(liar, 1, Role::Primary, cell1, assigned);

        // The auditor contradicts cell 0; the arbiter sides with it, so
        // the liar is quarantined and cell 1 goes back on the queue.
        assert_eq!(
            scheduler.next_step(auditor),
            NextStep::Assign(0, Role::Audit)
        );
        let audit = honest(scheduler.cell(0));
        scheduler.record(auditor, 0, Role::Audit, audit, assigned);
        assert_eq!(scheduler.next_step(liar), NextStep::Quarantined);
        assert_eq!(
            scheduler.next_step(auditor),
            NextStep::Assign(1, Role::Primary)
        );
        let cell1 = honest(scheduler.cell(1));
        scheduler.record(auditor, 1, Role::Primary, cell1, assigned);

        // Nobody else can audit the auditor's cell 1: the scheduler settles
        // it itself, and the campaign completes.
        while scheduler.tick() {}
        assert_eq!(scheduler.next_step(auditor), NextStep::Shutdown);
        let report = scheduler.finish(true);
        let serial: Vec<_> = spec(&["adpcm", "mst"])
            .expand()
            .unwrap()
            .iter()
            .map(CellSpec::run)
            .collect();
        let serial = serde_json::to_string_pretty(&serial).unwrap();
        assert_eq!(report.to_json().as_deref(), Some(serial.as_str()));

        let rollup = CampaignRollup::load(&cache.dir().join(ROLLUP_FILE)).unwrap();
        let grid = rollup.grid.expect("grid attribution");
        assert_eq!((grid.divergences, grid.quarantined_workers), (1, 1));
        assert_eq!(grid.audits, 2, "one worker audit plus one local");
        assert!(grid.workers[0].quarantined && !grid.workers[1].quarantined);
        assert_eq!(grid.workers[1].verified, 1, "the arbiter verified cell 1");
        assert!(cache
            .quarantine_dir()
            .join(format!(
                "{}.json",
                CacheKey::of(&report.cells[1].cell).hex()
            ))
            .is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
