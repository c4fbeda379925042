//! The four-domain out-of-order pipeline engine.
//!
//! The engine is trace-driven: the workload generator supplies the committed
//! (correct-path) instruction stream, the branch predictor decides whether
//! fetch may run ahead, and mis-speculation costs appear as fetch stalls
//! (redirect penalty) rather than as executed wrong-path work.
//!
//! Time is continuous (femtoseconds). Each domain clock emits jittered
//! edges; the run loop always advances the domain with the earliest pending
//! edge, so domains interleave exactly as their (possibly scaled) clocks
//! dictate. Any value crossing a domain boundary becomes visible at the
//! first destination edge at least `T_s` after it was produced (§2.2).

use mcd_time::{DomainClock, Femtos, Frequency, SimRng, SyncWindowCache, VoltageController};
use mcd_trace::{ClockEdge, Probe, RequestSource, StallCause};
use mcd_uarch::lsq::LoadStatus;
use mcd_uarch::{
    BranchPredictor, Cache, CircularQueue, FuKind, FuPool, LoadStoreQueue, LsqEntryId,
    MemAccessKind, PhysReg, RenameUnit,
};
use mcd_workload::{BenchmarkProfile, Instruction, OpClass, WorkloadGenerator};

use crate::config::PipelineConfig;
use crate::domains::DomainId;
use crate::events::{EventSpan, InstrTrace};
use crate::governor::{ControlSample, Governor};
use crate::machine::{ClockingMode, MachineConfig};
use crate::replay::{InstrSource, Recording};
use crate::result::RunResult;
use crate::stats::{ActivityLedger, Unit};
use crate::warm::{self, WarmState};

mod reference;

/// A fetched-but-not-dispatched instruction.
#[derive(Debug, Clone)]
struct Fetched {
    seq: u64,
    instr: Instruction,
    fetch_span: EventSpan,
    mispredicted: bool,
}

/// An in-flight (dispatched, uncommitted) instruction.
#[derive(Debug, Clone)]
struct InFlight {
    instr: Instruction,
    dest_phys: Option<PhysReg>,
    prev_phys: Option<PhysReg>,
    src_phys: [Option<PhysReg>; 2],
    lsq_id: Option<LsqEntryId>,
    /// When the backend scheduler first sees this IQ entry.
    iq_visible_at: Femtos,
    /// Cache access performed (loads) / ready check passed (stores).
    mem_done: bool,
    /// All work done; may commit once visible to the front end.
    completed: bool,
    completion_visible_fe: Femtos,
    mispredicted: bool,
}

/// An issue-queue entry: everything the ready mask reads, so building the
/// mask takes no ROB access.
#[derive(Debug, Clone, Copy)]
struct IqSlot {
    seq: u64,
    /// When the backend scheduler first sees the entry.
    visible_at: Femtos,
    /// `ready_at` indices of the sources issue waits on, in the queue's
    /// domain. An absent source points at the row that always reads zero.
    srcs: [usize; 2],
}

/// An issue queue: slots in age (seq) order, at most 64 of them, so that
/// [`IssueQueue::ready_mask`] has a bit for each.
#[derive(Debug)]
struct IssueQueue {
    slots: Vec<IqSlot>,
    capacity: usize,
}

impl IssueQueue {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity <= 64, "validate caps issue queues at 64");
        IssueQueue {
            slots: Vec::with_capacity(capacity),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    fn push(&mut self, slot: IqSlot) {
        debug_assert!(!self.is_full(), "capacity checked at dispatch");
        self.slots.push(slot);
    }

    /// The seq of slot `i`, if there is one.
    fn seq_at(&self, i: usize) -> Option<u64> {
        self.slots.get(i).map(|slot| slot.seq)
    }

    /// Bit `i` is set when slot `i` is visible at `now` and its sources are
    /// ready there.
    fn ready_mask(&self, ready_at: &[Femtos], now: Femtos) -> u64 {
        let mut mask = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let at = slot
                .visible_at
                .max(ready_at[slot.srcs[0]])
                .max(ready_at[slot.srcs[1]]);
            mask |= u64::from(at <= now) << i;
        }
        mask
    }

    fn remove_at(&mut self, i: usize) {
        self.slots.remove(i);
    }

    /// Removes the slot holding `seq`.
    ///
    /// # Panics
    ///
    /// Panics if no slot holds it.
    fn remove_seq(&mut self, seq: u64) {
        let i = self
            .slots
            .binary_search_by_key(&seq, |slot| slot.seq)
            .expect("entry is present");
        self.slots.remove(i);
    }
}

/// Safety valve: a run that produces this many edges without committing its
/// target has deadlocked (a bug), so panic with context instead of hanging.
const MAX_EDGES_PER_INSTRUCTION: u64 = 4_000;

/// How [`Pipeline::run`] drives a run: the engine that executes it and
/// the on-line governor, if any, that steers its clocks.
///
/// The default is the optimized engine with no probe and no governor: the
/// static configuration the [`MachineConfig`] describes.
#[derive(Default)]
pub struct RunControl<'a> {
    /// On-line DVFS policy, polled once per control interval with fresh
    /// per-domain utilization; its frequency requests go through the
    /// machine's normal DVFS transition model.
    pub governor: Option<Box<dyn Governor + 'a>>,
    /// The run loop.
    pub engine: Engine<'a>,
}

/// The run loop that executes a [`Pipeline`]. Both yield byte-identical
/// [`RunResult`]s; `mcd-check` exists to prove it.
pub enum Engine<'a> {
    /// The production loop (shared warm state, incremental
    /// operating-point and sync-window bookkeeping), watched by the lent
    /// probe if there is one.
    Optimized(Option<&'a mut dyn Probe>),
    /// The deliberately naive reference interpreter (`core/reference.rs`),
    /// the differential oracle. It takes no probe: probes watch the loop
    /// whose shortcuts need auditing.
    Reference,
}

impl Default for Engine<'_> {
    fn default() -> Self {
        Engine::Optimized(None)
    }
}

/// Accumulators feeding an on-line governor between control decisions.
#[derive(Debug, Clone, Default)]
struct ControlState {
    /// Σ occupancy fraction per domain, over that domain's ticks.
    util_sum: [f64; DomainId::COUNT],
    /// Ticks sampled per domain.
    util_samples: [u64; DomainId::COUNT],
    /// Operations issued per domain since the last decision.
    issued: [u64; DomainId::COUNT],
    /// Instructions committed since the last decision.
    committed: u64,
    /// Start of the current control interval.
    start: Femtos,
}

/// The pipeline simulator.
///
/// Build one with [`Pipeline::new`], then call [`Pipeline::run`]. `'p` is
/// the borrow of the probe a run may be lent.
///
/// # Example
///
/// ```
/// use mcd_pipeline::{MachineConfig, Pipeline, RunControl};
/// use mcd_workload::suites;
///
/// let machine = MachineConfig::baseline(7);
/// let generator = mcd_workload::WorkloadGenerator::new(
///     suites::by_name("adpcm").expect("known benchmark"),
///     machine.seed,
/// );
/// let result = Pipeline::new(machine, generator).run(2_000, RunControl::default());
/// assert_eq!(result.committed, 2_000);
/// assert!(result.ipc() > 0.1);
/// ```
pub struct Pipeline<'p> {
    cfg: MachineConfig,
    pcfg: PipelineConfig,
    input: InstrSource,
    /// The recording this pipeline replays, if built by
    /// [`Pipeline::replaying`].
    recording: Option<Recording>,
    clocks: Vec<DomainClock>,
    /// Schedule cursor.
    schedule_pos: usize,
    /// One physical clock serving all four logical domains?
    single_clock: bool,

    // Cached per-clock operating points (refreshed after each edge).
    clock_freq: [Frequency; DomainId::COUNT],
    clock_volt: [f64; DomainId::COUNT],
    // Cached per-*domain* period/voltage derived from the clocks.
    periods: [Femtos; DomainId::COUNT],
    volts: [f64; DomainId::COUNT],
    /// §2.2 synchronization windows per (src, dst) domain pair, refreshed
    /// only when a domain's period changes.
    sync_win: SyncWindowCache<{ DomainId::COUNT }>,

    // Front end.
    bpred: BranchPredictor,
    l1i: Cache,
    fetchq: CircularQueue<Fetched>,
    pending_fetch: Option<Instruction>,
    fetch_resume_at: Femtos,
    /// Branch seq fetch is blocked on (mispredict), if any.
    fetch_blocked_on: Option<u64>,
    next_seq: u64,

    // Rename / ROB.
    rename: RenameUnit,
    rob: std::collections::VecDeque<InFlight>,
    rob_head_seq: u64,

    // Backend.
    iq_int: IssueQueue,
    iq_fp: IssueQueue,
    lsq: LoadStoreQueue,
    fus: FuPool,
    l1d: Cache,
    l2: Cache,
    /// (visible_at, seq, addr): effective addresses in flight to the LSQ.
    pending_addrs: Vec<(Femtos, u64, u64)>,
    /// Stores with addresses applied but memory work outstanding,
    /// ascending seq.
    ls_stores: Vec<u64>,
    /// Loads with addresses applied but not yet issued, ascending seq.
    ls_loads: Vec<u64>,

    /// Per-physical-register visibility time in each domain, flattened as
    /// `phys.index() * DomainId::COUNT + domain.index()`, plus one last row
    /// that always reads zero (see [`Pipeline::zero_row`]).
    ready_at: Vec<Femtos>,
    /// Which in-flight instruction wrote each physical register (kept
    /// only in runs that collect a trace).
    writer_of: Vec<Option<u64>>,
    /// The side ring: in runs that collect a trace, each ROB entry's trace
    /// record, in ROB order, filled in as the instruction moves through the
    /// pipeline ([`Pipeline::traced_mut`]). Empty in every other run.
    traced: std::collections::VecDeque<InstrTrace>,

    // On-line control accumulators (governor itself is a run parameter).
    control: ControlState,
    control_next: Femtos,

    /// The probe lent to this run (None in production runs). Every hook
    /// site is a pure observer behind one `Option` check, so a run without
    /// a probe does no probe work and a run with one produces
    /// byte-identical results; the golden-fixture tests enforce both.
    probe: Option<&'p mut dyn Probe>,

    /// Per-run scratch buffer, hoisted out of the per-edge hot path.
    addr_scratch: Vec<(u64, u64)>,

    // Accounting.
    ledger: ActivityLedger,
    committed: u64,
    /// Commit target for the current run (commit stops exactly there).
    target: u64,
    last_commit_time: Femtos,
    branch_lookups: u64,
    branch_mispredicts: u64,
    trace: Vec<InstrTrace>,
}

impl<'p> Pipeline<'p> {
    /// Builds a pipeline for one run.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline configuration fails validation.
    pub fn new(cfg: MachineConfig, gen: WorkloadGenerator) -> Self {
        Self::build(cfg, InstrSource::Live(Box::new(gen)), None)
    }

    /// Builds a pipeline whose run replays `recording`: instructions are
    /// read off its instruction tape and each clock's jitter draws off its
    /// jitter tape, and the draws the run had to make live are added to it.
    /// The result is byte-identical to [`Pipeline::new`] with a fresh
    /// generator for `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `recording` holds another seed's inputs, or if the
    /// pipeline configuration fails validation.
    pub fn replaying(cfg: MachineConfig, recording: &Recording) -> Self {
        assert_eq!(
            cfg.seed,
            recording.seed(),
            "a recording only replays runs of its own seed"
        );
        let input = InstrSource::Tape {
            tape: recording.instructions(0),
            pos: 0,
        };
        Self::build(cfg, input, Some(recording.clone()))
    }

    fn build(cfg: MachineConfig, input: InstrSource, recording: Option<Recording>) -> Self {
        let pcfg = cfg.pipeline.clone();
        if let Err(e) = pcfg.validate() {
            panic!("invalid pipeline configuration: {e}");
        }
        let root = SimRng::seed_from_u64(cfg.seed);
        let clocks: Vec<DomainClock> = match &cfg.mode {
            ClockingMode::SingleDomain { frequency } => {
                vec![DomainClock::fixed_point(
                    *frequency,
                    &cfg.vf,
                    cfg.jitter,
                    root.derive(100).next_u64_seed(),
                )]
            }
            ClockingMode::Mcd { frequencies } => DomainId::ALL
                .iter()
                .map(|d| {
                    let seed = root.derive(100 + d.index() as u64).next_u64_seed();
                    let ctl = VoltageController::new(
                        cfg.dvfs_model,
                        cfg.vf,
                        cfg.pll,
                        frequencies[d.index()],
                    );
                    DomainClock::with_controller(ctl, cfg.jitter, seed)
                })
                .collect(),
        };
        let single_clock = clocks.len() == 1;
        let mut clock_freq = [Frequency::GHZ; DomainId::COUNT];
        let mut clock_volt = [0.0f64; DomainId::COUNT];
        for (i, c) in clocks.iter().enumerate() {
            clock_freq[i] = c.frequency();
            clock_volt[i] = c.voltage().as_volts();
        }
        let mut periods = [Femtos::ZERO; DomainId::COUNT];
        let mut volts = [0.0f64; DomainId::COUNT];
        for d in 0..DomainId::COUNT {
            let ci = if single_clock { 0 } else { d };
            periods[d] = clocks[ci].period();
            volts[d] = clock_volt[ci];
        }
        let sync_win = SyncWindowCache::new(cfg.sync, &periods);
        let total_phys = (pcfg.phys_int + pcfg.phys_fp) as usize;
        let WarmState {
            l1i,
            l1d,
            l2,
            bpred,
        } = if cfg.warmup_instructions > 0 {
            warm_structures(&cfg, input.profile())
        } else {
            WarmState::cold(&pcfg)
        };
        Pipeline {
            bpred,
            l1i,
            l1d,
            l2,
            fetchq: CircularQueue::new(pcfg.fetch_queue),
            pending_fetch: None,
            fetch_resume_at: Femtos::ZERO,
            fetch_blocked_on: None,
            next_seq: 0,
            rename: RenameUnit::new(pcfg.phys_int, pcfg.phys_fp),
            rob: std::collections::VecDeque::with_capacity(pcfg.rob_size),
            rob_head_seq: 0,
            iq_int: IssueQueue::new(pcfg.iq_int),
            iq_fp: IssueQueue::new(pcfg.iq_fp),
            lsq: LoadStoreQueue::new(pcfg.lsq_size),
            fus: FuPool::new(pcfg.fus),
            pending_addrs: Vec::new(),
            ls_stores: Vec::with_capacity(pcfg.lsq_size),
            ls_loads: Vec::with_capacity(pcfg.lsq_size),
            ready_at: vec![Femtos::ZERO; (total_phys + 1) * DomainId::COUNT],
            writer_of: vec![None; total_phys],
            traced: std::collections::VecDeque::new(),
            control: ControlState::default(),
            control_next: Femtos::MAX,
            probe: None,
            ledger: ActivityLedger::new(),
            committed: 0,
            target: u64::MAX,
            last_commit_time: Femtos::ZERO,
            branch_lookups: 0,
            branch_mispredicts: 0,
            trace: Vec::new(),
            schedule_pos: 0,
            single_clock,
            clock_freq,
            clock_volt,
            periods,
            volts,
            sync_win,
            addr_scratch: Vec::with_capacity(pcfg.lsq_size),
            clocks,
            input,
            recording,
            cfg,
            pcfg,
        }
    }

    /// Points the input streams at the recording, if this pipeline replays
    /// one: the instruction tape is extended to cover the whole run first.
    fn attach_recording(&mut self, target: u64) {
        let Some(recording) = &self.recording else {
            return;
        };
        // Fetch stops once the ROB, the fetch queue and the one pending
        // fetch are full, so a run reads at most this many instructions.
        let bound = usize::try_from(target)
            .unwrap_or(usize::MAX)
            .saturating_add(self.pcfg.rob_size + self.pcfg.fetch_queue + 1);
        self.input = InstrSource::Tape {
            tape: recording.instructions(bound),
            pos: 0,
        };
        for clock in &mut self.clocks {
            clock.replay_jitter(recording.lend_jitter(clock.seed(), self.cfg.jitter));
        }
    }

    fn clock_index(&self, d: DomainId) -> usize {
        if self.single_clock {
            0
        } else {
            d.index()
        }
    }

    #[inline]
    fn voltage(&self, d: DomainId) -> f64 {
        self.volts[d.index()]
    }

    #[inline]
    fn period(&self, d: DomainId) -> Femtos {
        self.periods[d.index()]
    }

    /// When a value produced at `t` in `src` becomes usable in `dst`.
    #[inline]
    fn vis(&self, t: Femtos, src: DomainId, dst: DomainId) -> Femtos {
        if self.single_clock || src == dst {
            return t;
        }
        self.sync_win.visible_at(t, src.index(), dst.index())
    }

    /// [`Pipeline::vis`], reporting any synchronization delay to the probe
    /// as a stall charged to the destination domain. Used at the value
    /// hand-off sites; the bulk register-ready path ([`Pipeline::set_ready`])
    /// stays unprobed because it records potential, not realized, crossings.
    #[inline]
    fn vis_probed(&mut self, t: Femtos, src: DomainId, dst: DomainId) -> Femtos {
        let w = self.vis(t, src, dst);
        if w > t {
            if let Some(p) = self.probe.as_mut() {
                p.sync_stall(src.index(), dst.index(), t, w - t);
            }
        }
        w
    }

    /// Refreshes the cached operating point of clock `ci` after it produced
    /// an edge (the only moment a clock's frequency or voltage can move),
    /// then shows the edge to the probe.
    #[inline]
    fn note_clock_advanced(&mut self, ci: usize) {
        let c = &self.clocks[ci];
        let f = c.frequency();
        let v = c.voltage().as_volts();
        let moved = f != self.clock_freq[ci] || v != self.clock_volt[ci];
        if moved {
            self.clock_freq[ci] = f;
            self.clock_volt[ci] = v;
            let p = f.period();
            if self.single_clock {
                self.periods = [p; DomainId::COUNT];
                self.volts = [v; DomainId::COUNT];
            } else {
                self.volts[ci] = v;
                if self.periods[ci] != p {
                    self.periods[ci] = p;
                    self.sync_win.refresh_domain(ci, &self.periods);
                }
            }
        }
        if self.probe.is_some() {
            self.probe_edge(ci, moved);
        }
    }

    /// Shows the probe clock `ci`'s fresh edge: the PLL re-lock window it
    /// ends, if any, the new operating point if it `moved`, and the edge
    /// itself.
    fn probe_edge(&mut self, ci: usize, moved: bool) {
        let queues = self.queue_levels();
        let Some(p) = self.probe.as_mut() else {
            return;
        };
        let clock = &mut self.clocks[ci];
        let at = clock.last_edge();
        // Re-lock windows surface at the first edge after one, and are
        // drained even when the operating point is unchanged (a re-lock to
        // the same point).
        let relock = clock.take_relock();
        let (frequency, volts) = (self.clock_freq[ci], self.clock_volt[ci]);
        // One physical clock drives all four logical domains.
        let domains = if self.single_clock {
            0..DomainId::COUNT
        } else {
            ci..ci + 1
        };
        for d in domains {
            if let Some((start, end)) = relock {
                p.pll_relock(d, start, end);
            }
            if moved {
                p.freq_change(d, at, frequency, volts);
            }
        }
        p.clock_edge(&ClockEdge {
            clock: ci,
            at,
            frequency,
            volts,
            periods: &self.periods,
            windows: &self.sync_win,
            queues,
        });
    }

    /// Occupancy of domain `d`'s issue structure as a fraction of its
    /// capacity (the front end's is the fetch queue).
    #[inline]
    fn occupancy(&self, d: DomainId) -> f64 {
        let (len, capacity) = match d {
            DomainId::FrontEnd => (self.fetchq.len(), self.fetchq.capacity()),
            DomainId::Integer => (self.iq_int.len(), self.iq_int.capacity),
            DomainId::FloatingPoint => (self.iq_fp.len(), self.iq_fp.capacity),
            DomainId::LoadStore => (self.lsq.len(), self.lsq.capacity()),
        };
        len as f64 / capacity as f64
    }

    /// Every bounded queue's `(length, capacity)`, in [`ClockEdge::queues`]
    /// order.
    fn queue_levels(&self) -> [(usize, usize); 5] {
        [
            (self.fetchq.len(), self.fetchq.capacity()),
            (self.iq_int.len(), self.iq_int.capacity),
            (self.iq_fp.len(), self.iq_fp.capacity),
            (self.lsq.len(), self.lsq.capacity()),
            (self.rob.len(), self.pcfg.rob_size),
        ]
    }

    fn iq(&self, d: DomainId) -> &IssueQueue {
        match d {
            DomainId::FloatingPoint => &self.iq_fp,
            _ => &self.iq_int,
        }
    }

    fn iq_mut(&mut self, d: DomainId) -> &mut IssueQueue {
        match d {
            DomainId::FloatingPoint => &mut self.iq_fp,
            _ => &mut self.iq_int,
        }
    }

    fn rob_get(&self, seq: u64) -> &InFlight {
        &self.rob[(seq - self.rob_head_seq) as usize]
    }

    fn rob_get_mut(&mut self, seq: u64) -> &mut InFlight {
        &mut self.rob[(seq - self.rob_head_seq) as usize]
    }

    /// In-flight `seq`'s record in the side ring; `None` in a run that
    /// collects no trace, whose ring stays empty.
    fn traced_mut(&mut self, seq: u64) -> Option<&mut InstrTrace> {
        self.traced.get_mut((seq - self.rob_head_seq) as usize)
    }

    /// Marks `phys` written at `t` by domain `src`: consumers in each domain
    /// see it after the synchronization window (the cached window row makes
    /// this a flat four-element write; the zero diagonal covers `src`).
    fn set_ready(&mut self, phys: PhysReg, t: Femtos, src: DomainId) {
        let base = phys.index() * DomainId::COUNT;
        if self.single_clock {
            self.ready_at[base..base + DomainId::COUNT].fill(t);
        } else {
            let row = *self.sync_win.row(src.index());
            for (slot, w) in self.ready_at[base..base + DomainId::COUNT]
                .iter_mut()
                .zip(row)
            {
                *slot = t + w;
            }
        }
    }

    /// The `ready_at` row that is never written, so it always reads zero:
    /// an absent source's index in an [`IqSlot`].
    fn zero_row(&self) -> usize {
        self.ready_at.len() - DomainId::COUNT
    }

    #[inline]
    fn src_ready_at(&self, phys: Option<PhysReg>, d: DomainId) -> Femtos {
        match phys {
            Some(p) => self.ready_at[p.index() * DomainId::COUNT + d.index()],
            None => Femtos::ZERO,
        }
    }

    /// Runs until `target` instructions commit, as `control` directs;
    /// consumes the pipeline. A probe lent through `control` holds what it
    /// observed when this returns.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero or the machine deadlocks (internal
    /// invariant violation).
    pub fn run(mut self, target: u64, control: RunControl<'p>) -> RunResult {
        assert!(target > 0, "target instruction count must be positive");
        self.target = target;
        self.attach_recording(target);
        let RunControl { governor, engine } = control;
        if let Some(g) = &governor {
            self.control_next = g.interval();
        }
        match engine {
            Engine::Optimized(probe) => {
                self.probe = probe;
                self.run_optimized(governor)
            }
            Engine::Reference => self.run_reference(governor),
        }
    }

    /// The production run loop.
    ///
    /// Always advances the clock with the earliest pending edge (lowest
    /// clock index on ties) and runs the full tick machinery on every edge.
    fn run_optimized(mut self, mut governor: Option<Box<dyn Governor + 'p>>) -> RunResult {
        let target = self.target;
        let n_clocks = self.clocks.len();
        // Pending edge time per clock; slots past `n_clocks` never win.
        let mut pending = [Femtos::MAX; DomainId::COUNT];
        for (i, t) in pending.iter_mut().enumerate().take(n_clocks) {
            *t = self.clocks[i].next_edge();
            self.note_clock_advanced(i);
        }
        if let Some(p) = self.probe.as_mut() {
            // Opening frequency sample for every domain so each track has a
            // well-defined level from t = 0.
            for d in DomainId::ALL {
                let ci = if self.single_clock { 0 } else { d.index() };
                p.freq_change(
                    d.index(),
                    Femtos::ZERO,
                    self.clock_freq[ci],
                    self.clock_volt[ci],
                );
            }
        }
        let mut edges: u64 = 0;
        let max_edges = target
            .saturating_mul(MAX_EDGES_PER_INSTRUCTION)
            .max(1_000_000);
        while self.committed < target {
            edges += 1;
            assert!(
                edges < max_edges,
                "pipeline deadlock: {} of {} committed after {} edges",
                self.committed,
                target,
                edges
            );
            // Earliest pending clock edge wins; strict `<` keeps the lowest
            // clock index on ties.
            let mut ci = 0;
            for (i, &t) in pending.iter().enumerate().skip(1) {
                if t < pending[ci] {
                    ci = i;
                }
            }
            let now = pending[ci];
            self.apply_schedule(now);
            if let Some(g) = governor.as_mut() {
                self.sample_utilization(ci, n_clocks);
                if now >= self.control_next {
                    self.control_decision(now, &mut **g);
                }
            }
            if self.probe.is_some() {
                self.probe_queue_samples(ci, n_clocks, now);
            }
            if n_clocks == 1 {
                // Single clock: all logical domains tick on the same edge.
                self.tick_commit_dispatch_fetch(now);
                self.tick_exec(DomainId::Integer, now);
                self.tick_exec(DomainId::FloatingPoint, now);
                self.tick_loadstore(now);
            } else {
                match DomainId::ALL[ci] {
                    DomainId::FrontEnd => self.tick_commit_dispatch_fetch(now),
                    DomainId::Integer => self.tick_exec(DomainId::Integer, now),
                    DomainId::FloatingPoint => self.tick_exec(DomainId::FloatingPoint, now),
                    DomainId::LoadStore => self.tick_loadstore(now),
                }
            }
            pending[ci] = self.clocks[ci].next_edge();
            self.note_clock_advanced(ci);
        }
        self.into_result()
    }

    /// Shows the probe the queue occupancy of the domain(s) ticking on this
    /// edge, the fractions [`Pipeline::sample_utilization`] feeds a
    /// governor.
    fn probe_queue_samples(&mut self, ci: usize, n_clocks: usize, now: Femtos) {
        let ticking = if n_clocks == 1 {
            0..DomainId::COUNT
        } else {
            ci..ci + 1
        };
        for d in ticking {
            let occupancy = self.occupancy(DomainId::ALL[d]);
            if let Some(p) = self.probe.as_mut() {
                p.queue_sample(d, now, occupancy);
            }
        }
    }

    /// Samples queue occupancy for the domain(s) ticking on this edge.
    fn sample_utilization(&mut self, ci: usize, n_clocks: usize) {
        let record = |state: &mut ControlState, d: DomainId, frac: f64| {
            state.util_sum[d.index()] += frac;
            state.util_samples[d.index()] += 1;
        };
        if n_clocks == 1 {
            for d in DomainId::ALL {
                let frac = self.occupancy(d);
                record(&mut self.control, d, frac);
            }
        } else {
            // Only the ticking domain is sampled; computing the other three
            // occupancies would be wasted work on every edge.
            let d = DomainId::ALL[ci];
            let frac = self.occupancy(d);
            record(&mut self.control, d, frac);
        }
    }

    /// Hands the governor a fresh sample and applies its frequency requests.
    fn control_decision(&mut self, now: Femtos, governor: &mut dyn Governor) {
        let mut utilization = [0.0; DomainId::COUNT];
        for (i, util) in utilization.iter_mut().enumerate() {
            if self.control.util_samples[i] > 0 {
                *util = self.control.util_sum[i] / self.control.util_samples[i] as f64;
            }
        }
        let sample = ControlSample {
            start: self.control.start,
            end: now,
            queue_utilization: utilization,
            issued: self.control.issued,
            committed: self.committed - self.control.committed,
        };
        let decision = governor.decide(&sample);
        for d in DomainId::ALL {
            if let Some(f) = decision[d.index()] {
                let ci = self.clock_index(d);
                self.clocks[ci].request_frequency(now, f);
                if let Some(p) = self.probe.as_mut() {
                    p.freq_request(d.index(), now, f, RequestSource::Governor);
                }
            }
        }
        self.control = ControlState {
            start: now,
            committed: self.committed,
            ..ControlState::default()
        };
        self.control_next = now + governor.interval();
    }

    fn apply_schedule(&mut self, now: Femtos) {
        if self.single_clock {
            return; // schedules only drive MCD machines
        }
        while self.schedule_pos < self.cfg.schedule.len() {
            let entry = self.cfg.schedule.entries()[self.schedule_pos];
            if entry.at > now {
                break;
            }
            let ci = entry.domain.index();
            self.clocks[ci].request_frequency(entry.at, entry.frequency);
            if let Some(p) = self.probe.as_mut() {
                p.freq_request(ci, entry.at, entry.frequency, RequestSource::Schedule);
            }
            self.schedule_pos += 1;
        }
    }

    // ------------------------------------------------------------------
    // Front end: commit, dispatch, fetch (in that order within an edge).
    // ------------------------------------------------------------------

    fn tick_commit_dispatch_fetch(&mut self, now: Femtos) {
        self.tick_commit(now);
        self.tick_dispatch(now);
        self.tick_fetch(now);
    }

    fn tick_commit(&mut self, now: Femtos) {
        let v_fe = self.voltage(DomainId::FrontEnd);
        let v_ls = self.voltage(DomainId::LoadStore);
        for _ in 0..self.pcfg.retire_width {
            if self.committed >= self.target {
                break;
            }
            let Some(front) = self.rob.front() else { break };
            if !front.completed || front.completion_visible_fe > now {
                break;
            }
            let entry = self.rob.pop_front().expect("front exists");
            self.rob_head_seq += 1;
            let mut traced = self.traced.pop_front();
            // Stores write the data cache at commit.
            if entry.instr.op == OpClass::Store {
                let addr = entry.instr.mem.expect("store has address").addr;
                let l1_hit = self.l1d.access(addr, true);
                self.ledger.record(Unit::Dcache, v_ls);
                let l2_hit = l1_hit || {
                    let hit = self.l2.access(addr, true);
                    self.ledger.record(Unit::L2, v_ls);
                    hit
                };
                if let Some(t) = &mut traced {
                    t.l1_miss = !l1_hit;
                    t.l2_miss = !l2_hit;
                    t.mem_access =
                        Some(EventSpan::new(now, now + self.period(DomainId::LoadStore)));
                }
            }
            if let Some(id) = entry.lsq_id {
                self.lsq.release_oldest(id);
            }
            if let Some(prev) = entry.prev_phys {
                self.rename.free(prev);
            }
            self.ledger.record(Unit::Rob, v_fe);
            self.committed += 1;
            self.last_commit_time = now;
            if let Some(t) = traced {
                self.trace.push(InstrTrace { commit: now, ..t });
            }
        }
    }

    fn tick_dispatch(&mut self, now: Femtos) {
        let fe_period = self.period(DomainId::FrontEnd);
        let v_fe = self.voltage(DomainId::FrontEnd);
        for _ in 0..self.pcfg.decode_width {
            let Some(front) = self.fetchq.front() else {
                break;
            };
            if front.fetch_span.end > now {
                break; // fetched this very edge; dispatch next cycle
            }
            if self.rob.len() >= self.pcfg.rob_size {
                break;
            }
            let op = front.instr.op;
            let is_mem = op.is_mem();
            // Structural checks before consuming the fetch-queue entry.
            let iq_target_full = match DomainId::executing(op) {
                DomainId::FloatingPoint => self.iq_fp.is_full(),
                // Memory ops need an integer-IQ slot for address generation.
                _ => self.iq_int.is_full(),
            };
            if iq_target_full || (is_mem && (self.lsq.is_full() || self.iq_int.is_full())) {
                break;
            }
            let needs_dest = front.instr.dest.is_some();
            if needs_dest {
                let dest = front.instr.dest.expect("checked");
                let free = if dest.is_fp() {
                    self.rename.free_fp()
                } else {
                    self.rename.free_int()
                };
                if free == 0 {
                    break;
                }
            }
            let fetched = self.fetchq.pop_front().expect("front exists");
            let tracing = self.cfg.collect_trace;
            // Rename sources.
            let src_phys = fetched
                .instr
                .srcs
                .map(|src| src.map(|reg| self.rename.lookup(reg)));
            let exec_domain = DomainId::executing(op);
            if tracing {
                let src_producers =
                    src_phys.map(|phys| phys.and_then(|p| self.writer_of[p.index()]));
                self.traced.push_back(InstrTrace {
                    seq: fetched.seq,
                    op,
                    exec_domain,
                    fetch: fetched.fetch_span,
                    dispatch: EventSpan::new(now, now + fe_period),
                    addr_calc: None,
                    mem_access: None,
                    execute: None,
                    commit: Femtos::ZERO,
                    src_producers,
                    l1_miss: false,
                    l2_miss: false,
                    mispredicted: fetched.mispredicted,
                });
            }
            // Rename destination.
            let (dest_phys, prev_phys) = match fetched.instr.dest {
                Some(reg) => {
                    let renamed = self.rename.allocate(reg).expect("free list checked");
                    let base = renamed.new.index() * DomainId::COUNT;
                    self.ready_at[base..base + DomainId::COUNT].fill(Femtos::MAX);
                    if tracing {
                        self.writer_of[renamed.new.index()] = Some(fetched.seq);
                    }
                    (Some(renamed.new), Some(renamed.prev))
                }
                None => (None, None),
            };
            // Queue writes become visible to the consuming scheduler after
            // the synchronization window (§2.2).
            let sched_domain = if is_mem {
                DomainId::Integer
            } else {
                exec_domain
            };
            let iq_visible_at = self.vis_probed(now, DomainId::FrontEnd, sched_domain);
            // The sources issue waits on, as in `Pipeline::issue_ready`.
            let zero = self.zero_row();
            let row = |phys: Option<PhysReg>| {
                phys.map_or(zero, |p| p.index() * DomainId::COUNT + sched_domain.index())
            };
            let srcs = match op {
                OpClass::Load => [row(src_phys[0]), zero],
                OpClass::Store => [row(src_phys[1]), zero],
                _ => [row(src_phys[0]), row(src_phys[1])],
            };
            let slot = IqSlot {
                seq: fetched.seq,
                visible_at: iq_visible_at,
                srcs,
            };
            let unit = match sched_domain {
                DomainId::FloatingPoint => Unit::IqFp,
                _ => Unit::IqInt,
            };
            let v = self.voltage(sched_domain);
            self.ledger.record(unit, v);
            self.iq_mut(sched_domain).push(slot);
            let lsq_id = if is_mem {
                let kind = if op == OpClass::Load {
                    MemAccessKind::Load
                } else {
                    MemAccessKind::Store
                };
                let v_ls = self.voltage(DomainId::LoadStore);
                self.ledger.record(Unit::Lsq, v_ls);
                Some(self.lsq.allocate(kind).expect("capacity checked"))
            } else {
                None
            };
            self.ledger.record(Unit::Rename, v_fe);
            self.ledger.record(Unit::Rob, v_fe);
            self.rob.push_back(InFlight {
                instr: fetched.instr,
                dest_phys,
                prev_phys,
                src_phys,
                lsq_id,
                iq_visible_at,
                mem_done: false,
                completed: false,
                completion_visible_fe: Femtos::MAX,
                mispredicted: fetched.mispredicted,
            });
        }
    }

    fn tick_fetch(&mut self, now: Femtos) {
        if self.fetch_blocked_on.is_some() || now < self.fetch_resume_at {
            if let Some(p) = self.probe.as_mut() {
                let cause = if self.fetch_blocked_on.is_some() {
                    StallCause::BranchRedirect
                } else {
                    StallCause::MemoryWait
                };
                let period = self.periods[DomainId::FrontEnd.index()];
                p.stall(DomainId::FrontEnd.index(), now, cause, period);
            }
            return;
        }
        let fe_period = self.period(DomainId::FrontEnd);
        let v_fe = self.voltage(DomainId::FrontEnd);
        for _ in 0..self.pcfg.decode_width {
            if self.fetchq.is_full() {
                break;
            }
            let instr = match self.pending_fetch.take() {
                Some(i) => i,
                None => self.input.next(),
            };
            // I-cache access.
            self.ledger.record(Unit::ICache, v_fe);
            let hit = self.l1i.access(instr.pc, false);
            if !hit {
                // Miss is served by the L2, which lives in the load/store
                // domain: cross there and back.
                let v_ls = self.voltage(DomainId::LoadStore);
                self.ledger.record(Unit::L2, v_ls);
                let l2_hit = self.l2.access(instr.pc, false);
                let to_ls = self.vis_probed(now, DomainId::FrontEnd, DomainId::LoadStore);
                let mut done = to_ls + self.period(DomainId::LoadStore) * self.pcfg.l2_latency;
                if !l2_hit {
                    done += self.pcfg.mem_latency;
                }
                self.fetch_resume_at =
                    self.vis_probed(done, DomainId::LoadStore, DomainId::FrontEnd);
                self.pending_fetch = Some(instr);
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let fetch_span = EventSpan::new(now, now + fe_period);
            let mut mispredicted = false;
            if let Some(branch) = instr.branch {
                self.ledger.record(Unit::Bpred, v_fe);
                self.branch_lookups += 1;
                let pred = self.bpred.predict(instr.pc);
                let direction_ok = pred.taken == branch.taken;
                let target_ok = !branch.taken || pred.target == Some(branch.target);
                if !(direction_ok && target_ok) {
                    mispredicted = true;
                    self.branch_mispredicts += 1;
                    self.fetch_blocked_on = Some(seq);
                    self.fetch_resume_at = Femtos::MAX;
                }
                // Correctly predicted taken branches fetch through (line
                // prediction); only mispredicts break the stream.
            }
            let pushed = self.fetchq.push_back(Fetched {
                seq,
                instr,
                fetch_span,
                mispredicted,
            });
            assert!(pushed.is_ok(), "fetch-queue fullness was checked");
            if mispredicted {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Integer / floating-point execution domains.
    // ------------------------------------------------------------------

    fn tick_exec(&mut self, domain: DomainId, now: Femtos) {
        debug_assert!(matches!(
            domain,
            DomainId::Integer | DomainId::FloatingPoint
        ));
        let iq = self.iq(domain);
        if iq.is_empty() {
            return;
        }
        // The paper's scheduler issues by age among ready entries. Readiness
        // is read once, off the slots: nothing issued in this tick becomes
        // ready within it, because every latency is at least one cycle.
        let mut ready = iq.ready_mask(&self.ready_at, now);
        let width = match domain {
            DomainId::Integer => self.pcfg.issue_width_int,
            _ => self.pcfg.issue_width_fp,
        };
        // Each issued slot leaves at its bit index, less the slots already
        // removed in this tick.
        let mut issued = 0;
        while ready != 0 && issued < width {
            let i = ready.trailing_zeros() as usize - issued;
            ready &= ready - 1;
            let seq = self.iq(domain).seq_at(i).expect("slot in the mask");
            if self.try_issue(domain, seq, now) {
                self.iq_mut(domain).remove_at(i);
                issued += 1;
            }
        }
    }

    /// Whether IQ entry `seq` may issue in `domain` at `now`: the scheduler
    /// sees it, and the sources it waits on are visible in the queue's
    /// domain (a memory op waits only for its address operand). The
    /// reference walk asks this of every entry; [`Pipeline::tick_exec`]
    /// reads the same answer off [`IssueQueue::ready_mask`].
    fn issue_ready(&self, domain: DomainId, seq: u64, now: Femtos) -> bool {
        let entry = self.rob_get(seq);
        let srcs = match entry.instr.op {
            OpClass::Load => [entry.src_phys[0], None],
            OpClass::Store => [entry.src_phys[1], None],
            _ => entry.src_phys,
        };
        entry.iq_visible_at <= now
            && srcs
                .iter()
                .all(|&src| self.src_ready_at(src, domain) <= now)
    }

    /// Issues IQ entry `seq`, which must be ready
    /// ([`Pipeline::issue_ready`]); returns false, with no side effects, if
    /// its functional unit is busy. The caller removes an issued entry
    /// from its queue.
    fn try_issue(&mut self, domain: DomainId, seq: u64, now: Femtos) -> bool {
        debug_assert!(self.issue_ready(domain, seq, now), "entry is not ready");
        let period = self.period(domain);
        let op = self.rob_get(seq).instr.op;
        if op.is_mem() {
            // Address-generation µop (always in the integer domain).
            let busy_until = now + period; // AGU is pipelined
            if !self
                .fus
                .try_acquire(FuKind::IntAlu, now.as_femtos(), busy_until.as_femtos())
            {
                return false;
            }
            let done = now + period * self.pcfg.lat_agu;
            let addr = self
                .rob_get(seq)
                .instr
                .mem
                .expect("mem op has address")
                .addr;
            let vis_ls = self.vis_probed(done, DomainId::Integer, DomainId::LoadStore);
            self.pending_addrs.push((vis_ls, seq, addr));
            let v_int = self.voltage(DomainId::Integer);
            self.ledger.record(Unit::AluInt, v_int);
            self.ledger.record(Unit::RegInt, v_int);
            self.ledger.record(Unit::BusInt, v_int);
            self.control.issued[DomainId::Integer.index()] += 1;
            if let Some(t) = self.traced_mut(seq) {
                t.addr_calc = Some(EventSpan::new(now, done));
            }
            return true;
        }
        let (fu, unpipelined) = match op {
            OpClass::IntAlu | OpClass::Branch => (FuKind::IntAlu, false),
            OpClass::IntMul => (FuKind::IntMulDiv, false),
            OpClass::IntDiv => (FuKind::IntMulDiv, true),
            OpClass::FpAdd => (FuKind::FpAlu, false),
            OpClass::FpMul => (FuKind::FpMulDiv, false),
            OpClass::FpDiv | OpClass::FpSqrt => (FuKind::FpMulDiv, true),
            OpClass::Load | OpClass::Store => unreachable!("handled above"),
        };
        let latency = self.pcfg.latency(op);
        let done = now + period * latency;
        let busy_until = if unpipelined { done } else { now + period };
        if !self
            .fus
            .try_acquire(fu, now.as_femtos(), busy_until.as_femtos())
        {
            return false;
        }
        // Energy: issue-queue read, register-file operands + writeback,
        // functional unit, result bus.
        let v = self.voltage(domain);
        match domain {
            DomainId::Integer => {
                self.ledger.record(Unit::IqInt, v);
                self.ledger.record_n(Unit::RegInt, v, 3);
                self.ledger.record(Unit::BusInt, v);
                match fu {
                    FuKind::IntMulDiv => self.ledger.record(Unit::MulInt, v),
                    _ => self.ledger.record(Unit::AluInt, v),
                }
            }
            _ => {
                self.ledger.record(Unit::IqFp, v);
                self.ledger.record_n(Unit::RegFp, v, 3);
                self.ledger.record(Unit::BusFp, v);
                match fu {
                    FuKind::FpMulDiv => self.ledger.record(Unit::MulFp, v),
                    _ => self.ledger.record(Unit::AluFp, v),
                }
            }
        }
        self.control.issued[domain.index()] += 1;
        // Writeback visibility.
        if let Some(dest) = self.rob_get(seq).dest_phys {
            self.set_ready(dest, done, domain);
        }
        // Branch resolution.
        let is_branch = op == OpClass::Branch;
        if is_branch {
            let (pc, taken, target, mispredicted) = {
                let e = self.rob_get(seq);
                let b = e.instr.branch.expect("branch payload");
                (e.instr.pc, b.taken, b.target, e.mispredicted)
            };
            self.bpred.update(pc, taken, target);
            let v_fe = self.voltage(DomainId::FrontEnd);
            self.ledger.record(Unit::Bpred, v_fe);
            if mispredicted {
                let redirect = self.vis_probed(done, domain, DomainId::FrontEnd);
                let fe_period = self.period(DomainId::FrontEnd);
                self.fetch_resume_at = redirect + fe_period * self.pcfg.mispredict_penalty;
                debug_assert_eq!(self.fetch_blocked_on, Some(seq));
                self.fetch_blocked_on = None;
            }
        }
        let completion_visible_fe = self.vis_probed(done, domain, DomainId::FrontEnd);
        if let Some(t) = self.traced_mut(seq) {
            t.execute = Some(EventSpan::new(now, done));
        }
        let e = self.rob_get_mut(seq);
        e.completed = true;
        e.completion_visible_fe = completion_visible_fe;
        true
    }

    // ------------------------------------------------------------------
    // Load/store domain.
    // ------------------------------------------------------------------

    fn tick_loadstore(&mut self, now: Femtos) {
        // 1. Apply effective addresses that have crossed into this domain,
        //    registering each mem op in the dense store/load work lists
        //    (kept in ascending seq order — the same order a scan of the
        //    seq-ordered ROB would yield).
        if !self.pending_addrs.is_empty() {
            let mut applied = std::mem::take(&mut self.addr_scratch);
            applied.clear();
            self.pending_addrs.retain(|(vis, seq, addr)| {
                if *vis <= now {
                    applied.push((*seq, *addr));
                    false
                } else {
                    true
                }
            });
            let any_applied = !applied.is_empty();
            for &(seq, addr) in &applied {
                let id = self.rob_get(seq).lsq_id.expect("mem op in LSQ");
                self.lsq.set_address(id, addr);
                if self.rob_get(seq).instr.op == OpClass::Store {
                    self.ls_stores.push(seq);
                } else {
                    self.ls_loads.push(seq);
                }
            }
            self.addr_scratch = applied;
            if any_applied {
                self.ls_stores.sort_unstable();
                self.ls_loads.sort_unstable();
            }
        }
        if self.ls_stores.is_empty() && self.ls_loads.is_empty() {
            return;
        }

        // 2. Complete stores whose address and data are both present.
        let v_ls = self.voltage(DomainId::LoadStore);
        if !self.ls_stores.is_empty() {
            let mut stores = std::mem::take(&mut self.ls_stores);
            let mut completed_any = false;
            for &seq in &stores {
                let data_src = self.rob_get(seq).src_phys[0];
                if self.src_ready_at(data_src, DomainId::LoadStore) > now {
                    continue;
                }
                self.ledger.record(Unit::Lsq, v_ls);
                let completion_visible_fe =
                    self.vis_probed(now, DomainId::LoadStore, DomainId::FrontEnd);
                let e = self.rob_get_mut(seq);
                e.mem_done = true;
                e.completed = true;
                e.completion_visible_fe = completion_visible_fe;
                completed_any = true;
            }
            if completed_any {
                stores.retain(|&seq| !self.rob_get(seq).mem_done);
            }
            self.ls_stores = stores;
        }

        // 3. Issue ready loads, oldest first, up to the port width.
        let loads = std::mem::take(&mut self.ls_loads);
        let mut completed_any = false;
        let mut issued = 0;
        for &seq in &loads {
            if issued >= self.pcfg.issue_width_mem {
                break;
            }
            let id = self.rob_get(seq).lsq_id.expect("load in LSQ");
            let status = self.lsq.load_status(id);
            let ls_period = self.period(DomainId::LoadStore);
            let (done, l1_miss, l2_miss, forwarded) = match status {
                LoadStatus::ReadyFromCache => {
                    let busy = now + ls_period;
                    if !self
                        .fus
                        .try_acquire(FuKind::MemPort, now.as_femtos(), busy.as_femtos())
                    {
                        break; // ports exhausted this cycle
                    }
                    let addr = self.rob_get(seq).instr.mem.expect("load address").addr;
                    self.ledger.record(Unit::Dcache, v_ls);
                    let l1_hit = self.l1d.access(addr, false);
                    let mut done = now + ls_period * self.pcfg.l1_latency;
                    let mut l2_miss = false;
                    if !l1_hit {
                        self.ledger.record(Unit::L2, v_ls);
                        let l2_hit = self.l2.access(addr, false);
                        done = now + ls_period * (self.pcfg.l1_latency + self.pcfg.l2_latency);
                        if !l2_hit {
                            done += self.pcfg.mem_latency;
                            l2_miss = true;
                        }
                    }
                    (done, !l1_hit, l2_miss, false)
                }
                LoadStatus::ReadyForwarded { .. } => (now + ls_period, false, false, true),
                _ => continue,
            };
            self.ledger.record(Unit::Lsq, v_ls);
            self.ledger.record(Unit::BusLs, v_ls);
            self.control.issued[DomainId::LoadStore.index()] += 1;
            self.lsq.mark_issued(id, forwarded);
            if let Some(dest) = self.rob_get(seq).dest_phys {
                self.set_ready(dest, done, DomainId::LoadStore);
            }
            let completion_visible_fe =
                self.vis_probed(done, DomainId::LoadStore, DomainId::FrontEnd);
            let e = self.rob_get_mut(seq);
            e.mem_done = true;
            e.completed = true;
            e.completion_visible_fe = completion_visible_fe;
            if let Some(t) = self.traced_mut(seq) {
                t.mem_access = Some(EventSpan::new(now, done));
                t.l1_miss = l1_miss;
                t.l2_miss = l2_miss;
            }
            completed_any = true;
            issued += 1;
        }
        let mut loads = loads;
        if completed_any {
            loads.retain(|&seq| !self.rob_get(seq).mem_done);
        }
        self.ls_loads = loads;
    }

    fn into_result(mut self) -> RunResult {
        if let Some(recording) = &self.recording {
            for clock in &mut self.clocks {
                if let Some(tape) = clock.take_jitter_tape() {
                    recording.give_back(tape);
                }
            }
        }
        let mut domain_cycles = [0u64; DomainId::COUNT];
        let mut domain_v2 = [0f64; DomainId::COUNT];
        let mut domain_idle = [Femtos::ZERO; DomainId::COUNT];
        let mut domain_transitions = [0u64; DomainId::COUNT];
        let mut avg_freq = [0f64; DomainId::COUNT];
        let secs = self.last_commit_time.as_secs_f64().max(1e-18);
        for d in DomainId::ALL {
            let c = &self.clocks[if self.clocks.len() == 1 { 0 } else { d.index() }];
            domain_cycles[d.index()] = c.cycles();
            domain_v2[d.index()] = c.v2_cycle_sum();
            domain_idle[d.index()] = c.idle_total();
            domain_transitions[d.index()] =
                c.controller().map(|ctl| ctl.transitions()).unwrap_or(0);
            avg_freq[d.index()] = c.cycles() as f64 / secs;
        }
        if self.clocks.len() == 1 {
            // A single physical clock serves all four logical domains; the
            // per-domain split of clock energy is handled by the power model
            // via capacitance shares, so report the same cycle counts.
            let cycles = self.clocks[0].cycles();
            let v2 = self.clocks[0].v2_cycle_sum();
            for d in DomainId::ALL {
                domain_cycles[d.index()] = cycles;
                domain_v2[d.index()] = v2;
                avg_freq[d.index()] = cycles as f64 / secs;
            }
        }
        RunResult {
            committed: self.committed,
            total_time: self.last_commit_time,
            domain_cycles,
            domain_v2_cycles: domain_v2,
            domain_idle,
            domain_transitions,
            avg_frequency_hz: avg_freq,
            ledger: self.ledger,
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            branch_lookups: self.branch_lookups,
            branch_mispredicts: self.branch_mispredicts,
            lsq_forwards: self.lsq.forwards(),
            trace: if self.cfg.collect_trace {
                Some(self.trace)
            } else {
                None
            },
        }
    }
}

/// The cache and predictor state after an `n`-instruction warm-up stream
/// (see [`warm_stream_len`]), from the process-wide share (see [`warm`]).
///
/// Warm-up streams instructions through the caches and branch predictor
/// without timing, then clears their statistics. This stands in for the
/// paper's practice of simulating a window deep inside execution, where
/// long-lived structures are already warm. The stream depends only on the
/// workload, the seed, the stream length and the structures' geometry —
/// not on the clocking mode under measurement — so repeated cells in a
/// campaign pay for it once.
fn warm_structures(cfg: &MachineConfig, profile: &BenchmarkProfile) -> WarmState {
    let n = warm_stream_len(cfg, profile);
    let pcfg = &cfg.pipeline;
    let key = format!(
        "{}|{}|{}|{}|{}|{}|{}",
        serde_json::to_string(profile).expect("profile serializes"),
        cfg.seed,
        n,
        serde_json::to_string(&pcfg.l1i).expect("config serializes"),
        serde_json::to_string(&pcfg.l1d).expect("config serializes"),
        serde_json::to_string(&pcfg.l2).expect("config serializes"),
        serde_json::to_string(&pcfg.bpred).expect("config serializes"),
    );
    WarmState::clone(&warm::get_or_build(&key, || {
        build_warm_state(pcfg, profile, cfg.seed, n)
    }))
}

/// Warm-up stream length: the configured count, but at least one full pass
/// over the program's phases so that no phase starts cold inside the
/// measured window.
fn warm_stream_len(cfg: &MachineConfig, profile: &BenchmarkProfile) -> u64 {
    cfg.warmup_instructions.max(profile.cycle_length() + 10_000)
}

/// Builds the warmed cache/predictor state for an `n`-instruction warm-up
/// stream from scratch. Shared by the cached path ([`warm_structures`]) and
/// the reference interpreter, which deliberately bypasses the process-wide
/// cache.
fn build_warm_state(
    pcfg: &PipelineConfig,
    profile: &BenchmarkProfile,
    seed: u64,
    n: u64,
) -> WarmState {
    let WarmState {
        mut l1i,
        mut l1d,
        mut l2,
        mut bpred,
    } = WarmState::cold(pcfg);
    let mut warm_gen = WorkloadGenerator::new(profile.clone(), seed);
    // Pre-touch the long-reuse-distance warm sets into the L2 (they are
    // deliberately L1-hostile, so only the L2 is touched).
    for line in warm_gen.warm_footprint() {
        l2.access(line, false);
    }
    for _ in 0..n {
        let instr = warm_gen.next_instruction();
        if !l1i.access(instr.pc, false) {
            l2.access(instr.pc, false);
        }
        if let Some(mem) = instr.mem {
            // Skip the streaming region: the timed run re-generates the
            // same address sequence, and pre-touching it would turn
            // compulsory misses into false hits.
            if mem.addr < 0x8000_0000 {
                let is_write = instr.op == OpClass::Store;
                if !l1d.access(mem.addr, is_write) {
                    l2.access(mem.addr, is_write);
                }
            }
        }
        if let Some(b) = instr.branch {
            bpred.update(instr.pc, b.taken, b.target);
        }
    }
    l1i.reset_stats();
    l1d.reset_stats();
    l2.reset_stats();
    bpred.reset_stats();
    WarmState {
        l1i,
        l1d,
        l2,
        bpred,
    }
}

/// Extension trait kept private: deriving a u64 seed from a [`SimRng`].
trait SeedProbe {
    fn next_u64_seed(self) -> u64;
}

impl SeedProbe for SimRng {
    fn next_u64_seed(mut self) -> u64 {
        self.next_u64()
    }
}
