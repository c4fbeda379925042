//! Cell-level experiment API: one (benchmark × machine configuration) run.
//!
//! The paper's five configurations are not independent — `dynamic-θ` needs
//! the traced baseline-MCD run, and `global` needs the dynamic-5 % execution
//! time to match its slowdown against. [`BenchmarkSession`] owns those
//! shared intermediates and memoizes them, so any subset of cells can be
//! computed in any order while every expensive product (the traced run, the
//! shaker's slack profile, each refined schedule) is built exactly once.
//! Both the serial driver ([`crate::run_benchmark`]) and the parallel
//! campaign harness go through this one code path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcd_offline::{
    cluster_schedule, prepare_slack, slack_cache_key_material, AnalysisOutput, SlackProfile,
};
use mcd_pipeline::{
    DomainId, FrequencySchedule, Governor, MachineConfig, Pipeline, PipelineConfig, PolicySpec,
    Recording, RunControl, RunResult, ScheduleEntry,
};
use mcd_time::{Femtos, Frequency, FrequencyGrid, VfTable};
use mcd_workload::BenchmarkProfile;

use crate::experiment::ExperimentConfig;
use crate::metrics::Metrics;

/// Cross-process persistence hook for shaker slack profiles.
///
/// The session asks the store for a serialized [`SlackProfile`] before
/// running the expensive shaker pass, and offers the freshly computed
/// profile back afterwards. Keys are the canonical JSON key material from
/// [`mcd_offline::slack_cache_key_material`]; implementations are expected
/// to hash it themselves. A store must look infallible from the session's
/// side: load errors degrade to a miss (`None`), store errors are absorbed
/// (the in-memory profile is still good). `Send + Sync` because the
/// campaign harness shares one store across worker threads (and hands it to
/// watchdog-monitored attempt threads).
pub trait SlackStore: Send + Sync {
    /// Returns the serialized profile stored under `key_material`, if any.
    fn load(&self, key_material: &str) -> Option<String>;
    /// Persists `payload` under `key_material`.
    fn store(&self, key_material: &str, payload: &str);
}

/// Session execution options: slack-profile reuse.
///
/// Results-neutral: the produced [`CellResult`]s and [`RunResult`]s are
/// byte-identical with or without a store (that is the contract
/// [`SlackStore`] is held to).
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Optional cross-process slack-profile store.
    pub slack_store: Option<Arc<dyn SlackStore>>,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("slack_store", &self.slack_store.is_some())
            .finish()
    }
}

/// Wall-time breakdown of a session's work by pipeline phase.
///
/// Spans accumulate as cells force their shared intermediates, so after the
/// paper's five cells the four fields partition essentially all of the
/// session's compute time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// The traced baseline-MCD run (§3.2 trace collection).
    pub trace_run: Duration,
    /// The off-line slack analysis (DAG build + shaker) — or the cache
    /// round-trip that replaced it.
    pub slack: Duration,
    /// Clustering and schedule emission, over all refinement iterations.
    pub cluster: Duration,
    /// Every other simulator run: baseline, dynamic, probes, global search.
    pub simulate: Duration,
}

/// The machine topology a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Single 1 GHz clock.
    Baseline,
    /// Four independently clocked domains.
    Mcd,
    /// Single clock scaled so its slowdown matches dynamic-5 %.
    GlobalMatched,
}

impl Topology {
    fn tag(self) -> &'static str {
        match self {
            Topology::Baseline => "baseline",
            Topology::Mcd => "mcd",
            Topology::GlobalMatched => "global-matched",
        }
    }
}

/// The control layer driving a scenario's clocks.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// No scaling: every domain stays at its static frequency.
    None,
    /// The off-line tool's schedule at dilation target θ.
    OfflineSchedule {
        /// Dilation target (fraction, e.g. `0.05` for θ = 5 %).
        theta: f64,
    },
    /// An on-line governor from the policy registry.
    Online {
        /// The policy instantiation (id plus parameter overrides).
        policy: PolicySpec,
    },
}

/// One declarative run configuration: machine topology × control layer.
///
/// The paper's five configurations are the four valid (topology, control)
/// legacy combinations (θ appears twice); the `Online` control axis is
/// what makes governed runs first-class campaign cells. Construct through
/// the named constructors — [`ScenarioSpec::validate`] rejects the
/// combinations the simulator cannot express (schedules and governors both
/// need per-domain clocks, and the global search dictates its own control).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Machine topology.
    pub topology: Topology,
    /// Control layer.
    pub control: Control,
}

impl ScenarioSpec {
    /// The paper's five configurations in figure order.
    pub const PAPER: [ScenarioSpec; 5] = [
        ScenarioSpec {
            topology: Topology::Baseline,
            control: Control::None,
        },
        ScenarioSpec {
            topology: Topology::Mcd,
            control: Control::None,
        },
        ScenarioSpec {
            topology: Topology::Mcd,
            control: Control::OfflineSchedule { theta: 0.01 },
        },
        ScenarioSpec {
            topology: Topology::Mcd,
            control: Control::OfflineSchedule { theta: 0.05 },
        },
        ScenarioSpec {
            topology: Topology::GlobalMatched,
            control: Control::None,
        },
    ];

    /// Single 1 GHz clock, no scaling.
    pub fn baseline() -> ScenarioSpec {
        ScenarioSpec::PAPER[0].clone()
    }

    /// Four domains statically at 1 GHz (pure synchronization cost).
    pub fn baseline_mcd() -> ScenarioSpec {
        ScenarioSpec::PAPER[1].clone()
    }

    /// MCD with the off-line schedule at dilation target θ.
    pub fn dynamic(theta: f64) -> ScenarioSpec {
        ScenarioSpec {
            topology: Topology::Mcd,
            control: Control::OfflineSchedule { theta },
        }
    }

    /// Single clock scaled so its slowdown matches dynamic-5 %.
    pub fn global_matched() -> ScenarioSpec {
        ScenarioSpec::PAPER[4].clone()
    }

    /// MCD under an on-line governor from the policy registry.
    pub fn online(policy: PolicySpec) -> ScenarioSpec {
        ScenarioSpec {
            topology: Topology::Mcd,
            control: Control::Online { policy },
        }
    }

    /// Checks that the combination is one the simulator can express.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid pairing: schedules and
    /// governors both require the MCD topology (per-domain clocks), and the
    /// global-matched topology performs its own frequency search.
    pub fn validate(&self) -> Result<(), String> {
        match (&self.topology, &self.control) {
            (Topology::Baseline | Topology::GlobalMatched, Control::OfflineSchedule { .. }) => {
                Err(format!(
                    "{} topology cannot run a per-domain schedule",
                    self.topology.tag()
                ))
            }
            (Topology::Baseline | Topology::GlobalMatched, Control::Online { .. }) => Err(format!(
                "{} topology cannot run an on-line governor",
                self.topology.tag()
            )),
            _ => {
                if let Control::OfflineSchedule { theta } = self.control {
                    if !(theta.is_finite() && theta > 0.0 && theta < 1.0) {
                        return Err(format!("dilation target {theta} must lie in (0, 1)"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Human-readable, collision-free scenario name.
    ///
    /// The four legacy configurations keep their historical labels
    /// (`baseline`, `baseline-mcd`, `dynamic-5%`, `global`). On-line
    /// scenarios render as `online-` plus the policy's canonical
    /// `id[:key=value,…]` spec, which fingerprints the full parameter set,
    /// so two distinct scenarios can never share a label.
    pub fn label(&self) -> String {
        match (&self.topology, &self.control) {
            (Topology::Baseline, _) => "baseline".into(),
            (Topology::GlobalMatched, _) => "global".into(),
            (Topology::Mcd, Control::None) => "baseline-mcd".into(),
            (Topology::Mcd, Control::OfflineSchedule { theta }) => {
                let pct = theta * 100.0;
                if (pct - pct.round()).abs() < 1e-9 {
                    format!("dynamic-{pct:.0}%")
                } else {
                    // Off-grid θ: keep every digit so nearby targets cannot
                    // collide on a rounded label.
                    format!("dynamic-{pct:?}%")
                }
            }
            (Topology::Mcd, Control::Online { policy }) => format!("online-{}", policy.canonical()),
        }
    }
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Configuration name (see [`ScenarioSpec::label`]).
    pub label: String,
    /// Time/energy metrics of the run.
    pub metrics: Metrics,
    /// Committed instructions.
    pub committed: u64,
    /// Instructions per cycle (per base-frequency cycle).
    pub ipc: f64,
    /// The frequency the global search settled on (global cells only).
    pub frequency: Option<Frequency>,
    /// Scheduled reconfigurations (dynamic cells only).
    pub reconfigurations: Option<usize>,
}

pub(crate) fn metrics_of(cfg: &ExperimentConfig, run: &RunResult) -> Metrics {
    Metrics::new(run.total_time, cfg.power.energy_of(run).total())
}

/// Memoizing executor for one benchmark under one experiment configuration.
///
/// Every simulator run of a session replays one [`Recording`] of the
/// `(benchmark, seed)` inputs — the instruction stream and each clock's
/// jitter draws — instead of regenerating them per run; the recording
/// lives exactly as long as the session.
pub struct BenchmarkSession<'a> {
    profile: &'a BenchmarkProfile,
    cfg: &'a ExperimentConfig,
    options: RunOptions,
    recording: Recording,
    phases: PhaseTimes,
    baseline: Option<RunResult>,
    mcd: Option<(PipelineConfig, RunResult)>,
    slack: Option<SlackProfile>,
    /// Refined dynamic runs, keyed by θ's bit pattern.
    dynamic: Vec<(u64, AnalysisOutput, RunResult)>,
    /// Governed runs, keyed by the policy's canonical spec.
    online: Vec<(String, RunResult)>,
    global: Option<(Frequency, RunResult)>,
    /// Full-schedule runs already simulated, shared across θ targets and
    /// refinement iterations (a run is a pure function of its schedule
    /// here: seed, model, workload and length are fixed per session).
    run_memo: HashMap<Vec<ScheduleEntry>, RunResult>,
    /// Single-domain probe times, same sharing.
    probe_memo: HashMap<Vec<ScheduleEntry>, Femtos>,
}

impl<'a> BenchmarkSession<'a> {
    /// Creates a lazy session; nothing is simulated until a cell is asked
    /// for.
    pub fn new(profile: &'a BenchmarkProfile, cfg: &'a ExperimentConfig) -> Self {
        Self::with_options(profile, cfg, RunOptions::default())
    }

    /// [`BenchmarkSession::new`] with explicit execution options.
    pub fn with_options(
        profile: &'a BenchmarkProfile,
        cfg: &'a ExperimentConfig,
        options: RunOptions,
    ) -> Self {
        BenchmarkSession {
            profile,
            cfg,
            options,
            recording: Recording::new(profile, cfg.seed),
            phases: PhaseTimes::default(),
            baseline: None,
            mcd: None,
            slack: None,
            dynamic: Vec::new(),
            online: Vec::new(),
            global: None,
            run_memo: HashMap::new(),
            probe_memo: HashMap::new(),
        }
    }

    /// The benchmark this session runs.
    pub fn profile(&self) -> &BenchmarkProfile {
        self.profile
    }

    /// Accumulated wall time per pipeline phase so far.
    pub fn phases(&self) -> PhaseTimes {
        self.phases
    }

    /// Computes (or returns the memoized) result for one scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ScenarioSpec::validate`] — harness
    /// and CLI entry points validate specs before any session exists.
    pub fn cell(&mut self, scenario: &ScenarioSpec) -> CellResult {
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let label = scenario.label();
        let cfg = self.cfg;
        match (&scenario.topology, &scenario.control) {
            (Topology::Baseline, _) => {
                let run = self.baseline_run();
                CellResult {
                    label,
                    metrics: metrics_of(cfg, run),
                    committed: run.committed,
                    ipc: run.ipc(),
                    frequency: None,
                    reconfigurations: None,
                }
            }
            (Topology::Mcd, Control::None) => {
                let run = self.mcd_run();
                CellResult {
                    label,
                    metrics: metrics_of(cfg, run),
                    committed: run.committed,
                    ipc: run.ipc(),
                    frequency: None,
                    reconfigurations: None,
                }
            }
            (Topology::Mcd, Control::OfflineSchedule { theta }) => {
                let i = self.ensure_dynamic(*theta);
                let (_, analysis, run) = &self.dynamic[i];
                CellResult {
                    label,
                    metrics: metrics_of(cfg, run),
                    committed: run.committed,
                    ipc: run.ipc(),
                    frequency: None,
                    reconfigurations: Some(analysis.schedule.len()),
                }
            }
            (Topology::Mcd, Control::Online { policy }) => {
                let policy = policy.clone();
                let run = self.online_run(&policy);
                CellResult {
                    label,
                    metrics: metrics_of(cfg, run),
                    committed: run.committed,
                    ipc: run.ipc(),
                    frequency: None,
                    // The applied per-domain frequency transitions — the
                    // on-line analogue of a schedule's planned entries.
                    reconfigurations: Some(run.domain_transitions.iter().sum::<u64>() as usize),
                }
            }
            (Topology::GlobalMatched, _) => {
                let (frequency, run) = self.global_run();
                let (frequency, metrics, committed, ipc) =
                    (*frequency, metrics_of(cfg, run), run.committed, run.ipc());
                CellResult {
                    label,
                    metrics,
                    committed,
                    ipc,
                    frequency: Some(frequency),
                    reconfigurations: None,
                }
            }
        }
    }

    /// The single-clock 1 GHz baseline run.
    pub fn baseline_run(&mut self) -> &RunResult {
        if self.baseline.is_none() {
            let started = Instant::now();
            let machine = MachineConfig::baseline(self.cfg.seed);
            self.baseline = Some(replay(&self.recording, self.cfg, &machine, None));
            self.phases.simulate += started.elapsed();
        }
        self.baseline.as_ref().expect("just computed")
    }

    /// The traced baseline-MCD run.
    pub fn mcd_run(&mut self) -> &RunResult {
        self.ensure_mcd();
        &self.mcd.as_ref().expect("just computed").1
    }

    /// The governed run for one on-line policy: the MCD machine starts
    /// statically at 1 GHz under the session's DVFS model, and the
    /// governor's grid-snapped requests drive the domain clocks from there.
    /// Memoized per canonical policy spec.
    pub fn online_run(&mut self, policy: &PolicySpec) -> &RunResult {
        let key = policy.canonical();
        if let Some(i) = self.online.iter().position(|(k, _)| *k == key) {
            return &self.online[i].1;
        }
        let governor = policy
            .build()
            .unwrap_or_else(|e| panic!("invalid policy {key:?}: {e}"));
        let started = Instant::now();
        let machine =
            MachineConfig::dynamic(self.cfg.seed, self.cfg.model, FrequencySchedule::new());
        let run = replay(&self.recording, self.cfg, &machine, Some(governor));
        self.phases.simulate += started.elapsed();
        self.online.push((key, run));
        &self.online.last().expect("just pushed").1
    }

    /// The analysis behind the dynamic-θ schedule (Figure-9 statistics).
    pub fn analysis(&mut self, theta: f64) -> &AnalysisOutput {
        let i = self.ensure_dynamic(theta);
        &self.dynamic[i].1
    }

    /// The frequency the global search settled on, with its run.
    pub fn global_run(&mut self) -> &(Frequency, RunResult) {
        if self.global.is_none() {
            let i = self.ensure_dynamic(0.05);
            let target_time = self.dynamic[i].2.total_time;
            let baseline = self.baseline_run().clone();
            self.global = Some(search_global(
                &self.recording,
                self.cfg,
                target_time,
                &baseline,
                &mut self.phases,
            ));
        }
        self.global.as_ref().expect("just computed")
    }

    fn ensure_mcd(&mut self) {
        if self.mcd.is_none() {
            let started = Instant::now();
            let mut machine = MachineConfig::baseline_mcd(self.cfg.seed);
            machine.collect_trace = true;
            let run = replay(&self.recording, self.cfg, &machine, None);
            self.mcd = Some((machine.pipeline, run));
            self.phases.trace_run += started.elapsed();
        }
    }

    fn ensure_slack(&mut self) {
        self.ensure_mcd();
        if self.slack.is_some() {
            return;
        }
        let started = Instant::now();
        let (pipeline, run) = self.mcd.as_ref().expect("just ensured");
        let trace = run.trace.as_ref().expect("trace requested");
        let key = self.options.slack_store.as_ref().map(|_| {
            slack_cache_key_material(
                self.profile,
                self.cfg.seed,
                self.cfg.instructions,
                pipeline,
                &self.cfg.offline,
            )
        });
        let loaded = match (&self.options.slack_store, &key) {
            (Some(store), Some(key)) => store
                .load(key)
                .and_then(|payload| serde_json::from_str::<SlackProfile>(&payload).ok())
                // The key pins every input, so a mismatch here means a
                // corrupt or foreign payload: degrade to a recompute.
                .filter(|p| p.scale_front_end == self.cfg.offline.scale_front_end),
            _ => None,
        };
        let slack = match loaded {
            Some(profile) => profile,
            None => {
                let profile = prepare_slack(trace, pipeline, &self.cfg.offline);
                if let (Some(store), Some(key)) = (&self.options.slack_store, &key) {
                    if let Ok(payload) = serde_json::to_string(&profile) {
                        store.store(key, &payload);
                    }
                }
                profile
            }
        };
        self.slack = Some(slack);
        self.phases.slack += started.elapsed();
    }

    fn ensure_dynamic(&mut self, theta: f64) -> usize {
        let key = theta.to_bits();
        if let Some(i) = self.dynamic.iter().position(|(k, ..)| *k == key) {
            return i;
        }
        self.ensure_slack();
        let mcd_time = self.mcd.as_ref().expect("ensured").1.total_time;
        let (analysis, run) = refine_dynamic(
            &self.recording,
            self.cfg,
            self.slack.as_ref().expect("ensured"),
            theta,
            mcd_time,
            &mut self.run_memo,
            &mut self.probe_memo,
            &mut self.phases,
        );
        self.dynamic.push((key, analysis, run));
        self.dynamic.len() - 1
    }
}

/// Runs `machine` for the experiment's instruction count, replaying the
/// session's `recording` — every simulator run of a session goes through
/// here. Byte-identical to `simulate` / `simulate_governed`.
fn replay(
    recording: &Recording,
    cfg: &ExperimentConfig,
    machine: &MachineConfig,
    governor: Option<Box<dyn Governor>>,
) -> RunResult {
    let control = RunControl {
        governor,
        ..RunControl::default()
    };
    Pipeline::replaying(machine.clone(), recording).run(cfg.instructions, control)
}

/// Derives a schedule for dilation target θ and refines the per-domain
/// budgets until the dynamic run's measured degradation (over the baseline
/// MCD run) is close to θ.
///
/// Only the cheap clustering pass re-runs per refinement iteration; the
/// shaker's slack profile is shared across iterations *and* across θ
/// targets.
///
/// The two memo tables live in the session so identical schedules are
/// simulated once per session, not once per θ target (budget clamps
/// saturate, so the θ = 1 % and θ = 5 % refinements regularly regenerate
/// the same full or per-domain probe schedule — a run is a pure function of
/// its schedule here, with seed, model, workload and length fixed).
#[allow(clippy::too_many_arguments)]
fn refine_dynamic(
    recording: &Recording,
    cfg: &ExperimentConfig,
    slack: &SlackProfile,
    theta: f64,
    mcd_time: Femtos,
    run_memo: &mut HashMap<Vec<ScheduleEntry>, RunResult>,
    probe_memo: &mut HashMap<Vec<ScheduleEntry>, Femtos>,
    phases: &mut PhaseTimes,
) -> (AnalysisOutput, RunResult) {
    let mut off = cfg.offline.clone();
    off.dilation_target = theta;
    off.model = cfg.model;
    let base_safety = off.budget_safety;
    // Share of the degradation budget granted to each domain. Scaling each
    // domain's budget against its *measured* cost redistributes slack toward
    // domains that are cheap to slow on this particular benchmark.
    let weights = [0.0, 0.40, 0.25, 0.35];
    let mut scale = [1.0f64; DomainId::COUNT];
    let mut best: Option<(AnalysisOutput, RunResult)> = None;
    for iter in 0..3 {
        for (i, s) in off.budget_safety.iter_mut().enumerate() {
            *s = (base_safety[i] * scale[i]).clamp(0.02, 5.0);
        }
        let started = Instant::now();
        let analysis = cluster_schedule(slack, &off);
        phases.cluster += started.elapsed();
        let key = analysis.schedule.entries().to_vec();
        let run = match run_memo.get(&key) {
            Some(run) => run.clone(),
            None => {
                let started = Instant::now();
                let machine =
                    MachineConfig::dynamic(cfg.seed, cfg.model, analysis.schedule.clone());
                let run = replay(recording, cfg, &machine, None);
                phases.simulate += started.elapsed();
                run_memo.insert(key, run.clone());
                run
            }
        };
        best = Some((analysis, run));
        if iter == 2 {
            break;
        }
        // Measure each domain's isolated degradation and rescale its budget
        // toward its share of θ.
        let analysis_ref = &best.as_ref().expect("just set").0;
        let mut adjusted = false;
        for d in &DomainId::ALL[1..] {
            let entries: Vec<_> = analysis_ref
                .schedule
                .entries()
                .iter()
                .filter(|e| e.domain == *d)
                .copied()
                .collect();
            if entries.is_empty() {
                continue;
            }
            let probe_time = match probe_memo.get(&entries) {
                Some(t) => *t,
                None => {
                    let started = Instant::now();
                    let machine = MachineConfig::dynamic(
                        cfg.seed,
                        cfg.model,
                        FrequencySchedule::from_entries(entries.clone()),
                    );
                    let run_d = replay(recording, cfg, &machine, None);
                    phases.simulate += started.elapsed();
                    probe_memo.insert(entries, run_d.total_time);
                    run_d.total_time
                }
            };
            let deg_d = probe_time.as_femtos() as f64 / mcd_time.as_femtos() as f64 - 1.0;
            let target_d = theta * weights[d.index()];
            if deg_d > target_d * 1.35 + 0.003 || deg_d < target_d * 0.5 {
                let ratio = (target_d / deg_d.max(1e-4)).clamp(0.3, 2.5);
                scale[d.index()] = (scale[d.index()] * ratio).clamp(0.02, 8.0);
                adjusted = true;
            }
        }
        if !adjusted {
            break;
        }
    }
    best.expect("at least one iteration ran")
}

/// Finds a 32-point-grid frequency whose single-clock run time is close to
/// `target_time` (the dynamic-5 % execution time), by bisection: the best
/// of the probed points wins.
///
/// Run time falls with frequency only roughly — at short windows it is not
/// monotone (see `global_run_time_is_not_monotone_in_frequency`) — so the
/// answer is defined by this probe path. A search that probes other points
/// (say, seeded by interpolating measured run times) can settle elsewhere
/// and change result bytes.
fn search_global(
    recording: &Recording,
    cfg: &ExperimentConfig,
    target_time: Femtos,
    baseline: &RunResult,
    phases: &mut PhaseTimes,
) -> (Frequency, RunResult) {
    let grid = FrequencyGrid::new(VfTable::paper(), 32);
    // `MachineConfig::global(seed, 1 GHz)` is the baseline machine under
    // another name — one domain, full speed, no schedule — so the session's
    // baseline run *is* that simulation, byte for byte (asserted by
    // `global_at_base_frequency_is_the_baseline_run`). Reusing it saves a
    // full simulation whenever the search touches the top of the grid.
    let run_at = |f: Frequency, phases: &mut PhaseTimes| -> RunResult {
        if f == Frequency::GHZ {
            return baseline.clone();
        }
        let started = Instant::now();
        let run = replay(recording, cfg, &MachineConfig::global(cfg.seed, f), None);
        phases.simulate += started.elapsed();
        run
    };
    if target_time <= baseline.total_time {
        // Dynamic-5 % was not slower: global cannot scale at all.
        let f = grid.points().last().expect("non-empty grid").frequency;
        let run = run_at(f, phases);
        return (f, run);
    }
    // Run time falls with frequency, roughly: bisect the grid.
    let mut lo = 0usize;
    let mut hi = grid.len() - 1;
    let mut probed = Vec::new();
    let mut best: Option<(u64, Frequency, RunResult)> = None;
    let consider =
        |i: usize, best: &mut Option<(u64, Frequency, RunResult)>, phases: &mut PhaseTimes| {
            let f = grid.point(i).frequency;
            let run = run_at(f, phases);
            let err = run.total_time.as_femtos().abs_diff(target_time.as_femtos());
            let slower = run.total_time > target_time;
            if best.as_ref().map(|(e, _, _)| err < *e).unwrap_or(true) {
                *best = Some((err, f, run));
            }
            slower
        };
    while lo < hi {
        let mid = (lo + hi) / 2;
        probed.push(mid);
        if consider(mid, &mut best, phases) {
            // Too slow: need a higher frequency.
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // Bisection often converges onto an index it already probed (`hi = mid`
    // on the last step); a repeat probe is an identical run whose error
    // cannot beat its own strict minimum, so skip it.
    if !probed.contains(&lo) {
        consider(lo, &mut best, phases);
    }
    let (_, f, run) = best.expect("at least one probe ran");
    (f, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_pipeline::simulate;
    use mcd_time::DvfsModel;
    use mcd_workload::suites;

    #[test]
    fn standalone_cell_matches_session_cell() {
        let cfg = ExperimentConfig::paper(7, 20_000, DvfsModel::XScale);
        let profile = suites::by_name("gcc").expect("known benchmark");
        let scenario = ScenarioSpec::dynamic(0.05);
        let standalone = BenchmarkSession::new(&profile, &cfg).cell(&scenario);
        let mut session = BenchmarkSession::new(&profile, &cfg);
        for scenario in ScenarioSpec::PAPER {
            session.cell(&scenario);
        }
        let from_session = session.cell(&scenario);
        assert_eq!(standalone.metrics, from_session.metrics);
        assert_eq!(standalone.committed, from_session.committed);
    }

    #[test]
    fn cells_are_memoized() {
        let cfg = ExperimentConfig::paper(7, 15_000, DvfsModel::XScale);
        let profile = suites::by_name("swim").expect("known benchmark");
        let mut session = BenchmarkSession::new(&profile, &cfg);
        let a = session.cell(&ScenarioSpec::baseline_mcd());
        let b = session.cell(&ScenarioSpec::baseline_mcd());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ScenarioSpec::baseline().label(), "baseline");
        assert_eq!(ScenarioSpec::baseline_mcd().label(), "baseline-mcd");
        assert_eq!(ScenarioSpec::dynamic(0.05).label(), "dynamic-5%");
        assert_eq!(ScenarioSpec::dynamic(0.01).label(), "dynamic-1%");
        assert_eq!(ScenarioSpec::global_matched().label(), "global");
    }

    #[test]
    fn labels_are_collision_free_across_the_axis() {
        let policy = |s: &str| PolicySpec::parse(s).expect("valid policy");
        let scenarios = [
            ScenarioSpec::baseline(),
            ScenarioSpec::baseline_mcd(),
            ScenarioSpec::dynamic(0.01),
            ScenarioSpec::dynamic(0.05),
            // Off-grid θ values that a rounded label would merge.
            ScenarioSpec::dynamic(0.012),
            ScenarioSpec::dynamic(0.0125),
            ScenarioSpec::global_matched(),
            ScenarioSpec::online(policy("attack-decay")),
            ScenarioSpec::online(policy("attack-decay:attack=0.1")),
            ScenarioSpec::online(policy("attack-decay:attack=0.1,decay=0.01")),
            ScenarioSpec::online(policy("queue-pi")),
            ScenarioSpec::online(policy("queue-pi:setpoint=0.6")),
        ];
        let labels: Vec<String> = scenarios.iter().map(ScenarioSpec::label).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b, "label collision");
            }
        }
        assert_eq!(labels[7], "online-attack-decay");
        assert_eq!(labels[9], "online-attack-decay:attack=0.1,decay=0.01");
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        for spec in [
            ScenarioSpec {
                topology: Topology::Baseline,
                control: Control::OfflineSchedule { theta: 0.05 },
            },
            ScenarioSpec {
                topology: Topology::GlobalMatched,
                control: Control::Online {
                    policy: PolicySpec::parse("attack-decay").expect("valid"),
                },
            },
            ScenarioSpec::dynamic(f64::NAN),
            ScenarioSpec::dynamic(0.0),
        ] {
            assert!(spec.validate().is_err(), "{spec:?} should be invalid");
        }
        for spec in ScenarioSpec::PAPER {
            spec.validate().expect("paper scenarios are valid");
        }
    }

    #[test]
    fn online_cell_runs_and_memoizes() {
        let cfg = ExperimentConfig::paper(7, 12_000, DvfsModel::XScale);
        let profile = suites::by_name("gcc").expect("known benchmark");
        let mut session = BenchmarkSession::new(&profile, &cfg);
        let scenario =
            ScenarioSpec::online(PolicySpec::parse("attack-decay").expect("valid policy"));
        let a = session.cell(&scenario);
        let b = session.cell(&scenario);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.label, "online-attack-decay");
        assert!(
            a.reconfigurations
                .expect("governed cells count transitions")
                > 0
        );
        // A different parameterization is a different cell.
        let other = session.cell(&ScenarioSpec::online(
            PolicySpec::parse("attack-decay:decay=0.02").expect("valid policy"),
        ));
        assert_ne!(other.label, a.label);
    }

    /// The load-bearing assumption behind `search_global`'s baseline reuse.
    #[test]
    fn global_at_base_frequency_is_the_baseline_run() {
        let cfg = ExperimentConfig::paper(3, 8_000, DvfsModel::XScale);
        let profile = suites::by_name("adpcm").expect("known benchmark");
        let base = simulate(
            &MachineConfig::baseline(cfg.seed),
            &profile,
            cfg.instructions,
        );
        let global = simulate(
            &MachineConfig::global(cfg.seed, Frequency::GHZ),
            &profile,
            cfg.instructions,
        );
        assert_eq!(
            serde_json::to_string(&base).unwrap(),
            serde_json::to_string(&global).unwrap(),
            "global(1 GHz) must be the baseline machine byte for byte"
        );
    }

    /// Every run a session replays is the plain run of the same machine,
    /// byte for byte — under both DVFS models (Transmeta schedules restore
    /// the jitter generator mid-run) and for an on-line policy, which runs
    /// on the session's own model.
    #[test]
    fn session_runs_match_plain_simulation() {
        let json = |r: &RunResult| serde_json::to_string(r).expect("serializes");
        let profile = suites::by_name("gcc").expect("known benchmark");
        let policy = PolicySpec::parse("attack-decay").expect("valid policy");
        for model in [DvfsModel::XScale, DvfsModel::Transmeta] {
            let cfg = ExperimentConfig::paper(4, 10_000, model);
            let n = cfg.instructions;
            let mut session = BenchmarkSession::new(&profile, &cfg);
            for scenario in ScenarioSpec::PAPER {
                session.cell(&scenario);
            }
            session.cell(&ScenarioSpec::online(policy.clone()));
            let base = simulate(&MachineConfig::baseline(cfg.seed), &profile, n);
            assert_eq!(json(session.baseline_run()), json(&base));
            let mut traced = MachineConfig::baseline_mcd(cfg.seed);
            traced.collect_trace = true;
            assert_eq!(
                json(session.mcd_run()),
                json(&simulate(&traced, &profile, n))
            );
            for (_, analysis, run) in &session.dynamic {
                let machine = MachineConfig::dynamic(cfg.seed, model, analysis.schedule.clone());
                assert_eq!(json(run), json(&simulate(&machine, &profile, n)));
            }
            let (f, run) = session.global_run().clone();
            let global = simulate(&MachineConfig::global(cfg.seed, f), &profile, n);
            assert_eq!(json(&run), json(&global));
            let governed = mcd_pipeline::simulate_governed(
                &MachineConfig::dynamic(cfg.seed, model, FrequencySchedule::new()),
                &profile,
                n,
                policy.build().expect("valid policy"),
            );
            assert_eq!(json(session.online_run(&policy)), json(&governed));
        }
    }

    /// Why `search_global` bisects and nothing smarter: at short windows
    /// the single-clock run time is not monotone in frequency, so the
    /// answer depends on which grid points the search probes.
    #[test]
    fn global_run_time_is_not_monotone_in_frequency() {
        let grid = FrequencyGrid::new(VfTable::paper(), 32);
        let profile = suites::by_name("treeadd").expect("known benchmark");
        let time_at = |seed: u64, i: usize| {
            let machine = MachineConfig::global(seed, grid.point(i).frequency);
            simulate(&machine, &profile, 8_000).total_time.as_femtos()
        };
        assert_eq!(time_at(1, 23), 9_972_321_290);
        assert_eq!(time_at(1, 24), 10_044_564_042);
        assert!(time_at(3, 30) > time_at(3, 29));
    }

    /// A session over a cold and then a warm slack store must produce the
    /// exact cells a session without a store does.
    #[test]
    fn run_options_are_results_neutral() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Store {
            map: Mutex<HashMap<String, String>>,
            loads: Mutex<usize>,
            hits: Mutex<usize>,
        }
        impl SlackStore for Store {
            fn load(&self, key: &str) -> Option<String> {
                *self.loads.lock().unwrap() += 1;
                let hit = self.map.lock().unwrap().get(key).cloned();
                if hit.is_some() {
                    *self.hits.lock().unwrap() += 1;
                }
                hit
            }
            fn store(&self, key: &str, payload: &str) {
                self.map
                    .lock()
                    .unwrap()
                    .insert(key.to_string(), payload.to_string());
            }
        }

        let cfg = ExperimentConfig::paper(7, 12_000, DvfsModel::XScale);
        let profile = suites::by_name("gcc").expect("known benchmark");
        let render = |session: &mut BenchmarkSession| -> String {
            let cells: Vec<String> = ScenarioSpec::PAPER
                .iter()
                .map(|c| format!("{:?}", session.cell(c)))
                .collect();
            cells.join("\n")
        };

        let mut plain = BenchmarkSession::new(&profile, &cfg);
        let reference = render(&mut plain);

        let store = Arc::new(Store::default());
        for pass in ["cold", "warm"] {
            let options = RunOptions {
                slack_store: Some(store.clone() as Arc<dyn SlackStore>),
            };
            let mut session = BenchmarkSession::with_options(&profile, &cfg, options);
            assert_eq!(
                render(&mut session),
                reference,
                "a {pass} store must not change any cell"
            );
        }
        assert_eq!(*store.loads.lock().unwrap(), 2, "one probe per session");
        assert_eq!(
            *store.hits.lock().unwrap(),
            1,
            "the second session loads what the first stored"
        );
    }
}
