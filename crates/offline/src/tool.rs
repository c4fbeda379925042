//! End-to-end off-line analysis: trace → DAGs → shaker → histograms →
//! clustering → reconfiguration schedule.
//!
//! This reproduces the paper's methodology: run the application once at full
//! speed on the baseline MCD machine collecting the event trace, analyze it
//! here, then feed the emitted [`FrequencySchedule`] back into a second,
//! dynamic simulation run.

use mcd_pipeline::{
    simulate, DomainId, FrequencySchedule, InstrTrace, MachineConfig, PipelineConfig, RunResult,
};
use mcd_time::{DvfsModel, Femtos, Frequency, PllModel, VfTable};
use mcd_workload::BenchmarkProfile;
use serde::{Map, Serialize, Value};

use crate::cluster::{
    cluster_domain, emit_schedule, plan_stats, Cluster, ClusterConfig, DomainPlanStats,
};
use crate::dag::{build_interval_dags, PowerFactors};
use crate::histogram::FreqHistogram;
use crate::shaker::{run_shaker_with, AnalysisScratch, ShakerConfig};

/// Off-line tool configuration.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Analysis interval length, in base-frequency cycles (paper: 50 000).
    pub interval_cycles: u64,
    /// Target dilation θ (0.01 for dynamic-1 %, 0.05 for dynamic-5 %).
    pub dilation_target: f64,
    /// Per-domain de-rating of the dilation budget, compensating for
    /// structural (queue back-pressure, miss-serialization) effects the
    /// analytic model cannot see. Indexed by [`DomainId::index`]; the
    /// front-end entry is unused. The load/store factor is the tightest:
    /// slowing the L1/L2 pipeline serializes overlapped misses, which the
    /// DAG's slack structure cannot express (and the paper itself notes the
    /// load/store domain "must continue to operate at a high frequency in
    /// order to service the misses as quickly as possible").
    pub budget_safety: [f64; DomainId::COUNT],
    /// DVFS model the schedule is intended for.
    pub model: DvfsModel,
    /// Operating region.
    pub vf: VfTable,
    /// PLL re-lock model.
    pub pll: PllModel,
    /// Full-speed frequency of the trace run.
    pub base_frequency: Frequency,
    /// Shaker tuning.
    pub shaker: ShakerConfig,
    /// Per-domain relative power factors.
    pub power: PowerFactors,
    /// Scale the front end too (ablation; the paper never does).
    pub scale_front_end: bool,
    /// Add load/store events into the integer histogram so effective-address
    /// computation stays fast when memory activity is high (§3.2 footnote).
    pub couple_ls_into_int: bool,
}

impl OfflineConfig {
    /// The paper's configuration at a given dilation target and model.
    pub fn paper(dilation_target: f64, model: DvfsModel) -> Self {
        OfflineConfig {
            interval_cycles: 50_000,
            dilation_target,
            budget_safety: [1.0, 0.5, 0.7, 0.12],
            model,
            vf: VfTable::paper(),
            pll: PllModel::paper(),
            base_frequency: Frequency::GHZ,
            shaker: ShakerConfig::default(),
            power: PowerFactors::default(),
            scale_front_end: false,
            couple_ls_into_int: true,
        }
    }
}

/// Everything the analysis produces.
#[derive(Debug, Clone)]
pub struct AnalysisOutput {
    /// The reconfiguration log to replay in the dynamic run.
    pub schedule: FrequencySchedule,
    /// Per-domain cluster plans (front end stays empty).
    pub clusters: [Vec<Cluster>; DomainId::COUNT],
    /// Per-domain Figure-9 statistics.
    pub stats: [DomainPlanStats; DomainId::COUNT],
    /// End of the analyzed trace.
    pub trace_end: Femtos,
    /// Instructions analyzed.
    pub instructions: u64,
}

/// The θ-independent product of the expensive trace-analysis passes: one
/// slack histogram per domain per 50 K-cycle interval.
///
/// Deriving schedules for several dilation targets (the experiment driver
/// needs both θ = 1 % and θ = 5 %, each refined over multiple budget
/// iterations) only requires re-running the cheap clustering pass
/// ([`cluster_schedule`]) over this shared profile — the DAG construction
/// and shaker stretching, which dominate analysis time, run once.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SlackProfile {
    /// Per-domain `(interval start, interval end, frequency histogram)`.
    pub per_domain: [Vec<(Femtos, Femtos, FreqHistogram)>; DomainId::COUNT],
    /// End of the analyzed trace.
    pub trace_end: Femtos,
    /// Instructions analyzed.
    pub instructions: u64,
    /// Whether the front end was included in the shake (ablation only).
    pub scale_front_end: bool,
}

/// Runs the θ-independent half of the analysis: trace → interval DAGs →
/// shaker → per-domain frequency histograms.
///
/// Every interval is shaken on its own, in interval order, through one
/// reused [`AnalysisScratch`].
///
/// Only `interval_cycles`, `base_frequency`, `power`, `shaker`,
/// `scale_front_end` and `couple_ls_into_int` of `cfg` are consulted here;
/// the dilation target, budgets and DVFS model enter in
/// [`cluster_schedule`].
pub fn prepare_slack(
    trace: &[InstrTrace],
    pcfg: &PipelineConfig,
    cfg: &OfflineConfig,
) -> SlackProfile {
    let interval_len =
        Femtos::from_femtos(cfg.interval_cycles * cfg.base_frequency.period().as_femtos());
    let trace_end = trace
        .iter()
        .map(|t| t.commit)
        .fold(Femtos::ZERO, Femtos::max);
    let dags = build_interval_dags(trace, pcfg, interval_len, cfg.power, cfg.scale_front_end);
    let mut scratch = AnalysisScratch::new();
    let mut per_domain: [Vec<(Femtos, Femtos, FreqHistogram)>; DomainId::COUNT] =
        [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for mut dag in dags {
        let mut hists = run_shaker_with(&mut dag, &cfg.shaker, cfg.base_frequency, &mut scratch);
        if cfg.couple_ls_into_int {
            let ls = hists[DomainId::LoadStore.index()].clone();
            hists[DomainId::Integer.index()].merge(&ls);
        }
        for (d, hist) in DomainId::ALL.into_iter().zip(hists) {
            per_domain[d.index()].push((dag.start, dag.end, hist));
        }
    }
    SlackProfile {
        per_domain,
        trace_end,
        instructions: trace.len() as u64,
        scale_front_end: cfg.scale_front_end,
    }
}

/// [`prepare_slack`] under its former name; `threads` is ignored.
///
/// Kept only because the repository benchmark's `offline.slack_ms` layer
/// still calls it; ROADMAP item 2 removes it once the benchmark moves to
/// [`prepare_slack`].
#[doc(hidden)]
pub fn prepare_slack_threads(
    trace: &[InstrTrace],
    pcfg: &PipelineConfig,
    cfg: &OfflineConfig,
    _threads: usize,
) -> SlackProfile {
    prepare_slack(trace, pcfg, cfg)
}

/// Version tag of the slack-profile cache entries; bump when the analysis
/// or the [`SlackProfile`] wire format changes shape.
pub const SLACK_PROFILE_FORMAT: &str = "mcd-slack-profile/1";

/// Canonical key material identifying a [`SlackProfile`] for cross-process
/// caching: the benchmark, the traced machine (seed + pipeline config), and
/// exactly the [`OfflineConfig`] fields [`prepare_slack`] consults.
///
/// The dilation target, budget de-ratings and DVFS model deliberately do
/// *not* enter: they only affect [`cluster_schedule`], so θ = 1 % and
/// θ = 5 % cells (and every `refine_dynamic` budget iteration) share one
/// cache entry.
pub fn slack_cache_key_material(
    profile: &BenchmarkProfile,
    seed: u64,
    instructions: u64,
    pcfg: &PipelineConfig,
    cfg: &OfflineConfig,
) -> String {
    let mut offline = Map::new();
    offline.insert("interval_cycles".into(), cfg.interval_cycles.to_value());
    offline.insert("base_frequency".into(), cfg.base_frequency.to_value());
    offline.insert("power".into(), cfg.power.by_domain.to_value());
    offline.insert("shaker_max_scale".into(), cfg.shaker.max_scale.to_value());
    offline.insert("shaker_passes".into(), cfg.shaker.passes.to_value());
    offline.insert("scale_front_end".into(), cfg.scale_front_end.to_value());
    offline.insert(
        "couple_ls_into_int".into(),
        cfg.couple_ls_into_int.to_value(),
    );
    let mut root = Map::new();
    root.insert("format".into(), SLACK_PROFILE_FORMAT.to_value());
    root.insert("benchmark".into(), profile.to_value());
    root.insert("seed".into(), seed.to_value());
    root.insert("instructions".into(), instructions.to_value());
    root.insert("pipeline".into(), pcfg.to_value());
    root.insert("offline".into(), offline.to_value());
    serde_json::to_string(&Value::Object(root)).expect("key material serializes")
}

/// Runs the θ-dependent half of the analysis: clustering the slack
/// histograms into per-domain plans and emitting the reconfiguration
/// schedule for `cfg`'s dilation target, budgets and DVFS model.
pub fn cluster_schedule(slack: &SlackProfile, cfg: &OfflineConfig) -> AnalysisOutput {
    debug_assert_eq!(
        slack.scale_front_end, cfg.scale_front_end,
        "slack profile was prepared under a different front-end policy"
    );
    let per_domain = &slack.per_domain;
    let trace_end = slack.trace_end;
    let mut all_entries = Vec::new();
    let mut clusters: [Vec<Cluster>; DomainId::COUNT] =
        [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let scaled_domains = if cfg.scale_front_end {
        &DomainId::ALL[..]
    } else {
        &DomainId::ALL[1..]
    };
    for d in scaled_domains {
        let ccfg = ClusterConfig {
            dilation_target: cfg.dilation_target,
            budget_safety: cfg.budget_safety[d.index()],
            model: cfg.model,
            vf: cfg.vf,
            pll: cfg.pll,
        };
        let plan = cluster_domain(&per_domain[d.index()], &ccfg);
        all_entries.extend(emit_schedule(*d, &plan, &ccfg, cfg.base_frequency));
        clusters[d.index()] = plan;
    }
    let schedule = FrequencySchedule::from_entries(all_entries);
    let stats = DomainId::ALL.map(|d| plan_stats(d, &schedule, cfg.base_frequency, trace_end));
    AnalysisOutput {
        schedule,
        clusters,
        stats,
        trace_end,
        instructions: slack.instructions,
    }
}

/// Analyzes a collected trace and derives the reconfiguration schedule.
///
/// One-shot composition of [`prepare_slack`] and [`cluster_schedule`];
/// callers that need several dilation targets over the same trace should
/// call the two halves separately and reuse the [`SlackProfile`].
pub fn analyze(trace: &[InstrTrace], pcfg: &PipelineConfig, cfg: &OfflineConfig) -> AnalysisOutput {
    cluster_schedule(&prepare_slack(trace, pcfg, cfg), cfg)
}

/// Convenience wrapper: runs the full-speed traced simulation of
/// `profile` on the baseline MCD machine, analyzes it, and returns both the
/// analysis and the trace run's results.
pub fn derive_schedule(
    seed: u64,
    profile: &BenchmarkProfile,
    instructions: u64,
    cfg: &OfflineConfig,
) -> (AnalysisOutput, RunResult) {
    let mut machine = MachineConfig::baseline_mcd(seed);
    machine.collect_trace = true;
    let run = simulate(&machine, profile, instructions);
    let trace = run.trace.as_ref().expect("trace was requested");
    let analysis = analyze(trace, &machine.pipeline, cfg);
    (analysis, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workload::suites;

    fn profile(name: &str) -> BenchmarkProfile {
        suites::by_name(name).expect("known benchmark")
    }

    #[test]
    fn art_schedule_scales_fp_domain() {
        // art alternates FP-busy and FP-idle phases; the tool must find FP
        // scaling opportunities (this is the mechanism behind Fig. 8).
        let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (analysis, _) = derive_schedule(11, &profile("art"), 60_000, &cfg);
        let fp = &analysis.stats[DomainId::FloatingPoint.index()];
        assert!(
            fp.mean_frequency_hz < 0.95e9,
            "FP domain should scale below full speed: {:.3e}",
            fp.mean_frequency_hz
        );
    }

    #[test]
    fn integer_code_scales_fp_to_the_floor() {
        let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (analysis, _) = derive_schedule(11, &profile("bzip2"), 40_000, &cfg);
        let fp = &analysis.stats[DomainId::FloatingPoint.index()];
        assert_eq!(fp.min_frequency, Frequency::MIN_SCALED);
        assert!(fp.mean_frequency_hz < 0.6e9, "{:.3e}", fp.mean_frequency_hz);
    }

    #[test]
    fn g721_keeps_integer_domain_fast() {
        // g721: balanced mix, high IPC — "the integer and load/store domains
        // must run near maximum speed in order to sustain this".
        let cfg = OfflineConfig::paper(0.01, DvfsModel::XScale);
        let (analysis, _) = derive_schedule(11, &profile("g721"), 40_000, &cfg);
        let int = &analysis.stats[DomainId::Integer.index()];
        assert!(
            int.mean_frequency_hz > 0.8e9,
            "integer domain should stay fast: {:.3e}",
            int.mean_frequency_hz
        );
    }

    #[test]
    fn tighter_dilation_target_means_higher_frequencies() {
        let cfg1 = OfflineConfig::paper(0.01, DvfsModel::XScale);
        let cfg5 = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (a1, _) = derive_schedule(11, &profile("gcc"), 40_000, &cfg1);
        let (a5, _) = derive_schedule(11, &profile("gcc"), 40_000, &cfg5);
        let m1 = a1.stats[DomainId::Integer.index()].mean_frequency_hz;
        let m5 = a5.stats[DomainId::Integer.index()].mean_frequency_hz;
        assert!(
            m1 >= m5 - 1e6,
            "dynamic-1% ({m1:.3e}) should keep the integer domain at least as fast as dynamic-5% ({m5:.3e})"
        );
    }

    #[test]
    fn transmeta_schedules_fewer_reconfigurations() {
        let xs_cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let tm_cfg = OfflineConfig::paper(0.05, DvfsModel::Transmeta);
        let (xs, _) = derive_schedule(11, &profile("art"), 60_000, &xs_cfg);
        let (tm, _) = derive_schedule(11, &profile("art"), 60_000, &tm_cfg);
        let count = |a: &AnalysisOutput| a.schedule.len();
        assert!(
            count(&tm) <= count(&xs),
            "Transmeta ({}) should reconfigure no more than XScale ({})",
            count(&tm),
            count(&xs)
        );
    }

    #[test]
    fn front_end_is_never_scheduled() {
        let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (analysis, _) = derive_schedule(11, &profile("mesa"), 40_000, &cfg);
        assert_eq!(
            analysis.schedule.counts_per_domain()[DomainId::FrontEnd.index()],
            0
        );
        let fe_mean = analysis.stats[DomainId::FrontEnd.index()].mean_frequency_hz;
        assert!((fe_mean - 1e9).abs() < 1e3, "front end mean {fe_mean}");
    }

    #[test]
    fn analysis_covers_the_whole_trace() {
        let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (analysis, run) = derive_schedule(11, &profile("adpcm"), 20_000, &cfg);
        assert_eq!(analysis.instructions, 20_000);
        assert_eq!(analysis.trace_end, run.total_time);
        for d in &DomainId::ALL[1..] {
            let plan = &analysis.clusters[d.index()];
            assert!(!plan.is_empty());
            // Clusters tile the trace without gaps.
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}
