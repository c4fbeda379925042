//! The paper's five machine configurations and the experiment driver.
//!
//! §4: *baseline* (single 1 GHz clock, no scaling), *baseline MCD* (four
//! domains statically at 1 GHz — pure synchronization cost), *dynamic-1 %*
//! and *dynamic-5 %* (baseline MCD plus per-domain schedules from the
//! off-line tool at θ = 1 % / 5 %), and *global* (the baseline's single
//! clock and voltage scaled so its performance degradation matches
//! dynamic-5 % — conventional whole-chip DVFS at equal slowdown).

use serde::{Deserialize, Serialize};

use mcd_offline::OfflineConfig;
use mcd_pipeline::{DomainId, PolicySpec};
use mcd_power::PowerModel;
use mcd_time::{DvfsModel, Frequency};
use mcd_workload::BenchmarkProfile;

use crate::cell::{BenchmarkSession, RunOptions, ScenarioSpec};
use crate::metrics::Metrics;

/// Experiment parameters shared by all benchmarks.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Experiment seed (workload, jitter, PLL lock times).
    pub seed: u64,
    /// Committed instructions per run.
    pub instructions: u64,
    /// DVFS transition model for the dynamic configurations.
    pub model: DvfsModel,
    /// Power model.
    pub power: PowerModel,
    /// Off-line tool configuration template (dilation target is overridden
    /// per dynamic configuration).
    pub offline: OfflineConfig,
}

impl ExperimentConfig {
    /// The paper's setup under a given DVFS model.
    pub fn paper(seed: u64, instructions: u64, model: DvfsModel) -> Self {
        ExperimentConfig {
            seed,
            instructions,
            model,
            power: PowerModel::paper_calibrated(),
            offline: OfflineConfig::paper(0.05, model),
        }
    }
}

/// Per-domain summary used by Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainSummary {
    /// Reconfigurations per million committed instructions.
    pub reconfigs_per_mi: f64,
    /// Time-weighted mean frequency (Hz) over the planned schedule.
    pub mean_frequency_hz: f64,
    /// Lowest planned frequency (Hz).
    pub min_frequency_hz: u64,
    /// Highest planned frequency (Hz).
    pub max_frequency_hz: u64,
}

/// One governed (online-policy) row of a benchmark's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRow {
    /// Canonical policy spec (e.g. `attack-decay` or `queue-pi:setpoint=0.6`).
    pub policy: String,
    /// Measured metrics under the governor.
    pub metrics: Metrics,
    /// Frequency changes the hardware actually applied.
    pub reconfigurations: usize,
}

/// Everything measured for one benchmark.
///
/// The `online` rows are omitted when empty: documents produced by the
/// five-cell paper experiment stay byte-identical to the pre-policy format,
/// and older documents (no `online` key) deserialize to an empty row set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkResults {
    /// Benchmark name.
    pub name: String,
    /// Single-clock 1 GHz baseline.
    pub baseline: Metrics,
    /// Four domains at a static 1 GHz.
    pub baseline_mcd: Metrics,
    /// MCD with the θ = 1 % schedule.
    pub dynamic1: Metrics,
    /// MCD with the θ = 5 % schedule.
    pub dynamic5: Metrics,
    /// Globally scaled single clock matched to dynamic-5 % degradation.
    pub global: Metrics,
    /// The frequency the global search settled on.
    pub global_frequency: Frequency,
    /// Figure-9 summaries for the θ = 5 % schedule (indexed by
    /// [`DomainId::index`]; the front end never scales).
    pub domain_summary5: [DomainSummary; DomainId::COUNT],
    /// Reconfigurations scheduled at θ = 5 %.
    pub reconfigurations5: usize,
    /// Baseline IPC, for reporting.
    pub baseline_ipc: f64,
    /// Governed rows, one per online policy requested (empty for the plain
    /// five-configuration experiment).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub online: Vec<OnlineRow>,
}

impl BenchmarkResults {
    /// Performance degradation of each configuration versus baseline, in the
    /// figure order `[baseline MCD, dynamic-1 %, dynamic-5 %, global]`.
    pub fn perf_degradation(&self) -> [f64; 4] {
        [
            self.baseline_mcd.perf_degradation_vs(&self.baseline),
            self.dynamic1.perf_degradation_vs(&self.baseline),
            self.dynamic5.perf_degradation_vs(&self.baseline),
            self.global.perf_degradation_vs(&self.baseline),
        ]
    }

    /// Energy savings versus baseline, same order.
    pub fn energy_savings(&self) -> [f64; 4] {
        [
            self.baseline_mcd.energy_savings_vs(&self.baseline),
            self.dynamic1.energy_savings_vs(&self.baseline),
            self.dynamic5.energy_savings_vs(&self.baseline),
            self.global.energy_savings_vs(&self.baseline),
        ]
    }

    /// Energy-delay improvement versus baseline, same order. A degenerate
    /// (zero-EDP) baseline reports neutral zeros; use
    /// [`Metrics::try_energy_delay_improvement_vs`] to detect it.
    pub fn energy_delay_improvement(&self) -> [f64; 4] {
        [
            self.baseline_mcd
                .energy_delay_improvement_vs(&self.baseline),
            self.dynamic1.energy_delay_improvement_vs(&self.baseline),
            self.dynamic5.energy_delay_improvement_vs(&self.baseline),
            self.global.energy_delay_improvement_vs(&self.baseline),
        ]
    }
}

/// Runs the full experiment (all five configurations) for one benchmark.
///
/// # Example
///
/// ```no_run
/// use mcd_core::{run_benchmark, ExperimentConfig};
/// use mcd_time::DvfsModel;
/// use mcd_workload::suites;
///
/// let cfg = ExperimentConfig::paper(1, 100_000, DvfsModel::XScale);
/// let art = suites::by_name("art").expect("known benchmark");
/// let results = run_benchmark(&art, &cfg);
/// println!("dynamic-5% ED improvement: {:.1}%",
///          100.0 * results.energy_delay_improvement()[2]);
/// ```
pub fn run_benchmark(profile: &BenchmarkProfile, cfg: &ExperimentConfig) -> BenchmarkResults {
    run_benchmark_scenarios(
        profile,
        cfg,
        RunOptions::default(),
        [0.01, 0.05],
        &[],
        &mut |_, _| {},
    )
}

/// Runs the five paper configurations at the dilation targets `thetas`,
/// plus one governed row per online policy.
///
/// Each policy in `policies` adds an `online-<policy>` cell (MCD topology
/// under the given governor); with an empty policy list the returned
/// results serialize byte-identically to the pre-policy format.
///
/// `observe` is called once per configuration cell with its label and wall
/// time (a cell's span includes any shared intermediates it was the first
/// to need — e.g. the first dynamic cell pays for the traced run and the
/// shaker pass), then once per pipeline phase under the reserved `phase:`
/// label prefix (`phase:trace-run`, `phase:slack`, `phase:cluster`,
/// `phase:simulate`). [`RunOptions`] are results-neutral: the returned
/// results are byte-identical for any options value.
pub fn run_benchmark_scenarios(
    profile: &BenchmarkProfile,
    cfg: &ExperimentConfig,
    options: RunOptions,
    thetas: [f64; 2],
    policies: &[PolicySpec],
    observe: &mut dyn FnMut(&str, std::time::Duration),
) -> BenchmarkResults {
    let mut session = BenchmarkSession::with_options(profile, cfg, options);
    let mut timed = |session: &mut BenchmarkSession, scenario: &ScenarioSpec| {
        let start = std::time::Instant::now();
        let result = session.cell(scenario);
        observe(&result.label, start.elapsed());
        result
    };

    // The five configurations share intermediates through the session: the
    // traced baseline-MCD run feeds the off-line analysis (whose expensive
    // shaker pass runs once for both dilation targets), and the dynamic-5 %
    // execution time anchors the global-scaling search.
    let baseline = timed(&mut session, &ScenarioSpec::baseline()).metrics;
    let baseline_mcd = timed(&mut session, &ScenarioSpec::baseline_mcd()).metrics;
    let dynamic1 = timed(&mut session, &ScenarioSpec::dynamic(thetas[0])).metrics;
    let dyn5 = timed(&mut session, &ScenarioSpec::dynamic(thetas[1]));
    let global_cell = timed(&mut session, &ScenarioSpec::global_matched());

    let online: Vec<OnlineRow> = policies
        .iter()
        .map(|policy| {
            let cell = timed(&mut session, &ScenarioSpec::online(policy.clone()));
            OnlineRow {
                policy: policy.canonical(),
                metrics: cell.metrics,
                reconfigurations: cell
                    .reconfigurations
                    .expect("online cell reports reconfigurations"),
            }
        })
        .collect();

    let phases = session.phases();
    observe("phase:trace-run", phases.trace_run);
    observe("phase:slack", phases.slack);
    observe("phase:cluster", phases.cluster);
    observe("phase:simulate", phases.simulate);

    let baseline_ipc = session.baseline_run().ipc();
    let analysis5 = session.analysis(thetas[1]);
    let domain_summary5 = DomainId::ALL.map(|d| {
        let s = &analysis5.stats[d.index()];
        DomainSummary {
            reconfigs_per_mi: s.reconfigurations as f64 * 1e6 / cfg.instructions as f64,
            mean_frequency_hz: s.mean_frequency_hz,
            min_frequency_hz: s.min_frequency.as_hz(),
            max_frequency_hz: s.max_frequency.as_hz(),
        }
    });

    BenchmarkResults {
        name: profile.name.clone(),
        baseline,
        baseline_mcd,
        dynamic1,
        dynamic5: dyn5.metrics,
        global: global_cell.metrics,
        global_frequency: global_cell
            .frequency
            .expect("global cell reports its frequency"),
        domain_summary5,
        reconfigurations5: dyn5
            .reconfigurations
            .expect("dynamic cell reports reconfigurations"),
        baseline_ipc,
        online,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workload::suites;

    #[test]
    fn full_experiment_has_paper_shape_for_integer_code() {
        let cfg = ExperimentConfig::paper(5, 60_000, DvfsModel::XScale);
        let profile = suites::by_name("bzip2").expect("known benchmark");
        let r = run_benchmark(&profile, &cfg);
        let perf = r.perf_degradation();
        let energy = r.energy_savings();
        let ed = r.energy_delay_improvement();
        // Baseline MCD: slower and no cheaper.
        assert!(perf[0] > 0.0, "MCD overhead {:.3}", perf[0]);
        assert!(perf[0] < 0.15, "MCD overhead too large {:.3}", perf[0]);
        // Dynamic-5 % saves real energy.
        assert!(
            energy[2] > 0.06,
            "dynamic-5% energy savings {:.3}",
            energy[2]
        );
        // Dynamic-5 % saves at least as much energy as dynamic-1 %.
        assert!(
            energy[2] >= energy[1] - 0.02,
            "5% {:.3} vs 1% {:.3}",
            energy[2],
            energy[1]
        );
        // Dynamic ED must recover well above the baseline-MCD ED cost.
        assert!(
            ed[2] > ed[0] + 0.03,
            "dynamic-5% ED ({:.3}) should recover from the MCD cost ({:.3})",
            ed[2],
            ed[0]
        );
    }

    #[test]
    fn online_policies_add_rows_without_disturbing_the_paper_cells() {
        let cfg = ExperimentConfig::paper(5, 20_000, DvfsModel::XScale);
        let profile = suites::by_name("adpcm").expect("known benchmark");
        let plain = run_benchmark(&profile, &cfg);
        let policies = [
            PolicySpec::parse("attack-decay").expect("valid policy"),
            PolicySpec::parse("queue-pi").expect("valid policy"),
        ];
        let mut labels = Vec::new();
        let governed = run_benchmark_scenarios(
            &profile,
            &cfg,
            RunOptions::default(),
            [0.01, 0.05],
            &policies,
            &mut |label, _| labels.push(label.to_string()),
        );
        assert_eq!(governed.online.len(), 2);
        assert_eq!(governed.online[0].policy, "attack-decay");
        assert_eq!(governed.online[1].policy, "queue-pi");
        assert!(labels.contains(&"online-attack-decay".to_string()));
        assert!(labels.contains(&"online-queue-pi".to_string()));
        // The five paper cells are untouched by the extra rows.
        assert_eq!(governed.baseline, plain.baseline);
        assert_eq!(governed.dynamic5, plain.dynamic5);
        assert_eq!(governed.global_frequency, plain.global_frequency);
        // The governor actually exercised the clocks.
        assert!(governed.online[0].reconfigurations > 0);
    }

    #[test]
    fn results_serde_is_backward_and_forward_compatible() {
        let cfg = ExperimentConfig::paper(3, 8_000, DvfsModel::XScale);
        let profile = suites::by_name("adpcm").expect("known benchmark");
        let plain = run_benchmark(&profile, &cfg);
        let json = serde_json::to_string(&plain).expect("serializable");
        // No governed rows → no `online` key: pre-policy format exactly.
        assert!(!json.contains("\"online\""));
        let back: BenchmarkResults = serde_json::from_str(&json).expect("parses");
        assert!(back.online.is_empty());
        assert_eq!(serde_json::to_string(&back).expect("serializable"), json);

        let governed = run_benchmark_scenarios(
            &profile,
            &cfg,
            RunOptions::default(),
            [0.01, 0.05],
            &[PolicySpec::parse("attack-decay").expect("valid policy")],
            &mut |_, _| {},
        );
        let json = serde_json::to_string(&governed).expect("serializable");
        assert!(json.contains("\"online\""));
        let back: BenchmarkResults = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.online, governed.online);
        assert_eq!(serde_json::to_string(&back).expect("serializable"), json);
    }

    #[test]
    fn global_matches_dynamic5_slowdown() {
        let cfg = ExperimentConfig::paper(5, 40_000, DvfsModel::XScale);
        let profile = suites::by_name("gcc").expect("known benchmark");
        let r = run_benchmark(&profile, &cfg);
        let perf = r.perf_degradation();
        // The global configuration's degradation should be near dynamic-5 %'s
        // (quantized to the 32-point grid).
        assert!(
            (perf[3] - perf[2]).abs() < 0.08,
            "global {:.3} vs dynamic-5% {:.3}",
            perf[3],
            perf[2]
        );
    }
}
