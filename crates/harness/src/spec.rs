//! Campaign sweep specification and its expansion into cells.
//!
//! A campaign is a cross product *benchmarks × seeds × DVFS models* at a
//! fixed instruction window and dilation-target pair. Each point of the
//! product is one [`CellSpec`]: an independent unit of work that produces
//! one [`BenchmarkResults`] and is cached, retried, and scheduled on the
//! worker pool in isolation.

use std::fmt;

use serde::{Deserialize, Serialize};

use mcd_core::{run_benchmark_scenarios, BenchmarkResults, ExperimentConfig, RunOptions};
use mcd_pipeline::PolicySpec;
use mcd_time::DvfsModel;
use mcd_workload::{suites, BenchmarkProfile};

/// A full sweep: the cross product of benchmarks, seeds and DVFS models.
///
/// The `policies` axis is omitted when empty: policy-free specs produce
/// exactly the pre-policy document (and digest), and documents written
/// before the axis existed still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Benchmarks to run, in figure order. Empty means the full Table-2
    /// suite ([`suites::names`]).
    pub benchmarks: Vec<String>,
    /// Experiment seeds (workload, jitter, PLL lock times). One campaign
    /// row per seed.
    pub seeds: Vec<u64>,
    /// Committed instructions per run.
    pub instructions: u64,
    /// DVFS transition models to sweep.
    pub models: Vec<DvfsModel>,
    /// The two dilation targets `[θ_low, θ_high]` (paper: 1 % and 5 %).
    pub thetas: [f64; 2],
    /// Online control policies (`id[:key=value,…]` grammar). Each cell runs
    /// every listed policy as an extra governed row on top of the five paper
    /// configurations. Empty reproduces the paper sweep exactly.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub policies: Vec<String>,
}

impl CampaignSpec {
    /// The paper's headline sweep: all 16 benchmarks, one seed, the XScale
    /// model, θ ∈ {1 %, 5 %}.
    pub fn paper(seed: u64, instructions: u64, model: DvfsModel) -> Self {
        CampaignSpec {
            benchmarks: Vec::new(),
            seeds: vec![seed],
            instructions,
            models: vec![model],
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    /// The benchmark list with the empty-means-all default applied.
    pub fn benchmark_names(&self) -> Vec<String> {
        if self.benchmarks.is_empty() {
            suites::names().iter().map(|n| n.to_string()).collect()
        } else {
            self.benchmarks.clone()
        }
    }

    /// Expands the spec into cells in deterministic order: models outermost,
    /// then seeds, then benchmarks in figure order — so one (model, seed)
    /// row is contiguous and matches the serial driver's iteration order.
    pub fn expand(&self) -> Result<Vec<CellSpec>, SpecError> {
        if self.seeds.is_empty() {
            return Err(SpecError::Empty("seeds"));
        }
        if self.models.is_empty() {
            return Err(SpecError::Empty("models"));
        }
        if self.instructions == 0 {
            return Err(SpecError::Empty("instructions"));
        }
        for theta in self.thetas {
            if !(theta > 0.0 && theta < 1.0) {
                return Err(SpecError::BadTheta(theta));
            }
        }
        let names = self.benchmark_names();
        for name in &names {
            if suites::by_name(name).is_none() {
                return Err(SpecError::UnknownBenchmark(name.clone()));
            }
        }
        let policies = canonical_policies(&self.policies)?;
        let mut cells = Vec::with_capacity(names.len() * self.seeds.len() * self.models.len());
        for &model in &self.models {
            for &seed in &self.seeds {
                for name in &names {
                    cells.push(CellSpec {
                        benchmark: name.clone(),
                        seed,
                        instructions: self.instructions,
                        model,
                        thetas: self.thetas,
                        policies: policies.clone(),
                    });
                }
            }
        }
        Ok(cells)
    }
}

/// Validates policy specs against the registry and canonicalizes them
/// (sorted parameters, normalized numbers), rejecting duplicates that only
/// differ in spelling.
fn canonical_policies(policies: &[String]) -> Result<Vec<String>, SpecError> {
    let mut canonical = Vec::with_capacity(policies.len());
    for raw in policies {
        let spec =
            PolicySpec::parse(raw).map_err(|e| SpecError::BadPolicy(raw.clone(), e.to_string()))?;
        let c = spec.canonical();
        if canonical.contains(&c) {
            return Err(SpecError::BadPolicy(raw.clone(), "duplicate policy".into()));
        }
        canonical.push(c);
    }
    Ok(canonical)
}

/// One independent unit of campaign work: a benchmark under one parameter
/// point, producing the full five-configuration [`BenchmarkResults`] plus
/// one governed row per online policy.
///
/// `policies` is omitted when empty — policy-free cells keep their
/// pre-policy bytes, and therefore their pre-policy cache keys (see
/// [`crate::CacheKey`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Benchmark name (must exist in [`suites`]).
    pub benchmark: String,
    /// Experiment seed.
    pub seed: u64,
    /// Committed instructions per run.
    pub instructions: u64,
    /// DVFS transition model.
    pub model: DvfsModel,
    /// Dilation targets `[θ_low, θ_high]`.
    pub thetas: [f64; 2],
    /// Canonical online policy specs to run as extra governed rows (empty
    /// for the plain paper cell).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub policies: Vec<String>,
}

impl CellSpec {
    /// The benchmark profile this cell runs.
    pub fn profile(&self) -> BenchmarkProfile {
        suites::by_name(&self.benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark `{}`", self.benchmark))
    }

    /// The experiment configuration this cell runs under.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig::paper(self.seed, self.instructions, self.model)
    }

    /// Runs the cell serially on the calling thread with explicit execution
    /// options (the slack-profile store), reporting per-stage
    /// wall time through `observe` (configuration label, duration). Options
    /// are results-neutral: the returned results — and therefore the cell's
    /// cache bytes — are identical for any options value.
    pub fn run_with(
        &self,
        options: RunOptions,
        observe: &mut dyn FnMut(&str, std::time::Duration),
    ) -> BenchmarkResults {
        let policies: Vec<PolicySpec> = self
            .policies
            .iter()
            .map(|p| PolicySpec::parse(p).unwrap_or_else(|e| panic!("invalid policy `{p}`: {e}")))
            .collect();
        run_benchmark_scenarios(
            &self.profile(),
            &self.experiment_config(),
            options,
            self.thetas,
            &policies,
            observe,
        )
    }

    /// Runs the cell serially without telemetry.
    pub fn run(&self) -> BenchmarkResults {
        self.run_with(RunOptions::default(), &mut |_, _| {})
    }

    /// Short human-readable identity, e.g. `gcc/s5/n240000/XScale`; governed
    /// cells append their policies, e.g. `gcc/s5/n240000/XScale+attack-decay`.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/s{}/n{}/{:?}",
            self.benchmark, self.seed, self.instructions, self.model
        );
        for policy in &self.policies {
            label.push('+');
            label.push_str(policy);
        }
        label
    }
}

/// Why a spec could not be expanded.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A sweep axis has no points (or the instruction window is zero).
    Empty(&'static str),
    /// A benchmark name is not in the Table-2 suite.
    UnknownBenchmark(String),
    /// A dilation target outside (0, 1).
    BadTheta(f64),
    /// An online policy spec the registry rejected (spec, reason).
    BadPolicy(String, String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty(axis) => write!(f, "campaign spec has no {axis}"),
            SpecError::UnknownBenchmark(name) => write!(f, "unknown benchmark `{name}`"),
            SpecError::BadTheta(theta) => {
                write!(f, "dilation target {theta} outside (0, 1)")
            }
            SpecError::BadPolicy(spec, reason) => {
                write!(f, "invalid policy `{spec}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses a DVFS model name as used on the CLI (`xscale` / `transmeta`).
pub fn parse_model(s: &str) -> Result<DvfsModel, String> {
    match s.to_ascii_lowercase().as_str() {
        "xscale" => Ok(DvfsModel::XScale),
        "transmeta" => Ok(DvfsModel::Transmeta),
        other => Err(format!(
            "unknown DVFS model `{other}` (expected xscale or transmeta)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_benchmarks_means_full_suite_in_figure_order() {
        let spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        let cells = spec.expand().expect("valid spec");
        assert_eq!(cells.len(), 16);
        assert_eq!(cells[0].benchmark, "adpcm");
        assert_eq!(cells[15].benchmark, "swim");
    }

    #[test]
    fn expansion_is_models_then_seeds_then_benchmarks() {
        let spec = CampaignSpec {
            benchmarks: vec!["gcc".into(), "art".into()],
            seeds: vec![1, 2],
            instructions: 1_000,
            models: vec![DvfsModel::XScale, DvfsModel::Transmeta],
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        };
        let cells = spec.expand().expect("valid spec");
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "gcc/s1/n1000/XScale",
                "art/s1/n1000/XScale",
                "gcc/s2/n1000/XScale",
                "art/s2/n1000/XScale",
                "gcc/s1/n1000/Transmeta",
                "art/s1/n1000/Transmeta",
                "gcc/s2/n1000/Transmeta",
                "art/s2/n1000/Transmeta",
            ]
        );
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        let mut spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        spec.benchmarks = vec!["vortex".into()];
        assert_eq!(
            spec.expand(),
            Err(SpecError::UnknownBenchmark("vortex".into()))
        );
    }

    #[test]
    fn degenerate_axes_are_rejected() {
        let mut spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        spec.seeds.clear();
        assert_eq!(spec.expand(), Err(SpecError::Empty("seeds")));

        let mut spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        spec.thetas = [0.01, 1.5];
        assert_eq!(spec.expand(), Err(SpecError::BadTheta(1.5)));
    }

    #[test]
    fn policies_expand_canonicalized_into_every_cell() {
        let mut spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        spec.benchmarks = vec!["gcc".into()];
        spec.policies = vec![
            "attack-decay:decay=0.01,attack=0.1".into(),
            "queue-pi".into(),
        ];
        let cells = spec.expand().expect("valid spec");
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].policies,
            vec!["attack-decay:attack=0.1,decay=0.01", "queue-pi"]
        );
        assert_eq!(
            cells[0].label(),
            "gcc/s5/n1000/XScale+attack-decay:attack=0.1,decay=0.01+queue-pi"
        );
    }

    #[test]
    fn bad_policies_are_rejected_at_expansion() {
        let mut spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        spec.policies = vec!["thermal-cap".into()];
        assert!(matches!(spec.expand(), Err(SpecError::BadPolicy(_, _))));

        // Two spellings of the same canonical policy are one policy.
        spec.policies = vec!["queue-pi:kp=0.5".into(), "queue-pi:kp=0.50".into()];
        assert!(matches!(spec.expand(), Err(SpecError::BadPolicy(_, _))));
    }

    #[test]
    fn policy_free_specs_serialize_without_the_policies_key() {
        let spec = CampaignSpec::paper(5, 1_000, DvfsModel::XScale);
        let json = serde_json::to_string(&spec).expect("serializable");
        assert!(!json.contains("policies"));
        let back: CampaignSpec = serde_json::from_str(&json).expect("parses");
        assert!(back.policies.is_empty());

        let cell = &spec.expand().expect("valid spec")[0];
        let json = serde_json::to_string(cell).expect("serializable");
        assert!(!json.contains("policies"));
        let back: CellSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(&back, cell);

        // Governed specs round-trip through the new key.
        let mut governed = spec.clone();
        governed.policies = vec!["attack-decay".into()];
        let json = serde_json::to_string(&governed).expect("serializable");
        assert!(json.contains("\"policies\""));
        let back: CampaignSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, governed);
    }

    #[test]
    fn model_names_parse_case_insensitively() {
        assert_eq!(parse_model("XScale"), Ok(DvfsModel::XScale));
        assert_eq!(parse_model("TRANSMETA"), Ok(DvfsModel::Transmeta));
        assert!(parse_model("longrun").is_err());
    }
}
