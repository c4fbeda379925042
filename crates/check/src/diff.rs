//! The differential oracle: optimized engine vs. reference interpreter.

use mcd_pipeline::{Engine, Pipeline, RunControl, RunResult};
use mcd_workload::{suites, WorkloadGenerator};

use crate::case::CheckCase;
use crate::post;

/// Outcome of one differential run.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffOutcome {
    /// The two engines produced byte-identical results (and the energy
    /// post-checks passed).
    Match,
    /// The serialized results differ.
    Mismatch {
        /// Canonical JSON of the optimized engine's result.
        optimized: String,
        /// Canonical JSON of the reference interpreter's result.
        reference: String,
    },
    /// Results matched but the energy breakdown violated a post-run
    /// invariant.
    EnergyViolation {
        /// Human-readable violations.
        problems: Vec<String>,
    },
}

impl DiffOutcome {
    /// Whether the case passed every differential-layer check.
    pub fn is_pass(&self) -> bool {
        matches!(self, DiffOutcome::Match)
    }
}

fn canonical(r: &RunResult) -> String {
    serde_json::to_string(r).expect("run result serializes")
}

/// Runs `case` once on `engine`.
///
/// # Errors
///
/// Returns a description when the case itself is invalid (unknown
/// benchmark or field value, missing feature).
pub(crate) fn run_case(case: &CheckCase, engine: Engine) -> Result<RunResult, String> {
    let profile = suites::by_name(&case.benchmark)
        .ok_or_else(|| format!("unknown benchmark {:?}", case.benchmark))?;
    let machine = case.machine()?;
    let governor = case
        .policy()?
        .map(|p| p.build().expect("policy() already validated the spec"));
    let generator = WorkloadGenerator::new(profile, machine.seed);
    Ok(Pipeline::new(machine, generator).run(case.instructions, RunControl { governor, engine }))
}

/// Runs `case` on both engines and compares the serialized results, then
/// applies the post-run energy checks to the (matching) result.
///
/// # Errors
///
/// Returns a description when the case itself is invalid (unknown
/// benchmark or field value, missing feature).
pub fn run_differential(case: &CheckCase) -> Result<DiffOutcome, String> {
    let fast = run_case(case, Engine::default())?;
    let slow = run_case(case, Engine::Reference)?;
    let optimized = canonical(&fast);
    let reference = canonical(&slow);
    if optimized != reference {
        return Ok(DiffOutcome::Mismatch {
            optimized,
            reference,
        });
    }
    let problems = post::check_energy(&fast);
    if !problems.is_empty() {
        return Ok(DiffOutcome::EnergyViolation { problems });
    }
    Ok(DiffOutcome::Match)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_case_matches() {
        let out = run_differential(&CheckCase::default()).expect("valid case");
        assert!(out.is_pass(), "{out:?}");
    }

    #[test]
    fn governed_cases_match_for_every_registry_policy() {
        for governor in ["attack-decay", "queue-pi"] {
            let c = CheckCase {
                governor: governor.into(),
                instructions: 600,
                ..CheckCase::default()
            };
            let out = run_differential(&c).expect("valid case");
            assert!(out.is_pass(), "{governor}: {out:?}");
        }
    }

    #[test]
    fn invalid_benchmark_is_an_error_not_an_outcome() {
        let c = CheckCase {
            benchmark: "no-such-benchmark".into(),
            ..CheckCase::default()
        };
        assert!(run_differential(&c).is_err());
    }
}
