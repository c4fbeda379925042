//! The seeded config fuzzer: sample, check, shrink, publish.

use std::path::PathBuf;

use mcd_pipeline::{Engine, InvariantChecker, InvariantReport};
use mcd_time::SimRng;

use crate::case::CheckCase;
use crate::diff::{run_case, run_differential, DiffOutcome};
use crate::repro;

/// Which layer a fuzz case failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Optimized and reference engines disagreed.
    Differential,
    /// The runtime invariant checker flagged a clean-configuration run.
    Invariant,
    /// The energy post-checks flagged the (matching) result.
    Energy,
    /// A fault-injected run the invariant checker should have flagged came
    /// back clean — the detector itself is broken.
    MissedViolation,
    /// The sampled case failed to build (fuzzer/config bug).
    InvalidCase,
}

impl FailureKind {
    /// Stable slug used in repro files and file names.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Differential => "differential",
            FailureKind::Invariant => "invariant",
            FailureKind::Energy => "energy",
            FailureKind::MissedViolation => "missed-violation",
            FailureKind::InvalidCase => "invalid-case",
        }
    }

    /// Parses a repro-file slug back.
    pub fn parse(slug: &str) -> Option<FailureKind> {
        Some(match slug {
            "differential" => FailureKind::Differential,
            "invariant" => FailureKind::Invariant,
            "energy" => FailureKind::Energy,
            "missed-violation" => FailureKind::MissedViolation,
            "invalid-case" => FailureKind::InvalidCase,
            _ => return None,
        })
    }
}

/// Fuzz campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Cases to sample.
    pub cases: u64,
    /// Directory repro files are published into.
    pub out_dir: PathBuf,
}

/// One shrunk, published failure.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Failure layer.
    pub kind: FailureKind,
    /// The shrunk (minimal) failing case.
    pub case: CheckCase,
    /// Human-readable specifics from the failing check.
    pub detail: String,
    /// Published repro file.
    pub repro: PathBuf,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub executed: u64,
    /// Of those, fault-injected (chaos) cases.
    pub chaos_cases: u64,
    /// Shrunk failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
    /// Stale `.tmp` droppings swept from the output directory on startup.
    pub swept_tmp: usize,
}

impl FuzzReport {
    /// Whether every sampled case passed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Samples one case from `rng`. Chaos cases are only generated when the
/// `chaos` feature (which builds the breaching jitter) is compiled in.
fn sample(rng: &mut SimRng) -> CheckCase {
    const BENCHMARKS: [&str; 5] = ["adpcm", "g721", "gcc", "bzip2", "mcf"];
    const MHZ: [u64; 4] = [250, 500, 800, 1_000];
    let mut case = CheckCase {
        benchmark: BENCHMARKS[rng.below(BENCHMARKS.len() as u64) as usize].into(),
        seed: 1 + rng.below(1 << 20),
        instructions: 400 + rng.below(1_600),
        pipeline: if rng.chance(0.25) { "tiny" } else { "alpha" }.into(),
        mode: if rng.chance(0.35) { "single" } else { "mcd" }.into(),
        mhz: MHZ[rng.below(MHZ.len() as u64) as usize],
        governor: "none".into(),
        warmup: if rng.chance(0.15) { 15_000 } else { 0 },
        chaos: "none".into(),
    };
    if case.mode == "mcd" && rng.chance(0.3) {
        case.governor = if rng.chance(0.5) {
            "attack-decay"
        } else {
            "queue-pi"
        }
        .into();
    }
    #[cfg(feature = "chaos")]
    if rng.chance(0.15) {
        case.chaos = "ts-breach".into();
    }
    case
}

/// Runs every applicable check layer on `case`; `None` means it passed.
pub fn check_case(case: &CheckCase) -> Option<(FailureKind, String)> {
    if let Err(e) = case.machine() {
        return Some((FailureKind::InvalidCase, e));
    }
    if case.expects_violation() {
        // Fault-injected case: the invariant checker must flag it. A clean
        // report means the detector is broken, which is itself a failure.
        return match run_checked(case) {
            Err(e) => Some((FailureKind::InvalidCase, e)),
            Ok(report) if report.is_clean() => Some((
                FailureKind::MissedViolation,
                format!(
                    "fault-injected run came back clean ({} edges audited)",
                    report.checked_edges
                ),
            )),
            Ok(_) => None,
        };
    }
    match run_differential(case) {
        Err(e) => return Some((FailureKind::InvalidCase, e)),
        Ok(DiffOutcome::Match) => {}
        Ok(DiffOutcome::Mismatch { .. }) => {
            return Some((
                FailureKind::Differential,
                "optimized and reference results diverged".into(),
            ));
        }
        Ok(DiffOutcome::EnergyViolation { problems }) => {
            return Some((FailureKind::Energy, problems.join("; ")));
        }
    }
    match run_checked(case) {
        Err(e) => Some((FailureKind::InvalidCase, e)),
        Ok(report) if !report.is_clean() => Some((FailureKind::Invariant, report.summary())),
        Ok(_) => None,
    }
}

/// Runs the optimized engine with the runtime invariant checker as its
/// probe.
fn run_checked(case: &CheckCase) -> Result<InvariantReport, String> {
    let machine = case.machine()?;
    let mut checker = InvariantChecker::new(machine.vf, machine.sync);
    let run = run_case(case, Engine::Optimized(Some(&mut checker)))?;
    Ok(checker.finish(run.total_time))
}

/// Greedily shrinks `case` while it keeps failing with the same kind:
/// first the instruction count is halved down (cheapest runs first), then
/// every other field is driven toward its [`CheckCase::default`] value so
/// the published repro can omit it.
pub fn shrink(case: CheckCase, kind: FailureKind) -> CheckCase {
    let still_fails = |c: &CheckCase| matches!(check_case(c), Some((k, _)) if k == kind);
    let d = CheckCase::default();
    let mut best = case;
    loop {
        let mut improved = false;
        // Halve the run length (floor 200: shorter runs stop exercising
        // the steady-state invariants at all).
        while best.instructions > 200 {
            let mut cand = best.clone();
            cand.instructions = (cand.instructions / 2).max(200);
            if still_fails(&cand) {
                best = cand;
                improved = true;
            } else {
                break;
            }
        }
        let resets: [fn(&mut CheckCase, &CheckCase); 7] = [
            |c, d| c.warmup = d.warmup,
            |c, d| c.governor = d.governor.clone(),
            |c, d| c.pipeline = d.pipeline.clone(),
            |c, d| c.mode = d.mode.clone(),
            |c, d| c.mhz = d.mhz,
            |c, d| c.benchmark = d.benchmark.clone(),
            |c, d| c.seed = d.seed,
        ];
        for reset in resets {
            let mut cand = best.clone();
            reset(&mut cand, &d);
            if cand != best && still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Runs a seeded fuzz campaign: sweeps stale temp files from the output
/// directory, samples `cases` configurations, checks each, and shrinks +
/// publishes every failure.
///
/// # Errors
///
/// Returns a description when the output directory cannot be prepared or a
/// repro file cannot be written.
pub fn fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let swept_tmp = mcd_harness::sweep_stale_tmp(&cfg.out_dir)
        .map_err(|e| format!("cannot sweep {}: {e}", cfg.out_dir.display()))?;
    let root = SimRng::seed_from_u64(cfg.seed);
    let mut failures = Vec::new();
    let mut chaos_cases = 0;
    for i in 0..cfg.cases {
        let mut rng = root.derive(i);
        let case = sample(&mut rng);
        if case.expects_violation() {
            chaos_cases += 1;
        }
        if let Some((kind, detail)) = check_case(&case) {
            let shrunk = shrink(case, kind);
            let path = repro::write(&cfg.out_dir, &shrunk, kind.as_str())
                .map_err(|e| format!("cannot publish repro: {e}"))?;
            failures.push(FuzzFailure {
                kind,
                case: shrunk,
                detail,
                repro: path,
            });
        }
    }
    Ok(FuzzReport {
        executed: cfg.cases,
        chaos_cases,
        failures,
        swept_tmp,
    })
}

/// Replays a published repro file: parses it and re-runs every applicable
/// check layer. Returns what failed now (`None` = no longer reproduces).
///
/// # Errors
///
/// Returns a description when the file is unreadable or malformed.
pub fn replay_file(path: &std::path::Path) -> Result<Option<(FailureKind, String)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (case, _failure) = repro::from_json(&text)?;
    Ok(check_case(&case))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_valid() {
        let root = SimRng::seed_from_u64(99);
        for i in 0..32 {
            let a = sample(&mut root.derive(i));
            let b = sample(&mut root.derive(i));
            assert_eq!(a, b, "same seed, same case");
            a.machine().expect("sampled case builds");
        }
    }

    #[test]
    fn failure_kind_slugs_round_trip() {
        for kind in [
            FailureKind::Differential,
            FailureKind::Invariant,
            FailureKind::Energy,
            FailureKind::MissedViolation,
            FailureKind::InvalidCase,
        ] {
            assert_eq!(FailureKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FailureKind::parse("nope"), None);
    }
}
