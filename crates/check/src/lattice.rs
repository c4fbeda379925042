//! The curated differential lattice: small configurations spanning every
//! engine shortcut the reference interpreter removes.

use crate::case::CheckCase;

fn case(
    benchmark: &str,
    seed: u64,
    mode: &str,
    mhz: u64,
    governor: &str,
    pipeline: &str,
    warmup: u64,
) -> CheckCase {
    CheckCase {
        benchmark: benchmark.into(),
        seed,
        instructions: 1_500,
        pipeline: pipeline.into(),
        mode: mode.into(),
        mhz,
        governor: governor.into(),
        warmup,
        chaos: "none".into(),
    }
}

/// The configuration lattice the differential suite sweeps: three
/// benchmark personalities (compute-bound, branchy/cache-missing,
/// memory-bound) × {single, MCD} × {full speed, scaled} × {ungoverned,
/// attack/decay}, plus warm-up and tiny-geometry probes for the warm-cache
/// and queue-capacity corners.
pub fn lattice() -> Vec<CheckCase> {
    vec![
        // Single-clock, full speed: exercises the all-domains-per-edge tick.
        case("adpcm", 11, "single", 1_000, "none", "alpha", 0),
        case("gcc", 7, "single", 1_000, "none", "alpha", 0),
        case("mcf", 5, "single", 1_000, "none", "alpha", 0),
        // Single-clock, scaled: off-nominal periods everywhere.
        case("gcc", 3, "single", 500, "none", "alpha", 0),
        // MCD, full speed: edge interleaving, sync windows, idle domains.
        case("adpcm", 11, "mcd", 1_000, "none", "alpha", 0),
        case("gcc", 7, "mcd", 1_000, "none", "alpha", 0),
        case("mcf", 5, "mcd", 1_000, "none", "alpha", 0),
        // MCD, scaled: bigger windows, different jitter clamp.
        case("mcf", 9, "mcd", 500, "none", "alpha", 0),
        case("adpcm", 2, "mcd", 250, "none", "alpha", 0),
        // Governed MCD: control-interval sampling and grid-snapped requests.
        case("adpcm", 11, "mcd", 1_000, "attack-decay", "alpha", 0),
        case("gcc", 7, "mcd", 1_000, "attack-decay", "alpha", 0),
        case("mcf", 5, "mcd", 1_000, "attack-decay", "alpha", 0),
        case("bzip2", 13, "mcd", 800, "attack-decay", "alpha", 0),
        // Governed MCD under the PI setpoint controller: integral state and
        // multiplicative steps instead of attack/decay jumps, plus one
        // off-default tuning to exercise registry parameter plumbing.
        case("adpcm", 11, "mcd", 1_000, "queue-pi", "alpha", 0),
        case("gcc", 7, "mcd", 1_000, "queue-pi", "alpha", 0),
        case(
            "mcf",
            9,
            "mcd",
            500,
            "queue-pi:setpoint=0.6,kp=0.7",
            "alpha",
            0,
        ),
        // Warm-up: the process-wide warm cache vs. from-scratch rebuild.
        case("g721", 3, "mcd", 1_000, "none", "alpha", 20_000),
        case("gcc", 5, "single", 1_000, "none", "alpha", 20_000),
        // Tiny geometry: saturated queues and constant back-pressure.
        case("gcc", 17, "mcd", 1_000, "none", "tiny", 0),
        case("mcf", 17, "mcd", 500, "attack-decay", "tiny", 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_cases_are_valid_and_distinct() {
        let cases = lattice();
        assert!(cases.len() >= 12);
        for c in &cases {
            c.machine().expect("lattice case builds");
        }
        for (i, a) in cases.iter().enumerate() {
            for b in &cases[i + 1..] {
                assert_ne!(a, b, "duplicate lattice case");
            }
        }
    }
}
