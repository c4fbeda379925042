//! Acceptance test for the fault-injection path: a known-bad run (jitter
//! sized to defeat the §2.2 synchronization window) must be caught by the
//! runtime invariant checker, shrunk to a minimal repro, published
//! atomically, and replayable.

#![cfg(feature = "chaos")]

use mcd_check::fuzz::{check_case, replay_file, shrink, FailureKind};
use mcd_check::{repro, CheckCase};

fn breaching_case() -> CheckCase {
    // Deliberately non-minimal: the shrinker has work to do.
    CheckCase {
        benchmark: "gcc".into(),
        seed: 77,
        instructions: 2_400,
        pipeline: "tiny".into(),
        mode: "mcd".into(),
        mhz: 500,
        governor: "none".into(),
        warmup: 0,
        chaos: "ts-breach".into(),
    }
}

/// Flips the expectation: a chaos case "fails" our checks only when the
/// detector MISSES it, so for this test we want `check_case` to pass
/// (i.e. the breach was flagged). Build a direct detection probe instead.
fn breach_is_flagged(case: &CheckCase) -> bool {
    // check_case returns None when the chaos case was properly flagged.
    check_case(case).is_none()
}

#[test]
fn ts_breach_is_caught_by_the_invariant_checker() {
    let case = breaching_case();
    assert!(
        breach_is_flagged(&case),
        "the T_s-breaching jitter model must trip the breach-rate bound"
    );
    // And the checker is not crying wolf: the same configuration without
    // the fault comes back clean.
    let mut clean = case;
    clean.chaos = "none".into();
    assert!(check_case(&clean).is_none(), "clean twin must pass");
}

#[test]
fn missed_violation_shrinks_to_a_tiny_replayable_repro() {
    // Simulate the fuzzer's handling of a detector regression by shrinking
    // the *case itself* down (chaos cases shrink like any other: the
    // shrunk case must still trip the detector). We shrink under the
    // predicate "still flagged" by reusing the fuzzer's machinery on an
    // inverted-kind probe: publish the minimal flagged case as the repro a
    // real MissedViolation failure would carry.
    let case = breaching_case();
    // Manual greedy shrink mirroring fuzz::shrink but with the detection
    // predicate (the public shrink() shrinks failing cases; here the
    // "interesting" property is that the breach stays detected).
    let d = CheckCase::default();
    let mut best = case;
    loop {
        let mut improved = false;
        while best.instructions > 200 {
            let mut cand = best.clone();
            cand.instructions = (cand.instructions / 2).max(200);
            if breach_is_flagged(&cand) {
                best = cand;
                improved = true;
            } else {
                break;
            }
        }
        for reset in [
            |c: &mut CheckCase, d: &CheckCase| c.pipeline = d.pipeline.clone(),
            |c: &mut CheckCase, d: &CheckCase| c.mode = d.mode.clone(),
            |c: &mut CheckCase, d: &CheckCase| c.mhz = d.mhz,
            |c: &mut CheckCase, d: &CheckCase| c.benchmark = d.benchmark.clone(),
            |c: &mut CheckCase, d: &CheckCase| c.seed = d.seed,
        ] {
            let mut cand = best.clone();
            reset(&mut cand, &d);
            if cand != best && breach_is_flagged(&cand) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    assert!(breach_is_flagged(&best));
    // The minimal case still names the fault; everything else collapsed to
    // defaults, so the published repro is tiny.
    assert_eq!(best.chaos, "ts-breach");
    let dir = std::env::temp_dir().join(format!("mcd-check-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = repro::write(&dir, &best, "invariant").expect("publishes");
    let text = std::fs::read_to_string(&path).expect("readable");
    assert!(
        text.lines().count() <= 10,
        "repro must be at most 10 lines:\n{text}"
    );
    // Replay: the published file still trips nothing in check_case terms
    // (a properly-detected chaos case is a pass), proving the repro file
    // round-trips into the same verdict.
    let replayed = replay_file(&path).expect("replayable");
    assert!(
        replayed.is_none(),
        "replay must re-detect the breach (pass): {replayed:?}"
    );
    let (parsed, failure) = repro::from_json(&text).expect("parses");
    assert_eq!(parsed, best);
    assert_eq!(failure, "invariant");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn shrinker_reduces_a_truly_failing_case_deterministically() {
    // Exercise the public shrink() entry on a synthetic InvalidCase
    // failure (stable across feature sets): an unknown governor fails to
    // build no matter what else shrinks away.
    let mut case = breaching_case();
    case.chaos = "none".into();
    case.governor = "warp-speed".into();
    let verdict = check_case(&case).expect("invalid governor must fail");
    assert_eq!(verdict.0, FailureKind::InvalidCase);
    let shrunk = shrink(case, FailureKind::InvalidCase);
    assert_eq!(shrunk.governor, "warp-speed", "the culprit field survives");
    let d = CheckCase::default();
    assert_eq!(shrunk.benchmark, d.benchmark);
    assert_eq!(shrunk.pipeline, d.pipeline);
    assert_eq!(shrunk.mode, d.mode);
    assert_eq!(shrunk.seed, d.seed);
    let json = repro::to_json(&shrunk, "invalid-case");
    assert!(json.lines().count() <= 10, "{json}");
}
