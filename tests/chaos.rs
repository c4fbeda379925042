//! Chaos suite: deterministic fault injection against the campaign
//! harness, asserting the recovery guarantees the harness advertises.
//!
//! Every test here follows the same shape: a fixed [`FaultPlan`] breaks
//! the machinery around the simulator (a cell panics, a worker hangs, a
//! cache write tears, the campaign is interrupted), and the assertion is
//! always the determinism invariant — after recovery (retry, quarantine,
//! resume), the campaign's result bytes are identical to an uninterrupted
//! serial run. Faults are seeded and explicit, never random at run time,
//! so a failure here reproduces on the first rerun.

use std::time::Duration;

use mcd::harness::telemetry::replay;
use mcd::harness::{
    CacheKey, CacheProbe, Campaign, CampaignSpec, CellOutcome, CellSpec, CheckpointManifest, Fault,
    FaultPlan, ResultCache, SlackDiskCache, Telemetry, SLACK_CACHE_DIR,
};
use mcd::time::DvfsModel;

use proptest::prelude::*;
use serde_json::Value;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mcd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec!["adpcm".into(), "mst".into(), "art".into()],
        seeds: vec![5],
        instructions: 2_500,
        models: vec![DvfsModel::XScale],
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

/// The uninterrupted serial reference: every cell run directly on this
/// thread, bytes frozen. Chaos runs must converge to exactly this.
fn serial_json(spec: &CampaignSpec) -> String {
    let results: Vec<_> = spec
        .expand()
        .expect("valid spec")
        .iter()
        .map(CellSpec::run)
        .collect();
    serde_json::to_string_pretty(&results).expect("serializable")
}

/// Events with a given tag from a telemetry log.
fn events_named(path: &std::path::Path, name: &str) -> Vec<Value> {
    let (events, tail) = replay(path).expect("telemetry log parses");
    assert!(tail.is_none(), "no torn tail in a cleanly closed log");
    events
        .into_iter()
        .filter(|e| e.get("event").and_then(Value::as_str) == Some(name))
        .collect()
}

#[test]
fn deterministic_panic_fails_one_cell_and_resume_is_byte_identical() {
    let dir = scratch("panic-resume");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let ckpt = dir.join("campaign.checkpoint.json");
    let spec = small_spec();
    let reference = serial_json(&spec);

    // Cell 1 panics identically on every attempt: a deterministic bug.
    let report = Campaign::new(spec.clone())
        .workers(2)
        .chaos(FaultPlan::new(vec![Fault::Panic {
            cell: 1,
            attempts: u32::MAX,
        }]))
        .checkpoint(&ckpt)
        .run(&cache, &Telemetry::disabled())
        .expect("campaign runs");
    assert_eq!(report.failed(), 1, "only the injected cell fails");
    assert_eq!(report.computed(), 2, "siblings are unaffected");
    assert!(
        report.to_json().is_none(),
        "no result document with a failed cell"
    );
    let CellOutcome::Failed(failure) = &report.cells[1].outcome else {
        panic!("cell 1 must carry the failure");
    };
    assert!(
        failure.deterministic,
        "identical payloads are classified deterministic"
    );
    assert_eq!(
        failure.attempts, 2,
        "one retry, then the failure is reported"
    );

    let manifest = CheckpointManifest::load(&ckpt).expect("manifest written");
    assert_eq!(manifest.pending(), 1, "exactly the failed cell is pending");
    assert!(manifest.completed().contains(&0) && manifest.completed().contains(&2));

    // Resume with the fault gone (the bug fixed): byte-identical to the
    // serial run that never saw a panic.
    let resumed = Campaign::from_checkpoint(&ckpt)
        .expect("manifest round-trips")
        .run(&cache, &Telemetry::disabled())
        .expect("resume runs");
    assert_eq!(resumed.cached(), 2);
    assert_eq!(resumed.computed(), 1);
    assert_eq!(resumed.to_json().as_deref(), Some(reference.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_interrupt_drains_checkpoints_and_resume_is_byte_identical() {
    let dir = scratch("interrupt-resume");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let ckpt = dir.join("campaign.checkpoint.json");
    let telemetry_log = dir.join("telemetry.jsonl");
    let spec = small_spec();
    let reference = serial_json(&spec);

    // One worker, interrupt after the first computed cell: the same stop
    // flag a SIGINT raises, minus the signal.
    let report = Campaign::new(spec.clone())
        .workers(1)
        .chaos(FaultPlan::new(vec![Fault::InterruptAfter { computed: 1 }]))
        .checkpoint(&ckpt)
        .run(&cache, &Telemetry::to_file(&telemetry_log).unwrap())
        .expect("campaign drains");
    assert!(report.interrupted);
    assert_eq!(
        report.computed(),
        1,
        "the in-flight cell finished (drain, not abort)"
    );
    assert_eq!(report.skipped(), 2, "unclaimed cells were skipped");
    assert!(report.to_json().is_none());
    let interrupted = events_named(&telemetry_log, "campaign_interrupted");
    assert_eq!(
        interrupted.len(),
        1,
        "the interruption is a structured event"
    );

    let manifest = CheckpointManifest::load(&ckpt).expect("manifest survives the interrupt");
    assert_eq!(manifest.completed().len(), 1);
    assert_eq!(manifest.pending(), 2);

    // Resume from the manifest alone: the remainder computes, the finished
    // cell replays from cache, and the bytes match the uninterrupted run.
    let resumed = Campaign::from_checkpoint(&ckpt)
        .expect("manifest round-trips")
        .workers(2)
        .run(&cache, &Telemetry::disabled())
        .expect("resume runs");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.cached(), 1);
    assert_eq!(resumed.computed(), 2);
    assert_eq!(resumed.to_json().as_deref(), Some(reference.as_str()));
    let complete = CheckpointManifest::load(&ckpt).unwrap();
    assert!(complete.is_complete());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_cache_write_is_quarantined_recomputed_and_reported() {
    let dir = scratch("torn-store");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let telemetry_log = dir.join("telemetry.jsonl");
    let spec = small_spec();
    let reference = serial_json(&spec);
    let keys: Vec<CacheKey> = spec.expand().unwrap().iter().map(CacheKey::of).collect();

    // Run 1: cell 0's store crashes mid-flush, publishing a torn entry.
    // The in-memory result is still good, so this run's bytes are fine.
    let first = Campaign::new(spec.clone())
        .chaos(FaultPlan::new(vec![Fault::TornStore { cell: 0, keep: 40 }]))
        .run(&cache, &Telemetry::disabled())
        .expect("campaign runs");
    assert_eq!(first.to_json().as_deref(), Some(reference.as_str()));
    assert!(
        matches!(cache.probe(&keys[0]), CacheProbe::Corrupt(_)),
        "the torn entry is on disk and detectably corrupt"
    );

    // Run 2: the probe detects the corruption, quarantines the evidence,
    // recomputes, and reports the event — and never serves the bad entry.
    let second = Campaign::new(spec.clone())
        .run(&cache, &Telemetry::to_file(&telemetry_log).unwrap())
        .expect("campaign runs");
    assert_eq!(second.computed(), 1, "exactly the torn cell recomputes");
    assert_eq!(second.cached(), 2);
    assert_eq!(second.to_json().as_deref(), Some(reference.as_str()));

    let quarantined = events_named(&telemetry_log, "cache_quarantined");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(
        quarantined[0].get("kind").and_then(Value::as_str),
        Some("malformed")
    );
    assert_eq!(
        quarantined[0].get("key").and_then(Value::as_str),
        Some(keys[0].hex())
    );
    assert!(
        cache
            .quarantine_dir()
            .join(format!("{}.json", keys[0].hex()))
            .is_file(),
        "the torn bytes are preserved as evidence"
    );
    assert!(
        matches!(cache.probe(&keys[0]), CacheProbe::Hit(_)),
        "the slot now holds an honest entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_worker_is_abandoned_and_resume_is_byte_identical() {
    let dir = scratch("stall-resume");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let ckpt = dir.join("campaign.checkpoint.json");
    let telemetry_log = dir.join("telemetry.jsonl");
    // Short cells (tens of ms) so the 1 s watchdog deadline is far above
    // honest compute time and far below the 4 s injected hang.
    let mut spec = small_spec();
    spec.instructions = 600;
    let reference = serial_json(&spec);

    let report = Campaign::new(spec.clone())
        .workers(2)
        .deadline(Duration::from_secs(1))
        .chaos(FaultPlan::new(vec![Fault::Stall {
            cell: 2,
            by: Duration::from_secs(4),
        }]))
        .checkpoint(&ckpt)
        .run(&cache, &Telemetry::to_file(&telemetry_log).unwrap())
        .expect("campaign runs");
    assert_eq!(
        report.stalled(),
        1,
        "the hung cell is abandoned, not awaited"
    );
    assert_eq!(report.computed(), 2, "the pool survives a hung worker");
    assert!(matches!(
        report.cells[2].outcome,
        CellOutcome::Stalled { waited } if waited >= Duration::from_secs(1)
    ));
    assert!(
        report.wall < Duration::from_secs(4),
        "the campaign did not wait out the hang (wall {:?})",
        report.wall
    );
    assert_eq!(events_named(&telemetry_log, "cell_stalled").len(), 1);

    // Resume without the hang: only the stalled cell recomputes, and the
    // bytes match the run that never hung.
    let resumed = Campaign::from_checkpoint(&ckpt)
        .expect("manifest round-trips")
        .run(&cache, &Telemetry::disabled())
        .expect("resume runs");
    assert_eq!(resumed.cached(), 2);
    assert_eq!(resumed.computed(), 1);
    assert_eq!(resumed.to_json().as_deref(), Some(reference.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_store_errors_recover_with_backoff_and_are_reported() {
    let dir = scratch("store-backoff");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let telemetry_log = dir.join("telemetry.jsonl");
    let spec = small_spec();
    let reference = serial_json(&spec);
    let keys: Vec<CacheKey> = spec.expand().unwrap().iter().map(CacheKey::of).collect();

    let report = Campaign::new(spec.clone())
        .chaos(FaultPlan::new(vec![Fault::StoreIoError {
            cell: 1,
            times: 2,
        }]))
        .run(&cache, &Telemetry::to_file(&telemetry_log).unwrap())
        .expect("campaign runs");
    assert_eq!(report.computed(), 3);
    assert_eq!(report.to_json().as_deref(), Some(reference.as_str()));

    let retries = events_named(&telemetry_log, "io_retry");
    assert_eq!(
        retries.len(),
        2,
        "both injected failures are visible in telemetry"
    );
    for event in &retries {
        assert_eq!(event.get("op").and_then(Value::as_str), Some("store"));
        assert_eq!(
            event
                .get("cell")
                .and_then(Value::as_number)
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
    assert!(
        matches!(cache.probe(&keys[1]), CacheProbe::Hit(_)),
        "the third store attempt published a valid entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_fault_storm_still_converges_to_serial_bytes() {
    let dir = scratch("storm");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let mut spec = small_spec();
    spec.seeds = vec![5, 6]; // 6 cells: a denser target for the storm
    let reference = serial_json(&spec);
    let cells = spec.expand().unwrap().len();

    // A mixed plan of transient faults derived from a fixed seed. Same
    // seed, same storm — this test's failures reproduce exactly.
    let storm = FaultPlan::storm(42, cells);
    assert!(
        !storm.is_empty(),
        "the storm must actually inject something"
    );
    let report = Campaign::new(spec.clone())
        .workers(3)
        .chaos(storm)
        .run(&cache, &Telemetry::disabled())
        .expect("campaign survives the storm");
    assert_eq!(report.computed(), cells, "every cell recovers");
    assert_eq!(report.to_json().as_deref(), Some(reference.as_str()));

    // A second, fault-free run heals whatever the storm left in the cache
    // (torn entries quarantine and recompute) and reproduces the bytes.
    let second = Campaign::new(spec.clone())
        .run(&cache, &Telemetry::disabled())
        .expect("clean rerun");
    assert_eq!(second.to_json().as_deref(), Some(reference.as_str()));
    assert_eq!(second.failed(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_write_failures_never_change_result_bytes() {
    let dir = scratch("telemetry-fail");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let spec = small_spec();
    let reference = serial_json(&spec);

    // A sink that dies after three writes: the campaign must not notice.
    let failing = Telemetry::to_writer(Box::new(mcd::harness::chaos::FailingWriter::after(3)));
    let report = Campaign::new(spec.clone())
        .run(&cache, &failing)
        .expect("campaign runs");
    assert_eq!(report.failed(), 0);
    assert_eq!(report.to_json().as_deref(), Some(reference.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

fn one_cell_spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec!["adpcm".into()],
        seeds: vec![5],
        instructions: 2_500,
        models: vec![DvfsModel::XScale],
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever bytes end up in a cache entry — truncations, bit flips,
    /// arbitrary garbage — the harness detects the damage, quarantines the
    /// entry, recomputes, and reproduces the honest bytes. The only
    /// exception is damage that restores the original bytes exactly, which
    /// is not damage.
    #[test]
    fn arbitrary_cache_corruption_is_always_detected_and_recovered(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        truncate in any::<bool>(),
    ) {
        let dir = scratch("prop-corrupt");
        let cache = ResultCache::open(dir.join("cache")).unwrap();
        let spec = one_cell_spec();
        let key = CacheKey::of(&spec.expand().unwrap()[0]);
        let reference = serial_json(&spec);

        // Seed an honest entry, then damage it.
        Campaign::new(spec.clone())
            .run(&cache, &Telemetry::disabled())
            .expect("seed run");
        let honest = cache.raw_entry(&key).expect("entry on disk");
        let damaged: Vec<u8> = if truncate {
            honest[..garbage.len().min(honest.len().saturating_sub(1))].to_vec()
        } else {
            garbage.clone()
        };
        // Damage that reproduces the original bytes is not damage; skip
        // that (vanishingly rare) sample.
        if damaged != honest {
            cache.corrupt_with(&key, &damaged).unwrap();

            match cache.probe(&key) {
                CacheProbe::Corrupt(_) => {}
                CacheProbe::Hit(_) => prop_assert!(false, "damaged entry served as a hit"),
                CacheProbe::Miss => prop_assert!(false, "damaged entry reported as a miss"),
            }

            let recovered = Campaign::new(spec.clone())
                .run(&cache, &Telemetry::disabled())
                .expect("recovery run");
            prop_assert_eq!(recovered.computed(), 1, "damage always forces recomputation");
            prop_assert_eq!(recovered.to_json().as_deref(), Some(reference.as_str()));
            prop_assert!(
                cache.quarantine_dir().join(format!("{}.json", key.hex())).is_file(),
                "the damaged bytes are preserved in quarantine"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `cache scrub` semantics under arbitrary damage: verify (read-only)
    /// and scrub (quarantining) both report exactly the corrupted keys,
    /// quarantine preserves the evidence bytes, intact entries keep
    /// serving, and a second scrub finds nothing. Slack profiles get the
    /// same treatment from their own scrubber.
    #[test]
    fn cache_scrub_finds_and_quarantines_every_corruption(
        corrupt_mask in proptest::collection::vec(any::<bool>(), 3),
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let dir = scratch("prop-scrub");
        let cache = ResultCache::open(dir.join("cache")).unwrap();
        let spec = small_spec(); // 3 cells -> 3 cache entries
        Campaign::new(spec.clone())
            .run(&cache, &Telemetry::disabled())
            .expect("seed run");
        let keys: Vec<CacheKey> = spec.expand().unwrap().iter().map(CacheKey::of).collect();

        let mut expected: Vec<String> = Vec::new();
        for (key, corrupt) in keys.iter().zip(&corrupt_mask) {
            let honest = cache.raw_entry(key).expect("entry on disk");
            // Damage that reproduces the original bytes is not damage.
            if *corrupt && garbage != honest {
                cache.corrupt_with(key, &garbage).unwrap();
                expected.push(key.hex().to_string());
            }
        }
        expected.sort();

        let verify = cache.scrub(false).expect("verify");
        prop_assert_eq!(verify.checked, keys.len());
        let mut found: Vec<String> = verify.findings.iter().map(|f| f.key.clone()).collect();
        found.sort();
        prop_assert_eq!(&found, &expected, "verify misreported the damage");
        prop_assert!(verify.findings.iter().all(|f| f.evidence.is_none()));

        let scrub = cache.scrub(true).expect("scrub");
        let mut found: Vec<String> = scrub.findings.iter().map(|f| f.key.clone()).collect();
        found.sort();
        prop_assert_eq!(&found, &expected, "scrub misreported the damage");
        for f in &scrub.findings {
            prop_assert!(
                f.evidence.as_ref().expect("quarantine evidence").is_file(),
                "quarantined bytes preserved"
            );
        }
        prop_assert!(cache.scrub(true).expect("rescrub").clean(), "scrub is idempotent");
        for key in &keys {
            let hit = matches!(cache.probe(key), CacheProbe::Hit(_));
            prop_assert_eq!(
                hit,
                !expected.contains(&key.hex().to_string()),
                "exactly the intact entries keep serving"
            );
        }

        // The slack store scrubs with the same contract: corrupt one
        // stored profile and it is the one finding, quarantined as
        // evidence, with the rest untouched.
        let slack = SlackDiskCache::open(cache.dir().join(SLACK_CACHE_DIR)).unwrap();
        let mut profiles: Vec<std::path::PathBuf> = std::fs::read_dir(slack.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == "json")
                    && p.file_stem().is_some_and(|s| s.len() == 64)
            })
            .collect();
        profiles.sort();
        prop_assert!(!profiles.is_empty(), "the seed run stored slack profiles");
        let victim = &profiles[0];
        let honest = std::fs::read(victim).unwrap();
        if garbage != honest {
            std::fs::write(victim, &garbage).unwrap();
            let report = slack.scrub(true).expect("slack scrub");
            prop_assert_eq!(report.checked, profiles.len());
            prop_assert_eq!(report.findings.len(), 1, "exactly the tampered profile");
            prop_assert!(report.findings[0].evidence.as_ref().unwrap().is_file());
            prop_assert!(slack.scrub(true).expect("rescrub").clean());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
