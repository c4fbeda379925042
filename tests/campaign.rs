//! Campaign-harness guarantees: worker-count-independent, serial-identical
//! results, and cache keys that respond to exactly the parameters that
//! matter.

use mcd::harness::{CacheKey, Campaign, CampaignSpec, CellSpec, ResultCache, Telemetry};
use mcd::time::DvfsModel;
use mcd::workload::suites;

use proptest::prelude::*;

fn scratch_cache(tag: &str) -> (ResultCache, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mcd-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultCache::open(&dir).expect("create cache"), dir)
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec!["adpcm".into(), "health".into(), "art".into()],
        seeds: vec![5],
        instructions: 2_500,
        models: vec![DvfsModel::XScale],
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

#[test]
fn campaign_output_is_byte_identical_across_worker_counts_and_to_serial() {
    let spec = small_spec();

    // The serial reference: each cell run directly on this thread through
    // the same `run_benchmark` path the plain driver uses.
    let serial: Vec<_> = spec
        .expand()
        .expect("valid spec")
        .iter()
        .map(CellSpec::run)
        .collect();
    let serial_json = serde_json::to_string_pretty(&serial).expect("serializable");

    for workers in [1, 2, 8] {
        // A fresh cache per worker count so every cell is really computed
        // under that parallelism, not replayed from a previous loop turn.
        let (cache, dir) = scratch_cache(&format!("workers{workers}"));
        let report = Campaign::new(spec.clone())
            .workers(workers)
            .run(&cache, &Telemetry::disabled())
            .expect("valid spec");
        assert_eq!(report.computed(), 3, "workers = {workers}");
        assert_eq!(
            report.to_json().expect("all cells succeeded"),
            serial_json,
            "campaign with {workers} workers diverged from the serial driver"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn governed_campaign_is_byte_identical_across_worker_counts_and_to_serial() {
    // Same guarantee as above, with the on-line policy axis switched on:
    // governed rows are part of the cell result, so they must come out
    // byte-identical whether cells run serially or race on a pool.
    let mut spec = small_spec();
    spec.benchmarks = vec!["adpcm".into(), "art".into()];
    spec.policies = vec!["attack-decay".into(), "queue-pi:setpoint=0.6,kp=0.7".into()];

    let serial: Vec<_> = spec
        .expand()
        .expect("valid spec")
        .iter()
        .map(CellSpec::run)
        .collect();
    assert!(
        serial.iter().all(|r| r.online.len() == 2),
        "every governed cell carries one row per policy"
    );
    let serial_json = serde_json::to_string_pretty(&serial).expect("serializable");

    for workers in [1, 2, 8] {
        let (cache, dir) = scratch_cache(&format!("governed{workers}"));
        let report = Campaign::new(spec.clone())
            .workers(workers)
            .run(&cache, &Telemetry::disabled())
            .expect("valid spec");
        assert_eq!(report.computed(), 2, "workers = {workers}");
        assert_eq!(
            report.to_json().expect("all cells succeeded"),
            serial_json,
            "governed campaign with {workers} workers diverged from serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unchanged_campaign_recomputes_nothing() {
    let (cache, dir) = scratch_cache("recompute");
    let campaign = Campaign::new(small_spec());
    let first = campaign
        .run(&cache, &Telemetry::disabled())
        .expect("valid spec");
    let second = campaign
        .run(&cache, &Telemetry::disabled())
        .expect("valid spec");
    assert_eq!(first.computed(), 3);
    assert_eq!(
        second.computed(),
        0,
        "every unchanged cell must come from the cache"
    );
    assert_eq!(second.cached(), 3);
    assert_eq!(first.to_json(), second.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_cell() -> impl Strategy<Value = CellSpec> {
    (
        0usize..16,
        any::<u64>(),
        1_000u64..1_000_000,
        any::<bool>(),
        0.001f64..0.2,
    )
        .prop_map(|(bench, seed, instructions, xscale, theta)| CellSpec {
            benchmark: suites::names()[bench].to_string(),
            seed,
            instructions,
            model: if xscale {
                DvfsModel::XScale
            } else {
                DvfsModel::Transmeta
            },
            thetas: [theta, (theta * 5.0).min(0.99)],
            policies: Vec::new(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_key_is_stable_across_computations(cell in arb_cell()) {
        prop_assert_eq!(CacheKey::of(&cell), CacheKey::of(&cell));
    }

    #[test]
    fn cache_key_changes_with_seed(cell in arb_cell(), delta in 1u64..1_000) {
        let mut other = cell.clone();
        other.seed = cell.seed.wrapping_add(delta);
        prop_assert_ne!(CacheKey::of(&cell), CacheKey::of(&other));
    }

    #[test]
    fn cache_key_changes_with_instruction_window(cell in arb_cell(), delta in 1u64..1_000) {
        let mut other = cell.clone();
        other.instructions = cell.instructions + delta;
        prop_assert_ne!(CacheKey::of(&cell), CacheKey::of(&other));
    }

    #[test]
    fn cache_key_changes_with_theta(cell in arb_cell()) {
        let mut other = cell.clone();
        other.thetas[1] = (cell.thetas[1] * 0.5).max(0.0005);
        prop_assert_ne!(CacheKey::of(&cell), CacheKey::of(&other));
    }

    #[test]
    fn cache_key_changes_with_dvfs_model(cell in arb_cell()) {
        let mut other = cell.clone();
        other.model = match cell.model {
            DvfsModel::XScale => DvfsModel::Transmeta,
            DvfsModel::Transmeta => DvfsModel::XScale,
        };
        prop_assert_ne!(CacheKey::of(&cell), CacheKey::of(&other));
    }

    /// The key is a digest of *canonical* JSON: a spec deserialized from
    /// fields listed in any textual order hashes identically.
    #[test]
    fn cache_key_ignores_json_field_order(cell in arb_cell()) {
        let forward = format!(
            r#"{{"benchmark":{:?},"seed":{},"instructions":{},"model":{:?},"thetas":[{:?},{:?}]}}"#,
            cell.benchmark, cell.seed, cell.instructions,
            format!("{:?}", cell.model), cell.thetas[0], cell.thetas[1],
        );
        let reversed = format!(
            r#"{{"thetas":[{:?},{:?}],"model":{:?},"instructions":{},"seed":{},"benchmark":{:?}}}"#,
            cell.thetas[0], cell.thetas[1], format!("{:?}", cell.model),
            cell.instructions, cell.seed, cell.benchmark,
        );
        let a: CellSpec = serde_json::from_str(&forward).expect("forward order parses");
        let b: CellSpec = serde_json::from_str(&reversed).expect("reversed order parses");
        prop_assert_eq!(&a, &cell);
        prop_assert_eq!(&b, &cell);
        prop_assert_eq!(CacheKey::of(&a), CacheKey::of(&b));
    }
}

#[test]
fn slack_profiles_are_shared_across_dilation_targets_and_stay_byte_identical() {
    use mcd::harness::{CampaignRollup, ROLLUP_FILE};

    // Slack-profile cache keys are θ-independent, so a sweep at different
    // dilation targets has different cell cache keys (every cell
    // recomputes) but identical slack keys (every shaker pass is served
    // from the store).
    let base = small_spec(); // θ ∈ {1 %, 5 %}
    let mut alt = small_spec();
    alt.thetas = [0.02, 0.04];

    // Reference: the alt sweep against a fresh cache — cold slack store.
    let (cache_cold, dir_cold) = scratch_cache("slack-cold");
    let cold = Campaign::new(alt.clone())
        .run(&cache_cold, &Telemetry::disabled())
        .expect("valid spec");
    let cold_json = cold.to_json().expect("all cells finished");
    let cold_rollup = CampaignRollup::load(&cache_cold.dir().join(ROLLUP_FILE)).expect("rollup");
    assert_eq!(
        (cold_rollup.slack_hits, cold_rollup.slack_stores),
        (0, 3),
        "a cold store misses every lookup and keeps every profile"
    );

    // Warm: the base sweep seeds the store, then the alt sweep rides it.
    let (cache_warm, dir_warm) = scratch_cache("slack-warm");
    Campaign::new(base)
        .run(&cache_warm, &Telemetry::disabled())
        .expect("valid spec");
    let warm = Campaign::new(alt)
        .workers(2)
        .run(&cache_warm, &Telemetry::disabled())
        .expect("valid spec");
    assert_eq!(warm.computed(), 3, "different θs are different cells");
    assert_eq!(
        warm.to_json().expect("all cells finished"),
        cold_json,
        "a warm slack store must not change result bytes"
    );
    let warm_rollup = CampaignRollup::load(&cache_warm.dir().join(ROLLUP_FILE)).expect("rollup");
    assert_eq!(
        (warm_rollup.slack_loads, warm_rollup.slack_hits),
        (3, 3),
        "every alt cell's slack profile came from the base sweep's store"
    );

    let _ = std::fs::remove_dir_all(&dir_cold);
    let _ = std::fs::remove_dir_all(&dir_warm);
}
