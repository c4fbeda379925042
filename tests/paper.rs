//! The paper report (`mcd-cli report paper`): every shape claim against
//! synthetic results that break exactly that claim, and the renderer end to
//! end on a small campaign.

use std::path::PathBuf;

use mcd::core::{BenchmarkResults, DomainSummary, Metrics, OnlineRow};
use mcd::harness::{Campaign, Fault, FaultPlan, ResultCache, Telemetry};
use mcd::paper::{collect, render, PaperConfig, PaperData, PaperError};
use mcd::time::{DvfsModel, Femtos, Frequency};

/// Execution time and energy relative to the single-clock baseline's.
type Point = (f64, f64);

fn metrics((time, energy): Point) -> Metrics {
    Metrics::new(Femtos::from_femtos((time * 1e12) as u64), 1e6 * energy)
}

/// One benchmark whose results satisfy every claim: baseline MCD costs 3 %
/// in time and 1.2 % in energy (adpcm 5 %), dynamic-1 % and dynamic-5 %
/// trade 5 % and 9 % of time for 10 % and 17 % of energy, global matches
/// dynamic-5 %'s time for 15 %.
fn bench(name: &str, ipc: f64, reconfigurations: usize) -> BenchmarkResults {
    let summary = DomainSummary {
        reconfigs_per_mi: 0.0,
        mean_frequency_hz: 1e9,
        min_frequency_hz: 1_000_000_000,
        max_frequency_hz: 1_000_000_000,
    };
    let online = |policy: &str| OnlineRow {
        policy: policy.into(),
        metrics: metrics((1.07, 0.9)),
        reconfigurations: 3,
    };
    BenchmarkResults {
        name: name.into(),
        baseline: metrics((1.0, 1.0)),
        baseline_mcd: metrics((if name == "adpcm" { 1.05 } else { 1.03 }, 1.012)),
        dynamic1: metrics((1.05, 0.90)),
        dynamic5: metrics((1.09, 0.83)),
        global: metrics((1.09, 0.85)),
        global_frequency: Frequency::from_mhz(900),
        domain_summary5: [summary; 4],
        reconfigurations5: reconfigurations,
        baseline_ipc: ipc,
        online: vec![online("attack-decay"), online("queue-pi")],
    }
}

fn suite(reconfigurations: usize) -> Vec<BenchmarkResults> {
    let ipcs = [
        ("adpcm", 1.5),
        ("g721", 2.1),
        ("em3d", 0.5),
        ("health", 0.5),
        ("gcc", 0.6),
        ("mcf", 0.5),
    ];
    ipcs.iter()
        .map(|(name, ipc)| bench(name, *ipc, reconfigurations))
        .collect()
}

/// Results at seeds 1 and 2 under both models; at seed 2 `claim` (if any)
/// is broken and every other claim still holds.
fn synthetic(claim: Option<&str>) -> PaperData {
    let (mut x, mut t, mut l1d) = (suite(10), suite(0), [14.0, 14.0]);
    let set = |rs: &mut [BenchmarkResults], names: &[&str], f: &dyn Fn(&mut BenchmarkResults)| {
        rs.iter_mut()
            .filter(|r| names.contains(&r.name.as_str()))
            .for_each(f)
    };
    let all = ["adpcm", "g721", "em3d", "health", "gcc", "mcf"];
    let others = &all[1..];
    match claim {
        None => {}
        Some("1") => set(&mut x, others, &|r| {
            r.baseline_mcd = metrics((1.045, 1.012))
        }),
        Some("2") => set(&mut x, &all, &|r| r.baseline_mcd.energy = 1.06e6),
        // Time and energy costs that anti-correlate across benchmarks:
        // both average costs stay in range, the energy-delay average is a
        // gain.
        Some("3") => {
            set(&mut x, &["gcc", "mcf"], &|r| {
                r.baseline_mcd = metrics((1.30, 0.75))
            });
            set(&mut x, &["adpcm"], &|r| {
                r.baseline_mcd = metrics((1.31, 0.75))
            });
            let low = ["g721", "em3d", "health"];
            set(&mut x, &low, &|r| r.baseline_mcd = metrics((0.76, 1.30)));
        }
        Some("4") => set(&mut x, &all, &|r| {
            r.dynamic5 = metrics((1.17, 0.75));
            r.global = metrics((1.17, 0.85));
        }),
        Some("5") => set(&mut x, &all, &|r| r.dynamic1 = metrics((1.095, 0.90))),
        Some("6") => set(&mut x, &all, &|r| {
            r.dynamic1 = metrics((1.05, 0.95));
            r.dynamic5 = metrics((1.09, 0.91));
            r.global = metrics((1.09, 0.93));
        }),
        Some("7") => set(&mut x, &all, &|r| r.global = metrics((1.12, 0.82))),
        Some("8") => set(&mut x, &["gcc"], &|r| r.dynamic1 = metrics((1.05, 0.82))),
        Some("9") => set(&mut x, &all, &|r| r.dynamic1 = metrics((1.05, 0.96))),
        Some("10") => set(&mut x, &all, &|r| r.global = metrics((1.14, 0.85))),
        Some("11") => set(&mut t, &all, &|r| r.reconfigurations5 = 10),
        Some("12a") => set(&mut x, &["g721"], &|r| r.baseline_ipc = 1.9),
        Some("12b") => set(&mut x, &["em3d"], &|r| r.baseline_ipc = 1.1),
        Some("12c") => l1d = [16.0, 14.0],
        Some("12d") => set(&mut x, &["gcc"], &|r| {
            r.baseline_mcd = metrics((1.055, 1.012))
        }),
        Some(other) => panic!("no claim {other}"),
    }
    PaperData {
        instructions: 100_000,
        seed: 2,
        runs: vec![
            (DvfsModel::XScale, 1, suite(10)),
            (DvfsModel::XScale, 2, x),
            (DvfsModel::Transmeta, 1, suite(0)),
            (DvfsModel::Transmeta, 2, t),
        ],
        fig8: Vec::new(),
        table2: Vec::new(),
        gcc_l1d: vec![(1, [14.0, 14.0]), (2, l1d)],
        sync: Vec::new(),
        variants: Vec::new(),
    }
}

#[test]
fn each_claim_fails_alone_naming_the_claim_model_and_seed() {
    let clean = render(&synthetic(None)).expect("finite results render");
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    let claims = [
        "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12a", "12b", "12c", "12d",
    ];
    for id in claims {
        let model = if id == "11" { "Transmeta" } else { "XScale" };
        let report = render(&synthetic(Some(id))).expect("finite results render");
        assert_eq!(
            report.failures.len(),
            1,
            "claim {id}: {:?}",
            report.failures
        );
        let failure = &report.failures[0];
        assert!(failure.starts_with(&format!("claim {id} (")), "{failure}");
        assert!(
            failure.ends_with(&format!("fails under {model} at seed 2")),
            "{failure}"
        );
        assert!(report.text.contains("FAILS at seeds [2]"), "claim {id}");
    }
}

#[test]
fn a_non_finite_percentage_is_a_typed_error_naming_its_cell() {
    let mut data = synthetic(None);
    data.runs[1].2[4].online.pop();
    match render(&data) {
        Err(PaperError::NonFinite(e)) => {
            assert!(e.table.starts_with("X1 (XScale"), "{e}");
            assert_eq!(
                (e.label.as_str(), e.column.as_str()),
                ("queue-pi", "perf deg")
            );
        }
        other => panic!("expected a non-finite error, got {other:?}"),
    }
}

/// Two benchmarks (art for Figure 8), one seed, both models.
const SMALL: PaperConfig = PaperConfig {
    benchmarks: &["gcc", "art"],
    seeds: &[5],
    instructions: 8_000,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcd-paper-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn small_renders_are_byte_identical_and_figure_8_is_the_campaign_cell() {
    let run = |workers: usize| {
        let dir = scratch(&format!("render{workers}"));
        let cache = ResultCache::open(&dir).expect("cache dir");
        let report = Campaign::new(SMALL.spec())
            .workers(workers)
            .run(&cache, &Telemetry::disabled())
            .expect("valid spec");
        let data = collect(&SMALL, &report).expect("every cell finished");
        let _ = std::fs::remove_dir_all(&dir);
        (render(&data).expect("finite"), data)
    };
    let (first, data) = run(1);
    let (second, _) = run(2);
    assert_eq!(first, second, "two renders must be byte-identical");
    for id in [
        "table1", "table2", "f5", "f6", "f7", "headline", "f8", "f9", "claims", "a1", "a2", "x1",
    ] {
        assert!(first.text.contains(&format!("<!-- paper:{id} -->")), "{id}");
    }
    // Figure 8's schedule comes from the session code behind every
    // campaign cell, under each model's own transition rules.
    assert_eq!(data.fig8.len(), 2);
    for (model, _, metrics) in &data.fig8 {
        let (_, _, cells) = data
            .runs
            .iter()
            .find(|(m, s, _)| m == model && *s == 5)
            .expect("the model's campaign row");
        let art = cells.iter().find(|r| r.name == "art").expect("art cell");
        assert_eq!(metrics, &art.dynamic1, "{model:?}");
    }
}

#[test]
fn a_failed_cell_is_an_error_naming_the_cell() {
    let dir = scratch("failed");
    let cache = ResultCache::open(&dir).expect("cache dir");
    let panic = Fault::Panic {
        cell: 1,
        attempts: u32::MAX,
    };
    let report = Campaign::new(SMALL.spec())
        .workers(1)
        .chaos(FaultPlan::new(vec![panic]))
        .run(&cache, &Telemetry::disabled())
        .expect("valid spec");
    let _ = std::fs::remove_dir_all(&dir);
    match collect(&SMALL, &report) {
        Err(PaperError::Cell(cell, outcome)) => {
            assert_eq!(cell, "art/s5/n8000/XScale+attack-decay+queue-pi");
            assert!(outcome.starts_with("failed"), "{outcome}");
        }
        other => panic!("expected a failed-cell error, got {other:?}"),
    }
}
