//! Golden-fixture support: the fixed matrix of simulator configurations
//! whose serialized [`RunResult`]s are pinned in
//! `tests/fixtures/golden_runresults.json`.
//!
//! The simulator's results must stay byte-identical across performance
//! work, so the fixture is regenerated only when a PR deliberately changes
//! simulated behaviour (and the diff is then part of the review):
//!
//! ```text
//! cargo run --release --example golden_dump > tests/fixtures/golden_runresults.json
//! ```
//!
//! `tests/golden_runresult.rs` re-renders the matrix and compares it to the
//! committed fixture byte-for-byte; the `golden_dump` example prints the
//! same rendering. Both go through [`render`] so they cannot drift apart.

use mcd_pipeline::{
    simulate, simulate_governed, AttackDecay, DomainId, FrequencySchedule, MachineConfig,
    RunResult, ScheduleEntry,
};
use mcd_time::{DvfsModel, Femtos, Frequency};
use mcd_workload::suites;

/// The fixture matrix: every clocking style, both DVFS models, an on-line
/// governor run, and one trace-collecting run.
pub fn golden_matrix() -> Vec<(String, RunResult)> {
    let mut out = Vec::new();
    let mut push = |name: &str, r: RunResult| out.push((name.to_string(), r));

    let prof = |name: &str| suites::by_name(name).expect("known benchmark");

    push(
        "baseline_adpcm_s1",
        simulate(&MachineConfig::baseline(1), &prof("adpcm"), 6_000),
    );
    push(
        "baseline_mcd_gcc_s5",
        simulate(&MachineConfig::baseline_mcd(5), &prof("gcc"), 6_000),
    );
    push(
        "baseline_mcd_swim_s2",
        simulate(&MachineConfig::baseline_mcd(2), &prof("swim"), 6_000),
    );
    push(
        "global500_mcf_s3",
        simulate(
            &MachineConfig::global(3, Frequency::from_mhz(500)),
            &prof("mcf"),
            6_000,
        ),
    );
    let sched = || {
        FrequencySchedule::from_entries(vec![
            ScheduleEntry {
                at: Femtos::from_micros(1),
                domain: DomainId::FloatingPoint,
                frequency: Frequency::MIN_SCALED,
            },
            ScheduleEntry {
                at: Femtos::from_micros(5),
                domain: DomainId::Integer,
                frequency: Frequency::from_mhz(600),
            },
            ScheduleEntry {
                at: Femtos::from_micros(40),
                domain: DomainId::Integer,
                frequency: Frequency::GHZ,
            },
        ])
    };
    push(
        "dynamic_transmeta_g721_s5",
        simulate(
            &MachineConfig::dynamic(5, DvfsModel::Transmeta, sched()),
            &prof("g721"),
            12_000,
        ),
    );
    push(
        "dynamic_xscale_parser_s5",
        simulate(
            &MachineConfig::dynamic(5, DvfsModel::XScale, sched()),
            &prof("parser"),
            12_000,
        ),
    );
    push(
        "governor_bzip2_s7",
        simulate_governed(
            &MachineConfig::baseline_mcd(7),
            &prof("bzip2"),
            12_000,
            AttackDecay::paper_like(),
        ),
    );
    {
        let mut machine = MachineConfig::baseline_mcd(4);
        machine.collect_trace = true;
        push(
            "traced_mcd_adpcm_s4",
            simulate(&machine, &prof("adpcm"), 3_000),
        );
    }
    out
}

/// Renders the matrix in the fixture's on-disk format (trailing newline
/// included).
pub fn render() -> String {
    let entries: Vec<String> = golden_matrix()
        .into_iter()
        .map(|(name, r)| {
            let body = serde_json::to_string(&r).expect("RunResult serializes");
            format!("  {:?}: {body}", name)
        })
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}
