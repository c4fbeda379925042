//! On-line versus off-line control — the paper's future work, realized.
//!
//! The off-line tool sees the future (it analyzes a completed trace); the
//! on-line attack/decay governor reacts to issue-queue utilization as the
//! program runs. This example compares the two on one benchmark, against
//! the static-MCD baseline, through the same session every campaign cell
//! runs.
//!
//! ```sh
//! cargo run --release --example online_control [benchmark] [instructions]
//! ```

use mcd::core::{BenchmarkSession, ExperimentConfig, ScenarioSpec};
use mcd::pipeline::PolicySpec;
use mcd::time::DvfsModel;
use mcd::workload::suites;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "gcc".into());
    let instructions: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(240_000);
    let Some(profile) = suites::by_name(&name) else {
        eprintln!(
            "unknown benchmark {name:?}; available: {:?}",
            suites::names()
        );
        std::process::exit(2);
    };

    let cfg = ExperimentConfig::paper(5, instructions, DvfsModel::XScale);
    let mut session = BenchmarkSession::new(&profile, &cfg);
    let mcd = session.cell(&ScenarioSpec::baseline_mcd()).metrics;
    // Off-line: trace, analyze at θ = 5 %, refine, replay.
    let offline = session.cell(&ScenarioSpec::dynamic(0.05));
    // On-line: attack/decay, no oracle.
    let policy = PolicySpec::parse("attack-decay").expect("registry policy");
    let online = session.cell(&ScenarioSpec::online(policy));

    println!("{name}, {instructions} instructions, relative to static baseline MCD:\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>8}",
        "configuration", "perf deg", "energy", "energy-delay", "reconf"
    );
    for (label, cell) in [
        ("off-line (oracle)", &offline),
        ("on-line attack/decay", &online),
    ] {
        let m = cell.metrics;
        println!(
            "{label:<22} {:>9.2}% {:>9.2}% {:>11.2}% {:>8}",
            100.0 * m.perf_degradation_vs(&mcd),
            100.0 * m.energy_savings_vs(&mcd),
            100.0 * m.energy_delay_improvement_vs(&mcd),
            cell.reconfigurations.unwrap_or(0)
        );
    }
    println!(
        "\nthe off-line tool knows the future; a good on-line policy gets close\n\
         (and, as the paper notes, could in principle do better)."
    );
}
