//! On-line versus off-line control — the paper's future work, realized.
//!
//! The off-line tool sees the future (it analyzes a completed trace); the
//! on-line attack/decay governor reacts to issue-queue utilization as the
//! program runs. This example compares the two on one benchmark, against
//! the static-MCD baseline.
//!
//! ```sh
//! cargo run --release --example online_control [benchmark] [instructions]
//! ```

use mcd::offline::{derive_schedule, OfflineConfig};
use mcd::pipeline::{simulate, simulate_governed, AttackDecay, MachineConfig};
use mcd::power::PowerModel;
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

    let power = PowerModel::paper_calibrated();
    let mcd = simulate(&MachineConfig::baseline_mcd(5), &profile, instructions);
    let e_mcd = power.energy_of(&mcd).total();

    // Off-line: trace, analyze at θ = 5 %, replay.
    let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
    let (analysis, _) = derive_schedule(5, &profile, instructions, &cfg);
    let offline_machine = MachineConfig::dynamic(5, DvfsModel::XScale, analysis.schedule.clone());
    let offline = simulate(&offline_machine, &profile, instructions);
    let e_off = power.energy_of(&offline).total();

    // On-line: attack/decay, no oracle.
    let online_machine = MachineConfig::dynamic(5, DvfsModel::XScale, Default::default());
    let online = simulate_governed(
        &online_machine,
        &profile,
        instructions,
        AttackDecay::paper_like(),
    );
    let e_on = power.energy_of(&online).total();

    println!("{name}, {instructions} instructions, relative to static baseline MCD:\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>8}",
        "configuration", "perf deg", "energy", "energy-delay", "reconf"
    );
    let report = |label: &str, time: mcd::time::Femtos, energy: f64, reconf: u64| {
        let deg = time.as_femtos() as f64 / mcd.total_time.as_femtos() as f64 - 1.0;
        let savings = 1.0 - energy / e_mcd;
        let ed = 1.0 - (energy / e_mcd) * (1.0 + deg);
        println!(
            "{label:<22} {:>9.2}% {:>9.2}% {:>11.2}% {reconf:>8}",
            100.0 * deg,
            100.0 * savings,
            100.0 * ed
        );
    };
    report(
        "off-line (oracle)",
        offline.total_time,
        e_off,
        analysis.schedule.len() as u64,
    );
    report(
        "on-line attack/decay",
        online.total_time,
        e_on,
        online.domain_transitions.iter().sum(),
    );
    println!(
        "\nthe off-line tool knows the future; a good on-line policy gets close\n\
         (and, as the paper notes, could in principle do better)."
    );
}
