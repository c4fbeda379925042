//! XScale vs Transmeta: how the DVFS transition model changes what the
//! off-line tool can exploit.
//!
//! The XScale-like model slews voltage in fine steps and executes through
//! the change; the Transmeta-like model idles the domain for a 10–20 µs PLL
//! re-lock on every frequency change. The paper found the Transmeta model
//! "far less promising" because short-term behaviour cannot be tracked —
//! this example reproduces that comparison on one benchmark, with the
//! refined dynamic-5 % schedule every campaign cell runs.
//!
//! ```sh
//! cargo run --release --example dvfs_comparison [benchmark] [instructions]
//! ```

use mcd::core::{BenchmarkSession, ExperimentConfig, ScenarioSpec};
use mcd::pipeline::{simulate, MachineConfig};
use mcd::time::DvfsModel;
use mcd::workload::suites;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "art".into());
    let instructions: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(120_000);

    let Some(profile) = suites::by_name(&name) else {
        eprintln!(
            "unknown benchmark {name:?}; available: {:?}",
            suites::names()
        );
        std::process::exit(2);
    };

    println!("{name}: dynamic-5% under both transition models\n");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "model", "reconfs", "perf deg", "energy", "ED improve", "PLL idle"
    );
    for model in [DvfsModel::XScale, DvfsModel::Transmeta] {
        let cfg = ExperimentConfig::paper(5, instructions, model);
        let mut session = BenchmarkSession::new(&profile, &cfg);
        let base = session.cell(&ScenarioSpec::baseline()).metrics;
        let dyn5 = session.cell(&ScenarioSpec::dynamic(0.05));
        // Replaying the refined schedule reproduces the cell's run byte for
        // byte; it is simulated again here only to read its idle time.
        let schedule = session.analysis(0.05).schedule.clone();
        let run = simulate(
            &MachineConfig::dynamic(5, model, schedule),
            &profile,
            instructions,
        );
        let idle: mcd::time::Femtos = run.domain_idle.iter().copied().sum();
        let m = dyn5.metrics;
        println!(
            "{:<10} {:>8} {:>9.2}% {:>9.2}% {:>11.2}% {:>10}",
            format!("{model:?}"),
            dyn5.reconfigurations.unwrap_or(0),
            100.0 * m.perf_degradation_vs(&base),
            100.0 * m.energy_savings_vs(&base),
            100.0 * m.energy_delay_improvement_vs(&base),
            idle
        );
    }
    println!("\nexpected: XScale schedules more changes and achieves better energy-delay.");
    println!("At this window scale the Transmeta model usually schedules *nothing*: a");
    println!("single 10-20 us PLL re-lock would blow the pooled dilation budget — the");
    println!("mechanism behind the paper's finding that Transmeta results were far less");
    println!("promising (its Fig. 8 shows only a handful of changes across 30 ms).");
}
