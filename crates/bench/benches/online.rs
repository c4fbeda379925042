//! Extension — on-line control (the paper's future work): every governor in
//! the policy registry versus the off-line oracle, on a representative
//! subset of benchmarks. Reported relative to the static baseline-MCD
//! machine.

use mcd_offline::{derive_schedule, OfflineConfig};
use mcd_pipeline::{simulate, simulate_governed, MachineConfig, PolicySpec, POLICY_IDS};
use mcd_power::PowerModel;
use mcd_time::DvfsModel;
use mcd_workload::suites;

fn main() {
    let n = mcd_bench::instructions();
    let power = PowerModel::paper_calibrated();
    println!("On-line registry policies vs off-line oracle (θ=5%), {n} instructions");
    print!(
        "{:<9} | {:>9} {:>9} {:>9}",
        "", "off deg", "off en", "off ED"
    );
    for id in POLICY_IDS {
        let short: String = id.chars().take(6).collect();
        print!(" | {:>9} {:>9} {:>9}", format!("{short} dg"), "en", "ED");
    }
    println!();
    let mut sums = vec![[0.0f64; 3]; 1 + POLICY_IDS.len()];
    let names = [
        "adpcm", "gcc", "mcf", "em3d", "bzip2", "art", "swim", "g721",
    ];
    for name in names {
        let profile = suites::by_name(name).expect("known benchmark");
        let mcd = simulate(&MachineConfig::baseline_mcd(mcd_bench::SEED), &profile, n);
        let e_mcd = power.energy_of(&mcd).total();
        let metrics = |time: mcd_time::Femtos, energy: f64| -> [f64; 3] {
            let deg = time.as_femtos() as f64 / mcd.total_time.as_femtos() as f64 - 1.0;
            let savings = 1.0 - energy / e_mcd;
            let ed = 1.0 - (energy / e_mcd) * (1.0 + deg);
            [deg, savings, ed]
        };
        let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
        let (analysis, _) = derive_schedule(mcd_bench::SEED, &profile, n, &cfg);
        let off_machine =
            MachineConfig::dynamic(mcd_bench::SEED, DvfsModel::XScale, analysis.schedule);
        let off = simulate(&off_machine, &profile, n);
        let mut rows = vec![metrics(off.total_time, power.energy_of(&off).total())];

        for id in POLICY_IDS {
            let governor = PolicySpec::parse(id)
                .expect("registry id parses")
                .build()
                .expect("registry id builds");
            let on_machine =
                MachineConfig::dynamic(mcd_bench::SEED, DvfsModel::XScale, Default::default());
            let on = simulate_governed(&on_machine, &profile, n, governor);
            rows.push(metrics(on.total_time, power.energy_of(&on).total()));
        }

        print!("{name:<9}");
        for (group, m) in rows.iter().enumerate() {
            for i in 0..3 {
                sums[group][i] += m[i];
            }
            print!(
                " | {:>8.2}% {:>8.2}% {:>8.2}%",
                100.0 * m[0],
                100.0 * m[1],
                100.0 * m[2]
            );
        }
        println!();
    }
    let k = names.len() as f64;
    print!("{:<9}", "AVG");
    for group in &sums {
        print!(
            " | {:>8.2}% {:>8.2}% {:>8.2}%",
            100.0 * group[0] / k,
            100.0 * group[1] / k,
            100.0 * group[2] / k
        );
    }
    println!();
    println!();
    println!("no on-line policy needs the oracle; each should land within a few points of");
    println!("the off-line tool — the feasibility the paper's future-work section posits.");
}
