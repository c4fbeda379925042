//! End-to-end tests of the on-line governors.

use mcd_pipeline::{
    simulate, simulate_governed, AttackDecay, ControlSample, DomainId, Governor, MachineConfig,
    PolicySpec, QueuePi,
};
use mcd_time::{Femtos, Frequency};
use mcd_workload::suites;

fn run_online(name: &str, n: u64) -> mcd_pipeline::RunResult {
    let profile = suites::by_name(name).expect("known benchmark");
    simulate_governed(
        &MachineConfig::baseline_mcd(5),
        &profile,
        n,
        AttackDecay::paper_like(),
    )
}

#[test]
fn governor_scales_idle_fp_domain_for_integer_code() {
    // The XScale ramp takes ~55 µs across the full range, so the window
    // must be several times that for the average frequency to show it.
    let run = run_online("bzip2", 200_000);
    assert_eq!(run.committed, 200_000);
    let fp = run.avg_frequency_hz[DomainId::FloatingPoint.index()];
    let int = run.avg_frequency_hz[DomainId::Integer.index()];
    assert!(
        fp < 0.7 * int,
        "idle FP should be scaled on-line: fp {fp:.3e} vs int {int:.3e}"
    );
    // The front end is untouched by the governor.
    let fe = run.avg_frequency_hz[DomainId::FrontEnd.index()];
    assert!((fe - 1e9).abs() < 2e7, "front end stays at 1 GHz: {fe:.3e}");
}

#[test]
fn governor_keeps_degradation_bounded() {
    let machine = MachineConfig::baseline_mcd(5);
    let profile = suites::by_name("gcc").expect("known benchmark");
    let static_run = simulate(&machine, &profile, 60_000);
    let online = run_online("gcc", 60_000);
    let deg = online.total_time.as_femtos() as f64 / static_run.total_time.as_femtos() as f64 - 1.0;
    assert!(
        deg < 0.25,
        "on-line control degradation out of hand: {:.3}",
        deg
    );
    assert!(
        online.domain_transitions.iter().sum::<u64>() > 3,
        "governor actually acted"
    );
}

#[test]
fn governor_saves_energy_versus_static_mcd() {
    use mcd_pipeline::Unit;
    let machine = MachineConfig::baseline_mcd(5);
    let profile = suites::by_name("treeadd").expect("known benchmark");
    let static_run = simulate(&machine, &profile, 60_000);
    let online = run_online("treeadd", 60_000);
    // Cheap proxy for energy: V²-weighted cycles and accesses must fall.
    let static_v2: f64 = static_run.domain_v2_cycles.iter().sum();
    let online_v2: f64 = online.domain_v2_cycles.iter().sum();
    assert!(
        online_v2 < 0.95 * static_v2,
        "on-line scaling should cut V²·cycles: {online_v2:.3e} vs {static_v2:.3e}"
    );
    let u = Unit::IqInt;
    assert!(online.ledger.weighted_v2(u) <= static_run.ledger.weighted_v2(u) + 1.0);
}

fn interval_sample(governor: &dyn Governor, util: [f64; 4], issued: [u64; 4]) -> ControlSample {
    ControlSample {
        start: Femtos::ZERO,
        end: governor.interval(),
        queue_utilization: util,
        issued,
        committed: 1_000,
    }
}

#[test]
fn saturated_domains_at_the_ceiling_stay_silent() {
    // Both registry policies start with every domain at (and last-requested
    // at) 1 GHz. A queue that stays saturated keeps pushing the continuous
    // target upward, but the clamp pins it at the ceiling — so the snapped
    // grid point never changes and the governor must not re-request the
    // frequency the hardware is already running at.
    let policies: [Box<dyn Governor>; 2] = [
        Box::new(AttackDecay::paper_like()),
        Box::new(QueuePi::default_tuning()),
    ];
    for mut governor in policies {
        for step in 0..500 {
            // Constant deep saturation: the attack/decay climb path and the
            // PI's positive error both keep asking for more than 1 GHz.
            let s = interval_sample(governor.as_ref(), [0.0, 0.98, 0.98, 0.98], [9, 9, 9, 9]);
            let decision = governor.decide(&s);
            assert_eq!(
                decision,
                [None; DomainId::COUNT],
                "ceiling-pinned domain re-requested a frequency at step {step}"
            );
        }
    }
}

#[test]
fn idle_domains_at_the_floor_request_it_exactly_once() {
    // The other saturation edge: a dead domain is floored on the first
    // interval, and every later idle interval snaps to the same 250 MHz
    // grid point — which must not be re-emitted.
    for spec in ["attack-decay", "queue-pi"] {
        let mut governor = PolicySpec::parse(spec)
            .expect("registry policy")
            .build()
            .expect("registry policy builds");
        let mut floor_requests = [0usize; DomainId::COUNT];
        for _ in 0..300 {
            let s = interval_sample(governor.as_ref(), [0.0; 4], [0; 4]);
            for (i, f) in governor.decide(&s).iter().enumerate() {
                if let Some(f) = f {
                    assert_eq!(*f, Frequency::MIN_SCALED, "{spec}: non-floor request");
                    floor_requests[i] += 1;
                }
            }
        }
        for d in &DomainId::ALL[1..] {
            assert_eq!(
                floor_requests[d.index()],
                1,
                "{spec}: the floor must be requested exactly once, then held"
            );
        }
        assert_eq!(floor_requests[DomainId::FrontEnd.index()], 0);
    }
}

#[test]
fn governor_reacts_to_phase_changes() {
    // art alternates FP-busy and FP-idle phases: the on-line controller
    // must produce multiple FP transitions, not a single settling step.
    let run = run_online("art", 120_000);
    let fp_transitions = run.domain_transitions[DomainId::FloatingPoint.index()];
    assert!(
        fp_transitions >= 4,
        "expected repeated FP adaptation, got {fp_transitions}"
    );
    assert!(run.total_time > Femtos::from_micros(50));
}
