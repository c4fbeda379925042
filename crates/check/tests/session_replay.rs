//! Replay identity: a run replaying a shared [`Recording`] — the way every
//! run of a benchmark session does — must be byte-identical to the plain
//! run of the same machine and to the reference interpreter's.

use std::collections::HashMap;

use mcd_check::{lattice, CheckCase};
use mcd_pipeline::{
    DomainId, Engine, FrequencySchedule, MachineConfig, Pipeline, PolicySpec, Recording,
    RunControl, RunResult, ScheduleEntry,
};
use mcd_time::{DvfsModel, Femtos, Frequency};
use mcd_workload::{suites, BenchmarkProfile, WorkloadGenerator};

fn canonical(r: &RunResult) -> String {
    serde_json::to_string(r).expect("run result serializes")
}

fn profile(name: &str) -> BenchmarkProfile {
    suites::by_name(name).expect("known benchmark")
}

/// Replays `machine` on `recording`, then checks the bytes against the
/// plain and reference runs. Returns the replayed result.
fn assert_replay_identical(
    recording: &Recording,
    profile: &BenchmarkProfile,
    machine: &MachineConfig,
    instructions: u64,
    policy: Option<&PolicySpec>,
    what: &str,
) -> RunResult {
    let control = |engine| RunControl {
        governor: policy.map(|p| p.build().expect("valid policy")),
        engine,
    };
    let fresh = || {
        Pipeline::new(
            machine.clone(),
            WorkloadGenerator::new(profile.clone(), machine.seed),
        )
    };
    let replayed = Pipeline::replaying(machine.clone(), recording)
        .run(instructions, control(Engine::default()));
    let plain = fresh().run(instructions, control(Engine::default()));
    let reference = fresh().run(instructions, control(Engine::Reference));
    let bytes = canonical(&replayed);
    assert_eq!(bytes, canonical(&plain), "{what}: replayed != plain");
    assert_eq!(
        bytes,
        canonical(&reference),
        "{what}: replayed != reference"
    );
    replayed
}

/// One recording per (benchmark, seed), shared by every lattice case that
/// runs that program — like a session shares one across its cells. Each
/// case runs twice so the second replays what the first recorded.
#[test]
fn lattice_replays_byte_identically() {
    let mut recordings: HashMap<(String, u64), Recording> = HashMap::new();
    for case in lattice() {
        let p = profile(&case.benchmark);
        let machine = case.machine().expect("lattice case builds");
        let policy = case.policy().expect("lattice policy parses");
        let recording = recordings
            .entry((case.benchmark.clone(), case.seed))
            .or_insert_with(|| Recording::new(&p, case.seed));
        for pass in ["record", "replay"] {
            assert_replay_identical(
                recording,
                &p,
                &machine,
                case.instructions,
                policy.as_ref(),
                &format!("{pass} {case:?}"),
            );
        }
    }
}

/// Transmeta requests draw a PLL lock time from the clock's jitter
/// generator: the clock must restore the exact generator state mid-tape.
#[test]
fn transmeta_schedule_restores_the_generator_mid_run() {
    let p = profile("gcc");
    let recording = Recording::new(&p, 8);
    let entry = |ns: u64, domain, mhz| ScheduleEntry {
        at: Femtos::from_nanos(ns),
        domain,
        frequency: Frequency::from_mhz(mhz),
    };
    let schedule = FrequencySchedule::from_entries(vec![
        entry(300, DomainId::Integer, 600),
        entry(450, DomainId::FloatingPoint, 250),
        entry(900, DomainId::LoadStore, 750),
    ]);
    // Record the streams with a static run first, so the schedule's PLL
    // draws land in the middle of recorded tapes.
    assert_replay_identical(
        &recording,
        &p,
        &MachineConfig::baseline_mcd(8),
        4_000,
        None,
        "static",
    );
    let machine = MachineConfig::dynamic(8, DvfsModel::Transmeta, schedule);
    let run = assert_replay_identical(&recording, &p, &machine, 4_000, None, "schedule");
    assert!(run.domain_transitions.iter().sum::<u64>() >= 3);
    assert!(run.domain_idle.iter().any(|&t| t > Femtos::ZERO));
}

#[test]
fn transmeta_governor_restores_the_generator_mid_run() {
    let p = profile("bzip2");
    let recording = Recording::new(&p, 6);
    let policy = PolicySpec::parse("attack-decay").expect("valid policy");
    let mut machine = MachineConfig::baseline_mcd(6);
    assert_replay_identical(&recording, &p, &machine, 30_000, None, "static");
    machine.dvfs_model = DvfsModel::Transmeta;
    let run = assert_replay_identical(&recording, &p, &machine, 30_000, Some(&policy), "governed");
    assert!(run.domain_transitions.iter().sum::<u64>() > 0);
}

/// The chaos model's jitter is a different stream from the paper model's
/// under the same seed: the recording keys tapes by model, too.
#[cfg(feature = "chaos")]
#[test]
fn breaching_jitter_replays_byte_identically() {
    let chaos = CheckCase {
        benchmark: "gcc".into(),
        seed: 12,
        instructions: 2_000,
        chaos: "ts-breach".into(),
        ..CheckCase::default()
    };
    let clean = CheckCase {
        chaos: "none".into(),
        ..chaos.clone()
    };
    let p = profile("gcc");
    let recording = Recording::new(&p, 12);
    for case in [&clean, &chaos, &clean, &chaos] {
        let machine = case.machine().expect("case builds");
        assert_replay_identical(&recording, &p, &machine, 2_000, None, &case.chaos);
    }
}

/// A run longer than everything recorded so far extends both tapes, and
/// the extension is what the next run replays.
#[test]
fn a_longer_run_extends_the_recording() {
    let p = profile("mcf");
    let recording = Recording::new(&p, 3);
    let case = CheckCase {
        benchmark: "mcf".into(),
        seed: 3,
        ..CheckCase::default()
    };
    let machine = case.machine().expect("case builds");
    assert_replay_identical(&recording, &p, &machine, 1_000, None, "short");
    let (instructions, draws) = (
        recording.instructions_recorded(),
        recording.jitter_draws_recorded(),
    );
    assert_replay_identical(&recording, &p, &machine, 5_000, None, "long");
    assert!(recording.instructions_recorded() > instructions);
    assert!(recording.jitter_draws_recorded() > draws);
    let slow = MachineConfig::global(3, Frequency::from_mhz(400));
    assert_replay_identical(&recording, &p, &slow, 5_000, None, "slow single clock");
}
