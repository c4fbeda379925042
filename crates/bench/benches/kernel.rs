//! Criterion benchmarks of the simulation kernel's hot loop — the paths
//! reworked by the edge-scheduler / fast-forward / sync-cache overhaul.
//!
//! `kernel/run_mcd` vs `kernel/run_reference` is the headline pair: the same
//! machine through the production loop (indexed earliest-edge scheduler +
//! idle-cycle fast-forward) and through the naive reference interpreter. The remaining groups isolate individual ingredients: raw jittered
//! clock-edge generation, the precomputed sync-window matrix against the
//! per-crossing computation, and issue-queue churn.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mcd_pipeline::{
    DomainId, Engine, FrequencySchedule, MachineConfig, Pipeline, RunControl, ScheduleEntry,
};
use mcd_time::{
    sync_visible_at, DomainClock, DvfsModel, Femtos, Frequency, JitterModel, SyncParams,
    SyncWindowCache,
};
use mcd_uarch::AgeQueue;
use mcd_workload::{suites, WorkloadGenerator};

const N: u64 = 20_000;

/// A dynamic machine whose FP domain is parked at the floor — on an
/// integer-heavy benchmark this leaves the FP issue queue empty for long
/// stretches, the exact shape the idle-cycle fast-forward targets.
fn fp_parked_machine(seed: u64) -> MachineConfig {
    let schedule = FrequencySchedule::from_entries(vec![ScheduleEntry {
        at: Femtos::from_micros(1),
        domain: DomainId::FloatingPoint,
        frequency: Frequency::MIN_SCALED,
    }]);
    MachineConfig::dynamic(seed, DvfsModel::XScale, schedule)
}

fn run(machine: &MachineConfig, bench: &str, engine: Engine) -> u64 {
    let profile = suites::by_name(bench).expect("known benchmark");
    let control = RunControl {
        engine,
        ..RunControl::default()
    };
    Pipeline::new(
        machine.clone(),
        WorkloadGenerator::new(profile, machine.seed),
    )
    .run(N, control)
    .committed
}

fn bench_run_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    let machine = fp_parked_machine(mcd_bench::SEED);
    group.bench_function("run_mcd_gcc_20k", |b| {
        b.iter(|| black_box(run(&machine, "gcc", Engine::default())))
    });
    group.bench_function("run_reference_gcc_20k", |b| {
        b.iter(|| black_box(run(&machine, "gcc", Engine::Reference)))
    });
    group.finish();
}

fn bench_clock_edges(c: &mut Criterion) {
    c.bench_function("kernel/clock_edges", |b| {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 11);
        b.iter(|| black_box(clk.next_edge()))
    });
}

fn bench_sync_window(c: &mut Criterion) {
    let params = SyncParams::paper();
    let periods = [
        Frequency::GHZ.period(),
        Frequency::from_mhz(600).period(),
        Frequency::MIN_SCALED.period(),
        Frequency::from_mhz(800).period(),
    ];
    let t = Femtos::from_nanos(42);
    c.bench_function("kernel/sync_window_computed", |b| {
        b.iter(|| {
            let mut acc = Femtos::ZERO;
            for src in 0..4 {
                for dst in 0..4 {
                    if src != dst {
                        acc += sync_visible_at(&params, t, periods[src], periods[dst]);
                    }
                }
            }
            black_box(acc)
        })
    });
    c.bench_function("kernel/sync_window_cached", |b| {
        let cache = SyncWindowCache::<4>::new(params, &periods);
        b.iter(|| {
            let mut acc = Femtos::ZERO;
            for src in 0..4 {
                for dst in 0..4 {
                    acc += cache.visible_at(t, src, dst);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_age_queue(c: &mut Criterion) {
    c.bench_function("kernel/age_queue_churn", |b| {
        let mut iq = AgeQueue::new(20);
        let mut seq = 0u64;
        b.iter(|| {
            // Half-fill, walk oldest-first, then drain from the middle out —
            // the per-cycle pattern of tick_exec/try_issue.
            for _ in 0..10 {
                seq += 1;
                iq.push(seq).expect("space");
            }
            let sum: u64 = iq.as_slice().iter().sum();
            for s in (seq - 9)..=seq {
                iq.remove(s);
            }
            black_box(sum)
        })
    });
}

criterion_group!(
    benches,
    bench_run_loop,
    bench_clock_edges,
    bench_sync_window,
    bench_age_queue
);
criterion_main!(benches);
