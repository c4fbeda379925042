//! The traced run: each layer called through its public functions, one
//! span per call, serially on one thread.
//!
//! The suite runs on a seed-rotated sample of the workload's own inputs
//! (its instruction window and DVFS models), so every workload reports the
//! same per-layer metrics, each measured at that workload's operating
//! point. Only the campaign and grid steps run the system's own workers.

use mcd::core::{BenchmarkSession, ExperimentConfig, ScenarioSpec};
use mcd::harness::{CacheKey, CheckpointManifest, ResultCache};
use mcd::offline::{cluster_schedule, prepare_slack_threads};
use mcd::pipeline::{
    simulate, simulate_governed, simulate_governed_traced, MachineConfig, PolicySpec, RunResult,
    TraceConfig,
};
use mcd::workload::WorkloadGenerator;

use crate::span::Tracer;
use crate::stats::mean;
use crate::workloads::{local_campaign, Env, GridServer, Mix, ScratchDir, GOVERNED_POLICIES};
use crate::{Metric, Outcome};

/// Benchmarks per traced run.
pub const SAMPLE: usize = 4;
/// Calls per timed harness operation (cache store, checkpoint save).
const HARNESS_CALLS: usize = 64;

/// The per-layer metric names and units, in report order.
pub const METRICS: [(&str, &str); 26] = [
    ("workload.ns_per_instr", "ns"),
    ("pipeline.single_clock.ns_per_edge", "ns"),
    ("pipeline.mcd_static.ns_per_edge", "ns"),
    ("pipeline.dynamic.ns_per_edge", "ns"),
    ("pipeline.governed.ns_per_edge", "ns"),
    ("pipeline.trace_collect_overhead_pct", "%"),
    ("pipeline.warmup_ms", "ms"),
    ("trace.recorder_overhead_pct", "%"),
    ("offline.slack_ms", "ms"),
    ("offline.cluster_ms", "ms"),
    ("core.cell.baseline_s", "s"),
    ("core.cell.baseline_mcd_s", "s"),
    ("core.cell.dynamic1_s", "s"),
    ("core.cell.dynamic5_s", "s"),
    ("core.cell.global_s", "s"),
    ("core.phase.trace_run_s", "s"),
    ("core.phase.slack_s", "s"),
    ("core.phase.cluster_s", "s"),
    ("core.phase.simulate_s", "s"),
    ("core.dynamic.runs_est", "runs"),
    ("core.global.runs_est", "runs"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.checkpoint_save_ms", "ms"),
    ("harness.cache_store_ms", "ms"),
    ("grid.overhead_pct", "%"),
    ("grid.cell_rtt_p95_s", "s"),
];

/// What the traced run measured.
pub struct LayerReport {
    /// Every metric of [`METRICS`], in order; `attempted` counts layer
    /// calls, `failed` the cells that failed plus every grid cell if the
    /// grid's bytes differ from the local run's.
    pub outcome: Outcome,
    /// The recording.
    pub tracer: Tracer,
    /// Grid transport counters, for the human reader.
    pub notes: Vec<String>,
}

/// `SAMPLE` benchmarks of `mix` at its first seed, evenly spaced from a
/// seed-chosen offset, in figure order.
pub fn sample(mix: &Mix) -> Mix {
    let seed = mix.seeds[0];
    let n = mix.benchmarks.len();
    let k = SAMPLE.min(n);
    let mut picks: Vec<usize> = (0..k)
        .map(|i| (seed as usize % n + i * n / k) % n)
        .collect();
    picks.sort_unstable();
    Mix {
        benchmarks: picks.iter().map(|&i| mix.benchmarks[i].clone()).collect(),
        seeds: vec![seed],
        ..mix.clone()
    }
}

fn ns_per_edge(secs: f64, run: &RunResult) -> f64 {
    secs * 1e9 / run.domain_cycles.iter().sum::<u64>().max(1) as f64
}

/// Samples per metric, averaged at the end.
#[derive(Default)]
struct Samples(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// Runs the layer suite on a sample of `mix`.
pub fn run(mix: &Mix, env: &Env) -> Result<LayerReport, String> {
    let sample = sample(mix);
    let seed = sample.seeds[0];
    let n = sample.instructions;
    let model = sample.models[0];
    let mut t = Tracer::new();
    let mut s = Samples::default();

    for profile in sample.profiles()? {
        let p = &profile;
        let b = profile.name.clone();
        let ((), secs) = t.span(&format!("workload.take_instructions[{b}]"), |_| {
            let stream = WorkloadGenerator::new(p.clone(), seed).take_instructions(n as usize);
            std::hint::black_box(stream);
        });
        s.push("workload.ns_per_instr", secs * 1e9 / n as f64);

        let baseline = MachineConfig::baseline(seed);
        let (_, first) = t.span(&format!("pipeline.simulate[baseline,cold,{b}]"), |_| {
            simulate(&baseline, p, n)
        });
        let (run, single) = t.span(&format!("pipeline.simulate[baseline,{b}]"), |_| {
            simulate(&baseline, p, n)
        });
        s.push("pipeline.warmup_ms", (first - single) * 1e3);
        s.push(
            "pipeline.single_clock.ns_per_edge",
            ns_per_edge(single, &run),
        );

        let mcd = MachineConfig::baseline_mcd(seed);
        let (run, plain) = t.span(&format!("pipeline.simulate[baseline_mcd,{b}]"), |_| {
            simulate(&mcd, p, n)
        });
        s.push("pipeline.mcd_static.ns_per_edge", ns_per_edge(plain, &run));
        let mut collecting = mcd.clone();
        collecting.collect_trace = true;
        let (traced, secs) = t.span(&format!("pipeline.simulate[collect_trace,{b}]"), |_| {
            simulate(&collecting, p, n)
        });
        s.push(
            "pipeline.trace_collect_overhead_pct",
            (secs / plain - 1.0) * 100.0,
        );

        let cfg = ExperimentConfig::paper(seed, n, model);
        let trace = traced
            .trace
            .as_deref()
            .ok_or("trace run returned no trace")?;
        let (slack, secs) = t.span(&format!("offline.prepare_slack_threads[{b}]"), |_| {
            prepare_slack_threads(trace, &collecting.pipeline, &cfg.offline, 1)
        });
        s.push("offline.slack_ms", secs * 1e3);
        for theta in [0.01, 0.05] {
            let mut offline = cfg.offline.clone();
            offline.dilation_target = theta;
            offline.model = model;
            let (_, secs) = t.span(&format!("offline.cluster_schedule[{theta},{b}]"), |_| {
                cluster_schedule(&slack, &offline)
            });
            s.push("offline.cluster_ms", secs * 1e3);
        }
        drop(traced);

        let mut attack_decay = 0.0;
        for policy in GOVERNED_POLICIES {
            let governor = PolicySpec::parse(policy)?.build()?;
            let (run, secs) = t.span(&format!("pipeline.simulate_governed[{policy},{b}]"), |_| {
                simulate_governed(&mcd, p, n, governor)
            });
            s.push("pipeline.governed.ns_per_edge", ns_per_edge(secs, &run));
            if policy == "attack-decay" {
                attack_decay = secs;
            }
        }
        let governor = PolicySpec::parse("attack-decay")?.build()?;
        let (_, secs) = t.span(&format!("trace.simulate_governed_traced[{b}]"), |_| {
            simulate_governed_traced(&mcd, p, n, governor, TraceConfig::full())
        });
        s.push(
            "trace.recorder_overhead_pct",
            (secs / attack_decay - 1.0) * 100.0,
        );

        let mut session = BenchmarkSession::new(p, &cfg);
        let cell_metrics = [
            "core.cell.baseline_s",
            "core.cell.baseline_mcd_s",
            "core.cell.dynamic1_s",
            "core.cell.dynamic5_s",
            "core.cell.global_s",
        ];
        let mut simulated = [0.0; 5];
        for (i, scenario) in ScenarioSpec::PAPER.iter().enumerate() {
            let before = session.phases().simulate;
            let (_, secs) = t.span(&format!("core.cell[{},{b}]", scenario.label()), |_| {
                session.cell(scenario)
            });
            simulated[i] = (session.phases().simulate - before).as_secs_f64();
            s.push(cell_metrics[i], secs);
        }
        let phases = session.phases();
        s.push("core.phase.trace_run_s", phases.trace_run.as_secs_f64());
        s.push("core.phase.slack_s", phases.slack.as_secs_f64());
        s.push("core.phase.cluster_s", phases.cluster.as_secs_f64());
        s.push("core.phase.simulate_s", phases.simulate.as_secs_f64());

        let schedule = session.analysis(0.05).schedule.clone();
        let dynamic = MachineConfig::dynamic(seed, model, schedule);
        let (run, secs) = t.span(&format!("pipeline.simulate[dynamic-5%,{b}]"), |_| {
            simulate(&dynamic, p, n)
        });
        s.push("pipeline.dynamic.ns_per_edge", ns_per_edge(secs, &run));
        s.push(
            "core.dynamic.runs_est",
            (simulated[2] + simulated[3]) / secs,
        );
        s.push("core.global.runs_est", simulated[4] / single);
        let global = MachineConfig::global(seed, session.global_run().0);
        let (run, secs) = t.span(&format!("pipeline.simulate[global,{b}]"), |_| {
            simulate(&global, p, n)
        });
        s.push("pipeline.single_clock.ns_per_edge", ns_per_edge(secs, &run));
    }

    let spec = sample.spec();
    let dir = ScratchDir::new(&env.work, "layers")?;
    let (local, local_wall) = t.span("harness.Campaign::run", |_| {
        local_campaign(&spec, &dir.path().join("local"), env.par)
    });
    let local = local?;
    let busy: f64 = local.cells.iter().map(|c| c.elapsed.as_secs_f64()).sum();
    let workers = env.par.clamp(1, local.cells.len().max(1));
    s.push(
        "harness.parallel_efficiency",
        busy / (local_wall * workers as f64),
    );
    let mut failed = (local.failed() + local.stalled() + local.skipped()) as u64;

    let first = &local.cells[0];
    let result = first.outcome.result().ok_or("local campaign cell failed")?;
    let cache = ResultCache::open(dir.path().join("store")).map_err(|e| e.to_string())?;
    let key = CacheKey::of(&first.cell);
    for _ in 0..HARNESS_CALLS {
        let (stored, secs) = t.span("harness.ResultCache::store", |_| {
            cache.store(&key, &first.cell, result)
        });
        stored.map_err(|e| format!("cache store: {e}"))?;
        s.push("harness.cache_store_ms", secs * 1e3);
    }
    let mut manifest = CheckpointManifest::new(spec.clone(), HARNESS_CALLS);
    for i in 0..HARNESS_CALLS {
        manifest.mark_done(i);
    }
    let path = dir.path().join("manifest.json");
    for _ in 0..HARNESS_CALLS {
        let (saved, secs) = t.span("harness.CheckpointManifest::save", |_| manifest.save(&path));
        saved.map_err(|e| e.to_string())?;
        s.push("harness.checkpoint_save_ms", secs * 1e3);
    }

    let (grid, grid_wall) = t.span("grid.campaign", |t| {
        let grid_dir = dir.path().join("grid");
        std::fs::create_dir_all(&grid_dir).map_err(|e| e.to_string())?;
        let (server, _) = t.span("grid.GridServer::start", |_| {
            GridServer::start(&env.cli, &spec, &grid_dir, env.par)
        });
        t.span("grid.GridServer::finish", |_| server?.finish()).0
    });
    let grid = grid?;
    s.push("grid.overhead_pct", (grid_wall / local_wall - 1.0) * 100.0);
    let rtt = grid
        .rollup
        .grid
        .as_ref()
        .map_or(0.0, |g| g.cell_rtt_seconds_p95);
    s.push("grid.cell_rtt_p95_s", rtt);
    failed += grid.rollup.failed + grid.rollup.stalled + grid.rollup.skipped;
    if !grid.healthy() || local.to_json().as_deref() != Some(grid.report_json.as_str()) {
        failed += grid.rollup.cells.max(1);
    }
    let notes = vec![format!(
        "grid sample: {} cells, {:.1} KiB on the wire, {} audits; local {:.3}s vs grid {:.3}s",
        grid.rollup.cells,
        grid.wire_kib(),
        grid.rollup.grid.as_ref().map_or(0, |g| g.audits),
        local_wall,
        grid_wall,
    )];

    let metrics = METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = s.0.get(name).and_then(|v| mean(v)).unwrap_or(f64::NAN);
            Metric::new(name, value, unit)
        })
        .collect();
    Ok(LayerReport {
        outcome: Outcome {
            correct: failed == 0,
            attempted: t.spans().len() as u64,
            failed,
            metrics,
        },
        tracer: t,
        notes,
    })
}
