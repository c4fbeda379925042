//! `mcd-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! Three workloads ([`workloads::Workload`]) stress different layers: the
//! cold paper suite through the campaign engine, the simulation kernel
//! under on-line governors, and the grid transport. An untraced run
//! ([`runner::end_to_end`]) repeats fresh-process passes of one workload
//! for a fixed time and reports medians; a traced run ([`layers::run`])
//! times each layer through its public functions. See `README.md`.

pub mod layers;
pub mod runner;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workloads;

use serde::{Map, Serialize, Value};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `MiB`, `%`.
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The verdict and numbers of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output matched its expected bytes.
    pub correct: bool,
    /// Units (cells, runs, layer calls) attempted.
    pub attempted: u64,
    /// Units failed, stalled, skipped, or whose output did not match.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `workload metric value unit`, one line per metric.
    pub fn lines(&self, workload: &str) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{workload} {} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn to_value(&self) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut entry = Map::new();
            entry.insert("value".into(), m.value.to_value());
            entry.insert("unit".into(), Value::String(m.unit.clone()));
            metrics.insert(m.name.clone(), Value::Object(entry));
        }
        let mut doc = Map::new();
        doc.insert("correct".into(), Value::Bool(self.correct));
        doc.insert("attempted".into(), self.attempted.to_value());
        doc.insert("failed".into(), self.failed.to_value());
        doc.insert("metrics".into(), Value::Object(metrics));
        Value::Object(doc)
    }
}
