//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span: name,
//! start, duration and parent. Spans stay in memory and are written out
//! once, as Chrome `trace_event` JSON, when the traced run ends. A span's
//! self time is its duration minus the time its child spans cover.

use std::time::Instant;

use serde::{Map, Serialize, Value};

/// One finished (or open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call[detail]`; the text before the first `.` is the layer.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its value with the
    /// span's duration in seconds. Spans opened inside `f` become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: (start - self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[index].dur_us = secs * 1e6;
        (value, secs)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, microseconds, index-aligned with
    /// [`Tracer::spans`].
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.dur_us;
            }
        }
        own
    }

    /// Self time summed per layer (the span-name prefix before the first
    /// `.`), seconds, sorted by layer name.
    pub fn self_seconds_by_layer(&self) -> Vec<(String, f64)> {
        let mut by_layer = std::collections::BTreeMap::<String, f64>::new();
        for (span, us) in self.spans.iter().zip(self.self_times_us()) {
            let layer = span.name.split('.').next().unwrap_or("").to_string();
            *by_layer.entry(layer).or_default() += us * 1e-6;
        }
        by_layer.into_iter().collect()
    }

    /// The recording as a Chrome `trace_event` document (load it in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_json(&self) -> String {
        let own = self.self_times_us();
        let events: Vec<Value> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_us)| {
                let mut args = Map::new();
                args.insert("self_us".into(), self_us.to_value());
                if let Some(p) = s.parent {
                    args.insert("parent".into(), Value::String(self.spans[p].name.clone()));
                }
                let mut e = Map::new();
                e.insert("name".into(), Value::String(s.name.clone()));
                e.insert(
                    "cat".into(),
                    Value::String(s.name.split('.').next().unwrap_or("").to_string()),
                );
                e.insert("ph".into(), Value::String("X".into()));
                e.insert("ts".into(), s.start_us.to_value());
                e.insert("dur".into(), s.dur_us.to_value());
                e.insert("pid".into(), 1u64.to_value());
                e.insert("tid".into(), 1u64.to_value());
                e.insert("args".into(), Value::Object(args));
                Value::Object(e)
            })
            .collect();
        let mut doc = Map::new();
        doc.insert("traceEvents".into(), Value::Array(events));
        doc.insert("displayTimeUnit".into(), Value::String("ms".into()));
        serde_json::to_string(&Value::Object(doc)).expect("JSON writing is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("core.outer", |t| {
            t.span("pipeline.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = t.self_times_us();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[1] >= 20_000.0);
        assert!(own[0] >= 0.0 && own[0] < outer * 1e6 - 19_000.0);
        let layers = t.self_seconds_by_layer();
        assert_eq!(layers.len(), 2);
        assert!(t.chrome_json().contains("\"ph\":\"X\""));
    }
}
