//! Chrome `trace_event` export.
//!
//! Renders a [`RunTrace`] in the Trace Event Format (the JSON consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): one thread
//! track per clock domain carrying PLL re-lock and synchronization-stall
//! slices, plus one counter track per domain for the frequency stairstep
//! and one for queue occupancy.
//!
//! Schema choices:
//! * `pid` is always 1 (one machine), `tid` is the domain index, and a
//!   `thread_name` metadata event labels each track with the domain name.
//! * Frequency and occupancy use counter events (`"ph": "C"`) named
//!   `"freq:<domain> MHz"` / `"occupancy:<domain>"` — counters are keyed
//!   by `(pid, name)`, so the domain goes in the name.
//! * Re-lock and sync-stall windows are complete slices
//!   (`"ph": "X"`) with microsecond `ts`/`dur`.
//! * Events are emitted in nondecreasing `ts` order.

use serde::{Map, Number, Value};

use crate::model::{RunTrace, DOMAIN_LABELS};

/// Femtoseconds → trace microseconds.
fn us(fs: u64) -> f64 {
    fs as f64 / 1e9
}

fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn base_event(name: &str, ph: &str, ts: f64, tid: usize) -> Map {
    let mut e = Map::new();
    e.insert("name".to_string(), Value::String(name.to_string()));
    e.insert("ph".to_string(), Value::String(ph.to_string()));
    e.insert("ts".to_string(), num(ts));
    e.insert("pid".to_string(), Value::Number(Number::U64(1)));
    e.insert("tid".to_string(), Value::Number(Number::U64(tid as u64)));
    e
}

/// Renders `trace` as an in-memory Chrome trace_event JSON document.
pub fn chrome_trace_value(trace: &RunTrace) -> Value {
    // (ts, emission order) keyed events; sorted before assembly so viewers
    // that require monotonic timestamps are satisfied.
    let mut events: Vec<(f64, usize, Value)> = Vec::new();
    let push = |events: &mut Vec<(f64, usize, Value)>, ts: f64, e: Map| {
        let order = events.len();
        events.push((ts, order, Value::Object(e)));
    };

    for (d, label) in DOMAIN_LABELS.iter().enumerate() {
        // Track naming metadata.
        let mut meta = base_event("thread_name", "M", 0.0, d);
        let mut args = Map::new();
        args.insert("name".to_string(), Value::String(label.to_string()));
        meta.insert("args".to_string(), Value::Object(args));
        push(&mut events, 0.0, meta);

        let Some(dom) = trace.domains.get(d) else {
            continue;
        };

        // Frequency stairstep: one counter sample per operating-point
        // change, plus a closing sample at the end of the run so the last
        // step has width.
        let freq_name = format!("freq:{label} MHz");
        let step = |events: &mut Vec<(f64, usize, Value)>, ts: f64, mhz: f64| {
            let mut e = base_event(&freq_name, "C", ts, d);
            let mut args = Map::new();
            args.insert("MHz".to_string(), num(mhz));
            e.insert("args".to_string(), Value::Object(args));
            push(events, ts, e);
        };
        for s in &dom.freq_steps {
            step(&mut events, us(s.at.as_femtos()), s.hz as f64 / 1e6);
        }
        if let Some(last) = dom.freq_steps.last() {
            let end = us(trace.total_time.as_femtos());
            if end > us(last.at.as_femtos()) {
                step(&mut events, end, last.hz as f64 / 1e6);
            }
        }

        // Occupancy counter samples.
        let occ_name = format!("occupancy:{label}");
        for s in &dom.occupancy {
            let ts = us(s.at.as_femtos());
            let mut e = base_event(&occ_name, "C", ts, d);
            let mut args = Map::new();
            args.insert("occupancy".to_string(), num(s.occupancy));
            e.insert("args".to_string(), Value::Object(args));
            push(&mut events, ts, e);
        }

        // PLL re-lock slices.
        for r in &dom.relocks {
            let ts = us(r.start.as_femtos());
            let mut e = base_event("pll-relock", "X", ts, d);
            e.insert("dur".to_string(), num(us((r.end - r.start).as_femtos())));
            push(&mut events, ts, e);
        }

        // Synchronization-window stalls (destination-domain track).
        for s in &dom.sync_stalls {
            let ts = us(s.at.as_femtos());
            let name = format!(
                "sync-stall:{}→{label}",
                DOMAIN_LABELS.get(s.src).copied().unwrap_or("?")
            );
            let mut e = base_event(&name, "X", ts, d);
            e.insert("dur".to_string(), num(us(s.wait.as_femtos())));
            push(&mut events, ts, e);
        }
    }

    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite ts")
            .then(a.1.cmp(&b.1))
    });
    let mut doc = Map::new();
    doc.insert(
        "traceEvents".to_string(),
        Value::Array(events.into_iter().map(|(_, _, e)| e).collect()),
    );
    doc.insert(
        "displayTimeUnit".to_string(),
        Value::String("ms".to_string()),
    );
    Value::Object(doc)
}

/// Renders `trace` as a Chrome trace_event JSON string, ready to load in
/// `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    serde_json::to_string(&chrome_trace_value(trace)).expect("JSON writing is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DomainTrace, FreqStep, RelockSpan, SyncStall, TRACE_SCHEMA};
    use mcd_time::Femtos;

    fn sample_trace() -> RunTrace {
        let mut domains: Vec<DomainTrace> = (0..4).map(|_| DomainTrace::default()).collect();
        for (d, dom) in domains.iter_mut().enumerate() {
            dom.freq_steps.push(FreqStep {
                at: Femtos::ZERO,
                hz: 1_000_000_000,
                volts: 1.2,
            });
            dom.freq_steps.push(FreqStep {
                at: Femtos::from_micros(5 + d as u64),
                hz: 500_000_000,
                volts: 0.925,
            });
        }
        domains[2].relocks.push(RelockSpan {
            start: Femtos::from_micros(5),
            end: Femtos::from_micros(20),
        });
        domains[1].sync_stalls.push(SyncStall {
            at: Femtos::from_micros(3),
            wait: Femtos::from_femtos(700_000),
            src: 0,
        });
        RunTrace {
            schema: TRACE_SCHEMA.to_string(),
            total_time: Femtos::from_micros(50),
            sample_every: 1,
            ring_capacity: 16,
            domains,
        }
    }

    #[test]
    fn export_is_well_formed_and_monotonic() {
        let json = chrome_trace_json(&sample_trace());
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut prev = f64::NEG_INFINITY;
        for e in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
            }
            let ts = e.get("ts").and_then(Value::as_number).unwrap().as_f64();
            assert!(ts >= prev, "timestamps must be nondecreasing");
            prev = ts;
        }
    }

    #[test]
    fn every_domain_gets_a_frequency_track() {
        let doc = chrome_trace_value(&sample_trace());
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        for label in DOMAIN_LABELS {
            let name = format!("freq:{label} MHz");
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("C")
                        && e.get("name").and_then(Value::as_str) == Some(name.as_str())
                }),
                "missing frequency track for {label}"
            );
        }
    }

    #[test]
    fn slices_carry_durations() {
        let doc = chrome_trace_value(&sample_trace());
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let relock = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("pll-relock"))
            .expect("relock slice present");
        let dur = relock
            .get("dur")
            .and_then(Value::as_number)
            .unwrap()
            .as_f64();
        assert!((dur - 15.0).abs() < 1e-9, "15 µs re-lock, got {dur}");
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str)
                    == Some("sync-stall:front-end→integer"))
        );
    }
}
