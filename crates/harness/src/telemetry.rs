//! Structured campaign telemetry as JSON Lines.
//!
//! Every event is one JSON object per line with an `"event"` tag and a
//! monotonic `"t_us"` timestamp (microseconds since the sink was created).
//! Telemetry goes to its own stream (a file, stderr, or nowhere) and never
//! mixes with result bytes, so machine consumers of campaign output parse
//! results without filtering progress noise — and the result bytes stay
//! identical whether telemetry is on or off. Writes are best-effort: a
//! full disk or failing sink drops events, never the campaign.
//!
//! Crash recovery: a process killed mid-write can leave a *torn tail* — a
//! partial final line with no terminating newline or with truncated JSON.
//! [`replay`] parses a log while detecting and isolating such a tail
//! (returning every complete event plus the number of bytes dropped), and
//! [`Telemetry::append_file`] truncates the tail before appending, so a
//! resumed campaign continues a valid JSONL stream instead of corrupting
//! it further or failing to parse the whole log.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Map, Number, Serialize, Value};

use crate::error::{CorruptKind, HarnessError};
use crate::spec::CellSpec;

/// Where a finished cell's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Served from the result cache.
    Cached,
    /// Computed by a worker (with the attempt count that succeeded).
    Computed {
        /// 1 = first try.
        attempts: u32,
    },
}

impl CellSource {
    fn tag(&self) -> &'static str {
        match self {
            CellSource::Cached => "cached",
            CellSource::Computed { .. } => "computed",
        }
    }
}

/// A thread-safe JSONL event sink.
///
/// Cloneable handles are not needed: the campaign shares one `Telemetry`
/// by reference across workers; the line writer is mutex-guarded so events
/// from concurrent cells interleave at line granularity, never mid-line.
pub struct Telemetry {
    sink: Option<Mutex<Sink>>,
    start: Instant,
}

/// The two sink shapes: an arbitrary writer (tests, stderr) and a buffered
/// file kept as a concrete type so [`Telemetry::sync`] can reach the file
/// descriptor for an fsync on abnormal-exit paths.
enum Sink {
    Writer(Box<dyn Write + Send>),
    File(BufWriter<File>),
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sink::Writer(w) => w.write(buf),
            Sink::File(f) => f.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Writer(w) => w.flush(),
            Sink::File(f) => f.flush(),
        }
    }
}

/// Microseconds as a JSON number, with fractional (nanosecond) precision:
/// cached cells finish in well under a microsecond, and truncating to whole
/// micros reported their `cell_finished` spans as `elapsed=0`.
fn micros(d: Duration) -> Value {
    Value::Number(Number::F64(d.as_nanos() as f64 / 1_000.0))
}

/// Replays a JSONL telemetry log: every complete, parseable event in
/// order, plus the byte length of a torn final line if the log ends
/// mid-write. A torn tail is isolated, not fatal — only a torn line in the
/// *middle* of the log (which a line-buffered writer cannot produce)
/// reports an error.
pub fn replay(path: &Path) -> Result<(Vec<Value>, Option<usize>), HarnessError> {
    let text = std::fs::read(path).map_err(|source| HarnessError::TelemetryIo {
        path: Some(path.to_path_buf()),
        source,
    })?;
    let text = String::from_utf8_lossy(&text);
    let mut events = Vec::new();
    let mut tail = None;
    for (number, line) in text.split_inclusive('\n').enumerate() {
        let complete = line.ends_with('\n');
        let body = line.trim_end_matches(['\n', '\r']);
        if body.is_empty() {
            continue;
        }
        match serde_json::from_str::<Value>(body) {
            Ok(event) if complete => events.push(event),
            // A parseable body with no newline: the crash hit between the
            // JSON bytes and the newline. Still a torn tail — the writer
            // never considered the line committed.
            Ok(_) => tail = Some(line.len()),
            Err(_) if !complete => tail = Some(line.len()),
            Err(_) => {
                // Garbage in the middle of the log is real corruption, not
                // a crash artifact.
                return Err(HarnessError::TelemetryCorrupt {
                    path: path.to_path_buf(),
                    line: number + 1,
                });
            }
        }
    }
    Ok((events, tail))
}

/// Truncates a torn final line off a telemetry log in place, returning the
/// number of bytes removed (0 when the log was already clean). Missing
/// files are fine (0).
pub fn repair_torn_tail(path: &Path) -> Result<usize, HarnessError> {
    let io_err = |source: io::Error| HarnessError::TelemetryIo {
        path: Some(path.to_path_buf()),
        source,
    };
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(io_err(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io_err)?;
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last_newline) => last_newline + 1,
        None => 0,
    };
    let torn = bytes.len() - keep;
    if torn > 0 {
        file.set_len(keep as u64).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
    }
    Ok(torn)
}

impl Telemetry {
    /// Discards all events.
    pub fn disabled() -> Telemetry {
        Telemetry {
            sink: None,
            start: Instant::now(),
        }
    }

    /// Appends events to standard error.
    pub fn stderr() -> Telemetry {
        Telemetry::to_writer(Box::new(io::stderr()))
    }

    /// Writes events to an arbitrary sink (used by tests to inject failing
    /// writers; write errors are absorbed, never propagated).
    pub fn to_writer(sink: Box<dyn Write + Send>) -> Telemetry {
        Telemetry {
            sink: Some(Mutex::new(Sink::Writer(sink))),
            start: Instant::now(),
        }
    }

    /// Writes events to a file (truncating any previous contents).
    pub fn to_file(path: &Path) -> io::Result<Telemetry> {
        Ok(Telemetry {
            sink: Some(Mutex::new(Sink::File(BufWriter::new(File::create(path)?)))),
            start: Instant::now(),
        })
    }

    /// Appends events to a file, first truncating any torn final line a
    /// crashed writer left, so a resumed campaign extends a valid JSONL
    /// stream.
    pub fn append_file(path: &Path) -> io::Result<Telemetry> {
        let _ = repair_torn_tail(path);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Telemetry {
            sink: Some(Mutex::new(Sink::File(BufWriter::new(file)))),
            start: Instant::now(),
        })
    }

    /// Flushes the sink and, for file sinks, fsyncs the file descriptor.
    /// Called on abnormal-exit paths — watchdog abandonment, grid worker
    /// disconnect — so the events narrating the failure reach the disk even
    /// if the process dies right after. Best-effort like every write.
    pub fn sync(&self) {
        let Some(sink) = &self.sink else { return };
        let mut sink = sink.lock().expect("telemetry sink poisoned");
        let _ = sink.flush();
        if let Sink::File(f) = &*sink {
            let _ = f.get_ref().sync_all();
        }
    }

    /// Writes one finished event object (tag and timestamp already set).
    fn write_line(&self, obj: Map) {
        let Some(sink) = &self.sink else { return };
        let line = serde_json::to_string(&Value::Object(obj)).expect("JSON writing is infallible");
        let mut sink = sink.lock().expect("telemetry sink poisoned");
        // Telemetry is best-effort: a full disk must not fail the campaign.
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }

    fn emit(&self, event: &'static str, fields: Map) {
        if self.sink.is_none() {
            return;
        }
        let mut obj = fields;
        obj.insert("event".to_string(), Value::String(event.to_string()));
        obj.insert("t_us".to_string(), micros(self.start.elapsed()));
        self.write_line(obj);
    }

    /// Re-emits an event that a grid worker produced remotely, attributing
    /// it to `worker` and restamping it on this sink's clock (the worker's
    /// own timestamp is preserved as `worker_t_us` — the two clocks are not
    /// comparable). Non-object payloads are dropped: a worker that forwards
    /// garbage must not corrupt the coordinator's stream.
    pub fn forward(&self, worker: u64, event: &Value) {
        if self.sink.is_none() {
            return;
        }
        let Some(obj) = event.as_object() else { return };
        let mut obj = obj.clone();
        if let Some(t) = obj.remove("t_us") {
            obj.insert("worker_t_us".to_string(), t);
        }
        obj.insert("worker".to_string(), worker.to_value());
        obj.insert("t_us".to_string(), micros(self.start.elapsed()));
        self.write_line(obj);
    }

    /// Campaign kicked off: total cell count and how many were already
    /// cached at probe time.
    pub fn campaign_started(&self, total: usize, workers: usize) {
        let mut f = Map::new();
        f.insert("cells".to_string(), total.to_value());
        f.insert("workers".to_string(), workers.to_value());
        self.emit("campaign_started", f);
    }

    /// A worker picked up a cell.
    pub fn cell_started(&self, index: usize, cell: &CellSpec) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("label".to_string(), Value::String(cell.label()));
        self.emit("cell_started", f);
    }

    /// One configuration stage of a computed cell finished (stage spans).
    pub fn cell_stage(&self, index: usize, stage: &str, elapsed: Duration) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("stage".to_string(), Value::String(stage.to_string()));
        f.insert("us".to_string(), micros(elapsed));
        self.emit("cell_stage", f);
    }

    /// End-of-campaign slack-profile store counters (distinct from result
    /// cache hits: a slack hit skips the shaker pass inside a cell that is
    /// otherwise recomputed).
    pub fn slack_cache(&self, loads: u64, hits: u64, stores: u64) {
        let mut f = Map::new();
        f.insert("loads".to_string(), loads.to_value());
        f.insert("hits".to_string(), hits.to_value());
        f.insert("stores".to_string(), stores.to_value());
        self.emit("slack_cache", f);
    }

    /// A cell attempt panicked and will be retried.
    pub fn cell_retry(&self, index: usize, attempt: u32, message: &str) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("attempt".to_string(), attempt.to_value());
        f.insert("message".to_string(), Value::String(message.to_string()));
        self.emit("cell_retry", f);
    }

    /// A cell finished (from cache or computed).
    pub fn cell_finished(&self, index: usize, source: CellSource, elapsed: Duration) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert(
            "source".to_string(),
            Value::String(source.tag().to_string()),
        );
        if let CellSource::Computed { attempts } = source {
            f.insert("attempts".to_string(), attempts.to_value());
        }
        f.insert("us".to_string(), micros(elapsed));
        self.emit("cell_finished", f);
    }

    /// A cell exhausted its retry budget (or failed fast on a
    /// deterministic panic).
    pub fn cell_failed(&self, index: usize, attempts: u32, message: &str, deterministic: bool) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("attempts".to_string(), attempts.to_value());
        f.insert("message".to_string(), Value::String(message.to_string()));
        f.insert("deterministic".to_string(), Value::Bool(deterministic));
        self.emit("cell_failed", f);
    }

    /// A corrupt cache entry was quarantined and will be recomputed.
    pub fn cache_quarantined(&self, index: usize, key: &str, kind: CorruptKind) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("key".to_string(), Value::String(key.to_string()));
        f.insert("kind".to_string(), Value::String(kind.tag().to_string()));
        self.emit("cache_quarantined", f);
    }

    /// A transient IO failure is being retried with backoff.
    pub fn io_retry(&self, index: usize, op: &str, attempt: u32, error: &str) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("op".to_string(), Value::String(op.to_string()));
        f.insert("attempt".to_string(), attempt.to_value());
        f.insert("error".to_string(), Value::String(error.to_string()));
        self.emit("io_retry", f);
    }

    /// A cell blew its watchdog deadline and was abandoned.
    pub fn cell_stalled(&self, index: usize, waited: Duration) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("waited_us".to_string(), micros(waited));
        self.emit("cell_stalled", f);
    }

    /// The campaign was interrupted; cells not yet claimed were skipped.
    pub fn campaign_interrupted(&self, done: usize, skipped: usize) {
        let mut f = Map::new();
        f.insert("done".to_string(), done.to_value());
        f.insert("skipped".to_string(), skipped.to_value());
        self.emit("campaign_interrupted", f);
    }

    /// Campaign summary: counts by outcome plus wall time.
    pub fn campaign_finished(&self, computed: usize, cached: usize, failed: usize, wall: Duration) {
        let mut f = Map::new();
        f.insert("computed".to_string(), computed.to_value());
        f.insert("cached".to_string(), cached.to_value());
        f.insert("failed".to_string(), failed.to_value());
        f.insert("wall_us".to_string(), micros(wall));
        self.emit("campaign_finished", f);
    }

    /// A grid worker completed the wire handshake and joined the campaign.
    /// `fingerprint` is the environment summary every admitted worker's
    /// handshake carries.
    pub fn grid_worker_joined(&self, worker: u64, name: &str, peer: &str, fingerprint: &str) {
        let mut f = Map::new();
        f.insert("worker".to_string(), worker.to_value());
        f.insert("name".to_string(), Value::String(name.to_string()));
        f.insert("peer".to_string(), Value::String(peer.to_string()));
        f.insert(
            "fingerprint".to_string(),
            Value::String(fingerprint.to_string()),
        );
        self.emit("grid_worker_joined", f);
    }

    /// A cell was assigned to a grid worker over the wire.
    pub fn grid_cell_assigned(&self, index: usize, worker: u64) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("worker".to_string(), worker.to_value());
        self.emit("grid_cell_assigned", f);
    }

    /// A grid worker returned a cell result; `rtt` is assignment-to-result
    /// wall time as the coordinator measured it.
    pub fn grid_cell_result(&self, index: usize, worker: u64, rtt: Duration) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("worker".to_string(), worker.to_value());
        f.insert("rtt_us".to_string(), micros(rtt));
        self.emit("grid_cell_result", f);
    }

    /// A grid worker was evicted (disconnect or heartbeat timeout); its
    /// in-flight cell, if any, goes back on the queue for reassignment.
    pub fn grid_worker_evicted(&self, worker: u64, reassigned: Option<usize>, reason: &str) {
        let mut f = Map::new();
        f.insert("worker".to_string(), worker.to_value());
        f.insert(
            "reassigned_cell".to_string(),
            match reassigned {
                Some(i) => i.to_value(),
                None => Value::Null,
            },
        );
        f.insert("reason".to_string(), Value::String(reason.to_string()));
        self.emit("grid_worker_evicted", f);
    }

    /// An audit settled: a second opinion (worker `auditor`, or the
    /// coordinator itself acting as arbiter) compared canonical result
    /// bytes for `primary`'s cell.
    pub fn grid_cell_audited(&self, index: usize, primary: u64, auditor: u64, matched: bool) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("primary".to_string(), primary.to_value());
        f.insert("auditor".to_string(), auditor.to_value());
        f.insert("matched".to_string(), Value::Bool(matched));
        self.emit("grid_cell_audited", f);
    }

    /// Two workers returned different canonical bytes for the same cell;
    /// the coordinator is recomputing locally to arbitrate.
    pub fn grid_audit_divergence(&self, index: usize, primary: u64, auditor: u64) {
        let mut f = Map::new();
        f.insert("cell".to_string(), index.to_value());
        f.insert("primary".to_string(), primary.to_value());
        f.insert("auditor".to_string(), auditor.to_value());
        self.emit("grid_audit_divergence", f);
    }

    /// A worker was quarantined for lying: evicted, its unverified results
    /// discarded from the cache, and `cells_requeued` cells put back on the
    /// queue for honest recomputation.
    pub fn worker_quarantined(&self, worker: u64, cells_requeued: usize, reason: &str) {
        let mut f = Map::new();
        f.insert("worker".to_string(), worker.to_value());
        f.insert("cells_requeued".to_string(), cells_requeued.to_value());
        f.insert("reason".to_string(), Value::String(reason.to_string()));
        self.emit("worker_quarantined", f);
    }

    /// Campaign-startup cache spot check: `checked` entries re-verified,
    /// `quarantined` of them found corrupt and moved aside.
    pub fn cache_spot_check(&self, checked: usize, corrupt: usize) {
        let mut f = Map::new();
        f.insert("checked".to_string(), checked.to_value());
        f.insert("corrupt".to_string(), corrupt.to_value());
        self.emit("cache_spot_check", f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_time::DvfsModel;
    use std::fs;
    use std::path::PathBuf;

    fn sample_cell() -> CellSpec {
        CellSpec {
            benchmark: "art".to_string(),
            seed: 1,
            instructions: 500,
            model: DvfsModel::Transmeta,
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcd-telemetry-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let path = scratch("basic");
        let telemetry = Telemetry::to_file(&path).expect("create telemetry file");
        telemetry.campaign_started(4, 2);
        telemetry.cell_started(0, &sample_cell());
        telemetry.cell_stage(0, "dynamic-5%", Duration::from_micros(1200));
        telemetry.cell_retry(0, 1, "synthetic panic");
        telemetry.cell_finished(
            0,
            CellSource::Computed { attempts: 2 },
            Duration::from_millis(3),
        );
        telemetry.cell_finished(1, CellSource::Cached, Duration::from_micros(80));
        telemetry.cell_failed(2, 2, "still broken", true);
        telemetry.cache_quarantined(3, "ab12", CorruptKind::DigestMismatch);
        telemetry.io_retry(3, "store", 1, "injected");
        telemetry.cell_stalled(3, Duration::from_millis(100));
        telemetry.campaign_interrupted(3, 1);
        telemetry.campaign_finished(1, 1, 1, Duration::from_millis(5));
        drop(telemetry);

        let text = fs::read_to_string(&path).expect("read telemetry back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 12);
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("each line is valid JSON");
            assert!(v.get("event").is_some(), "line missing event tag: {line}");
            assert!(v.get("t_us").is_some(), "line missing timestamp: {line}");
        }
        assert!(lines[0].contains("campaign_started"));
        let finished: Value = serde_json::from_str(lines[4]).unwrap();
        assert_eq!(
            finished.get("source").and_then(Value::as_str),
            Some("computed")
        );
        let quarantined: Value = serde_json::from_str(lines[7]).unwrap();
        assert_eq!(
            quarantined.get("kind").and_then(Value::as_str),
            Some("digest-mismatch")
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sub_microsecond_spans_are_not_truncated_to_zero() {
        let path = scratch("submicro");
        let telemetry = Telemetry::to_file(&path).expect("create telemetry file");
        telemetry.cell_finished(0, CellSource::Cached, Duration::from_nanos(250));
        drop(telemetry);

        let text = fs::read_to_string(&path).expect("read telemetry back");
        let v: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let us = v
            .get("us")
            .and_then(Value::as_number)
            .expect("us field present")
            .as_f64();
        assert!(
            (us - 0.25).abs() < 1e-12,
            "250 ns must report as 0.25 µs, got {us}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn disabled_sink_swallows_everything() {
        let telemetry = Telemetry::disabled();
        telemetry.campaign_started(1, 1);
        telemetry.campaign_finished(1, 0, 0, Duration::ZERO);
    }

    #[test]
    fn failing_sink_never_fails_the_campaign() {
        let telemetry = Telemetry::to_writer(Box::new(crate::chaos::FailingWriter::after(1)));
        telemetry.campaign_started(2, 1);
        telemetry.cell_started(0, &sample_cell());
        telemetry.campaign_finished(2, 0, 0, Duration::ZERO);
    }

    #[test]
    fn replay_isolates_a_byte_truncated_tail() {
        let path = scratch("torn");
        let telemetry = Telemetry::to_file(&path).expect("create telemetry file");
        telemetry.campaign_started(2, 1);
        telemetry.cell_started(0, &sample_cell());
        telemetry.cell_finished(0, CellSource::Cached, Duration::from_micros(10));
        drop(telemetry);

        // Byte-truncate the fixture mid-final-line, as a crash would.
        let full = fs::read(&path).unwrap();
        let torn = &full[..full.len() - 17];
        assert!(!torn.ends_with(b"\n"));
        fs::write(&path, torn).unwrap();

        let (events, tail) = replay(&path).expect("torn tail is not fatal");
        assert_eq!(events.len(), 2, "complete lines all parse");
        let dropped = tail.expect("tail detected");
        assert!(dropped > 0);

        // Repair truncates exactly the torn bytes, leaving valid JSONL.
        assert_eq!(repair_torn_tail(&path).unwrap(), dropped);
        let (events, tail) = replay(&path).expect("repaired log parses");
        assert_eq!(events.len(), 2);
        assert!(tail.is_none());
        assert_eq!(repair_torn_tail(&path).unwrap(), 0, "repair is idempotent");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn append_after_crash_continues_a_valid_stream() {
        let path = scratch("append");
        let telemetry = Telemetry::to_file(&path).expect("create telemetry file");
        telemetry.campaign_started(2, 1);
        telemetry.cell_finished(0, CellSource::Cached, Duration::from_micros(10));
        drop(telemetry);

        // Crash leaves a torn tail...
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 9]).unwrap();

        // ...append_file repairs it, then extends the stream.
        let resumed = Telemetry::append_file(&path).expect("append");
        resumed.cell_finished(1, CellSource::Cached, Duration::from_micros(11));
        resumed.campaign_finished(0, 2, 0, Duration::from_millis(1));
        drop(resumed);

        let (events, tail) = replay(&path).expect("stream is valid");
        assert!(tail.is_none());
        assert_eq!(events.len(), 3, "one pre-crash survivor + two appended");
        assert_eq!(
            events[2].get("event").and_then(Value::as_str),
            Some("campaign_finished")
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn forwarded_events_are_attributed_and_restamped() {
        let path = scratch("forward");
        let telemetry = Telemetry::to_file(&path).expect("create telemetry file");
        // A remote worker's event, with its own clock.
        let mut remote = Map::new();
        remote.insert("event".to_string(), Value::String("cell_started".into()));
        remote.insert("cell".to_string(), 3usize.to_value());
        remote.insert("t_us".to_string(), Value::Number(Number::F64(42.0)));
        telemetry.forward(7, &Value::Object(remote));
        telemetry.forward(7, &Value::String("not an object".into()));
        telemetry.sync();

        let text = fs::read_to_string(&path).expect("read telemetry back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "non-object payloads are dropped");
        let v: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("cell_started"));
        assert_eq!(
            v.get("worker")
                .and_then(Value::as_number)
                .map(Number::as_f64),
            Some(7.0)
        );
        assert_eq!(
            v.get("worker_t_us")
                .and_then(Value::as_number)
                .map(Number::as_f64),
            Some(42.0),
            "remote timestamp preserved under its own key"
        );
        assert!(v.get("t_us").is_some(), "restamped on the local clock");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sync_is_safe_on_every_sink_shape() {
        Telemetry::disabled().sync();
        let writer = Telemetry::to_writer(Box::new(crate::chaos::FailingWriter::after(0)));
        writer.campaign_started(1, 1);
        writer.sync();
        let path = scratch("sync");
        let file = Telemetry::to_file(&path).expect("create telemetry file");
        file.campaign_started(1, 1);
        file.sync();
        let text = fs::read_to_string(&path).expect("synced file is readable");
        assert!(text.contains("campaign_started"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_of_a_missing_file_is_an_io_error() {
        let path = scratch("missing");
        let _ = fs::remove_file(&path);
        assert!(matches!(
            replay(&path),
            Err(HarnessError::TelemetryIo { .. })
        ));
        assert_eq!(repair_torn_tail(&path).unwrap(), 0, "nothing to repair");
    }
}
