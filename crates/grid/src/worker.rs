//! The grid worker: connects, computes assigned cells, reports back.
//!
//! A [`GridWorker`] is a cache-less cell executor. It dials the
//! coordinator, handshakes (`Hello`/`Welcome`), then loops: receive an
//! [`Frame::Assign`], run the cell through the *same* narrated, supervised
//! compute step in-process campaign workers use
//! ([`mcd_harness::supervisor::compute_narrated`] — watchdog deadline,
//! panic retries, deterministic fail-fast), and send the outcome back as
//! a [`Frame::CellResult`]. While a cell computes, a heartbeat thread
//! keeps the session alive — at the cadence the coordinator advertised in
//! its `Welcome` — so slow cells are distinguishable from dead workers.
//!
//! Worker-side telemetry (cell started/stage/retry/finished events) is
//! forwarded over the wire as [`Frame::TelemetryEvent`] frames; the
//! coordinator stamps each with the worker id and merges it into the
//! campaign's unified JSONL stream.
//!
//! A lost connection is retried with exponential backoff; the campaign
//! spec digest learned in the first `Welcome` is sent on reconnect so a
//! worker can never silently rejoin a *different* campaign.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use mcd_core::RunOptions;
use mcd_harness::supervisor::{compute_narrated, BackoffPolicy, ComputeContext};
use mcd_harness::{CellOutcome, FaultPlan, RetryPolicy, Telemetry};
use serde::Value;

use crate::wire::{hello, read_frame, write_frame, Frame, WireOutcome};
use crate::GridError;

/// Chaos hook: how a worker dies mid-campaign in fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortMode {
    /// Drop the connection on receiving the trigger assignment —
    /// simulates a killed worker process. The coordinator sees EOF.
    Disconnect,
    /// Keep the socket open but go permanently silent — simulates a
    /// wedged host. The coordinator must evict on heartbeat timeout.
    Wedge,
}

/// What a worker session accomplished before exiting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells computed and reported across all sessions.
    pub cells: u64,
    /// Handshakes completed (reconnects make this > 1).
    pub sessions: u32,
    /// True when the coordinator sent Drain (campaign interrupted)
    /// rather than Shutdown (campaign complete).
    pub drained: bool,
}

/// A configured grid worker, ready to [`run`](GridWorker::run).
#[derive(Debug, Clone)]
pub struct GridWorker {
    addr: String,
    name: String,
    retry: RetryPolicy,
    deadline: Option<Duration>,
    reconnect: BackoffPolicy,
    chaos: Arc<FaultPlan>,
    abort_after: Option<(u64, AbortMode)>,
}

impl GridWorker {
    /// A worker that will dial `addr` with default policies: default
    /// panic retries, no watchdog deadline, and four connection attempts
    /// with exponential backoff. It heartbeats at whatever cadence the
    /// coordinator advertises in its `Welcome`.
    pub fn connect(addr: impl Into<String>) -> GridWorker {
        GridWorker {
            addr: addr.into(),
            name: "worker".to_string(),
            retry: RetryPolicy::default(),
            deadline: None,
            reconnect: BackoffPolicy::default(),
            chaos: Arc::new(FaultPlan::none()),
            abort_after: None,
        }
    }

    /// Sets the worker name reported in the handshake (host tag).
    pub fn name(mut self, name: impl Into<String>) -> GridWorker {
        self.name = name.into();
        self
    }

    /// Sets the panic retry policy for cell attempts.
    pub fn retry(mut self, retry: RetryPolicy) -> GridWorker {
        self.retry = retry;
        self
    }

    /// Sets a per-attempt watchdog deadline (stalls are reported to the
    /// coordinator, the worker slot survives).
    pub fn deadline(mut self, deadline: Duration) -> GridWorker {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the reconnect policy (attempts and backoff) for lost
    /// connections.
    pub fn reconnect(mut self, policy: BackoffPolicy) -> GridWorker {
        self.reconnect = policy;
        self
    }

    /// Installs a deterministic fault plan for cell attempts (chaos
    /// testing only): injected panics and stalls flow through the same
    /// supervised paths real ones take, all the way to the coordinator.
    pub fn chaos(mut self, plan: FaultPlan) -> GridWorker {
        self.chaos = Arc::new(plan);
        self
    }

    /// Chaos hook: die in `mode` on receiving the `nth` assignment
    /// (1-based), without computing it.
    pub fn abort_after(mut self, nth: u64, mode: AbortMode) -> GridWorker {
        self.abort_after = Some((nth, mode));
        self
    }

    /// Runs until the coordinator says goodbye (Shutdown/Drain), the
    /// handshake is rejected, or reconnect attempts are exhausted.
    pub fn run(&self) -> Result<WorkerSummary, GridError> {
        let mut summary = WorkerSummary {
            cells: 0,
            sessions: 0,
            drained: false,
        };
        let mut assignments = 0u64;
        // Learned from the first Welcome; pins reconnects to one campaign.
        let mut spec_digest = String::new();
        let mut failures = 0u32;
        loop {
            let stream = match TcpStream::connect(&self.addr) {
                Ok(s) => s,
                Err(e) => {
                    failures += 1;
                    if failures >= self.reconnect.max_attempts.max(1) {
                        return Err(GridError::Io(e));
                    }
                    thread::sleep(self.reconnect.delay(failures));
                    continue;
                }
            };
            let sessions_before = summary.sessions;
            match self.session(stream, &mut summary, &mut assignments, &mut spec_digest) {
                SessionEnd::Goodbye => return Ok(summary),
                SessionEnd::Rejected(reason) => return Err(GridError::Rejected(reason)),
                SessionEnd::Aborted => return Ok(summary),
                SessionEnd::Lost => {
                    if summary.sessions > sessions_before {
                        // The handshake succeeded this time; a later drop
                        // starts a fresh reconnect budget.
                        failures = 0;
                    }
                    failures += 1;
                    if failures >= self.reconnect.max_attempts.max(1) {
                        return Err(GridError::Protocol(
                            "connection lost and reconnect budget exhausted".to_string(),
                        ));
                    }
                    thread::sleep(self.reconnect.delay(failures));
                }
            }
        }
    }

    /// One connected session: handshake, then the assignment loop.
    fn session(
        &self,
        stream: TcpStream,
        summary: &mut WorkerSummary,
        assignments: &mut u64,
        spec_digest: &mut String,
    ) -> SessionEnd {
        let _ = stream.set_nodelay(true);
        let shared = Arc::new(Mutex::new(stream));
        let write = |frame: &Frame| -> Result<u64, std::io::Error> {
            let mut guard = shared.lock().expect("worker stream");
            write_frame(&mut *guard, frame)
        };

        if write(&hello(&self.name, spec_digest)).is_err() {
            return SessionEnd::Lost;
        }
        // Reads bypass the write mutex: only this thread reads.
        let mut reader = match shared.lock().expect("worker stream").try_clone() {
            Ok(r) => r,
            Err(_) => return SessionEnd::Lost,
        };
        let heartbeat_interval = match read_frame(&mut reader) {
            Ok((
                Frame::Welcome {
                    spec_digest: digest,
                    heartbeat_us,
                    ..
                },
                _,
            )) => {
                *spec_digest = digest;
                summary.sessions += 1;
                Duration::from_micros(heartbeat_us)
            }
            Ok((Frame::Reject { reason }, _)) => return SessionEnd::Rejected(reason),
            Ok(_) | Err(_) => return SessionEnd::Lost,
        };

        let telemetry = Telemetry::to_writer(Box::new(FrameForwarder {
            stream: Arc::clone(&shared),
            buf: Vec::new(),
        }));

        loop {
            let (frame, _) = match read_frame(&mut reader) {
                Ok(ok) => ok,
                Err(_) => return SessionEnd::Lost,
            };
            match frame {
                Frame::Assign { cell, spec } => {
                    *assignments += 1;
                    if let Some((nth, mode)) = self.abort_after {
                        if *assignments >= nth {
                            match mode {
                                AbortMode::Disconnect => return SessionEnd::Aborted,
                                AbortMode::Wedge => {
                                    // Hold the socket open, say nothing. In
                                    // tests this runs on a detached thread
                                    // that dies with the process.
                                    thread::sleep(Duration::from_secs(3600));
                                    return SessionEnd::Aborted;
                                }
                            }
                        }
                    }
                    let index = cell as usize;
                    // Heartbeat while computing. The stop signal is a
                    // channel send so a fast cell never waits out a
                    // sleeping heartbeat thread.
                    let (heartbeat_stop, stop_rx) = mpsc::channel::<()>();
                    let heartbeat = {
                        let shared = Arc::clone(&shared);
                        let interval = heartbeat_interval;
                        thread::spawn(move || loop {
                            match stop_rx.recv_timeout(interval) {
                                Err(mpsc::RecvTimeoutError::Timeout) => {
                                    let mut guard = shared.lock().expect("worker stream");
                                    if write_frame(&mut *guard, &Frame::Heartbeat).is_err() {
                                        return;
                                    }
                                }
                                Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                            }
                        })
                    };
                    let ctx = ComputeContext {
                        index,
                        cell: &spec,
                        telemetry: &telemetry,
                        chaos: &self.chaos,
                        retry: self.retry,
                        deadline: self.deadline,
                        options: &RunOptions::default(),
                    };
                    let mut outcome = compute_narrated(&ctx);
                    // Chaos hook: a lying worker computes honestly, then
                    // perturbs one numeric leaf of what it reports. The
                    // audit layer must catch this from the bytes alone.
                    if let Some(seed) = self.chaos.lie(index) {
                        if let CellOutcome::Computed { result, .. } = &mut outcome {
                            mcd_harness::chaos::lie_about(result, seed);
                        }
                    }
                    let _ = heartbeat_stop.send(());
                    let _ = heartbeat.join();
                    let wire_outcome = WireOutcome::from_outcome(&outcome)
                        .expect("compute_narrated never yields Cached/Skipped");
                    let result = Frame::CellResult {
                        cell,
                        outcome: wire_outcome,
                    };
                    if write(&result).is_err() {
                        return SessionEnd::Lost;
                    }
                    summary.cells += 1;
                }
                Frame::Drain => {
                    summary.drained = true;
                    return SessionEnd::Goodbye;
                }
                Frame::Shutdown => return SessionEnd::Goodbye,
                Frame::Reject { reason } => return SessionEnd::Rejected(reason),
                _ => return SessionEnd::Lost,
            }
        }
    }
}

/// How one session ended, from the worker's point of view.
enum SessionEnd {
    /// Coordinator sent Drain or Shutdown: done, exit cleanly.
    Goodbye,
    /// Handshake refused: fatal, do not retry.
    Rejected(String),
    /// Chaos abort triggered: exit without reconnecting.
    Aborted,
    /// Connection died: reconnect with backoff.
    Lost,
}

/// Adapts the worker's JSONL telemetry stream onto the wire: buffers
/// bytes until a full line, parses it, and sends it as a
/// [`Frame::TelemetryEvent`]. Forwarding is best-effort — a telemetry
/// frame that cannot be sent is dropped, never an error, because losing
/// narration must not fail a cell.
struct FrameForwarder {
    stream: Arc<Mutex<TcpStream>>,
    buf: Vec<u8>,
}

impl Write for FrameForwarder {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            if text.trim().is_empty() {
                continue;
            }
            if let Ok(event) = serde_json::from_str::<Value>(&text) {
                let frame = Frame::TelemetryEvent { event };
                let mut guard = self.stream.lock().expect("worker stream");
                let _ = write_frame(&mut *guard, &frame);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
