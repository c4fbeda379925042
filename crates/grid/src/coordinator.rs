//! The grid coordinator: the TCP transport of the campaign scheduler.
//!
//! A [`GridServer`] serves a [`mcd_harness::Campaign`] to TCP-connected
//! worker processes instead of in-process threads. Everything but the
//! transport is [`mcd_harness::Scheduler`], the same executor
//! [`Campaign::run`] drives: the cache probe, the queue, the store, the
//! checkpoint cadence, audits and quarantine, and the report. This module
//! accepts connections, handshakes, and turns frames into scheduler calls.
//! The coordinator is the *only* process that touches the result cache and
//! checkpoint, so the report is byte-identical to a serial run regardless
//! of worker count, join order, or mid-run disconnects.
//!
//! ## Fault model
//!
//! Each connected worker holds at most one outstanding cell. A worker that
//! disconnects or misses its heartbeat window is evicted and its in-flight
//! cell goes back on the *front* of the queue, so reassignment cannot
//! starve. A worker-reported deterministic panic is recorded as a failed
//! cell — never reassigned, because a deterministic simulator would die
//! identically anywhere. Raising the campaign's interrupt flag (SIGINT, or
//! an injected [`mcd_harness::Fault::InterruptAfter`]) drains: in-flight
//! cells finish, queued cells are skipped, and the checkpoint manifest
//! makes the campaign resumable with [`Campaign::from_checkpoint`].
//!
//! Workers are remote processes the coordinator did not build and cannot
//! inspect, so a ~1-in-[`audit rate`](GridServer::audit_rate) sample of
//! their results gets a second opinion from another worker; see the
//! scheduler's trust model ([`mcd_harness::scheduler`]).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use mcd_harness::{
    Campaign, CampaignReport, CellPhases, NextStep, ResultCache, Role, Scheduler, Telemetry,
};

use crate::wire::{read_frame, write_frame, Frame, WireError, WIRE_PROTOCOL};
use crate::GridError;

/// How often the accept loop wakes to poll for interrupts and completion.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A campaign bound to a listening socket, ready to [`run`](GridServer::run).
#[derive(Debug)]
pub struct GridServer {
    campaign: Campaign,
    listener: TcpListener,
    audit_rate: u64,
    heartbeat_interval: Duration,
    heartbeat_timeout: Duration,
}

impl GridServer {
    /// Binds the coordinator's listening socket for `campaign`, with
    /// ~1-in-16 audit sampling and a 1 s advertised heartbeat inside a
    /// 10 s eviction window. Workers may start connecting immediately;
    /// they are handshaken once [`GridServer::run`] starts.
    pub fn bind(campaign: Campaign, addr: impl ToSocketAddrs) -> io::Result<GridServer> {
        Ok(GridServer {
            campaign,
            listener: TcpListener::bind(addr)?,
            audit_rate: 16,
            heartbeat_interval: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(10),
        })
    }

    /// Sets the audit sampling rate: roughly one in `rate` worker-computed
    /// cells is redundantly assigned to a second worker and
    /// byte-compared. `0` disables auditing; `1` audits every cell. The
    /// sample is a deterministic function of the spec digest, so the same
    /// campaign audits the same cells on every run.
    pub fn audit_rate(mut self, rate: u64) -> GridServer {
        self.audit_rate = rate;
        self
    }

    /// Sets the heartbeat interval advertised to workers in the `Welcome`
    /// frame and the eviction timeout together, validating that the
    /// timeout exceeds the interval (a timeout at or below the interval
    /// would evict every healthy worker). Workers heartbeat while
    /// computing, so the timeout only needs to exceed the interval, not
    /// the cell runtime.
    pub fn heartbeats(
        mut self,
        interval: Duration,
        timeout: Duration,
    ) -> Result<GridServer, GridError> {
        if timeout <= interval {
            return Err(GridError::Config(format!(
                "heartbeat timeout ({:.3}s) must exceed the heartbeat interval ({:.3}s)",
                timeout.as_secs_f64(),
                interval.as_secs_f64()
            )));
        }
        self.heartbeat_interval = interval;
        self.heartbeat_timeout = timeout;
        Ok(self)
    }

    /// The address the coordinator is listening on (useful when bound to
    /// port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the campaign to completion (or drain): start the scheduler
    /// (which probes the cache), serve cells to workers as they connect,
    /// and report per-cell outcomes in spec-expansion order —
    /// byte-identical to a serial run.
    pub fn run(
        &self,
        cache: &ResultCache,
        telemetry: &Telemetry,
    ) -> Result<CampaignReport, GridError> {
        let scheduler = Scheduler::start(&self.campaign, cache, telemetry, 0, self.audit_rate)?;
        self.listener.set_nonblocking(true)?;
        thread::scope(|s| {
            while scheduler.tick() {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        let scheduler = &scheduler;
                        s.spawn(move || self.serve(scheduler, stream, peer));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        scheduler.wait(POLL_INTERVAL)
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // Accept failures (fd pressure) are transient; the
                    // campaign can finish with the workers it has.
                    Err(_) => thread::sleep(POLL_INTERVAL),
                }
            }
            // Wake idle handlers so they observe completion and send
            // Shutdown/Drain before the scope joins them.
            scheduler.wake_all();
        });
        Ok(scheduler.finish(true))
    }

    /// One worker connection, handshake to goodbye. Any wire error evicts
    /// the worker and requeues its in-flight cell; the campaign outlives
    /// every individual connection.
    fn serve(&self, scheduler: &Scheduler<'_>, mut stream: TcpStream, peer: SocketAddr) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.heartbeat_timeout));
        let Some(worker) = self.handshake(scheduler, &mut stream, peer) else {
            return;
        };
        let goodbye = loop {
            match scheduler.next_step(worker) {
                NextStep::Assign(i, role) => {
                    if !run_assignment(scheduler, &mut stream, worker, i, role) {
                        return;
                    }
                }
                NextStep::Drain => break Frame::Drain,
                NextStep::Shutdown => break Frame::Shutdown,
                NextStep::Quarantined => {
                    break Frame::Reject {
                        reason: "quarantined: results diverged from audit".to_string(),
                    }
                }
            }
        };
        let _ = write_frame(&mut stream, &goodbye);
    }

    /// Validates the Hello and sends Welcome (or Reject). Returns the
    /// assigned worker id, or `None` if the session was refused.
    fn handshake(
        &self,
        scheduler: &Scheduler<'_>,
        stream: &mut TcpStream,
        peer: SocketAddr,
    ) -> Option<u64> {
        // An undecodable Hello (a peer of another protocol revision, say)
        // ends the session before anything is assigned.
        let (frame, n_in) = read_frame(stream).ok()?;
        let Frame::Hello {
            protocol,
            worker: name,
            spec_digest,
            fingerprint,
        } = frame
        else {
            return refuse(stream, format!("expected Hello, got {}", frame.name()));
        };
        if protocol != WIRE_PROTOCOL {
            let reason = format!("protocol {protocol:?}, coordinator speaks {WIRE_PROTOCOL}");
            return refuse(stream, reason);
        }
        if !spec_digest.is_empty() && spec_digest != scheduler.digest() {
            let reason = format!("spec digest {spec_digest} does not match this campaign");
            return refuse(stream, reason);
        }

        let (peer, summary) = (peer.to_string(), fingerprint.summary());
        let worker = scheduler.join(&name, &peer, &summary);
        scheduler.add_bytes(worker, n_in, 0);
        scheduler
            .telemetry()
            .grid_worker_joined(worker, &name, &peer, &summary);
        let welcome = Frame::Welcome {
            worker_id: worker,
            spec_digest: scheduler.digest().to_string(),
            cells: scheduler.cell_count() as u64,
            heartbeat_us: self.heartbeat_interval.as_micros() as u64,
        };
        match write_frame(stream, &welcome) {
            Ok(n_out) => {
                scheduler.add_bytes(worker, 0, n_out);
                Some(worker)
            }
            Err(_) => {
                scheduler.evict(worker, None, "handshake write failed");
                None
            }
        }
    }
}

/// Refuses a handshake: sends the reason, ends the session.
fn refuse(stream: &mut TcpStream, reason: String) -> Option<u64> {
    let _ = write_frame(stream, &Frame::Reject { reason });
    None
}

/// Sends one assignment and pumps frames until its result lands (or the
/// worker dies). Returns `false` when the connection is over. Audit
/// assignments use the same `Assign` frame as primaries, so the worker
/// cannot tell it is being checked.
fn run_assignment(
    scheduler: &Scheduler<'_>,
    stream: &mut TcpStream,
    worker: u64,
    i: usize,
    role: Role,
) -> bool {
    let assigned_at = Instant::now();
    let evict = |reason: &str| {
        scheduler.evict(worker, Some((i, role)), reason);
        false
    };
    let assign = Frame::Assign {
        cell: i as u64,
        spec: scheduler.cell(i).clone(),
    };
    match write_frame(stream, &assign) {
        Ok(n_out) => scheduler.add_bytes(worker, 0, n_out),
        Err(_) => return evict("assignment write failed"),
    }
    let telemetry = scheduler.telemetry();
    telemetry.grid_cell_assigned(i, worker);

    loop {
        let frame = match read_frame(stream) {
            Ok((frame, n_in)) => {
                scheduler.add_bytes(worker, n_in, 0);
                frame
            }
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return evict("heartbeat timeout");
            }
            Err(_) => return evict("connection lost"),
        };
        match frame {
            Frame::Heartbeat => {}
            Frame::TelemetryEvent { event } => telemetry.forward(worker, &event),
            Frame::CellResult { cell, outcome } if cell as usize == i => {
                let outcome = outcome.into_outcome();
                let phases = CellPhases::default();
                let rtt = scheduler.record(worker, i, role, outcome, phases, assigned_at);
                if role == Role::Primary {
                    telemetry.grid_cell_result(i, worker, rtt);
                }
                return true;
            }
            Frame::CellResult { cell, .. } => {
                return evict(&format!("result for cell {cell}, expected {i}"));
            }
            other => return evict(&format!("unexpected {} mid-assignment", other.name())),
        }
    }
}
