//! Distributed campaign execution for the MCD sweep harness.
//!
//! `mcd-grid` is the TCP transport for [`mcd_harness::Campaign`]: it
//! serves a campaign to worker processes over `std::net` — no external
//! dependencies, consistent with the workspace's `shims/` policy. The
//! executor itself is [`mcd_harness::Scheduler`], the one `Campaign::run`
//! drives with in-process threads. Three pieces:
//!
//! - [`wire`]: the `mcd-grid-wire/2` frame protocol — length-prefixed,
//!   tagged, versioned, with a handshake carrying the campaign spec
//!   digest so workers can never join the wrong campaign.
//! - [`GridServer`] (the coordinator): binds a listener for a
//!   [`mcd_harness::Campaign`] and turns worker frames into scheduler
//!   calls. It owns the result cache and checkpoint manifest, so the
//!   canonical result JSON is **byte-identical** to a serial run,
//!   regardless of worker count, join order, or mid-run disconnects.
//! - [`GridWorker`]: a cache-less executor that runs each assigned cell
//!   through the same narrated, supervised compute step in-process
//!   workers use (watchdog deadline, one retry of a panicking attempt
//!   with deterministic classification) and forwards its telemetry over
//!   the wire for coordinator-side attribution.
//!
//! On top of the in-process fault model: heartbeat-timeout eviction
//! requeues a dead worker's in-flight cell at the front of the queue,
//! disconnected workers reconnect on a fixed exponential backoff,
//! worker-side deterministic panics propagate to the coordinator as failed
//! cells (never reassigned), and a sample of worker results is audited.

#![warn(missing_docs)]

use std::fmt;
use std::io;

use mcd_harness::HarnessError;

pub mod coordinator;
pub mod wire;
pub mod worker;

pub use coordinator::GridServer;
pub use wire::{Frame, WireError, WireOutcome, WorkerFingerprint, MAX_FRAME_BYTES, WIRE_PROTOCOL};
pub use worker::{AbortMode, GridWorker, WorkerSummary};

/// Anything that can go wrong running a distributed campaign.
#[derive(Debug)]
pub enum GridError {
    /// A socket-level failure (bind, connect, accept).
    Io(io::Error),
    /// The underlying harness failed (spec, checkpoint).
    Harness(HarnessError),
    /// The coordinator refused the handshake.
    Rejected(String),
    /// The peer violated the protocol (unexpected frame, bad state).
    Protocol(String),
    /// The server configuration is self-contradictory (e.g. a heartbeat
    /// timeout at or below the heartbeat interval).
    Config(String),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "grid i/o error: {e}"),
            GridError::Harness(e) => write!(f, "grid harness error: {e}"),
            GridError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            GridError::Protocol(what) => write!(f, "protocol violation: {what}"),
            GridError::Config(what) => write!(f, "invalid grid configuration: {what}"),
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::Io(e) => Some(e),
            GridError::Harness(e) => Some(e),
            GridError::Rejected(_) | GridError::Protocol(_) | GridError::Config(_) => None,
        }
    }
}

impl From<io::Error> for GridError {
    fn from(e: io::Error) -> GridError {
        GridError::Io(e)
    }
}

impl From<HarnessError> for GridError {
    fn from(e: HarnessError) -> GridError {
        GridError::Harness(e)
    }
}
