//! The `mcd-grid-wire/2` frame protocol.
//!
//! Every message between coordinator and worker is one *frame*: a 4-byte
//! big-endian length (covering everything after itself), a 1-byte frame
//! tag, and a compact-JSON payload of the externally-tagged [`Frame`]
//! value. The redundant tag byte lets a receiver reject a torn or
//! corrupted frame before paying for JSON parsing, and lets the decoder
//! verify that the payload actually is the frame the tag promised
//! ([`WireError::TagMismatch`]).
//!
//! The protocol is versioned by the [`WIRE_PROTOCOL`] string carried in
//! the [`Frame::Hello`] handshake; a coordinator rejects mismatched
//! workers with [`Frame::Reject`] before assigning anything. Frames are
//! capped at [`MAX_FRAME_BYTES`] so a corrupt length prefix cannot make
//! a peer allocate unbounded memory.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use mcd_core::BenchmarkResults;
use mcd_harness::retry::CellFailure;
use mcd_harness::{CellOutcome, CellSpec};
use serde::{Deserialize, Serialize, Value};

/// Protocol identifier exchanged in the [`Frame::Hello`] handshake.
///
/// `/2` is the `/1` protocol with a worker [`WorkerFingerprint`] in every
/// [`Frame::Hello`] and the coordinator's heartbeat cadence in every
/// [`Frame::Welcome`]. Coordinator and workers ship in one binary, so
/// there is no fallback: a `Hello` missing either `/2` key does not
/// decode, and the coordinator ends that session before assigning
/// anything.
pub const WIRE_PROTOCOL: &str = "mcd-grid-wire/2";

/// Hard cap on the length prefix. The largest legitimate frame is a
/// [`Frame::CellResult`] carrying a full [`BenchmarkResults`] (a few
/// kilobytes); 16 MiB leaves three orders of magnitude of headroom while
/// still bounding what a torn length prefix can ask a peer to allocate.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// What a worker reports back for one assigned cell.
///
/// The wire shape mirrors [`CellOutcome`] minus `Cached` (only the
/// coordinator owns a cache, so workers never observe hits) and
/// `Skipped` (assignment is explicit; an unassigned cell has no frame).
// One value per cell result; the Computed/Failed size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireOutcome {
    /// The cell computed successfully.
    Computed {
        /// The benchmark results, byte-identical to a serial run.
        result: BenchmarkResults,
        /// Attempt number that succeeded (1 = first try).
        attempts: u32,
    },
    /// Every attempt panicked.
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// Last panic payload.
        message: String,
        /// True when consecutive attempts died identically — the
        /// coordinator must fail fast instead of reassigning.
        deterministic: bool,
    },
    /// The watchdog abandoned the cell past its deadline.
    Stalled {
        /// How long the worker waited, in microseconds.
        waited_us: u64,
    },
}

impl WireOutcome {
    /// Converts a supervisor outcome for the wire. Returns `None` for
    /// the outcome variants a worker can never produce.
    pub fn from_outcome(outcome: &CellOutcome) -> Option<WireOutcome> {
        match outcome {
            CellOutcome::Computed { result, attempts } => Some(WireOutcome::Computed {
                result: result.clone(),
                attempts: *attempts,
            }),
            CellOutcome::Failed(f) => Some(WireOutcome::Failed {
                attempts: f.attempts,
                message: f.message.clone(),
                deterministic: f.deterministic,
            }),
            CellOutcome::Stalled { waited } => Some(WireOutcome::Stalled {
                waited_us: waited.as_micros() as u64,
            }),
            CellOutcome::Cached(_) | CellOutcome::Skipped => None,
        }
    }

    /// Converts back to the supervisor outcome the coordinator records.
    pub fn into_outcome(self) -> CellOutcome {
        match self {
            WireOutcome::Computed { result, attempts } => {
                CellOutcome::Computed { result, attempts }
            }
            WireOutcome::Failed {
                attempts,
                message,
                deterministic,
            } => CellOutcome::Failed(CellFailure {
                attempts,
                message,
                deterministic,
            }),
            WireOutcome::Stalled { waited_us } => CellOutcome::Stalled {
                waited: Duration::from_micros(waited_us),
            },
        }
    }
}

/// The environment a worker computes in, carried in the handshake.
///
/// When an audit catches two workers disagreeing about the same cell,
/// the fingerprint is what makes the divergence *attributable*: the
/// rollup can say "the quarantined worker ran a different build" rather
/// than leaving the operator to guess.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFingerprint {
    /// `mcd-grid` crate version the worker was built from.
    pub version: String,
    /// Target the worker binary runs on (`arch-os`).
    pub target: String,
    /// Build profile and compiled-in feature set.
    pub features: String,
    /// Digest of the spec the worker is pinned to (empty until learned).
    pub spec_digest: String,
}

impl WorkerFingerprint {
    /// The fingerprint of *this* build, pinned to `spec_digest`.
    pub fn current(spec_digest: &str) -> WorkerFingerprint {
        WorkerFingerprint {
            version: env!("CARGO_PKG_VERSION").to_string(),
            target: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
            features: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            spec_digest: spec_digest.to_string(),
        }
    }

    /// Compact `version target features` form for telemetry and blame.
    pub fn summary(&self) -> String {
        format!("{} {} {}", self.version, self.target, self.features)
    }
}

/// One `mcd-grid-wire/2` message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Frame {
    /// Worker → coordinator: opens a session.
    Hello {
        /// Must equal [`WIRE_PROTOCOL`].
        protocol: String,
        /// Human-readable worker name (host tag), for attribution.
        worker: String,
        /// Digest of the spec the worker expects, or empty to accept
        /// whatever campaign the coordinator is serving.
        spec_digest: String,
        /// Worker environment fingerprint, for audit blame.
        fingerprint: WorkerFingerprint,
    },
    /// Coordinator → worker: session accepted.
    Welcome {
        /// Coordinator-assigned worker id (unique per connection).
        worker_id: u64,
        /// Digest of the campaign spec being served.
        spec_digest: String,
        /// Total cells in the campaign (progress denominator).
        cells: u64,
        /// Heartbeat interval (µs) the worker must keep while computing,
        /// comfortably inside the coordinator's eviction timeout.
        heartbeat_us: u64,
    },
    /// Coordinator → worker: session refused; the connection closes.
    Reject {
        /// Why the handshake failed.
        reason: String,
    },
    /// Coordinator → worker: run this cell.
    Assign {
        /// Cell index within the expanded campaign.
        cell: u64,
        /// The full cell specification.
        spec: CellSpec,
    },
    /// Worker → coordinator: outcome for an assigned cell.
    CellResult {
        /// Cell index the outcome belongs to.
        cell: u64,
        /// What happened.
        outcome: WireOutcome,
    },
    /// Worker → coordinator: liveness signal while computing.
    Heartbeat,
    /// Worker → coordinator: one worker-side telemetry event (a JSONL
    /// object) forwarded for the coordinator's unified stream.
    TelemetryEvent {
        /// The event object, verbatim from the worker's stream.
        event: Value,
    },
    /// Coordinator → worker: finish the current cell, then exit; no
    /// further cells will be assigned.
    Drain,
    /// Coordinator → worker: campaign complete, exit now.
    Shutdown,
}

impl Frame {
    /// The 1-byte tag prefixed to this frame's payload.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::Reject { .. } => 3,
            Frame::Assign { .. } => 4,
            Frame::CellResult { .. } => 5,
            Frame::Heartbeat => 6,
            Frame::TelemetryEvent { .. } => 7,
            Frame::Drain => 8,
            Frame::Shutdown => 9,
        }
    }

    /// Frame name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Reject { .. } => "Reject",
            Frame::Assign { .. } => "Assign",
            Frame::CellResult { .. } => "CellResult",
            Frame::Heartbeat => "Heartbeat",
            Frame::TelemetryEvent { .. } => "TelemetryEvent",
            Frame::Drain => "Drain",
            Frame::Shutdown => "Shutdown",
        }
    }
}

/// Decode/transport failure for one frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// Clean end of stream at a frame boundary (the peer closed).
    Eof,
    /// The buffer or stream ended mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// The tag byte names no known frame.
    UnknownTag(u8),
    /// The payload is not valid JSON for any frame.
    BadPayload(String),
    /// The payload decoded to a different frame than the tag promised.
    TagMismatch {
        /// Tag byte on the wire.
        tag: u8,
        /// Frame the payload actually decoded to.
        decoded: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Eof => write!(f, "stream closed at frame boundary"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Oversize(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::BadPayload(e) => write!(f, "frame payload is not valid JSON: {e}"),
            WireError::TagMismatch { tag, decoded } => {
                write!(
                    f,
                    "frame tag {tag} does not match decoded {decoded} payload"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Encodes one frame: length prefix, tag byte, compact-JSON payload.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let payload = serde_json::to_string(frame).expect("JSON writing is infallible");
    let len = 1 + payload.len();
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(frame.tag());
    buf.extend_from_slice(payload.as_bytes());
    buf
}

/// Decodes one frame from the front of `buf`, returning the frame and
/// how many bytes it consumed (so concatenated frames parse in turn).
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversize(len));
    }
    if len == 0 {
        return Err(WireError::BadPayload("zero-length frame".to_string()));
    }
    if buf.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let tag = buf[4];
    if !(1..=9).contains(&tag) {
        return Err(WireError::UnknownTag(tag));
    }
    let payload =
        std::str::from_utf8(&buf[5..4 + len]).map_err(|e| WireError::BadPayload(e.to_string()))?;
    let frame: Frame =
        serde_json::from_str(payload).map_err(|e| WireError::BadPayload(e.to_string()))?;
    if frame.tag() != tag {
        return Err(WireError::TagMismatch {
            tag,
            decoded: frame.name(),
        });
    }
    Ok((frame, 4 + len))
}

/// Writes one frame to `w`, returning the bytes put on the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let buf = encode(frame);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len() as u64)
}

/// Reads one frame from `r`, returning it with the bytes consumed.
///
/// A clean close at a frame boundary is [`WireError::Eof`]; a close
/// mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Eof),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversize(len));
    }
    if len == 0 {
        return Err(WireError::BadPayload("zero-length frame".to_string()));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    let mut whole = Vec::with_capacity(4 + len);
    whole.extend_from_slice(&header);
    whole.extend_from_slice(&body);
    let (frame, consumed) = decode(&whole)?;
    debug_assert_eq!(consumed, 4 + len);
    Ok((frame, consumed as u64))
}

/// Convenience for handshakes: a [`Frame::Hello`] for this protocol,
/// fingerprinted with the current build.
pub fn hello(worker: &str, spec_digest: &str) -> Frame {
    Frame::Hello {
        protocol: WIRE_PROTOCOL.to_string(),
        worker: worker.to_string(),
        spec_digest: spec_digest.to_string(),
        fingerprint: WorkerFingerprint::current(spec_digest),
    }
}
