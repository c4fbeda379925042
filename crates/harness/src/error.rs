//! Structured failure taxonomy for the campaign harness.
//!
//! [`HarnessError`] lists the errors harness calls return: an invalid
//! spec, a checkpoint manifest that cannot be read or does not match the
//! spec being resumed, and a telemetry log that cannot be read or repaired
//! or is corrupt before its tail.
//! Callers (the CLI, the grid, tests) branch on *kind* rather than scraping
//! strings; the display form is stable enough to log but the enum is the
//! contract. A cell's own failure is not an error but an outcome
//! ([`crate::CellOutcome::Failed`] or [`crate::CellOutcome::Stalled`]),
//! and a corrupt cache entry is a probe result
//! ([`crate::CacheProbe::Corrupt`] with a [`CorruptKind`]).

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::spec::SpecError;

/// Why a cache entry failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The entry file exists but could not be read.
    Unreadable,
    /// The bytes are not valid JSON (torn write, truncation, bit rot).
    Malformed,
    /// The entry parses but is missing a required field.
    MissingField,
    /// The recorded key does not match the entry's file name.
    KeyMismatch,
    /// The result bytes do not hash to the recorded digest.
    DigestMismatch,
}

impl CorruptKind {
    /// Stable lowercase tag for telemetry.
    pub fn tag(&self) -> &'static str {
        match self {
            CorruptKind::Unreadable => "unreadable",
            CorruptKind::Malformed => "malformed",
            CorruptKind::MissingField => "missing-field",
            CorruptKind::KeyMismatch => "key-mismatch",
            CorruptKind::DigestMismatch => "digest-mismatch",
        }
    }
}

/// A structured harness failure.
#[derive(Debug)]
pub enum HarnessError {
    /// The campaign spec itself is invalid.
    Spec(SpecError),
    /// A checkpoint manifest could not be read or written.
    CheckpointIo {
        /// The manifest path.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A checkpoint manifest parsed but is not usable.
    CheckpointInvalid {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// A checkpoint manifest describes a different campaign than the one
    /// being resumed (the spec digest changed).
    CheckpointMismatch {
        /// Digest recorded in the manifest.
        expected: String,
        /// Digest of the spec being resumed.
        found: String,
    },
    /// A telemetry log has an unparseable line *before* the tail — real
    /// corruption, not a crash artifact (a line-buffered writer can only
    /// tear the final line).
    TelemetryCorrupt {
        /// The log path.
        path: PathBuf,
        /// 1-based line number of the first bad line.
        line: usize,
    },
    /// A telemetry IO failure that could not be absorbed.
    TelemetryIo {
        /// The log path, when known.
        path: Option<PathBuf>,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Spec(e) => write!(f, "invalid campaign spec: {e}"),
            HarnessError::CheckpointIo { path, source } => {
                write!(f, "checkpoint IO failed at {}: {source}", path.display())
            }
            HarnessError::CheckpointInvalid { path, reason } => {
                write!(f, "checkpoint {} is invalid: {reason}", path.display())
            }
            HarnessError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint describes a different campaign (manifest spec digest {expected}, \
                 resumed spec digest {found})"
            ),
            HarnessError::TelemetryCorrupt { path, line } => write!(
                f,
                "telemetry log {} has corrupt line {line}",
                path.display()
            ),
            HarnessError::TelemetryIo { path, source } => match path {
                Some(p) => write!(f, "telemetry IO failed at {}: {source}", p.display()),
                None => write!(f, "telemetry IO failed: {source}"),
            },
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Spec(e) => Some(e),
            HarnessError::CheckpointIo { source, .. }
            | HarnessError::TelemetryIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SpecError> for HarnessError {
    fn from(e: SpecError) -> Self {
        HarnessError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_name_the_failure_kind() {
        let e = HarnessError::CheckpointMismatch {
            expected: "aa".into(),
            found: "bb".into(),
        };
        assert!(e.to_string().contains("different campaign"));
    }

    #[test]
    fn spec_errors_convert() {
        let e: HarnessError = SpecError::Empty("seeds").into();
        assert!(matches!(e, HarnessError::Spec(SpecError::Empty("seeds"))));
    }
}
