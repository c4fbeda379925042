//! Crash-safe campaign checkpoint manifest.
//!
//! A manifest holds what a resume needs to rebuild a campaign: the spec,
//! its digest and the cell total. `mcd-cli campaign resume` rebuilds the
//! whole campaign from the manifest alone, and the digest refuses a
//! manifest whose spec was edited or that belongs to another sweep. The
//! manifest also lists completed cells, but nothing reads that set back:
//! the result cache is the record of progress, and a resume computes
//! exactly the cells its probe misses. The scheduler saves a manifest
//! durably before any work and rewrites it once when the campaign ends,
//! marking every cell that holds a result.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use serde::{Map, Number, Serialize, Value};

use crate::cache::sha256_hex;
use crate::error::HarnessError;
use crate::spec::CampaignSpec;

/// Schema tag embedded in every manifest.
pub const CHECKPOINT_SCHEMA: &str = "mcd-campaign-checkpoint/1";

/// Digest binding a manifest to one exact campaign: the SHA-256 of the
/// spec's canonical JSON. Any change to any sweep axis changes the digest,
/// so a manifest can never silently resume a different campaign.
pub fn spec_digest(spec: &CampaignSpec) -> String {
    sha256_hex(
        serde_json::to_string(&spec.to_value())
            .expect("JSON writing is infallible")
            .as_bytes(),
    )
}

/// Progress record of one campaign, persisted across process deaths.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointManifest {
    spec: CampaignSpec,
    digest: String,
    total: usize,
    completed: BTreeSet<usize>,
}

impl CheckpointManifest {
    /// A fresh manifest for `spec` with nothing completed.
    pub fn new(spec: CampaignSpec, total: usize) -> CheckpointManifest {
        let digest = spec_digest(&spec);
        CheckpointManifest {
            spec,
            digest,
            total,
            completed: BTreeSet::new(),
        }
    }

    /// The embedded campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The spec digest this manifest is bound to.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Total cell count of the campaign.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Cells recorded as completed (result published to the cache).
    pub fn completed(&self) -> &BTreeSet<usize> {
        &self.completed
    }

    /// Cells not yet completed.
    pub fn pending(&self) -> usize {
        self.total - self.completed.len()
    }

    /// Whether every cell is completed.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.total
    }

    /// Records cell `index` as completed. Returns `true` if it was new.
    pub fn mark_done(&mut self, index: usize) -> bool {
        self.completed.insert(index)
    }

    /// Serializes the manifest to its canonical JSON document.
    pub fn to_json(&self) -> String {
        let mut doc = Map::new();
        doc.insert(
            "schema".to_string(),
            Value::String(CHECKPOINT_SCHEMA.to_string()),
        );
        doc.insert("spec".to_string(), self.spec.to_value());
        doc.insert(
            "spec_digest".to_string(),
            Value::String(self.digest.clone()),
        );
        doc.insert("total".to_string(), self.total.to_value());
        doc.insert(
            "completed".to_string(),
            Value::Array(self.completed.iter().map(|i| i.to_value()).collect()),
        );
        serde_json::to_string_pretty(&Value::Object(doc)).expect("JSON writing is infallible")
    }

    /// Writes the manifest atomically and durably to `path` via
    /// [`crate::durable::write_atomic_durable`] (temp + fsync + rename +
    /// parent-directory fsync): a manifest whose save returned survives
    /// SIGKILL and power loss, so a campaign killed at any point after its
    /// first save is resumable.
    pub fn save(&self, path: &Path) -> Result<(), HarnessError> {
        crate::durable::write_atomic_durable(path, self.to_json().as_bytes()).map_err(|source| {
            HarnessError::CheckpointIo {
                path: path.to_path_buf(),
                source,
            }
        })
    }

    /// Loads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<CheckpointManifest, HarnessError> {
        let invalid = |reason: String| HarnessError::CheckpointInvalid {
            path: path.to_path_buf(),
            reason,
        };
        let text = fs::read_to_string(path).map_err(|source| HarnessError::CheckpointIo {
            path: path.to_path_buf(),
            source,
        })?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| invalid(format!("not valid JSON: {e:?}")))?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing schema tag".to_string()))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(invalid(format!(
                "schema {schema:?}, expected {CHECKPOINT_SCHEMA:?}"
            )));
        }
        let spec: CampaignSpec = doc
            .get("spec")
            .cloned()
            .ok_or_else(|| invalid("missing spec".to_string()))
            .and_then(|v| {
                serde_json::from_value(&v).map_err(|e| invalid(format!("bad spec: {e:?}")))
            })?;
        let recorded = doc
            .get("spec_digest")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing spec_digest".to_string()))?;
        let actual = spec_digest(&spec);
        if recorded != actual {
            // The embedded spec and its digest disagree: the manifest was
            // hand-edited or corrupted. Refuse rather than guess.
            return Err(HarnessError::CheckpointMismatch {
                expected: recorded.to_string(),
                found: actual,
            });
        }
        let total = doc
            .get("total")
            .and_then(Value::as_number)
            .and_then(Number::as_u64)
            .ok_or_else(|| invalid("missing total".to_string()))? as usize;
        let mut completed = BTreeSet::new();
        for v in doc
            .get("completed")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("missing completed list".to_string()))?
        {
            let i = v
                .as_number()
                .and_then(Number::as_u64)
                .ok_or_else(|| invalid("non-integer completed index".to_string()))?
                as usize;
            if i >= total {
                return Err(invalid(format!("completed index {i} out of range {total}")));
            }
            completed.insert(i);
        }
        Ok(CheckpointManifest {
            spec,
            digest: actual,
            total,
            completed,
        })
    }

    /// Checks that this manifest belongs to `spec` (same digest).
    pub fn verify_spec(&self, spec: &CampaignSpec) -> Result<(), HarnessError> {
        let found = spec_digest(spec);
        if found == self.digest {
            Ok(())
        } else {
            Err(HarnessError::CheckpointMismatch {
                expected: self.digest.clone(),
                found,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_time::DvfsModel;
    use std::path::PathBuf;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec!["gcc".into(), "art".into()],
            seeds: vec![5],
            instructions: 1_000,
            models: vec![DvfsModel::XScale],
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcd-ckpt-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn save_load_round_trips_with_progress() {
        let path = scratch("roundtrip");
        let mut m = CheckpointManifest::new(spec(), 2);
        assert_eq!(m.pending(), 2);
        assert!(m.mark_done(1));
        assert!(!m.mark_done(1), "marking twice is idempotent");
        m.save(&path).expect("save manifest");

        let back = CheckpointManifest::load(&path).expect("load manifest");
        assert_eq!(back, m);
        assert_eq!(back.pending(), 1);
        assert!(back.completed().contains(&1));
        assert!(!back.is_complete());
        back.verify_spec(&spec()).expect("same spec verifies");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resuming_a_different_spec_is_refused() {
        let m = CheckpointManifest::new(spec(), 2);
        let mut other = spec();
        other.seeds = vec![6];
        let err = m.verify_spec(&other).unwrap_err();
        assert!(matches!(err, HarnessError::CheckpointMismatch { .. }));
    }

    #[test]
    fn torn_or_tampered_manifests_are_rejected() {
        let path = scratch("torn");
        let m = CheckpointManifest::new(spec(), 2);
        let json = m.to_json();

        // Torn write: truncated JSON.
        fs::write(&path, &json[..json.len() / 2]).unwrap();
        assert!(matches!(
            CheckpointManifest::load(&path),
            Err(HarnessError::CheckpointInvalid { .. })
        ));

        // Tampered spec under a stale digest.
        let tampered = json.replace("\"instructions\": 1000", "\"instructions\": 2000");
        assert_ne!(tampered, json, "replacement must hit");
        fs::write(&path, tampered).unwrap();
        assert!(matches!(
            CheckpointManifest::load(&path),
            Err(HarnessError::CheckpointMismatch { .. })
        ));

        // Out-of-range completed index.
        let bad = json.replace("\"completed\": []", "\"completed\": [9]");
        fs::write(&path, bad).unwrap();
        assert!(matches!(
            CheckpointManifest::load(&path),
            Err(HarnessError::CheckpointInvalid { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn digest_tracks_every_spec_axis() {
        let base = spec_digest(&spec());
        let mut s = spec();
        s.instructions += 1;
        assert_ne!(base, spec_digest(&s));
        let mut s = spec();
        s.models = vec![DvfsModel::Transmeta];
        assert_ne!(base, spec_digest(&s));
        assert_eq!(base, spec_digest(&spec()), "digest is stable");
    }
}
