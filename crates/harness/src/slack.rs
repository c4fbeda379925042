//! Cross-process slack-profile store.
//!
//! The shaker pass is the most expensive piece of the off-line tool that
//! is *independent of the dilation target*: a [`mcd_offline::SlackProfile`]
//! depends only on the traced run and the shaker configuration, never on
//! θ or the DVFS model's timing constants. That makes it safe to share
//! across processes: a campaign, the serial driver and a grid worker all
//! derive byte-identical profiles from the same key material, so serving a
//! stored profile is results-neutral by construction.
//!
//! The store is content-addressed the same way the result cache is: the
//! file name is the SHA-256 of the key material
//! ([`mcd_core`]'s `SlackStore` keys come from
//! `mcd_offline::slack_cache_key_material`, which embeds a format tag, the
//! benchmark identity and the analysis-relevant configuration subset), and
//! the file body carries its own payload digest so tampering or torn
//! writes degrade to a miss, never to a wrong profile. Entries are listed,
//! quarantined and published ([`crate::durable::write_atomic`]) by the
//! result cache's own code, so concurrent writers and crashes leave
//! either the old bytes or the new bytes, both of which decode to the same
//! profile.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mcd_core::SlackStore;

use crate::cache::{
    entry_keys, quarantine_entry, sha256_hex, ScrubFinding, ScrubReport, QUARANTINE_DIR,
};
use crate::durable::{sweep_stale_tmp, write_atomic};
use crate::error::CorruptKind;

/// Subdirectory of the result-cache directory that holds slack profiles.
pub const SLACK_CACHE_DIR: &str = "slack";

/// Hit/miss counters of a [`SlackDiskCache`], for rollups and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlackCacheStats {
    /// Lookups performed.
    pub loads: u64,
    /// Lookups that returned a valid stored profile.
    pub hits: u64,
    /// Profiles written.
    pub stores: u64,
}

/// A content-addressed, tamper-evident, atomic on-disk slack-profile
/// store implementing [`mcd_core::SlackStore`].
#[derive(Debug)]
pub struct SlackDiskCache {
    dir: PathBuf,
    loads: AtomicU64,
    hits: AtomicU64,
    stores: AtomicU64,
}

impl SlackDiskCache {
    /// Opens (creating if needed) a store rooted at `dir`, sweeping any
    /// stale temp files a crashed writer left behind — the same
    /// crash-dropping rule the result cache applies to its own directory.
    /// A live writer whose temp is swept from under it only loses that one
    /// best-effort store.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SlackDiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = SlackDiskCache {
            dir,
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        };
        sweep_stale_tmp(&store.dir)?;
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The store's quarantine directory (not created until first used).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// Re-validates every stored profile's digest framing. With
    /// `quarantine` true (a scrub), bad entries move to
    /// `slack/quarantine/` as evidence; false (a verify) reports without
    /// touching the bytes.
    pub fn scrub(&self, quarantine: bool) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for key in entry_keys(&self.dir)? {
            report.checked += 1;
            let path = self.dir.join(format!("{key}.json"));
            let kind = match fs::read_to_string(&path) {
                Ok(text) => match Self::decode(&text) {
                    Some(_) => continue,
                    // An unframed file and a framed-but-mismatched file are
                    // different damage: the latter proves the payload
                    // changed after it was written.
                    None if text.split_once('\n').is_none() => CorruptKind::Malformed,
                    None => CorruptKind::DigestMismatch,
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => CorruptKind::Unreadable,
            };
            let evidence = if quarantine {
                Some(quarantine_entry(&self.dir, &key)?)
            } else {
                None
            };
            report.findings.push(ScrubFinding {
                key: key.hex().to_string(),
                kind,
                evidence,
            });
        }
        Ok(report)
    }

    /// Counters since this handle was opened.
    pub fn stats(&self) -> SlackCacheStats {
        SlackCacheStats {
            loads: self.loads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key_material: &str) -> PathBuf {
        self.dir
            .join(format!("{}.json", sha256_hex(key_material.as_bytes())))
    }

    /// Encodes `payload` with its own digest line so corruption is
    /// detectable without parsing JSON.
    fn encode(payload: &str) -> String {
        format!("{}\n{payload}", sha256_hex(payload.as_bytes()))
    }

    /// Decodes a stored file, returning the payload only if its digest
    /// line matches the bytes that follow it.
    fn decode(text: &str) -> Option<&str> {
        let (digest, payload) = text.split_once('\n')?;
        if digest.len() != 64 || digest != sha256_hex(payload.as_bytes()) {
            return None;
        }
        Some(payload)
    }
}

impl SlackStore for SlackDiskCache {
    fn load(&self, key_material: &str) -> Option<String> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let text = fs::read_to_string(self.path_for(key_material)).ok()?;
        let payload = Self::decode(&text)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(payload.to_string())
    }

    fn store(&self, key_material: &str, payload: &str) {
        // Best-effort: a failed store only costs recomputation elsewhere.
        let path = self.path_for(key_material);
        if write_atomic(&path, Self::encode(payload).as_bytes()).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> (SlackDiskCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mcd-slack-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (SlackDiskCache::open(&dir).expect("create store"), dir)
    }

    #[test]
    fn round_trips_a_payload_and_counts() {
        let (store, dir) = scratch("roundtrip");
        assert_eq!(store.load("key-a"), None, "empty store misses");
        store.store("key-a", "{\"profile\":1}");
        assert_eq!(store.load("key-a"), Some("{\"profile\":1}".to_string()));
        assert_eq!(store.load("key-b"), None, "distinct keys are distinct");
        assert_eq!(
            store.stats(),
            SlackCacheStats {
                loads: 3,
                hits: 1,
                stores: 1
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payloads_with_newlines_survive_framing() {
        let (store, dir) = scratch("newlines");
        let payload = "line one\nline two\n";
        store.store("key", payload);
        assert_eq!(store.load("key").as_deref(), Some(payload));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entry_degrades_to_a_miss() {
        let (store, dir) = scratch("tamper");
        store.store("key", "{\"honest\":true}");
        let path = store.path_for("key");
        let mut text = fs::read_to_string(&path).unwrap();
        text = text.replace("true", "flip");
        fs::write(&path, text).unwrap();
        assert_eq!(store.load("key"), None, "digest mismatch must not serve");

        fs::write(&path, "no digest line at all").unwrap();
        assert_eq!(store.load("key"), None, "unframed file must not serve");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let (store, dir) = scratch("sweep");
        store.store("key", "{\"keep\":1}");
        let entry = dir.join(format!("{}.json", "ab".repeat(32)));
        let stale = crate::durable::tmp_path(&entry);
        fs::write(&stale, "half-written").unwrap();
        let reopened = SlackDiskCache::open(&dir).expect("open sweeps");
        assert!(!stale.exists(), "stale tmp swept on open");
        assert_eq!(reopened.load("key"), Some("{\"keep\":1}".to_string()));
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_tampered_profiles() {
        let (store, dir) = scratch("scrub");
        store.store("good", "{\"profile\":1}");
        store.store("bad", "{\"profile\":2}");
        store.store("unframed", "{\"profile\":3}");
        let bad = store.path_for("bad");
        let text = fs::read_to_string(&bad).unwrap().replace('2', "7");
        fs::write(&bad, text).unwrap();
        fs::write(store.path_for("unframed"), "no digest line").unwrap();

        let verify = store.scrub(false).expect("verify");
        assert_eq!(verify.checked, 3);
        assert_eq!(verify.findings.len(), 2);
        assert!(verify.findings.iter().all(|f| f.evidence.is_none()));
        assert!(bad.exists(), "verify leaves the bytes");

        let scrub = store.scrub(true).expect("scrub");
        assert_eq!(scrub.findings.len(), 2);
        let kinds: Vec<CorruptKind> = scrub.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&CorruptKind::DigestMismatch));
        assert!(kinds.contains(&CorruptKind::Malformed));
        for f in &scrub.findings {
            assert!(f
                .evidence
                .as_ref()
                .unwrap()
                .starts_with(store.quarantine_dir()));
        }
        assert!(!bad.exists(), "tampered profile moved aside");
        assert_eq!(store.load("good"), Some("{\"profile\":1}".to_string()));
        assert_eq!(store.load("bad"), None);
        assert!(store.scrub(true).expect("rescrub").clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_handle_sees_first_handles_entries() {
        let (store, dir) = scratch("reopen");
        store.store("key", "{\"x\":2}");
        let reopened = SlackDiskCache::open(&dir).unwrap();
        assert_eq!(reopened.load("key"), Some("{\"x\":2}".to_string()));
        assert_eq!(reopened.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
