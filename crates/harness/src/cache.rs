//! Content-addressed result cache with corruption quarantine.
//!
//! A cell's cache key is the SHA-256 digest of the *canonical compact JSON*
//! of its key material: a format-version tag, the cell parameters (seed,
//! instruction window, DVFS model, dilation targets) and the full benchmark
//! profile the cell runs. The JSON layer serializes objects through
//! `BTreeMap`, so keys are emitted in sorted order and the digest is
//! independent of struct field declaration order — renaming or reordering
//! fields with the same values hashes identically, while any change to a
//! parameter *value* (or to the profile definition itself) produces a new
//! key and forces recomputation.
//!
//! Entries are plain JSON files named `<hex-digest>.json` under the cache
//! directory, written atomically (temp file + rename) so a crashed or
//! concurrent writer can never leave a truncated entry at the published
//! name. Each entry additionally records the SHA-256 of its result's
//! canonical JSON, so *any* byte damage to the result — torn flush, bit
//! rot, hand edits — is detected on load. [`ResultCache::probe`] reports a
//! damaged entry as [`CacheProbe::Corrupt`]; the supervisor then moves it
//! to `quarantine/` (preserving the evidence) and recomputes. A corrupt
//! entry is never returned as a hit. Stale `.{key}.tmp` files left by a
//! crash between write and rename are swept on [`ResultCache::open`].

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;
use serde_json::Value;

use mcd_core::BenchmarkResults;

use crate::error::CorruptKind;
use crate::spec::CellSpec;

/// Bumped whenever the meaning of a cached result changes (simulator
/// semantics, result schema, entry format), invalidating all prior
/// entries. v2: entries carry a result digest.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Key-material schema tag for cells that exercise the online-policy axis.
/// Policy-free cells omit it (and serialize their spec without the
/// `policies` key), keeping every pre-policy cache key — and therefore
/// every warm cache — exactly as it was. v3: governed rows run under the
/// cell's DVFS model (v2 entries hold XScale runs for Transmeta cells).
pub const CELL_KEY_SCHEMA: &str = "mcd-cell-key/3";

/// Name of the quarantine subdirectory under the cache root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// How many entries the campaign-startup spot check re-verifies (a fast
/// sample, not a full scrub — `mcd-cli cache verify` walks everything).
pub const SPOT_CHECK_LIMIT: usize = 8;

/// A cell's content hash: 64 lowercase hex characters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// Derives the key for a cell.
    pub fn of(cell: &CellSpec) -> CacheKey {
        // Assemble the key material as a JSON object. BTreeMap-backed
        // objects mean the serialized bytes are canonical: field order in
        // the source structs cannot influence the digest.
        let mut material = serde_json::Map::new();
        material.insert("format".to_string(), CACHE_FORMAT_VERSION.to_value());
        material.insert("cell".to_string(), cell.to_value());
        material.insert("profile".to_string(), cell.profile().to_value());
        if !cell.policies.is_empty() {
            material.insert("schema".to_string(), CELL_KEY_SCHEMA.to_value());
        }
        let canonical =
            serde_json::to_string(&Value::Object(material)).expect("JSON writing is infallible");
        CacheKey(sha256::hex_digest(canonical.as_bytes()))
    }

    /// The 64-character hex digest.
    pub fn hex(&self) -> &str {
        &self.0
    }

    /// Reconstructs a key from its hex digest (e.g. an entry filename);
    /// `None` unless the string is exactly 64 lowercase hex characters.
    pub fn from_hex(hex: &str) -> Option<CacheKey> {
        let well_formed = hex.len() == 64
            && hex
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        well_formed.then(|| CacheKey(hex.to_string()))
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// SHA-256 of arbitrary bytes as lowercase hex — the digest the cache uses
/// for keys and entry integrity, shared with the checkpoint manifest.
pub(crate) fn sha256_hex(data: &[u8]) -> String {
    sha256::hex_digest(data)
}

/// Canonical compact JSON of a result — the bytes the entry digest covers.
fn result_canonical_json(result: &BenchmarkResults) -> String {
    serde_json::to_string(&result.to_value()).expect("JSON writing is infallible")
}

/// What a validated cache lookup found.
// Probes happen once per cell (hundreds of milliseconds apart), so the
// size skew between Hit and the tag-only variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CacheProbe {
    /// No entry on disk.
    Miss,
    /// A valid entry whose result digest checks out.
    Hit(BenchmarkResults),
    /// An entry exists but failed validation and must not be trusted.
    Corrupt(CorruptKind),
}

/// One corrupt entry found by a [`ResultCache::scrub`] walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// The entry's 64-hex cache key.
    pub key: String,
    /// Which validation step the entry failed.
    pub kind: CorruptKind,
    /// Where the bytes were moved (`None` on a read-only verify).
    pub evidence: Option<PathBuf>,
}

/// Report from re-validating every published cache entry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries examined.
    pub checked: usize,
    /// Corrupt entries found (quarantined unless the walk was read-only).
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// Whether every entry validated.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Result of the fast campaign-startup integrity sample
/// ([`ResultCache::spot_check`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpotCheck {
    /// Entries re-verified.
    pub checked: usize,
    /// Entries found corrupt. The bytes are left in place: the claim-time
    /// probe quarantines them with full cell context (telemetry, evidence,
    /// recomputation) when the campaign reaches the cell.
    pub corrupt: usize,
}

/// On-disk store of finished cell results, addressed by [`CacheKey`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`, sweeping any
    /// stale `.{key}.tmp` files a crashed writer left behind (a crash
    /// between `fs::write` and `fs::rename` would otherwise leak them
    /// forever).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let cache = ResultCache { dir: dir.into() };
        fs::create_dir_all(&cache.dir)?;
        cache.sweep_stale_tmp()?;
        Ok(cache)
    }

    /// Removes leftover temp files from interrupted stores, returning how
    /// many were swept. Safe because a temp file is only meaningful to the
    /// store call that created it — once that call is gone (crashed), the
    /// file is garbage by construction. The quarantine subdirectory is
    /// swept by the same rule, so orphaned temp files dragged there by a
    /// crash mid-quarantine (or by tooling shuffling entries) do not
    /// accumulate as pseudo-evidence forever.
    pub fn sweep_stale_tmp(&self) -> io::Result<usize> {
        let mut swept = crate::durable::sweep_stale_tmp(&self.dir)?;
        let qdir = self.quarantine_dir();
        if qdir.is_dir() {
            swept += crate::durable::sweep_stale_tmp(&qdir)?;
        }
        Ok(swept)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine directory (not created until first used).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Whether an entry exists for `key` (without parsing it).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entry_path(key).is_file()
    }

    /// Looks up `key` with full validation: presence, JSON shape, recorded
    /// key, and the result digest. Distinguishes a clean miss from a
    /// corrupt entry so the caller can quarantine the latter.
    pub fn probe(&self, key: &CacheKey) -> CacheProbe {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheProbe::Miss,
            Err(_) => return CacheProbe::Corrupt(CorruptKind::Unreadable),
        };
        let Ok(entry) = serde_json::from_str::<Value>(&text) else {
            return CacheProbe::Corrupt(CorruptKind::Malformed);
        };
        let (Some(recorded), Some(digest), Some(result)) = (
            entry.get("key").and_then(Value::as_str),
            entry.get("digest").and_then(Value::as_str),
            entry.get("result"),
        ) else {
            return CacheProbe::Corrupt(CorruptKind::MissingField);
        };
        if recorded != key.hex() {
            return CacheProbe::Corrupt(CorruptKind::KeyMismatch);
        }
        let Ok(result) = serde_json::from_value::<BenchmarkResults>(result) else {
            return CacheProbe::Corrupt(CorruptKind::Malformed);
        };
        // The digest covers the result's canonical JSON: any mutation that
        // survives parsing still changes these bytes and is caught here.
        if sha256::hex_digest(result_canonical_json(&result).as_bytes()) != digest {
            return CacheProbe::Corrupt(CorruptKind::DigestMismatch);
        }
        CacheProbe::Hit(result)
    }

    /// Loads the cached result for `key`, or `None` on a miss.
    ///
    /// Corrupt entries degrade to a miss here; use [`ResultCache::probe`]
    /// to tell them apart (and quarantine them).
    pub fn load(&self, key: &CacheKey) -> Option<BenchmarkResults> {
        match self.probe(key) {
            CacheProbe::Hit(result) => Some(result),
            CacheProbe::Miss | CacheProbe::Corrupt(_) => None,
        }
    }

    /// Moves the entry for `key` into `quarantine/`, preserving the bytes
    /// as evidence, and returns the quarantined path. The entry slot is
    /// then free for an honest recomputation.
    pub fn quarantine(&self, key: &CacheKey) -> io::Result<PathBuf> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir)?;
        let dest = qdir.join(format!("{}.json", key.hex()));
        fs::rename(self.entry_path(key), &dest)?;
        Ok(dest)
    }

    fn entry_json(&self, key: &CacheKey, cell: &CellSpec, result: &BenchmarkResults) -> String {
        let mut entry = serde_json::Map::new();
        entry.insert("key".to_string(), Value::String(key.hex().to_string()));
        entry.insert("cell".to_string(), cell.to_value());
        entry.insert(
            "digest".to_string(),
            Value::String(sha256::hex_digest(result_canonical_json(result).as_bytes())),
        );
        entry.insert("result".to_string(), result.to_value());
        serde_json::to_string_pretty(&Value::Object(entry)).expect("JSON writing is infallible")
    }

    /// Stores `result` under `key`, recording the cell spec alongside it so
    /// entries are self-describing for `campaign status` and humans, plus
    /// the result digest that [`ResultCache::probe`] verifies.
    pub fn store(
        &self,
        key: &CacheKey,
        cell: &CellSpec,
        result: &BenchmarkResults,
    ) -> io::Result<()> {
        let text = self.entry_json(key, cell, result);
        // Atomic publish: never expose a partially written entry. The temp
        // name includes the key, so concurrent writers of the *same* cell
        // race benignly (they write identical bytes).
        let tmp = self.dir.join(format!(".{}.tmp", key.hex()));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.entry_path(key))
    }

    /// Publishes a deliberately torn entry — the first `keep` bytes only —
    /// at the final path, simulating a crash mid-flush. Test-only fault
    /// injection for the chaos suite; never part of a correct store path.
    #[doc(hidden)]
    pub fn store_torn(
        &self,
        key: &CacheKey,
        cell: &CellSpec,
        result: &BenchmarkResults,
        keep: usize,
    ) -> io::Result<()> {
        let text = self.entry_json(key, cell, result);
        let keep = keep.min(text.len());
        fs::write(self.entry_path(key), &text.as_bytes()[..keep])
    }

    /// Overwrites the published entry for `key` with arbitrary bytes —
    /// test-only corruption for the chaos suite.
    #[doc(hidden)]
    pub fn corrupt_with(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<()> {
        fs::write(self.entry_path(key), bytes)
    }

    /// Reads the raw published bytes of an entry, if present (test support).
    #[doc(hidden)]
    pub fn raw_entry(&self, key: &CacheKey) -> Option<Vec<u8>> {
        fs::read(self.entry_path(key)).ok()
    }

    /// Every published entry key, sorted by filename so walks are
    /// deterministic. Non-entry files in the cache directory (the rollup,
    /// checkpoints, quarantine evidence) are skipped by construction:
    /// only `<64-hex>.json` names parse as keys.
    pub fn keys(&self) -> io::Result<Vec<CacheKey>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if !path.is_file() {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(key) = name.strip_suffix(".json").and_then(CacheKey::from_hex) {
                keys.push(key);
            }
        }
        keys.sort_by(|a, b| a.hex().cmp(b.hex()));
        Ok(keys)
    }

    /// Re-validates every published entry — presence, JSON shape, recorded
    /// key, result digest. With `quarantine` true (a scrub), corrupt
    /// entries are moved to `quarantine/` as evidence, freeing the slot
    /// for recomputation; false (a verify) reports without touching the
    /// bytes.
    pub fn scrub(&self, quarantine: bool) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for key in self.keys()? {
            report.checked += 1;
            let kind = match self.probe(&key) {
                CacheProbe::Hit(_) => continue,
                // The file vanished between listing and probing: an entry
                // that is not there cannot be corrupt.
                CacheProbe::Miss => continue,
                CacheProbe::Corrupt(kind) => kind,
            };
            let evidence = if quarantine {
                Some(self.quarantine(&key)?)
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

    /// Fast startup integrity sample: re-validates up to `limit` entries
    /// in deterministic (sorted-key) order, reporting (not repairing) any
    /// corruption found — the claim-time probe ladder quarantines and
    /// recomputes with full cell context when the campaign reaches the
    /// cell. Best-effort: an unreadable directory checks nothing.
    pub fn spot_check(&self, limit: usize) -> SpotCheck {
        let mut spot = SpotCheck::default();
        let keys = self.keys().unwrap_or_default();
        for key in keys.iter().take(limit) {
            spot.checked += 1;
            if matches!(self.probe(key), CacheProbe::Corrupt(_)) {
                spot.corrupt += 1;
            }
        }
        spot
    }
}

/// Minimal SHA-256 (FIPS 180-4). Self-contained because the build
/// environment has no access to crates.io.
mod sha256 {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    fn compress(state: &mut [u32; 8], block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 of `data` as 64 lowercase hex characters.
    pub fn hex_digest(data: &[u8]) -> String {
        let mut state = H0;
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            compress(&mut state, block);
        }

        // Padding: 0x80, zeros, then the bit length as a big-endian u64.
        let mut tail = [0u8; 128];
        let rem = blocks.remainder();
        tail[..rem.len()].copy_from_slice(rem);
        tail[rem.len()] = 0x80;
        let tail_len = if rem.len() < 56 { 64 } else { 128 };
        let bits = (data.len() as u64) * 8;
        tail[tail_len - 8..tail_len].copy_from_slice(&bits.to_be_bytes());
        for block in tail[..tail_len].chunks_exact(64) {
            compress(&mut state, block);
        }

        let mut hex = String::with_capacity(64);
        for word in state {
            use std::fmt::Write;
            write!(hex, "{word:08x}").expect("writing to a String cannot fail");
        }
        hex
    }

    #[cfg(test)]
    mod tests {
        use super::hex_digest;

        #[test]
        fn fips_180_4_vectors() {
            assert_eq!(
                hex_digest(b""),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
            assert_eq!(
                hex_digest(b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
            assert_eq!(
                hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
            // 56-byte message: padding spills into a second block.
            assert_eq!(
                hex_digest(&[0x61u8; 56]),
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
            );
            // One full block exactly.
            assert_eq!(
                hex_digest(&[0u8; 64]),
                "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_time::DvfsModel;

    fn cell() -> CellSpec {
        CellSpec {
            benchmark: "gcc".to_string(),
            seed: 5,
            instructions: 1_000,
            model: DvfsModel::XScale,
            thetas: [0.01, 0.05],
            policies: Vec::new(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcd-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        let base = CacheKey::of(&cell());
        assert_eq!(base, CacheKey::of(&cell()), "same cell, same key");
        assert_eq!(base.hex().len(), 64);

        let mut other = cell();
        other.seed = 6;
        assert_ne!(base, CacheKey::of(&other), "seed must change the key");

        let mut other = cell();
        other.model = DvfsModel::Transmeta;
        assert_ne!(base, CacheKey::of(&other), "model must change the key");
    }

    #[test]
    fn policies_are_part_of_the_key() {
        let base = CacheKey::of(&cell());
        let mut governed = cell();
        governed.policies = vec!["attack-decay".to_string()];
        let governed_key = CacheKey::of(&governed);
        assert_ne!(base, governed_key, "a governed cell is a different cell");

        let mut tuned = governed.clone();
        tuned.policies = vec!["attack-decay:decay=0.01".to_string()];
        assert_ne!(
            governed_key,
            CacheKey::of(&tuned),
            "policy parameters must change the key"
        );

        let mut two = governed.clone();
        two.policies.push("queue-pi".to_string());
        assert_ne!(
            governed_key,
            CacheKey::of(&two),
            "adding a policy must change the key"
        );
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch("roundtrip");
        let cache = ResultCache::open(&dir).expect("create cache dir");
        let cell = cell();
        let key = CacheKey::of(&cell);
        assert!(!cache.contains(&key));
        assert!(cache.load(&key).is_none());
        assert!(matches!(cache.probe(&key), CacheProbe::Miss));

        let result = cell.run();
        cache.store(&key, &cell, &result).expect("store entry");
        assert!(cache.contains(&key));
        let loaded = cache.load(&key).expect("entry is loadable");
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "cached bytes reproduce the computed result exactly"
        );

        // Corrupt entries degrade to a miss through `load`...
        fs::write(dir.join(format!("{}.json", key.hex())), "{not json").unwrap();
        assert!(cache.load(&key).is_none());
        // ...and are named corrupt by `probe`.
        assert!(matches!(
            cache.probe(&key),
            CacheProbe::Corrupt(CorruptKind::Malformed)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_mutations_that_stay_valid_json_are_caught_by_the_digest() {
        let dir = scratch("digest");
        let cache = ResultCache::open(&dir).expect("create cache dir");
        let cell = cell();
        let key = CacheKey::of(&cell);
        cache.store(&key, &cell, &cell.run()).expect("store entry");

        // Flip one digit inside the result payload: still valid JSON, still
        // the right key — only the digest can catch it.
        let raw = String::from_utf8(cache.raw_entry(&key).unwrap()).unwrap();
        let result_at = raw.find("\"result\"").expect("entry has a result field");
        let digit_at = raw[result_at..]
            .find(|c: char| c.is_ascii_digit())
            .map(|i| result_at + i)
            .expect("result has a digit");
        let mut bytes = raw.into_bytes();
        bytes[digit_at] = if bytes[digit_at] == b'9' { b'8' } else { b'9' };
        cache.corrupt_with(&key, &bytes).unwrap();

        assert!(matches!(
            cache.probe(&key),
            CacheProbe::Corrupt(CorruptKind::DigestMismatch)
        ));
        assert!(
            cache.load(&key).is_none(),
            "a tampered result is never a hit"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_store_is_detected_and_quarantined() {
        let dir = scratch("torn");
        let cache = ResultCache::open(&dir).expect("create cache dir");
        let cell = cell();
        let key = CacheKey::of(&cell);
        cache
            .store_torn(&key, &cell, &cell.run(), 120)
            .expect("publish torn entry");
        assert!(cache.contains(&key), "the torn entry is on disk");
        assert!(matches!(
            cache.probe(&key),
            CacheProbe::Corrupt(CorruptKind::Malformed)
        ));

        let evidence = cache.quarantine(&key).expect("quarantine entry");
        assert!(evidence.starts_with(cache.quarantine_dir()));
        assert!(evidence.is_file(), "evidence preserved");
        assert!(!cache.contains(&key), "slot is free for recomputation");
        assert!(matches!(cache.probe(&key), CacheProbe::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_hex_round_trips_and_rejects_garbage() {
        let key = CacheKey::of(&cell());
        assert_eq!(CacheKey::from_hex(key.hex()), Some(key.clone()));
        assert_eq!(CacheKey::from_hex("campaign-rollup"), None);
        assert_eq!(CacheKey::from_hex(&"A".repeat(64)), None, "uppercase");
        assert_eq!(CacheKey::from_hex(&"a".repeat(63)), None, "short");
    }

    #[test]
    fn scrub_quarantines_exactly_the_corrupt_entries() {
        let dir = scratch("scrub");
        let cache = ResultCache::open(&dir).expect("create cache dir");
        let mut keys = Vec::new();
        for seed in 0..4 {
            let mut c = cell();
            c.seed = seed;
            let key = CacheKey::of(&c);
            cache.store(&key, &c, &c.run()).expect("store entry");
            keys.push(key);
        }
        // Non-entry files must be ignored by the walk.
        fs::write(dir.join("campaign-rollup.json"), "{not an entry").unwrap();
        assert_eq!(cache.keys().unwrap().len(), 4);

        cache.corrupt_with(&keys[1], b"{garbage").unwrap();
        cache.corrupt_with(&keys[3], b"").unwrap();

        // Read-only verify: reports, touches nothing.
        let verify = cache.scrub(false).expect("verify");
        assert_eq!(verify.checked, 4);
        assert_eq!(verify.findings.len(), 2);
        assert!(!verify.clean());
        assert!(verify.findings.iter().all(|f| f.evidence.is_none()));
        assert!(cache.contains(&keys[1]), "verify leaves the bytes");

        // Scrub: corrupt entries move to quarantine, good ones survive.
        let scrub = cache.scrub(true).expect("scrub");
        assert_eq!(scrub.findings.len(), 2);
        for f in &scrub.findings {
            let evidence = f.evidence.as_ref().expect("quarantined");
            assert!(evidence.starts_with(cache.quarantine_dir()));
            assert!(evidence.is_file());
        }
        assert!(!cache.contains(&keys[1]));
        assert!(!cache.contains(&keys[3]));
        assert!(cache.load(&keys[0]).is_some(), "good entries untouched");
        assert!(cache.load(&keys[2]).is_some());
        assert!(cache.scrub(true).expect("rescrub").clean(), "idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spot_check_samples_in_deterministic_order() {
        let dir = scratch("spot");
        let cache = ResultCache::open(&dir).expect("create cache dir");
        let mut keys = Vec::new();
        for seed in 0..3 {
            let mut c = cell();
            c.seed = seed;
            let key = CacheKey::of(&c);
            cache.store(&key, &c, &c.run()).expect("store entry");
            keys.push(key.hex().to_string());
        }
        keys.sort();
        // Corrupt the first key in walk order; limit 2 must catch it.
        let first = CacheKey::from_hex(&keys[0]).unwrap();
        cache.corrupt_with(&first, b"{broken").unwrap();
        let spot = cache.spot_check(2);
        assert_eq!(
            spot,
            SpotCheck {
                checked: 2,
                corrupt: 1
            }
        );
        // Detection only: the bytes stay put for the claim-time probe to
        // quarantine with full cell context.
        assert!(
            matches!(cache.probe(&first), CacheProbe::Corrupt(_)),
            "spot check reports without repairing"
        );
        // A limit past the population checks everything.
        let spot = cache.spot_check(SPOT_CHECK_LIMIT);
        assert_eq!(
            spot,
            SpotCheck {
                checked: 3,
                corrupt: 1
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = scratch("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!(".{}.tmp", "ab".repeat(32)));
        fs::write(&stale, "half-written").unwrap();
        // A published entry and a quarantine dir must survive the sweep.
        let keeper = dir.join("keeper.json");
        fs::write(&keeper, "{}").unwrap();
        let qdir = dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir).unwrap();
        // An orphaned temp file under quarantine/ is swept too; quarantined
        // evidence entries are not.
        let qstale = qdir.join(format!(".{}.tmp", "cd".repeat(32)));
        fs::write(&qstale, "orphan").unwrap();
        let evidence = qdir.join("evidence.json");
        fs::write(&evidence, "{torn").unwrap();

        let cache = ResultCache::open(&dir).expect("open sweeps");
        assert!(!stale.exists(), "stale tmp swept on open");
        assert!(!qstale.exists(), "quarantine orphan swept on open");
        assert!(keeper.exists(), "real entries untouched");
        assert!(evidence.exists(), "quarantined evidence untouched");
        assert!(cache.quarantine_dir().exists(), "quarantine dir untouched");
        assert_eq!(cache.sweep_stale_tmp().unwrap(), 0, "nothing left to sweep");
        let _ = fs::remove_dir_all(&dir);
    }
}
