//! Atomic file publication shared by every on-disk artifact.
//!
//! Every file the harness publishes is written to a hidden sibling temp
//! file and renamed into place, so a reader always sees either the
//! previous complete file or the next one — never a torn one.
//!
//! - [`write_atomic_durable`] also fsyncs the temp file *before* the
//!   rename (so the published name can never point at bytes the kernel
//!   hasn't flushed) and best-effort fsyncs the parent directory after it
//!   (so the rename itself survives a power cut, not just a process
//!   kill). The checkpoint manifest and the `mcd-check` fuzzer's repro
//!   files publish this way.
//! - [`write_atomic`] skips both fsyncs. Result-cache entries, slack
//!   profiles and the campaign rollup publish this way: each is checked
//!   by digest or can be recomputed, so a power cut costs at most a
//!   recomputation.
//!
//! Crashes between create and rename leave a `.{name}.tmp` dropping;
//! [`sweep_stale_tmp`] removes those on the next startup.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The hidden sibling temp name used for in-flight writes: `.{name}.tmp`
/// next to the destination.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".to_string());
    name.push_str(".tmp");
    path.with_file_name(format!(".{name}"))
}

/// Writes `bytes` to `path` atomically and durably (temp, fsync, rename,
/// parent-directory fsync). On success the full content is on disk
/// under `path`; on failure `path` is untouched (a temp dropping may
/// remain for [`sweep_stale_tmp`]).
pub fn write_atomic_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Directory fsync is best-effort: some filesystems refuse it, and
    // the rename is already process-crash-safe without it.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically (temp, rename) without any fsync.
/// On success `path` holds the full content; on failure `path` is
/// untouched (a temp dropping may remain for [`sweep_stale_tmp`]).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Removes `.{name}.tmp` droppings from one directory (non-recursive),
/// returning how many were swept. Used by the result cache, its
/// quarantine directory, the slack store, and the fuzzer's
/// `check-failures/` output dir.
pub fn sweep_stale_tmp(dir: &Path) -> io::Result<usize> {
    let mut swept = 0;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && name.starts_with('.') && name.ends_with(".tmp") {
            fs::remove_file(&path)?;
            swept += 1;
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcd-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publishes_full_bytes_and_leaves_no_temp() {
        let dir = scratch("publish");
        let path = dir.join("artifact.json");
        write_atomic_durable(&path, b"{\"ok\": true}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"ok\": true}");
        assert!(!tmp_path(&path).exists(), "temp renamed away");
        // Overwrite is equally atomic.
        write_atomic_durable(&path, b"v2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_only_tmp_droppings() {
        let dir = scratch("sweep");
        fs::write(dir.join(".artifact.json.tmp"), b"torn").unwrap();
        fs::write(dir.join(".other.tmp"), b"torn").unwrap();
        fs::write(dir.join("keep.json"), b"good").unwrap();
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 2);
        assert!(dir.join("keep.json").exists());
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0, "idempotent");
        let _ = fs::remove_dir_all(&dir);
    }
}
