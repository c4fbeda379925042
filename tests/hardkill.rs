//! Hard-kill safety: a coordinator process SIGKILLed mid-campaign leaves
//! a checkpoint manifest at most `--checkpoint-every` completed cells
//! behind the result cache, and resuming from that manifest finishes the
//! campaign byte-identical to an uninterrupted serial run without
//! recomputing anything the cache already holds.
//!
//! The coordinator under test is the real `mcd-cli` binary (SIGKILL has
//! to land on a separate process — in-process kills can't bypass Drop
//! handlers the way a real `kill -9` does); the worker and the resume
//! phase run in-process.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use mcd::grid::{GridServer, GridWorker};
use mcd::harness::{Campaign, CampaignSpec, CheckpointManifest, ResultCache, Telemetry};
use mcd::time::DvfsModel;

const CHECKPOINT_EVERY: usize = 2;

fn spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec!["adpcm".into(), "mst".into(), "art".into()],
        seeds: vec![5, 7],
        instructions: 2_500,
        models: vec![DvfsModel::XScale],
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

/// Kills the child on drop so a failing assertion never leaks a live
/// coordinator process.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Counts published result entries (64-hex `.json` files) in the cache
/// without opening a `ResultCache` handle — opening sweeps `.tmp` files,
/// which must not race the live coordinator's in-flight writes.
fn cache_entries(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".json")
                .is_some_and(|stem| stem.len() == 64 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .count()
}

#[test]
fn sigkilled_coordinator_loses_at_most_checkpoint_every_cells() {
    let dir = std::env::temp_dir().join(format!("mcd-hardkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache_dir = dir.join("cache");
    let checkpoint = dir.join("checkpoint.json");

    // Serial reference on a private cache.
    let serial_cache = ResultCache::open(dir.join("serial")).expect("serial cache");
    let reference = Campaign::new(spec())
        .run(&serial_cache, &Telemetry::disabled())
        .expect("serial run")
        .to_json()
        .expect("serial completes");

    // Phase 1: the real binary serves the campaign; SIGKILL lands once
    // the cache holds a couple of results.
    let child = Command::new(env!("CARGO_BIN_EXE_mcd-cli"))
        .args([
            "grid",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--benchmarks",
            "adpcm,mst,art",
            "--seeds",
            "5,7",
            "--instructions",
            "2500",
            "--models",
            "xscale",
            "--checkpoint-every",
            &CHECKPOINT_EVERY.to_string(),
        ])
        .arg("--cache-dir")
        .arg(&cache_dir)
        .arg("--checkpoint")
        .arg(&checkpoint)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mcd-cli coordinator");
    let mut child = KillOnDrop(child);

    // The coordinator announces its bound port on stderr.
    let stderr = child.0.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("coordinator exited before announcing its port")
            .expect("read coordinator stderr");
        if let Some(addr) = line.strip_prefix("grid coordinator listening on ") {
            break addr.trim().to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    thread::spawn(move || for _ in lines {});

    let worker_addr = addr.clone();
    thread::spawn(move || {
        // The worker dies with a connection error when the coordinator is
        // killed; that is the expected outcome, not a test failure.
        let _ = GridWorker::connect(worker_addr).name("doomed").run();
    });

    // SIGKILL once at least two results are published (and while later
    // cells are still in flight, campaign permitting).
    let deadline = Instant::now() + Duration::from_secs(60);
    while cache_entries(&cache_dir) < 2 {
        assert!(Instant::now() < deadline, "campaign never produced results");
        thread::sleep(Duration::from_millis(2));
    }
    child.0.kill().expect("SIGKILL coordinator");
    child.0.wait().expect("reap coordinator");

    // The hard-kill bound: the manifest lags the cache by at most
    // `--checkpoint-every` completed cells. The initial save happens
    // before any work, so the manifest always exists.
    let published = cache_entries(&cache_dir);
    let manifest = CheckpointManifest::load(&checkpoint).expect("manifest survives SIGKILL");
    let recorded = manifest.completed().len();
    assert!(
        published >= recorded,
        "manifest ({recorded}) cannot be ahead of the cache ({published})"
    );
    assert!(
        published - recorded <= CHECKPOINT_EVERY,
        "SIGKILL lost {} done-marks, bound is {CHECKPOINT_EVERY}",
        published - recorded
    );

    // Phase 2: resume in-process from the manifest alone.
    let campaign = Campaign::from_checkpoint(&checkpoint)
        .expect("resume from checkpoint")
        .checkpoint_every(CHECKPOINT_EVERY);
    let server = GridServer::bind(campaign, "127.0.0.1:0").expect("bind resume");
    let resume_addr = server.local_addr().expect("local addr").to_string();
    let cache_dir_2: PathBuf = cache_dir.clone();
    let coordinator = thread::spawn(move || {
        let cache = ResultCache::open(&cache_dir_2).expect("reopen cache");
        server
            .run(&cache, &Telemetry::disabled())
            .expect("resumed campaign")
    });
    let worker = GridWorker::connect(resume_addr).name("reviver");
    let worker = thread::spawn(move || worker.run().expect("resume worker"));

    let resumed = coordinator.join().expect("resumed coordinator");
    worker.join().expect("resume worker thread");
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.to_json().expect("resume finishes every cell"),
        reference,
        "SIGKILL/resume changed the result bytes"
    );
    // Nothing the dead coordinator published is recomputed: the cache,
    // not the manifest, is the source of truth for result bytes.
    assert_eq!(
        resumed.computed(),
        resumed.cells.len() - published,
        "resume recomputed cells the cache already held"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
