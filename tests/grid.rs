//! Loopback grid suite: coordinator + workers over 127.0.0.1.
//!
//! The assertion is always the determinism invariant the grid advertises:
//! the campaign's canonical result JSON is byte-identical to an
//! uninterrupted serial run — across worker counts, a worker killed
//! mid-campaign (reassignment), a wedged worker (heartbeat eviction),
//! and an interrupt/resume cycle through the checkpoint manifest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcd::grid::wire::{hello, read_frame, write_frame, Frame, WorkerFingerprint};
use mcd::grid::{AbortMode, GridError, GridServer, GridWorker};
use mcd::harness::telemetry::replay;
use mcd::harness::{
    Campaign, CampaignReport, CampaignRollup, CampaignSpec, Fault, FaultPlan, ResultCache,
    Telemetry, ROLLUP_FILE,
};
use mcd::time::DvfsModel;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcd-grid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec!["adpcm".into(), "mst".into(), "art".into()],
        seeds: vec![5, 7],
        instructions: 2_500,
        models: vec![DvfsModel::XScale],
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

/// The serial reference: the same spec run by the local campaign engine
/// on a throwaway cache.
fn serial_json(spec: &CampaignSpec, dir: &std::path::Path) -> String {
    let cache = ResultCache::open(dir.join("serial-cache")).expect("serial cache");
    Campaign::new(spec.clone())
        .workers(1)
        .run(&cache, &Telemetry::disabled())
        .expect("serial run")
        .to_json()
        .expect("serial run finishes every cell")
}

/// Runs a bound coordinator on its own thread against a cache at
/// `cache_dir`, returning the report when the campaign ends.
fn spawn_server(
    server: GridServer,
    cache_dir: PathBuf,
    telemetry: Telemetry,
) -> thread::JoinHandle<CampaignReport> {
    thread::spawn(move || {
        let cache = ResultCache::open(&cache_dir).expect("grid cache");
        server.run(&cache, &telemetry).expect("grid campaign")
    })
}

#[test]
fn loopback_grid_is_byte_identical_to_serial_for_1_2_and_4_workers() {
    let dir = scratch("counts");
    let spec = small_spec();
    let reference = serial_json(&spec, &dir);

    for workers in [1usize, 2, 4] {
        let cache_dir = dir.join(format!("cache-{workers}"));
        let server =
            GridServer::bind(Campaign::new(spec.clone()), "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());

        let worker_handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker = GridWorker::connect(addr.to_string()).name(format!("w{w}"));
                thread::spawn(move || worker.run().expect("worker run"))
            })
            .collect();

        let report = coordinator.join().expect("coordinator thread");
        let summaries: Vec<_> = worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();

        assert!(!report.interrupted);
        assert_eq!(
            report.to_json().expect("grid run finishes every cell"),
            reference,
            "{workers}-worker grid bytes differ from serial"
        );
        // Workers can't tell audits from first assignments, so their
        // summaries count both; the rollup says how many were audits.
        let rollup = CampaignRollup::load(&cache_dir.join(ROLLUP_FILE)).expect("rollup");
        let grid = rollup.grid.expect("grid rollup");
        let worker_audits: u64 = grid.workers.iter().map(|w| w.audits).sum();
        let computed: u64 = summaries.iter().map(|s| s.cells).sum();
        assert_eq!(
            computed as usize,
            report.computed() + worker_audits as usize
        );
        assert_eq!(report.computed() + report.cached(), report.cells.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn governed_loopback_grid_is_byte_identical_to_serial() {
    // The policy axis rides inside the Assign payload's cell spec, so a
    // governed campaign must survive the wire round trip with the same
    // bytes a serial run produces — including the per-policy online rows.
    let dir = scratch("governed");
    let mut spec = small_spec();
    spec.benchmarks = vec!["adpcm".into(), "mst".into()];
    spec.seeds = vec![5];
    spec.policies = vec!["attack-decay".into(), "queue-pi:setpoint=0.6".into()];
    let reference = serial_json(&spec, &dir);

    for workers in [1usize, 2] {
        let cache_dir = dir.join(format!("cache-{workers}"));
        let server =
            GridServer::bind(Campaign::new(spec.clone()), "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let coordinator = spawn_server(server, cache_dir, Telemetry::disabled());
        let worker_handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker = GridWorker::connect(addr.to_string()).name(format!("gov{w}"));
                thread::spawn(move || worker.run().expect("worker run"))
            })
            .collect();
        let report = coordinator.join().expect("coordinator thread");
        for h in worker_handles {
            h.join().expect("worker thread");
        }
        assert_eq!(
            report.to_json().expect("grid run finishes every cell"),
            reference,
            "{workers}-worker governed grid bytes differ from serial"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_evicted_and_its_cell_reassigned() {
    let dir = scratch("kill");
    let spec = small_spec();
    let reference = serial_json(&spec, &dir);
    let cache_dir = dir.join("cache");

    let server = GridServer::bind(Campaign::new(spec), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());

    // The victim takes one cell, then drops dead on its second
    // assignment; the survivor finishes everything, including the
    // reassigned cell. The victim runs alone to its abort, so it is sure to
    // get that second assignment before the survivor can drain the queue.
    GridWorker::connect(addr.to_string())
        .name("victim")
        .abort_after(2, AbortMode::Disconnect)
        .run()
        .expect("victim exits cleanly");
    GridWorker::connect(addr.to_string())
        .name("survivor")
        .run()
        .expect("survivor run");

    let report = coordinator.join().expect("coordinator thread");

    assert_eq!(
        report
            .to_json()
            .expect("campaign completes despite the kill"),
        reference,
        "reassignment changed the result bytes"
    );
    let rollup = CampaignRollup::load(
        &ResultCache::open(&cache_dir)
            .unwrap()
            .dir()
            .join(ROLLUP_FILE),
    )
    .expect("rollup saved");
    let grid = rollup.grid.expect("grid attribution present");
    assert!(
        grid.reassignments >= 1,
        "the killed worker's in-flight cell was reassigned"
    );
    assert!(grid.workers.len() >= 2, "both workers attributed");
    assert!(grid.wire_bytes_in > 0 && grid.wire_bytes_out > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedged_worker_is_evicted_on_heartbeat_timeout() {
    let dir = scratch("wedge");
    let spec = small_spec();
    let reference = serial_json(&spec, &dir);

    // Healthy workers heartbeat every 50 ms, well inside the 300 ms window.
    let server = GridServer::bind(Campaign::new(spec), "127.0.0.1:0")
        .expect("bind")
        .heartbeats(Duration::from_millis(50), Duration::from_millis(300))
        .expect("timeout exceeds interval");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, dir.join("cache"), Telemetry::disabled());

    // The wedge holds its socket open but goes silent forever; its thread
    // is deliberately detached (it dies with the test process). Only the
    // heartbeat timeout can reclaim its cell.
    let wedge = GridWorker::connect(addr.to_string())
        .name("wedge")
        .abort_after(1, AbortMode::Wedge);
    thread::spawn(move || {
        let _ = wedge.run();
    });
    let healthy = GridWorker::connect(addr.to_string()).name("healthy");
    let healthy = thread::spawn(move || healthy.run().expect("healthy run"));

    let report = coordinator.join().expect("coordinator thread");
    healthy.join().expect("healthy thread");
    assert_eq!(
        report
            .to_json()
            .expect("campaign completes despite the wedge"),
        reference,
        "heartbeat eviction changed the result bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_grid_campaign_resumes_from_checkpoint() {
    let dir = scratch("resume");
    let spec = small_spec();
    let reference = serial_json(&spec, &dir);
    let cache_dir = dir.join("cache");
    let checkpoint = dir.join("checkpoint.json");

    // Phase 1: drain after two computed results, as if SIGINT landed.
    let interrupt = Arc::new(AtomicBool::new(false));
    let campaign = Campaign::new(spec.clone())
        .checkpoint(&checkpoint)
        .interrupt(Arc::clone(&interrupt))
        .chaos(FaultPlan::new(vec![Fault::InterruptAfter { computed: 2 }]));
    let server = GridServer::bind(campaign, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());
    let worker = GridWorker::connect(addr.to_string()).name("first");
    let worker = thread::spawn(move || worker.run().expect("first worker"));

    let report = coordinator.join().expect("coordinator thread");
    let summary = worker.join().expect("worker thread");
    assert!(report.interrupted, "the drain marks the report interrupted");
    assert!(
        interrupt.load(Ordering::SeqCst),
        "the interrupt flag was raised"
    );
    assert!(
        report.skipped() > 0,
        "unclaimed cells were skipped, not run"
    );
    assert!(
        summary.drained,
        "the worker was told to drain, not shut down"
    );
    assert!(checkpoint.is_file(), "a resumable checkpoint exists");

    // Phase 2: resume from the manifest alone — the spec is embedded.
    let campaign = Campaign::from_checkpoint(&checkpoint).expect("resume from checkpoint");
    let server = GridServer::bind(campaign, "127.0.0.1:0").expect("bind resume");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir, Telemetry::disabled());
    let worker = GridWorker::connect(addr.to_string()).name("second");
    let worker = thread::spawn(move || worker.run().expect("second worker"));

    let resumed = coordinator.join().expect("resumed coordinator");
    worker.join().expect("second worker thread");
    assert!(!resumed.interrupted);
    assert!(
        resumed.cached() >= 2,
        "phase-1 results came back from the cache, not recomputation"
    );
    assert_eq!(
        resumed.to_json().expect("resume finishes every cell"),
        reference,
        "interrupt/resume changed the result bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_cached_rerun_completes_with_zero_workers() {
    let dir = scratch("cached");
    let spec = small_spec();
    let cache_dir = dir.join("cache");

    // Seed the cache with a one-worker grid run.
    let server = GridServer::bind(Campaign::new(spec.clone()), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());
    let worker = GridWorker::connect(addr.to_string());
    let worker = thread::spawn(move || worker.run().expect("seed worker"));
    let seeded = coordinator.join().expect("seed run");
    worker.join().expect("seed worker thread");

    // Every cell is now a hit: the rerun needs no workers at all.
    let server = GridServer::bind(Campaign::new(spec), "127.0.0.1:0").expect("bind rerun");
    let cache = ResultCache::open(&cache_dir).expect("cache");
    let report = server
        .run(&cache, &Telemetry::disabled())
        .expect("cached rerun");
    assert_eq!(report.cached(), report.cells.len());
    assert_eq!(report.to_json(), seeded.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_side_deterministic_panic_propagates_as_a_failed_cell() {
    let dir = scratch("panic");
    let cache_dir = dir.join("cache");

    let server = GridServer::bind(Campaign::new(small_spec()), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());

    // Cell 0 panics identically on every attempt at the worker; the
    // deterministic verdict must reach the coordinator instead of the cell
    // being endlessly reassigned.
    let worker = GridWorker::connect(addr.to_string()).chaos(FaultPlan::new(vec![Fault::Panic {
        cell: 0,
        attempts: u32::MAX,
    }]));
    let worker = thread::spawn(move || worker.run().expect("worker run"));

    let report = coordinator.join().expect("coordinator thread");
    worker.join().expect("worker thread");

    assert_eq!(report.failed(), 1, "exactly the poisoned cell failed");
    assert_eq!(
        report.computed() + report.cached(),
        report.cells.len() - 1,
        "every other cell still finished"
    );
    assert!(
        report.to_json().is_none(),
        "an unfinished campaign has no canonical document"
    );
    let rollup = CampaignRollup::load(
        &ResultCache::open(&cache_dir)
            .unwrap()
            .dir()
            .join(ROLLUP_FILE),
    )
    .expect("rollup saved");
    assert!(
        rollup
            .stall_causes
            .iter()
            .any(|c| c.cause == "panic-deterministic" && c.cells == 1),
        "the failure is attributed to a deterministic panic: {:?}",
        rollup.stall_causes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lying_worker_is_caught_quarantined_and_blamed() {
    let dir = scratch("liar");
    let spec = small_spec();
    let cells = spec.benchmarks.len() * spec.seeds.len() * spec.models.len();
    let reference = serial_json(&spec, &dir);
    let cache_dir = dir.join("cache");

    // Audit every worker-computed cell so the liar cannot slip a single
    // forged result past the coordinator.
    let server = GridServer::bind(Campaign::new(spec), "127.0.0.1:0")
        .expect("bind")
        .audit_rate(1);
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, cache_dir.clone(), Telemetry::disabled());

    // The liar connects first (so it is guaranteed at least one
    // assignment) and forges every result it reports; three honest
    // workers join right behind it and serve as auditors.
    let liar = GridWorker::connect(addr.to_string())
        .name("liar")
        .chaos(FaultPlan::liar(0xDEC0DE, cells));
    let liar = thread::spawn(move || liar.run());
    thread::sleep(Duration::from_millis(50));
    let honest: Vec<_> = (0..3)
        .map(|w| {
            let worker = GridWorker::connect(addr.to_string()).name(format!("honest{w}"));
            thread::spawn(move || worker.run().expect("honest worker"))
        })
        .collect();

    let report = coordinator.join().expect("coordinator thread");
    let verdict = liar.join().expect("liar thread");
    for h in honest {
        h.join().expect("honest thread");
    }

    assert!(
        matches!(verdict, Err(GridError::Rejected(ref r)) if r.contains("diverged")),
        "the liar was evicted mid-session, got {verdict:?}"
    );
    assert_eq!(
        report
            .to_json()
            .expect("campaign still finishes every cell"),
        reference,
        "forged results leaked into the published bytes"
    );

    let rollup = CampaignRollup::load(
        &ResultCache::open(&cache_dir)
            .unwrap()
            .dir()
            .join(ROLLUP_FILE),
    )
    .expect("rollup saved");
    assert!(!rollup.healthy(), "divergences make the campaign unhealthy");
    let grid = rollup.grid.expect("grid attribution present");
    assert!(grid.divergences >= 1, "at least one audit diverged");
    assert_eq!(grid.quarantined_workers, 1, "exactly the liar quarantined");
    let blamed: Vec<_> = grid
        .workers
        .iter()
        .filter(|w| w.quarantined)
        .map(|w| w.peer.clone())
        .collect();
    assert_eq!(blamed.len(), 1, "exactly one worker blamed: {blamed:?}");
    assert!(
        blamed[0].starts_with("liar@"),
        "blame names the liar: {blamed:?}"
    );
    assert!(
        grid.workers
            .iter()
            .any(|w| !w.quarantined && w.verified > 0),
        "honest workers accumulated verified audits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_mismatch_is_rejected_at_handshake() {
    let dir = scratch("reject");
    let server = GridServer::bind(Campaign::new(small_spec()), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, dir.join("cache"), Telemetry::disabled());

    // A peer speaking the wrong protocol version gets a Reject, never an
    // assignment.
    let mut bogus = std::net::TcpStream::connect(addr).expect("connect");
    write_frame(
        &mut bogus,
        &Frame::Hello {
            protocol: "mcd-grid-wire/999".into(),
            worker: "time-traveler".into(),
            spec_digest: String::new(),
            fingerprint: WorkerFingerprint::current(""),
        },
    )
    .expect("send bogus hello");
    let (frame, _) = read_frame(&mut bogus).expect("read response");
    assert!(
        matches!(frame, Frame::Reject { ref reason } if reason.contains("mcd-grid-wire/2")),
        "got {frame:?}"
    );
    drop(bogus);

    // A digest-pinned worker for a different campaign is refused too.
    let mut wrong = std::net::TcpStream::connect(addr).expect("connect");
    write_frame(&mut wrong, &hello("stranger", "not-this-campaign")).expect("send hello");
    let (frame, _) = read_frame(&mut wrong).expect("read response");
    assert!(matches!(frame, Frame::Reject { .. }), "got {frame:?}");
    drop(wrong);

    // The campaign itself is unharmed: a real worker finishes it.
    let worker = GridWorker::connect(addr.to_string());
    let worker = thread::spawn(move || worker.run().expect("worker run"));
    let report = coordinator.join().expect("coordinator thread");
    worker.join().expect("worker thread");
    assert!(report.to_json().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_telemetry_is_forwarded_and_attributed() {
    let dir = scratch("telemetry");
    let log = dir.join("campaign.jsonl");

    let server = GridServer::bind(Campaign::new(small_spec()), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let telemetry = Telemetry::to_file(&log).expect("telemetry file");
    let coordinator = spawn_server(server, dir.join("cache"), telemetry);
    let worker = GridWorker::connect(addr.to_string()).name("narrator");
    let worker = thread::spawn(move || worker.run().expect("worker run"));
    coordinator.join().expect("coordinator thread");
    worker.join().expect("worker thread");

    let (events, torn) = replay(&log).expect("replay telemetry");
    assert!(torn.is_none(), "stream is well-formed JSONL");
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some(name))
            .count()
    };
    assert!(named("grid_worker_joined") >= 1);
    assert!(named("grid_cell_assigned") >= 1);
    assert!(named("grid_cell_result") >= 1);
    assert!(
        events
            .iter()
            .any(|e| { e.get("worker").is_some() && e.get("worker_t_us").is_some() }),
        "worker-side events arrive attributed and restamped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heartbeat_timeout_must_exceed_the_interval() {
    let bind = || GridServer::bind(Campaign::new(small_spec()), "127.0.0.1:0").expect("bind");
    for (interval, timeout) in [(2_000, 1_000), (1_000, 1_000)] {
        let refused = bind().heartbeats(
            Duration::from_millis(interval),
            Duration::from_millis(timeout),
        );
        assert!(
            matches!(refused, Err(GridError::Config(ref why)) if why.contains("must exceed")),
            "{interval} ms interval, {timeout} ms timeout: {refused:?}"
        );
    }
    assert!(bind()
        .heartbeats(Duration::from_millis(50), Duration::from_millis(300))
        .is_ok());
}

#[test]
fn hello_without_a_fingerprint_gets_no_assignment() {
    let dir = scratch("no-fingerprint");
    let spec = small_spec();
    let reference = serial_json(&spec, &dir);
    let server = GridServer::bind(Campaign::new(spec), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let coordinator = spawn_server(server, dir.join("cache"), Telemetry::disabled());

    // A `/1`-shaped Hello: current protocol string, no fingerprint key.
    let payload = format!(
        r#"{{"Hello":{{"protocol":"{}","spec_digest":"","worker":"old"}}}}"#,
        mcd::grid::WIRE_PROTOCOL
    );
    let mut frame = ((1 + payload.len()) as u32).to_be_bytes().to_vec();
    frame.push(hello("old", "").tag());
    frame.extend_from_slice(payload.as_bytes());
    let mut old = std::net::TcpStream::connect(addr).expect("connect");
    std::io::Write::write_all(&mut old, &frame).expect("send fingerprint-less hello");
    match read_frame(&mut old) {
        Ok((Frame::Assign { .. }, _)) => panic!("a fingerprint-less Hello was assigned work"),
        Ok((Frame::Welcome { .. }, _)) => panic!("a fingerprint-less Hello was welcomed"),
        Ok(_) | Err(_) => {}
    }
    drop(old);

    // The campaign is unharmed: a real worker finishes it.
    let worker = GridWorker::connect(addr.to_string());
    let worker = thread::spawn(move || worker.run().expect("worker run"));
    let report = coordinator.join().expect("coordinator thread");
    worker.join().expect("worker thread");
    assert_eq!(report.to_json().as_deref(), Some(reference.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}
