//! Host resource accounting: CPU time, peak resident set size, and the
//! host's current speed.

use std::hint::black_box;
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen
/// `long` counters, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time and peak memory of a set of processes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Largest resident set size reached by any one process, MiB.
    pub peak_rss_mb: f64,
}

fn query(who: i32) -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
    // x86-64/aarch64 layout declared above, and `who` is one of the two
    // values getrusage(2) accepts.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        peak_rss_mb: raw.counters[0] as f64 / 1024.0,
    }
}

/// This process plus every child it has waited for: CPU time summed,
/// peak RSS of the largest single process.
pub fn process_tree() -> Usage {
    let own = query(RUSAGE_SELF);
    let children = query(RUSAGE_CHILDREN);
    Usage {
        cpu_s: own.cpu_s + children.cpu_s,
        peak_rss_mb: own.peak_rss_mb.max(children.peak_rss_mb),
    }
}

/// A fixed integer kernel, timed to gauge how fast the host runs right
/// now: an LCG driving read-modify-writes of a per-thread table. The kernel
/// is the benchmark's own code, so no change to the repository moves its
/// time; only the host's speed does, which on a shared host drifts by up to
/// a quarter over minutes.
pub struct Calibration {
    /// Kernel steps per thread.
    pub steps: u64,
    /// Seconds the kernel takes on the reference host: 2 vCPUs of an Intel
    /// Xeon with no neighbour load.
    pub reference_s: f64,
}

impl Calibration {
    /// Before and after every pass, on `nproc` threads.
    pub const PASS: Calibration = Calibration {
        steps: 20_000_000,
        reference_s: 0.21,
    };
    /// Right after each timed set-up, in the same process and on one
    /// thread: short, so it sees the host as the set-up did.
    pub const SETUP: Calibration = Calibration {
        steps: 200_000,
        reference_s: 0.0025,
    };

    /// The reference host's speed over this host's: times the kernel on
    /// `threads` threads at once. Multiplying a time by it gives seconds on
    /// the reference host.
    pub fn speed(&self, threads: usize) -> f64 {
        self.reference_s / calibrate(threads, self.steps)
    }
}

/// Table words per calibration thread: 512 KiB, so the kernel runs from
/// the core's own caches and times the core, not shared memory bandwidth.
const CALIBRATION_WORDS: usize = 1 << 16;

/// Seconds [`Calibration`]'s kernel takes for `steps` steps on `threads`
/// threads at once.
fn calibrate(threads: usize, steps: u64) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for k in 0..threads.max(1) {
            s.spawn(move || {
                let mut table = vec![0u64; CALIBRATION_WORDS];
                let mut x = 0x9e37_79b9_7f4a_7c15 ^ k as u64;
                for i in 0..steps {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let j = (x >> 20) as usize & (CALIBRATION_WORDS - 1);
                    table[j] = table[j].wrapping_add(i ^ x);
                    if table[j] & 3 == 0 {
                        x ^= table[(j + 1) & (CALIBRATION_WORDS - 1)];
                    }
                }
                black_box(table);
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// Cores available to this process; the benchmark never runs more threads
/// or worker connections than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`, for result records.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
