//! Set-associative cache model with true-LRU replacement.
//!
//! Timing is owned by the pipeline (Table 1 latencies: L1 2 cycles, L2 12
//! cycles); this module models *contents* — which accesses hit — plus hit,
//! miss, and writeback statistics for the power model.

use serde::{Deserialize, Serialize};

/// Geometry and identity of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L1 data cache: 64 KB, 2-way.
    pub fn l1d_paper() -> Self {
        CacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// The paper's L1 instruction cache: 64 KB, 2-way.
    pub fn l1i_paper() -> Self {
        CacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// The paper's unified L2: 1 MB, direct mapped.
    pub fn l2_paper() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            ways: 1,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `ways × line`).
    pub fn sets(&self) -> u64 {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.ways > 0);
        let per_way = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(
            per_way > 0 && per_way.is_power_of_two(),
            "cache sets must be a positive power of two, got {per_way}"
        );
        per_way
    }
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio, zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch (true LRU).
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache.
///
/// # Example
///
/// ```
/// use mcd_uarch::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1d_paper());
/// assert!(!l1.access(0x1000, false)); // cold miss
/// assert!(l1.access(0x1000, false));  // now resident
/// assert_eq!(l1.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every line, set-major: set `s` occupies `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    /// Associativity, as a slice length.
    ways: usize,
    /// `sets - 1` (the set count is a power of two).
    set_mask: u64,
    /// `log2(sets)`.
    set_bits: u32,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        let empty = Line {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        Cache {
            config,
            lines: vec![empty; sets as usize * ways],
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.config.line_bytes;
        let start = (line & self.set_mask) as usize * self.ways;
        (start..start + self.ways, line >> self.set_bits)
    }

    /// Performs an access; returns `true` on hit. On a miss the line is
    /// allocated (write-allocate), evicting the LRU way; a dirty eviction is
    /// counted as a writeback.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.locate(addr);
        let ways = &mut self.lines[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= is_write;
            return true;
        }
        self.stats.misses += 1;
        // Victim: invalid way if any, else LRU.
        let victim = match ways.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .expect("ways is non-empty");
                i
            }
        };
        if ways[victim].valid && ways[victim].dirty {
            self.stats.writebacks += 1;
        }
        ways[victim] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        false
    }

    /// Whether `addr` is currently resident (no state change, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.lines[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Clears accumulated statistics (keeps contents) — used after cache
    /// warm-up so measured runs start with warm structures but clean counts.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::l1d_paper().sets(), 512);
        assert_eq!(CacheConfig::l1i_paper().sets(), 512);
        assert_eq!(CacheConfig::l2_paper().sets(), 16 * 1024);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::l1d_paper());
        assert!(!c.access(0x40, false));
        assert!(c.access(0x40, false));
        assert!(c.access(0x7f, false), "same line");
        assert!(!c.access(0x80, false), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: fill both ways of a set, touch the first, then insert a
        // third conflicting line — the untouched way must be evicted.
        let cfg = CacheConfig::l1d_paper();
        let set_stride = cfg.sets() * cfg.line_bytes; // same set, new tag
        let mut c = Cache::new(cfg);
        c.access(0, false);
        c.access(set_stride, false);
        c.access(0, false); // refresh line A
        c.access(2 * set_stride, false); // evicts line B
        assert!(c.probe(0));
        assert!(!c.probe(set_stride));
        assert!(c.probe(2 * set_stride));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let cfg = CacheConfig::l2_paper(); // direct mapped: ways = 1
        let set_stride = cfg.sets() * cfg.line_bytes;
        let mut c = Cache::new(cfg);
        c.access(0, true); // dirty
        c.access(set_stride, false); // evicts dirty line
        assert_eq!(c.stats().writebacks, 1);
        c.access(2 * set_stride, false); // evicts clean line
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn hot_set_fits_in_l1() {
        // A 16 KB working set in a 64 KB cache: after warm-up, all hits.
        let mut c = Cache::new(CacheConfig::l1d_paper());
        for pass in 0..3 {
            for addr in (0..16 * 1024u64).step_by(64) {
                let hit = c.access(addr, false);
                if pass > 0 {
                    assert!(hit, "addr {addr:#x} should be resident");
                }
            }
        }
        assert_eq!(c.stats().misses, 256);
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = Cache::new(CacheConfig::l1d_paper());
        c.access(0x1234, true);
        assert!(c.probe(0x1234));
        c.flush();
        assert!(!c.probe(0x1234));
    }

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
