//! Direct-mapped cache simulator.
//!
//! The paper's client models an on-chip 8 KB direct-mapped data cache
//! and a 16 KB instruction cache (microSPARC-IIep). Cache behaviour
//! determines how many instruction and data references escape to the
//! off-chip DRAM, whose per-access energy dominates (Fig 1's
//! "Main Memory 4.94 nJ" row) and whose latency stalls the pipeline.
//!
//! The simulator is deliberately simple — tag array only, no data —
//! because only hit/miss outcomes matter for energy and time.

use serde::{Deserialize, Serialize};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// The paper's 8 KB direct-mapped data cache (32-byte lines, the
    /// microSPARC-IIep line size).
    pub const fn client_dcache() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
        }
    }

    /// The paper's 16 KB instruction cache.
    pub const fn client_icache() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
        }
    }

    /// Number of lines.
    pub const fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed and went to main memory.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// A direct-mapped, tag-only cache simulator.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// `u64::MAX` marks an invalid (never filled) line.
    tags: Box<[u64]>,
    stats: CacheStats,
    line_shift: u32,
    index_mask: u64,
    /// `log2(lines)`: shift from a line address to its tag.
    tag_shift: u32,
}

const INVALID: u64 = u64::MAX;

impl CacheSim {
    /// Build an empty (all-invalid) cache.
    ///
    /// # Panics
    /// If the configured sizes are not powers of two or the line is
    /// larger than the cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.line_bytes <= config.size_bytes,
            "line larger than cache"
        );
        let lines = config.num_lines();
        CacheSim {
            config,
            tags: vec![INVALID; lines as usize].into_boxed_slice(),
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            index_mask: (lines - 1) as u64,
            tag_shift: lines.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Simulate an access to byte address `addr`. Returns `true` on a
    /// hit; on a miss the line is filled.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let index = (line_addr & self.index_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        // Tags never legitimately equal INVALID for realistic address
        // spaces (< 2^58 bytes), so a plain compare suffices.
        if self.tags[index] == tag {
            self.stats.hits += 1;
            true
        } else {
            self.tags[index] = tag;
            self.stats.misses += 1;
            false
        }
    }

    /// Credit `n` accesses that are statically guaranteed to hit —
    /// used by batched replay ([`crate::SeqPlan`]) when consecutive
    /// fetches stay within a just-accessed line. Counters advance
    /// exactly as if [`CacheSim::access`] had been called `n` times
    /// with the line resident; tags are untouched (hits never modify
    /// them), so the residency state stays bit-identical too.
    #[inline]
    pub fn credit_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Invalidate every line (e.g. after a simulated context switch).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Snapshot the residency state (tag array + counters) for
    /// checkpointing. Geometry is not included — it is configuration,
    /// re-derivable from [`CacheSim::config`].
    pub fn export_state(&self) -> CacheState {
        CacheState {
            tags: self.tags.to_vec(),
            stats: self.stats,
        }
    }

    /// Restore residency state captured by [`CacheSim::export_state`]
    /// on a cache of the same geometry.
    ///
    /// # Panics
    /// If the tag array length does not match this cache's line count.
    pub fn import_state(&mut self, state: &CacheState) {
        assert_eq!(
            state.tags.len(),
            self.tags.len(),
            "cache state geometry mismatch"
        );
        self.tags.copy_from_slice(&state.tags);
        self.stats = state.stats;
    }
}

/// Serializable residency snapshot of a [`CacheSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Tag array contents (`u64::MAX` = invalid line).
    pub tags: Vec<u64>,
    /// Hit/miss counters at snapshot time.
    pub stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        let d = CacheConfig::client_dcache();
        assert_eq!(d.num_lines(), 256);
        let i = CacheConfig::client_icache();
        assert_eq!(i.num_lines(), 512);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same 32-byte line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
        };
        let mut c = CacheSim::new(cfg);
        // Two addresses exactly one cache size apart map to the same
        // direct-mapped set and thrash.
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert!(!c.access(0));
        assert!(!c.access(1024));
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0));
        assert!(c.access(32));
    }

    #[test]
    fn sequential_scan_miss_rate_matches_line_size() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        // Walk 4 KB byte-by-word: one miss per 32-byte line.
        for addr in (0..4096u64).step_by(4) {
            c.access(addr);
        }
        assert_eq!(c.stats().misses, 4096 / 32);
        assert_eq!(c.stats().accesses(), 1024);
        assert!((c.stats().miss_ratio() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        // Two passes over a 32 KB array (4x the 8 KB cache): every
        // line access misses on both passes.
        for _ in 0..2 {
            for addr in (0..32 * 1024u64).step_by(32) {
                c.access(addr);
            }
        }
        assert_eq!(c.stats().misses, 2 * 1024);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        for _ in 0..2 {
            for addr in (0..4 * 1024u64).step_by(32) {
                c.access(addr);
            }
        }
        // First pass misses (128 lines), second pass hits entirely.
        assert_eq!(c.stats().misses, 128);
        assert_eq!(c.stats().hits, 128);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = CacheSim::new(CacheConfig::client_dcache());
        c.access(64);
        assert!(c.access(64));
        c.flush();
        assert!(!c.access(64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = CacheSim::new(CacheConfig {
            size_bytes: 3000,
            line_bytes: 32,
        });
    }
}
