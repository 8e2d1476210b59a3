//! Data caches and the L1 → L2 → DRAM data path.

use batmem_types::config::{CacheGeometry, MemConfig};
use batmem_types::{Cycle, VirtAddr};

/// Statistics for one data cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a resident line from a full set.
    pub conflict_evictions: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.conflict_evictions += other.conflict_evictions;
    }
}

/// Set-index arithmetic.
///
/// The modulo in `line % num_sets` is a `u64` division on the hottest
/// path of the data model; when the set count is a power of two (every
/// realistic geometry) it collapses to a mask.
#[derive(Debug, Clone, Copy)]
struct SetIndexer {
    num_sets: u64,
    /// `Some(num_sets - 1)` when the set count is a power of two.
    mask: Option<u64>,
}

impl SetIndexer {
    fn new(num_sets: u64) -> Self {
        Self { num_sets, mask: num_sets.is_power_of_two().then(|| num_sets - 1) }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (match self.mask {
            Some(m) => line & m,
            None => line % self.num_sets,
        }) as usize
    }
}

/// Marks an empty way in [`DataCache`]'s tag array. Only the last byte of
/// the 64-bit address space at a 1-byte line could reach it.
const EMPTY: u64 = u64::MAX;

/// A set-associative, true-LRU data cache over cache-line ids.
///
/// Purely a tag model: hit/miss drives latency, no data is stored. Tags
/// live in one flat `sets × ways` array. Each set's ways are ordered
/// most recently used first, with empty ways ([`EMPTY`]) padded at the
/// tail, so a lookup scans from the front and an access moves its line
/// to the front by sliding the ways before it down one slot.
#[derive(Debug, Clone)]
pub struct DataCache {
    tags: Vec<u64>,
    indexer: SetIndexer,
    ways: usize,
    line_shift: u32,
    hit_latency: Cycle,
    stats: CacheStats,
}

impl DataCache {
    /// Builds a cache from its geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.num_sets() as u64;
        Self {
            tags: vec![EMPTY; sets as usize * geom.ways as usize],
            indexer: SetIndexer::new(sets),
            ways: geom.ways as usize,
            line_shift: geom.line_shift,
            hit_latency: geom.hit_latency,
            stats: CacheStats::default(),
        }
    }

    /// The cache-line id of `addr`.
    pub fn line_of(&self, addr: VirtAddr) -> u64 {
        addr.line(self.line_shift)
    }

    /// Accesses the line containing `addr`: returns `true` on hit, and
    /// fills the line (evicting LRU) on miss.
    pub fn access(&mut self, addr: VirtAddr) -> bool {
        let line = self.line_of(addr);
        debug_assert_ne!(line, EMPTY, "line id collides with the empty-way marker");
        let first = self.indexer.set_of(line) * self.ways;
        let set = &mut self.tags[first..first + self.ways];
        // Temporal locality puts the hit near the MRU front.
        let hit = set.iter().position(|&l| l == line);
        let mut pos = match hit {
            Some(pos) => {
                self.stats.hits += 1;
                pos
            }
            None => {
                // A miss drops the tail way: the LRU line when the set is
                // full, else one of the empty ways padded there.
                self.stats.misses += 1;
                if set[set.len() - 1] != EMPTY {
                    self.stats.conflict_evictions += 1;
                }
                set.len() - 1
            }
        };
        // Slide the more recent ways down over `pos` and put the line in
        // front.
        while pos > 0 {
            set[pos] = set[pos - 1];
            pos -= 1;
        }
        set[0] = line;
        hit.is_some()
    }

    /// The hit latency of this cache.
    pub fn hit_latency(&self) -> Cycle {
        self.hit_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// The data path: per-SM L1 caches, a shared L2, and DRAM.
///
/// [`MemPath::access`] returns the latency of one coalesced transaction.
/// L1 misses are looked up in the L2 and then DRAM, as in the paper's
/// configuration ("L1 misses are coalesced before accessing L2" — we model
/// that coalescing at stream generation time).
#[derive(Debug, Clone)]
pub struct MemPath {
    l1: Vec<DataCache>,
    l2: DataCache,
    dram_latency: Cycle,
}

impl MemPath {
    /// Builds the data path for `num_sms` SMs.
    pub fn new(config: &MemConfig, num_sms: u16) -> Self {
        Self {
            l1: (0..num_sms).map(|_| DataCache::new(config.l1d)).collect(),
            l2: DataCache::new(config.l2d),
            dram_latency: config.dram_latency,
        }
    }

    /// The latency of one transaction from SM `sm` to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access(&mut self, sm: usize, addr: VirtAddr) -> Cycle {
        let l1 = &mut self.l1[sm];
        if l1.access(addr) {
            return l1.hit_latency();
        }
        let l1_lat = l1.hit_latency();
        if self.l2.access(addr) {
            return l1_lat + self.l2.hit_latency();
        }
        l1_lat + self.l2.hit_latency() + self.dram_latency
    }

    /// Combined L1 statistics over all SMs.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l1 {
            s.add(&c.stats());
        }
        s
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> CacheGeometry {
        CacheGeometry { capacity_bytes: 1024, ways: 2, line_shift: 7, hit_latency: 4 }
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = DataCache::new(small_geom());
        let a = VirtAddr::new(0x80);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert!(c.access(VirtAddr::new(0x85))); // same 128B line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1, conflict_evictions: 0 });
    }

    #[test]
    fn lru_within_set() {
        // 1024 B / (2 ways * 128 B) = 4 sets; lines 0, 4, 8 share set 0.
        let mut c = DataCache::new(small_geom());
        let line = |i: u64| VirtAddr::new(i * 128);
        c.access(line(0));
        c.access(line(4));
        c.access(line(0)); // refresh 0; LRU is 4
        c.access(line(8)); // evicts 4
        assert!(c.access(line(0)));
        assert!(!c.access(line(4)));
        assert_eq!(c.stats().conflict_evictions, 2); // line 8 evicted 4, then 4 evicted 8
    }

    #[test]
    fn non_power_of_two_sets_use_the_modulo_path() {
        // 768 B / (2 ways * 128 B) = 3 sets: no mask possible.
        let geom = CacheGeometry { capacity_bytes: 768, ways: 2, line_shift: 7, hit_latency: 4 };
        let mut c = DataCache::new(geom);
        assert!(c.indexer.mask.is_none());
        let line = |i: u64| VirtAddr::new(i * 128);
        // Lines 0 and 3 share set 0; line 1 does not.
        c.access(line(0));
        c.access(line(3));
        c.access(line(6)); // evicts 0 from set 0
        assert!(!c.access(line(0))); // line 0 was evicted, and re-filling evicts 3
        assert_eq!(c.stats().conflict_evictions, 2);
    }

    #[test]
    fn mempath_latency_composition() {
        let mut m = MemPath::new(&MemConfig::default(), 2);
        let a = VirtAddr::new(0x1000);
        // Cold: L1 miss + L2 miss + DRAM.
        assert_eq!(m.access(0, a), 4 + 60 + 200);
        // L1 hit.
        assert_eq!(m.access(0, a), 4);
        // Other SM: own L1 misses, L2 hits.
        assert_eq!(m.access(1, a), 4 + 60);
    }

    #[test]
    fn per_sm_l1_isolation() {
        let mut m = MemPath::new(&MemConfig::default(), 2);
        let a = VirtAddr::new(0x2000);
        m.access(0, a);
        assert_eq!(m.l1_stats().misses, 1);
        m.access(1, a);
        assert_eq!(m.l1_stats().misses, 2);
        assert_eq!(m.l2_stats().hits, 1);
    }
}
