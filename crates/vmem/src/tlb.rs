//! Set-associative, LRU translation lookaside buffers.

use batmem_types::{PageId, RegionId};

/// A tag a [`Tlb`] can cache: base pages for the classic TLBs, large-page
/// groups ([`RegionId`]) for the coalesced-mapping TLBs.
pub trait TlbKey: Copy + PartialEq + std::fmt::Debug {
    /// Dense index: selects the set, and the key's slot in the TLB's
    /// key → way index, which grows to the largest key inserted.
    fn cache_index(self) -> u64;
}

impl TlbKey for PageId {
    fn cache_index(self) -> u64 {
        self.index()
    }
}

impl TlbKey for RegionId {
    fn cache_index(self) -> u64 {
        self.index()
    }
}

/// Hit/miss statistics for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Hit rate in [0, 1]; 0 when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Marks a key with no resident way in [`Tlb`]'s index.
const NO_WAY: u32 = u32::MAX;

/// A set-associative TLB with true-LRU replacement within each set.
///
/// A fully associative TLB (the paper's per-SM L1 TLB) is one set whose way
/// count equals the entry count. The tag type defaults to [`PageId`]; the
/// large-page TLBs instantiate it with [`RegionId`] tags.
///
/// Tags live in one flat `sets × ways` array with a last-use stamp per
/// way, and a dense index maps each key to the way holding it. A hit is
/// one index read plus a stamp write, however wide the set; only a fill
/// scans its set's stamps, for an empty way or the LRU victim (the
/// smallest stamp). Keys are dense by construction (page ids, large-page
/// groups, page-walk-cache groups), so the index is a plain vector grown
/// on demand.
///
/// # Examples
///
/// ```
/// use batmem_vmem::Tlb;
/// use batmem_types::PageId;
///
/// let mut tlb = Tlb::fully_associative(2);
/// tlb.insert(PageId::new(1));
/// tlb.insert(PageId::new(2));
/// tlb.insert(PageId::new(3)); // evicts page 1 (LRU)
/// assert!(!tlb.lookup(PageId::new(1)));
/// assert!(tlb.lookup(PageId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb<K: TlbKey = PageId> {
    /// `index[key.cache_index()]` is the flat way holding `key`, or
    /// [`NO_WAY`]. Keys past the end have no way.
    index: Vec<u32>,
    /// Way `s * ways + w` is way `w` of set `s`; `None` is an empty way.
    tags: Vec<Option<K>>,
    /// Last-use stamp per way; 0 for an empty way, so a fill takes an
    /// empty way before it evicts.
    stamps: Vec<u64>,
    /// Source of stamps: bumped on every hit and fill.
    clock: u64,
    num_sets: u64,
    ways: usize,
    stats: TlbStats,
}

impl<K: TlbKey> Tlb<K> {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(ways > 0 && entries > 0, "TLB must have entries");
        assert_eq!(entries % ways, 0, "entries must divide into ways");
        Self {
            index: Vec::new(),
            tags: vec![None; entries as usize],
            stamps: vec![0; entries as usize],
            clock: 0,
            num_sets: u64::from(entries / ways),
            ways: ways as usize,
            stats: TlbStats::default(),
        }
    }

    /// Creates a fully associative TLB of `entries` entries.
    pub fn fully_associative(entries: u32) -> Self {
        Self::new(entries, entries)
    }

    /// The way holding `key`, if it is resident.
    #[inline]
    fn way_of(&self, key: K) -> Option<usize> {
        let way = *self.index.get(usize::try_from(key.cache_index()).ok()?)?;
        (way != NO_WAY).then_some(way as usize)
    }

    /// Marks `way` most recently used.
    #[inline]
    fn touch(&mut self, way: usize) {
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    /// Points `key`'s index slot at `way`, growing the index if needed.
    fn set_way(&mut self, key: K, way: u32) {
        let i = usize::try_from(key.cache_index()).expect("TLB key fits the address space");
        if i >= self.index.len() {
            self.index.resize(i + 1, NO_WAY);
        }
        self.index[i] = way;
    }

    /// Looks up `page`, updating LRU state. Returns `true` on a hit.
    #[inline]
    pub fn lookup(&mut self, page: K) -> bool {
        if let Some(way) = self.way_of(page) {
            self.touch(way);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Checks for `page` without perturbing LRU state or statistics.
    pub fn contains(&self, page: K) -> bool {
        self.way_of(page).is_some()
    }

    /// Inserts `page` as most recently used, evicting the set's LRU entry
    /// if the set is full. Returns the evicted page, if any.
    pub fn insert(&mut self, page: K) -> Option<K> {
        if let Some(way) = self.way_of(page) {
            self.touch(way);
            return None;
        }
        let first = (page.cache_index() % self.num_sets) as usize * self.ways;
        // Empty ways carry stamp 0 and live stamps are unique, so the
        // smallest stamp is an empty way if there is one, else the LRU way.
        let way = (first..first + self.ways)
            .min_by_key(|&w| self.stamps[w])
            .expect("a set has at least one way");
        let victim = self.tags[way].replace(page);
        if let Some(old) = victim {
            self.set_way(old, NO_WAY);
        }
        self.set_way(page, way as u32);
        self.touch(way);
        victim
    }

    /// Invalidates `page` (TLB shootdown on eviction). Returns whether the
    /// page was present.
    pub fn invalidate(&mut self, page: K) -> bool {
        let Some(way) = self.way_of(page) else {
            return false;
        };
        self.tags[way] = None;
        self.stamps[way] = 0;
        self.set_way(page, NO_WAY);
        self.stats.shootdowns += 1;
        true
    }

    /// Current number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId::new(i)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = Tlb::fully_associative(3);
        t.insert(p(1));
        t.insert(p(2));
        t.insert(p(3));
        assert!(t.lookup(p(1))); // 1 becomes MRU; LRU is now 2
        let evicted = t.insert(p(4));
        assert_eq!(evicted, Some(p(2)));
        assert!(t.contains(p(1)) && t.contains(p(3)) && t.contains(p(4)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut t = Tlb::fully_associative(2);
        t.insert(p(1));
        t.insert(p(2));
        assert_eq!(t.insert(p(1)), None); // refresh
        assert_eq!(t.insert(p(3)), Some(p(2)));
    }

    #[test]
    fn set_mapping_isolates_conflicts() {
        // 4 entries, 2 ways -> 2 sets. Pages 0,2,4 map to set 0; 1,3 to set 1.
        let mut t = Tlb::new(4, 2);
        t.insert(p(0));
        t.insert(p(2));
        t.insert(p(1));
        let evicted = t.insert(p(4)); // set 0 overflows
        assert_eq!(evicted, Some(p(0)));
        assert!(t.contains(p(1))); // other set untouched
    }

    #[test]
    fn stats_count_hits_misses_shootdowns() {
        let mut t = Tlb::fully_associative(2);
        assert!(!t.lookup(p(9)));
        t.insert(p(9));
        assert!(t.lookup(p(9)));
        t.invalidate(p(9));
        assert!(!t.lookup(p(9)));
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.shootdowns, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let mut t = Tlb::fully_associative(2);
        assert!(!t.invalidate(p(5)));
        assert_eq!(t.stats().shootdowns, 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut t = Tlb::new(8, 4);
        for i in 0..100 {
            t.insert(p(i));
            assert!(t.occupancy() <= 8);
        }
    }

    #[test]
    #[should_panic(expected = "entries must divide")]
    fn bad_geometry_panics() {
        let _: Tlb = Tlb::new(10, 4);
    }

    #[test]
    fn region_keyed_tlb_works_identically() {
        let mut t: Tlb<RegionId> = Tlb::fully_associative(2);
        t.insert(RegionId::new(1));
        t.insert(RegionId::new(2));
        assert_eq!(t.insert(RegionId::new(3)), Some(RegionId::new(1)));
        assert!(t.lookup(RegionId::new(2)));
        assert!(t.invalidate(RegionId::new(2)));
        assert_eq!(t.stats().shootdowns, 1);
    }
}
