//! Property-based tests for the virtual-memory substrate.

use batmem_types::{FrameId, PageId, RegionId};
use batmem_vmem::{GpuPageTable, Tlb, TlbStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum PtOp {
    Install(u64, u32),
    Remove(u64),
    Translate(u64),
}

/// Two-level op mix: base installs/removes plus group promote/splinter.
/// Removes mirror the UVM pipeline's splinter-before-evict discipline.
#[derive(Debug, Clone)]
enum TierOp {
    Install(u64, u32),
    Remove(u64),
    Promote(u64),
    Splinter(u64),
    Translate(u64),
}

/// 8 groups of 4 pages: small enough that promote/splinter cycles are
/// frequent, large enough that partially-resident groups occur.
const PAGES_PER_LARGE: u64 = 4;
const TIER_PAGES: u64 = 32;

fn tier_ops() -> impl Strategy<Value = Vec<TierOp>> {
    let groups = TIER_PAGES / PAGES_PER_LARGE;
    prop::collection::vec(
        // The in-tree proptest subset has no weighted prop_oneof; the
        // double Install arm skews the mix toward filling groups so
        // promotions actually fire.
        prop_oneof![
            (0u64..TIER_PAGES, 0u32..64).prop_map(|(p, f)| TierOp::Install(p, f)),
            (0u64..TIER_PAGES, 0u32..64).prop_map(|(p, f)| TierOp::Install(p, f)),
            (0u64..TIER_PAGES).prop_map(TierOp::Remove),
            (0u64..groups).prop_map(TierOp::Promote),
            (0u64..groups).prop_map(TierOp::Splinter),
            (0u64..TIER_PAGES).prop_map(TierOp::Translate),
        ],
        0..300,
    )
}

#[derive(Debug, Clone)]
enum TlbOp {
    Lookup(u64),
    Insert(u64),
    Invalidate(u64),
    Contains(u64),
}

/// The `Vec`-per-set LRU logic `Tlb` used before its dense index and
/// stamps, kept as the oracle: `sets[s]` is an LRU stack with the most
/// recently used key at the back.
struct OracleTlb {
    sets: Vec<Vec<u64>>,
    ways: usize,
    stats: TlbStats,
}

impl OracleTlb {
    fn new(entries: u32, ways: u32) -> Self {
        Self {
            sets: vec![Vec::new(); (entries / ways) as usize],
            ways: ways as usize,
            stats: TlbStats::default(),
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn lookup(&mut self, key: u64) -> bool {
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.push(k);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn insert(&mut self, key: u64) -> Option<u64> {
        let ways = self.ways;
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            let k = set.remove(pos);
            set.push(k);
            return None;
        }
        let victim = if set.len() == ways { Some(set.remove(0)) } else { None };
        set.push(key);
        victim
    }

    fn invalidate(&mut self, key: u64) -> bool {
        let set = self.set(key);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            set.remove(pos);
            self.stats.shootdowns += 1;
            true
        } else {
            false
        }
    }

    fn contains(&mut self, key: u64) -> bool {
        self.set(key).contains(&key)
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A TLB shape (`ways`, `sets`) and an op mix over keys reaching about
/// twice its capacity, so hits, fills, evictions and shootdowns all occur.
fn tlb_case() -> impl Strategy<Value = (u32, u32, Vec<TlbOp>)> {
    (1u32..65, 1u32..12).prop_flat_map(|(ways, sets)| {
        let reach = u64::from(ways * sets) * 2 + 1;
        let ops = prop::collection::vec(
            // Lookup and Insert arms doubled: fills dominate, as in the MMU.
            prop_oneof![
                (0..reach).prop_map(TlbOp::Lookup),
                (0..reach).prop_map(TlbOp::Lookup),
                (0..reach).prop_map(TlbOp::Insert),
                (0..reach).prop_map(TlbOp::Insert),
                (0..reach).prop_map(TlbOp::Invalidate),
                (0..reach).prop_map(TlbOp::Contains),
            ],
            1..600,
        );
        (Just(ways), Just(sets), ops)
    })
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, 0u32..64).prop_map(|(p, f)| PtOp::Install(p, f)),
            (0u64..32).prop_map(PtOp::Remove),
            (0u64..32).prop_map(PtOp::Translate),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn page_table_matches_btreemap_model(ops in pt_ops()) {
        let mut pt = GpuPageTable::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                PtOp::Install(p, f) => {
                    let got = pt.install(PageId::new(p), FrameId::new(f));
                    let want = model.insert(p, f);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                PtOp::Remove(p) => {
                    let got = pt.remove(PageId::new(p));
                    let want = model.remove(&p);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                PtOp::Translate(p) => {
                    let got = pt.translate(PageId::new(p));
                    let want = model.get(&p).copied();
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
            }
            prop_assert_eq!(pt.resident_pages(), model.len());
        }
    }

    /// Promotion is an overlay: through arbitrary coalesce -> splinter ->
    /// coalesce cycles, translation and residency must stay byte-identical
    /// to a flat single-granularity page table (the `BTreeMap` oracle),
    /// and a promoted group must always be fully resident.
    #[test]
    fn two_level_table_matches_flat_oracle_through_promote_cycles(ops in tier_ops()) {
        let mut pt = GpuPageTable::with_pages_per_large(PAGES_PER_LARGE);
        let mut flat: BTreeMap<u64, u32> = BTreeMap::new();
        let mut promoted: BTreeSet<u64> = BTreeSet::new();
        let group_full =
            |flat: &BTreeMap<u64, u32>, g: u64| (0..PAGES_PER_LARGE).all(|i| {
                flat.contains_key(&(g * PAGES_PER_LARGE + i))
            });
        for op in ops {
            match op {
                TierOp::Install(p, f) => {
                    let got = pt.install(PageId::new(p), FrameId::new(f));
                    let want = flat.insert(p, f);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                TierOp::Remove(p) => {
                    // Splinter-before-evict, exactly as the UVM pipeline
                    // orders its outputs.
                    let g = p / PAGES_PER_LARGE;
                    if promoted.remove(&g) {
                        prop_assert!(pt.splinter(RegionId::new(g)));
                    }
                    let got = pt.remove(PageId::new(p));
                    let want = flat.remove(&p);
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
                TierOp::Promote(g) => {
                    let want = group_full(&flat, g) && promoted.insert(g);
                    prop_assert_eq!(pt.promote(RegionId::new(g)), want);
                }
                TierOp::Splinter(g) => {
                    let want = promoted.remove(&g);
                    prop_assert_eq!(pt.splinter(RegionId::new(g)), want);
                }
                TierOp::Translate(p) => {
                    let got = pt.translate(PageId::new(p));
                    let want = flat.get(&p).copied();
                    prop_assert_eq!(got.map(|x| x.index()), want);
                }
            }
            // The overlay never perturbs the flat truth...
            prop_assert_eq!(pt.resident_pages(), flat.len());
            prop_assert_eq!(pt.has_promotions(), !promoted.is_empty());
            prop_assert_eq!(pt.promoted_groups(), promoted.len());
            // ...and every promoted group is fully resident (the
            // invariant `Mmu::translate` leans on for its stale check).
            for &g in &promoted {
                prop_assert!(pt.group_is_full(RegionId::new(g)));
            }
        }
    }

    /// The indexed, stamped TLB is exactly the true-LRU oracle: every
    /// hit, miss, victim, shootdown and occupancy, at any associativity
    /// and at power-of-two and odd set counts.
    #[test]
    fn tlb_matches_the_vec_lru_oracle((ways, sets, ops) in tlb_case()) {
        let mut tlb = Tlb::new(ways * sets, ways);
        let mut oracle = OracleTlb::new(ways * sets, ways);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                TlbOp::Lookup(k) => {
                    prop_assert_eq!(tlb.lookup(PageId::new(k)), oracle.lookup(k), "op {}", i);
                }
                TlbOp::Insert(k) => {
                    let got = tlb.insert(PageId::new(k)).map(PageId::index);
                    prop_assert_eq!(got, oracle.insert(k), "op {}", i);
                }
                TlbOp::Invalidate(k) => {
                    prop_assert_eq!(tlb.invalidate(PageId::new(k)), oracle.invalidate(k), "op {}", i);
                }
                TlbOp::Contains(k) => {
                    prop_assert_eq!(tlb.contains(PageId::new(k)), oracle.contains(k), "op {}", i);
                }
            }
            prop_assert_eq!(tlb.occupancy(), oracle.occupancy());
            prop_assert_eq!(tlb.stats(), oracle.stats);
        }
    }

    #[test]
    fn fully_associative_tlb_is_an_lru_stack(
        accesses in prop::collection::vec(0u64..16, 1..100),
        capacity in 1u32..8,
    ) {
        let mut tlb = Tlb::fully_associative(capacity);
        let mut stack: Vec<u64> = Vec::new(); // MRU at back
        for &p in &accesses {
            tlb.insert(PageId::new(p));
            stack.retain(|&x| x != p);
            stack.push(p);
            if stack.len() > capacity as usize {
                stack.remove(0);
            }
            // Contents must equal the model's.
            for &x in &stack {
                prop_assert!(tlb.contains(PageId::new(x)), "missing {}", x);
            }
            prop_assert_eq!(tlb.occupancy(), stack.len());
        }
    }

    #[test]
    fn tlb_occupancy_never_exceeds_capacity(
        accesses in prop::collection::vec(0u64..1000, 1..300),
        ways in 1u32..5,
        sets_log in 0u32..4,
    ) {
        let entries = ways << sets_log;
        let mut tlb = Tlb::new(entries, ways);
        for &p in &accesses {
            tlb.insert(PageId::new(p));
            prop_assert!(tlb.occupancy() <= entries as usize);
        }
    }

    #[test]
    fn tlb_lookup_after_insert_hits_until_evicted(
        pages in prop::collection::vec(0u64..50, 1..100),
    ) {
        let mut tlb = Tlb::new(16, 4);
        for &p in &pages {
            tlb.insert(PageId::new(p));
            prop_assert!(tlb.lookup(PageId::new(p)), "just-inserted page missed");
        }
    }

    #[test]
    fn invalidate_removes_exactly_that_page(
        pages in prop::collection::vec(0u64..20, 1..50),
        victim in 0u64..20,
    ) {
        let mut tlb = Tlb::fully_associative(64);
        for &p in &pages {
            tlb.insert(PageId::new(p));
        }
        let present_before = tlb.contains(PageId::new(victim));
        let removed = tlb.invalidate(PageId::new(victim));
        prop_assert_eq!(removed, present_before);
        prop_assert!(!tlb.contains(PageId::new(victim)));
        for &p in &pages {
            if p != victim {
                prop_assert!(tlb.contains(PageId::new(p)));
            }
        }
    }
}
