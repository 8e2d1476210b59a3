//! Property-based tests for the event queue and cache models.

use batmem_sim::cache::{CacheStats, DataCache};
use batmem_sim::EventQueue;
use batmem_types::config::CacheGeometry;
use batmem_types::VirtAddr;
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_sorted_and_stable(
        events in prop::collection::vec((0u64..100, 0u32..1000), 0..300),
    ) {
        let mut q = EventQueue::new();
        for &(t, tag) in &events {
            q.push(t, tag);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), events.len());
        // Sorted by time.
        prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
        // Stable: equal-time events keep insertion order.
        for t in popped.iter().map(|&(t, _)| t) {
            let at_t: Vec<u32> =
                popped.iter().filter(|&&(pt, _)| pt == t).map(|&(_, x)| x).collect();
            let inserted: Vec<u32> =
                events.iter().filter(|&&(et, _)| et == t).map(|&(_, x)| x).collect();
            prop_assert_eq!(at_t, inserted);
        }
    }

    #[test]
    fn event_queue_matches_heap_oracle_under_interleaved_ops(
        // (op selector, time operand). Times deliberately cluster in a
        // small range to force duplicate timestamps, with occasional huge
        // jumps so pushes land in every tier (ring / wheel / overflow) and
        // pops interleave with pushes — including pushes at or behind the
        // last popped time, which the overflow tier must absorb.
        ops in prop::collection::vec(
            (0u8..8, prop_oneof![
                0u64..50,
                0u64..50,
                0u64..50,
                0u64..20_000,
                0u64..20_000,
                0u64..200_000_000,
            ]),
            0..400,
        ),
    ) {
        // Oracle: the pre-rewrite scheduler — a plain (time, seq) min-heap.
        let mut oracle: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut oracle_seq = 0u64;
        let mut oracle_cur = 0u64;

        let mut q = EventQueue::new();
        let mut tag = 0u32;
        for &(op, t) in &ops {
            if op < 6 {
                // Bias pushes toward the last popped time (op 4/5) to
                // exercise the same-cycle ring against heap-held ties.
                let time = if op >= 4 { oracle_cur.saturating_add(t % 3) } else { t };
                q.push(time, tag);
                oracle.push(std::cmp::Reverse((time, oracle_seq)));
                oracle_seq += 1;
                tag += 1;
            } else {
                let expected = oracle.pop().map(|std::cmp::Reverse((time, seq))| {
                    oracle_cur = oracle_cur.max(time);
                    (time, seq)
                });
                let got = q.pop();
                prop_assert_eq!(got.map(|(time, _)| time), expected.map(|(time, _)| time));
                // seq == tag by construction, so payload identity pins the
                // full (time, seq) order, not just the timestamps.
                prop_assert_eq!(
                    got.map(|(_, x)| u64::from(x)),
                    expected.map(|(_, seq)| seq)
                );
                prop_assert_eq!(q.peek_time(), oracle.peek().map(|&std::cmp::Reverse((time, _))| time));
            }
        }
        // Drain both: every remaining event must agree too.
        while let Some(std::cmp::Reverse((time, seq))) = oracle.pop() {
            let got = q.pop();
            prop_assert_eq!(got.map(|(x, _)| x), Some(time));
            prop_assert_eq!(got.map(|(_, x)| u64::from(x)), Some(seq));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    #[test]
    fn cache_repeat_access_within_line_always_hits(
        base in 0u64..1_000_000,
        offsets in prop::collection::vec(0u64..128, 1..20),
    ) {
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 4096,
            ways: 4,
            line_shift: 7,
            hit_latency: 4,
        });
        let line_base = base & !127;
        c.access(VirtAddr::new(line_base));
        for &off in &offsets {
            prop_assert!(c.access(VirtAddr::new(line_base + off)));
        }
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(
        addrs in prop::collection::vec(0u64..100_000, 1..500),
    ) {
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 2048,
            ways: 2,
            line_shift: 7,
            hit_latency: 4,
        });
        for &a in &addrs {
            c.access(VirtAddr::new(a));
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
    }

    #[test]
    fn working_set_smaller_than_cache_converges_to_hits(
        lines in prop::collection::vec(0u64..4, 1..10),
    ) {
        // 4 distinct lines in a 2 KB (16-line) cache: a second pass over the
        // same addresses must hit every time.
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: 2048,
            ways: 16,
            line_shift: 7,
            hit_latency: 4,
        });
        for &l in &lines {
            c.access(VirtAddr::new(l * 128));
        }
        for &l in &lines {
            prop_assert!(c.access(VirtAddr::new(l * 128)));
        }
    }
}

/// The `Vec`-per-set LRU logic `DataCache` used before its flat tag
/// array, kept as the oracle: `sets[s]` is an LRU stack with the most
/// recently used line at the back.
struct OracleCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    stats: CacheStats,
}

impl OracleCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self { sets: vec![Vec::new(); sets], ways, stats: CacheStats::default() }
    }

    fn access(&mut self, line: u64) -> bool {
        let n = self.sets.len() as u64;
        let entries = &mut self.sets[(line % n) as usize];
        if let Some(pos) = entries.iter().rposition(|&l| l == line) {
            entries[pos..].rotate_left(1);
            self.stats.hits += 1;
            true
        } else {
            if entries.len() == self.ways {
                entries.rotate_left(1);
                *entries.last_mut().unwrap() = line;
                self.stats.conflict_evictions += 1;
            } else {
                entries.push(line);
            }
            self.stats.misses += 1;
            false
        }
    }
}

proptest! {
    /// The flat MRU-first tag array is exactly the true-LRU oracle, hit
    /// for hit, at any associativity and at power-of-two (mask) and odd
    /// (modulo) set counts.
    #[test]
    fn data_cache_matches_the_vec_lru_oracle(
        (ways, sets, accesses) in (1u32..65, 1u32..40).prop_flat_map(|(ways, sets)| {
            // Lines over about twice the capacity: hits, cold misses and
            // conflict evictions all occur.
            let reach = u64::from(ways * sets) * 2 + 1;
            (Just(ways), Just(sets), prop::collection::vec((0..reach, 0u64..128), 1..600))
        }),
    ) {
        let mut c = DataCache::new(CacheGeometry {
            capacity_bytes: sets * ways * 128,
            ways,
            line_shift: 7,
            hit_latency: 4,
        });
        let mut oracle = OracleCache::new(sets as usize, ways as usize);
        for (i, &(line, offset)) in accesses.iter().enumerate() {
            let got = c.access(VirtAddr::new(line * 128 + offset));
            prop_assert_eq!(got, oracle.access(line), "access {} to line {}", i, line);
            prop_assert_eq!(c.stats(), oracle.stats);
        }
    }
}

/// One op of the naive reference stream: owned, so a retry is a plain
/// filter into a fresh vector.
#[derive(Debug, Clone, PartialEq)]
enum RefOp {
    Compute(u32),
    Load(Vec<VirtAddr>),
    Store(Vec<VirtAddr>),
}

/// Keeps an address when `mask` has the bit of its 64 KB page set, the way
/// the engine keeps the lanes of faulted pages.
fn kept_by(mask: u16, a: VirtAddr) -> bool {
    mask >> ((a.raw() >> 16) % 16) & 1 == 1
}

proptest! {
    #[test]
    fn warp_stream_retry_matches_a_naive_filter(
        // (kind, compute cycles, transactions as (page, line) pairs). Zero
        // cycles and back-to-back computes exercise the merge rule; a
        // 16-page by 4-line address space repeats pages and lines.
        tape in prop::collection::vec(
            (0u8..3, 0u32..50, prop::collection::vec((0u64..16, 0u64..4), 0..12)),
            0..24,
        ),
        // Per memory op, the page masks of successive retries.
        retries in prop::collection::vec(prop::collection::vec(0u16..u16::MAX, 0..4), 0..24),
    ) {
        use batmem_sim::ops::{WarpOp, WarpStream};

        let mut stream = WarpStream::new();
        let mut reference: Vec<RefOp> = Vec::new();
        for (kind, cycles, txns) in &tape {
            let addrs: Vec<VirtAddr> =
                txns.iter().map(|&(page, line)| VirtAddr::new(page << 16 | line << 7)).collect();
            match kind {
                0 => {
                    stream.compute(*cycles);
                    match reference.last_mut() {
                        _ if *cycles == 0 => {}
                        Some(RefOp::Compute(c)) => *c = c.saturating_add(*cycles),
                        _ => reference.push(RefOp::Compute(*cycles)),
                    }
                }
                1 => {
                    stream.load(addrs.iter().copied());
                    reference.push(RefOp::Load(addrs));
                }
                _ => {
                    stream.store(addrs.iter().copied());
                    reference.push(RefOp::Store(addrs));
                }
            }
        }
        prop_assert_eq!(stream.len(), reference.len());

        let owned = |op: WarpOp<'_>| match op {
            WarpOp::Compute(c) => RefOp::Compute(c),
            WarpOp::Load(a) => RefOp::Load(a.to_vec()),
            WarpOp::Store(a) => RefOp::Store(a.to_vec()),
        };
        let mut mem_ops = 0;
        for expected in reference {
            let got = stream.next_op().map(owned);
            prop_assert_eq!(got.as_ref(), Some(&expected));
            if matches!(expected, RefOp::Compute(_)) {
                continue;
            }
            let masks = retries.get(mem_ops).cloned().unwrap_or_default();
            mem_ops += 1;
            let mut expected = expected;
            for mask in masks {
                stream.retry_last(|a| kept_by(mask, a));
                // The naive retry: filter the previous issue's addresses,
                // keeping their order and the op's kind.
                expected = match expected {
                    RefOp::Load(a) => RefOp::Load(a.into_iter().filter(|&x| kept_by(mask, x)).collect()),
                    RefOp::Store(a) => RefOp::Store(a.into_iter().filter(|&x| kept_by(mask, x)).collect()),
                    RefOp::Compute(_) => unreachable!("compute ops are never retried"),
                };
                let got = stream.next_op().map(owned);
                prop_assert_eq!(got.as_ref(), Some(&expected));
            }
        }
        prop_assert_eq!(stream.next_op(), None);
    }
}
