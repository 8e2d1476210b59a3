//! Warp-level stream construction helpers.
//!
//! Kernels build a warp's [`WarpStream`] through a [`StreamBuilder`], which
//! performs the coalescing a GPU's load/store unit would: consecutive
//! per-lane accesses to the same 128-byte line merge into one transaction,
//! and scattered (divergent) accesses are deduplicated by line and split
//! into at most warp-size transactions per operation.

use crate::layout::ArrayRef;
use batmem_sim::ops::WarpStream;
use batmem_types::VirtAddr;

/// Default log2 of the transaction (cache line) size: 128 bytes.
pub const LINE_SHIFT: u32 = 7;

/// Builds one warp's coalesced operation stream, appending straight to its
/// tape.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    tape: WarpStream,
    /// Line-id scratch recycled across coalesce calls; stream construction
    /// runs once per warp wake-up on the engine's hot path, so the per-op
    /// working set must not allocate.
    lines: Vec<u64>,
    line_shift: u32,
    warp_size: usize,
}

impl StreamBuilder {
    /// Creates a builder with the default 128-byte line and 32-lane warp.
    pub fn new() -> Self {
        Self { tape: WarpStream::new(), lines: Vec::new(), line_shift: LINE_SHIFT, warp_size: 32 }
    }

    /// Appends `cycles` of computation (no-op when zero; adjacent compute
    /// ops merge).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.tape.compute(cycles);
        self
    }

    /// Appends one memory op over `txns`.
    fn push_op(&mut self, txns: impl Iterator<Item = VirtAddr>, store: bool) {
        if store {
            self.tape.store(txns);
        } else {
            self.tape.load(txns);
        }
    }

    /// Coalesces the elements of `array` at `indices` into per-line
    /// transactions and appends them as `store`-or-load ops: one
    /// transaction per distinct line, in ascending line order. Hub
    /// vertices in power-law graphs gather tens of thousands of addresses
    /// per operation, so a wide gather over a dense span deduplicates
    /// through a bitmap in O(k); any other gather sorts and dedups in
    /// O(k log k). The line scratch (which also holds the bitmap) is
    /// reused across calls, so the only allocations are the tape's own
    /// growth.
    fn push_gather(&mut self, array: &ArrayRef, indices: impl Iterator<Item = u64>, store: bool) {
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        let shift = self.line_shift;
        lines.extend(indices.map(|i| array.addr(i).line(shift)));
        let first = array.base().line(shift);
        let end = (array.base().raw() + array.size_bytes()).div_ceil(1 << shift);
        if !dedup_by_bitmap(&mut lines, first, end - first) {
            lines.sort_unstable();
            lines.dedup();
        }
        for chunk in lines.chunks(self.warp_size) {
            self.push_op(chunk.iter().map(|&l| VirtAddr::new(l << shift)), store);
        }
        self.lines = lines;
    }

    /// Coalesces `count` consecutive elements starting at `start`
    /// arithmetically: contiguous elements no wider than a line touch every
    /// line from the first element's to the last element's, in ascending
    /// order, so the sort-dedup pass (and its per-element materialization)
    /// can be skipped outright.
    fn push_seq(&mut self, array: &ArrayRef, start: u64, count: u64, store: bool) {
        if count == 0 {
            return;
        }
        let shift = self.line_shift;
        if u64::from(array.elem_bytes()) > (1u64 << shift) {
            // An element wider than a line can skip lines between
            // consecutive element starts; use the general path.
            self.push_gather(array, start..start + count, store);
            return;
        }
        let first = array.addr(start).line(shift);
        let last = array.addr(start + count - 1).line(shift);
        let mut line = first;
        while line <= last {
            let n = (last - line + 1).min(self.warp_size as u64);
            self.push_op((line..line + n).map(|l| VirtAddr::new(l << shift)), store);
            line += n;
        }
    }

    /// Loads `count` consecutive elements of `array` starting at `start`
    /// (the fully coalesced pattern: one transaction per touched line).
    pub fn load_seq(&mut self, array: &ArrayRef, start: u64, count: u64) -> &mut Self {
        self.push_seq(array, start, count, false);
        self
    }

    /// Stores `count` consecutive elements of `array` starting at `start`.
    pub fn store_seq(&mut self, array: &ArrayRef, start: u64, count: u64) -> &mut Self {
        self.push_seq(array, start, count, true);
        self
    }

    /// Gathers `array[indices]` (the divergent pattern: one transaction per
    /// distinct line, at most a warp-size of transactions per op).
    pub fn load_gather<I>(&mut self, array: &ArrayRef, indices: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.push_gather(array, indices.into_iter(), false);
        self
    }

    /// Scatters to `array[indices]`.
    pub fn store_gather<I>(&mut self, array: &ArrayRef, indices: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.push_gather(array, indices.into_iter(), true);
        self
    }

    /// Number of ops queued so far.
    pub fn len(&self) -> usize {
        self.tape.len()
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.tape.is_empty()
    }

    /// Finishes the stream.
    pub fn build(self) -> WarpStream {
        self.tape
    }
}

/// Gathers over more lines than this may deduplicate through a bitmap.
const BITMAP_MIN_LINES: usize = 32;

/// Sorts and dedups `lines` through a bitmap over the `span` lines from
/// `first`, leaving exactly what `sort_unstable` + `dedup` would, and
/// returns `true`. Declines, leaving `lines` as it was and returning
/// `false`, when the gather is too narrow to pay (at most
/// [`BITMAP_MIN_LINES`] lines), when the span is sparse (more than 64 × the
/// line count, so clearing and scanning the bitmap would dominate), or when
/// a line lies outside the span (an out-of-bounds index, which release
/// builds do not catch).
///
/// The bitmap needs at most one word per line, so it lives in `lines`
/// itself, past the lines: no second buffer is allocated.
fn dedup_by_bitmap(lines: &mut Vec<u64>, first: u64, span: u64) -> bool {
    let k = lines.len();
    if k <= BITMAP_MIN_LINES || span > 64 * k as u64 {
        return false;
    }
    lines.resize(k + span.div_ceil(64) as usize, 0);
    let (keys, bits) = lines.split_at_mut(k);
    let mut in_span = true;
    for &line in keys.iter() {
        let off = line.wrapping_sub(first);
        if off >= span {
            in_span = false;
            break;
        }
        bits[(off / 64) as usize] |= 1 << (off % 64);
    }
    if !in_span {
        lines.truncate(k);
        return false;
    }
    // Read the set bits back in ascending order over the front of the
    // buffer. At most `k` lines are distinct, so the writes stay below
    // the bitmap they read.
    let mut n = 0;
    for w in k..lines.len() {
        let mut word = lines[w];
        let base = first + 64 * (w - k) as u64;
        while word != 0 {
            lines[n] = base + u64::from(word.trailing_zeros());
            n += 1;
            word &= word - 1;
        }
    }
    lines.truncate(n);
    true
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use batmem_sim::ops::WarpOp;
    use proptest::prelude::*;

    fn array(elem: u32, len: u64) -> ArrayRef {
        LayoutBuilder::new(65_536).array(elem, len)
    }

    #[test]
    fn sequential_u32_loads_coalesce_per_line() {
        let a = array(4, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 32 * 4 B = 128 B = exactly one line
        let mut s = b.build();
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_op().unwrap().addrs().len(), 1);
    }

    #[test]
    fn sequential_u64_loads_take_two_lines() {
        let a = array(8, 1000);
        let mut b = StreamBuilder::new();
        b.load_seq(&a, 0, 32); // 256 B = two lines -> one op, two transactions
        let mut s = b.build();
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_op().unwrap().addrs().len(), 2);
    }

    #[test]
    fn divergent_gather_dedupes_lines_and_chunks() {
        let a = array(4, 100_000);
        let mut b = StreamBuilder::new();
        // 64 indices, 1024 elements apart: 64 distinct lines -> 2 ops of 32.
        b.load_gather(&a, (0..64).map(|i| i * 1024));
        let mut s = b.build();
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_op().unwrap().addrs().len(), 32);
        assert_eq!(s.next_op().unwrap().addrs().len(), 32);
    }

    #[test]
    fn gather_of_same_line_is_one_transaction() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.load_gather(&a, [0, 1, 2, 5, 7]);
        let mut s = b.build();
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_op().unwrap().addrs().len(), 1);
    }

    /// The sort-dedup reference every gather must reproduce.
    fn sort_dedup(mut lines: Vec<u64>) -> Vec<u64> {
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    #[test]
    fn wide_dense_gather_takes_the_bitmap_and_matches_sort_dedup() {
        let mut lines: Vec<u64> = (0..100).map(|i| 1000 + (i * 37) % 150).collect();
        let want = sort_dedup(lines.clone());
        assert!(dedup_by_bitmap(&mut lines, 1000, 150));
        assert_eq!(lines, want);
        // A line past the span declines, whatever precedes it.
        let mut lines: Vec<u64> = (0..100).map(|i| 1000 + i).chain([1150]).collect();
        let before = lines.clone();
        assert!(!dedup_by_bitmap(&mut lines, 1000, 150));
        assert_eq!(lines, before);
        let mut lines: Vec<u64> = [999].into_iter().chain((0..100).map(|i| 1000 + i)).collect();
        let before = lines.clone();
        assert!(!dedup_by_bitmap(&mut lines, 1000, 150));
        assert_eq!(lines, before);
        // Narrow gathers and sparse spans decline too.
        assert!(!dedup_by_bitmap(&mut (0..32).collect(), 0, 32));
        assert!(!dedup_by_bitmap(&mut (0..33).collect(), 0, 64 * 33 + 1));
    }

    proptest! {
        /// Around the width threshold, with duplicates, at any element
        /// width, and with lines outside the span: the bitmap takes every
        /// wide, dense, in-span gather and leaves exactly the sort-dedup
        /// result, and declines every other one.
        #[test]
        fn bitmap_dedup_matches_sort_dedup(
            (elem, len, mut raw, stray) in (1u32..257, 1u64..4000).prop_flat_map(|(elem, len)| {
                // Small indices repeat lines; a stray index past `len`
                // stands in for the out-of-bounds indices release builds
                // let through, and lands in about one case in three.
                let idx = prop_oneof![0..len, 0..len, 0..len, 0u64..4];
                let stray = (0u64..192, 0usize..120);
                (Just(elem), Just(len), prop::collection::vec(idx, 0..120), stray)
            }),
        ) {
            if let (off @ 0..=63, at) = stray {
                raw.insert(at.min(raw.len()), len + off);
            }
            let a = array(elem, len);
            let line = |i: u64| (a.base().raw() + i * u64::from(elem)) >> LINE_SHIFT;
            let first = a.base().line(LINE_SHIFT);
            let span = (a.base().raw() + a.size_bytes()).div_ceil(1 << LINE_SHIFT) - first;
            let mut lines: Vec<u64> = raw.iter().map(|&i| line(i)).collect();
            let want = sort_dedup(lines.clone());
            let must_take = lines.len() > BITMAP_MIN_LINES
                && span <= 64 * lines.len() as u64
                && lines.iter().all(|&l| (first..first + span).contains(&l));
            let before = lines.clone();
            let took = dedup_by_bitmap(&mut lines, first, span);
            prop_assert_eq!(took, must_take);
            prop_assert_eq!(lines, if took { want } else { before });
        }

        /// Through the builder, a gather's tape is the sort-dedup line list
        /// in warp-size chunks, on either path.
        #[test]
        fn gather_tape_is_sort_dedup_in_warp_chunks(
            (elem, len, raw) in (1u32..257, 1u64..4000).prop_flat_map(|(elem, len)| {
                (Just(elem), Just(len), prop::collection::vec(0..len, 0..200))
            }),
        ) {
            let a = array(elem, len);
            let want = sort_dedup(raw.iter().map(|&i| a.addr(i).line(LINE_SHIFT)).collect());
            let mut b = StreamBuilder::new();
            b.load_gather(&a, raw.iter().copied());
            let mut s = b.build();
            let mut got = Vec::new();
            while let Some(op) = s.next_op() {
                prop_assert!(matches!(op, WarpOp::Load(_)));
                prop_assert!(!op.addrs().is_empty() && op.addrs().len() <= 32);
                got.extend(op.addrs().iter().map(|t| t.line(LINE_SHIFT)));
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn compute_merges() {
        let mut b = StreamBuilder::new();
        b.compute(3).compute(4).compute(0);
        let mut s = b.build();
        assert_eq!(s.next_op(), Some(WarpOp::Compute(7)));
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn stores_are_stores() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        b.store_seq(&a, 0, 4);
        assert!(matches!(b.build().next_op(), Some(WarpOp::Store(_))));
    }

    #[test]
    fn builder_reports_length() {
        let a = array(4, 100);
        let mut b = StreamBuilder::new();
        assert!(b.is_empty());
        b.load_seq(&a, 0, 1).compute(1);
        assert_eq!(b.len(), 2);
    }
}
