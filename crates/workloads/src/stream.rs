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

    /// Coalesces `addrs` into per-line transactions and appends them as
    /// `store`-or-load ops. One transaction per distinct line; sort-dedup
    /// keeps this O(k log k) — hub vertices in power-law graphs gather tens
    /// of thousands of addresses per operation. The line scratch is reused
    /// across calls, so the only allocations are the tape's own growth.
    fn push_coalesced(&mut self, addrs: impl Iterator<Item = VirtAddr>, store: bool) {
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        let shift = self.line_shift;
        lines.extend(addrs.map(|a| a.line(shift)));
        lines.sort_unstable();
        lines.dedup();
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
            self.push_coalesced((start..start + count).map(|i| array.addr(i)), store);
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
        self.push_coalesced(indices.into_iter().map(|i| array.addr(i)), false);
        self
    }

    /// Scatters to `array[indices]`.
    pub fn store_gather<I>(&mut self, array: &ArrayRef, indices: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
    {
        self.push_coalesced(indices.into_iter().map(|i| array.addr(i)), true);
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
