//! The warp-level operation vocabulary and workload description traits.
//!
//! Workloads are modeled as **access streams**: each warp executes a
//! [`WarpStream`] of [`WarpOp`]s — compute delays and coalesced memory
//! operations.
//! This captures exactly the behaviour demand paging responds to (which
//! addresses are touched, in what order, with what divergence) while
//! abstracting per-instruction pipeline details (see DESIGN.md,
//! "Substitutions").

use batmem_types::{BlockId, KernelId, VirtAddr};

/// One warp-level operation, borrowed from its [`WarpStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp<'a> {
    /// `cycles` of computation before the next operation can issue.
    Compute(u32),
    /// A coalesced load: one entry per distinct memory transaction the
    /// warp's 32 lanes generate (1 for a fully coalesced access, up to 32
    /// for fully divergent scatter/gather).
    Load(&'a [VirtAddr]),
    /// A coalesced store; timing-wise identical to a load in this model
    /// (write-allocate), tracked separately for statistics.
    Store(&'a [VirtAddr]),
}

impl<'a> WarpOp<'a> {
    /// The addresses this op touches (empty for compute).
    pub fn addrs(&self) -> &'a [VirtAddr] {
        match *self {
            WarpOp::Compute(_) => &[],
            WarpOp::Load(a) | WarpOp::Store(a) => a,
        }
    }

    /// Whether this is a memory operation.
    pub fn is_mem(&self) -> bool {
        !matches!(self, WarpOp::Compute(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Compute,
    Load,
    Store,
}

/// One op on the tape: its kind plus, for compute, the cycle count, and for
/// memory ops, how many entries of the address tape it owns.
#[derive(Debug, Clone, Copy)]
struct OpHeader {
    kind: OpKind,
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<OpHeader>() == 8);

/// One warp's operation stream, stored as a tape.
///
/// Ops are 8-byte headers; every memory op's addresses sit back to back in
/// one flat address vector, in op order. [`next_op`](Self::next_op) hands
/// out borrowed [`WarpOp`]s, so issuing an op copies nothing, and a faulted
/// op is replayed in place by [`retry_last`](Self::retry_last) (DESIGN.md
/// §14).
#[derive(Debug, Clone, Default)]
pub struct WarpStream {
    ops: Vec<OpHeader>,
    addrs: Vec<VirtAddr>,
    /// Index of the next op to issue.
    next: usize,
    /// Where the next memory op's addresses start in `addrs`.
    next_addr: usize,
}

impl WarpStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `cycles` of computation. Zero is a no-op, and a compute op
    /// directly after another merges into it, so streams stay compact.
    pub fn compute(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        match self.ops.last_mut() {
            Some(h) if h.kind == OpKind::Compute => h.arg = h.arg.saturating_add(cycles),
            _ => self.ops.push(OpHeader { kind: OpKind::Compute, arg: cycles }),
        }
    }

    /// Appends a load of `addrs`, one entry per coalesced transaction.
    pub fn load(&mut self, addrs: impl IntoIterator<Item = VirtAddr>) {
        self.push_mem(OpKind::Load, addrs);
    }

    /// Appends a store to `addrs`, one entry per coalesced transaction.
    pub fn store(&mut self, addrs: impl IntoIterator<Item = VirtAddr>) {
        self.push_mem(OpKind::Store, addrs);
    }

    fn push_mem(&mut self, kind: OpKind, addrs: impl IntoIterator<Item = VirtAddr>) {
        let start = self.addrs.len();
        self.addrs.extend(addrs);
        let arg = u32::try_from(self.addrs.len() - start).expect("op address count fits u32");
        self.ops.push(OpHeader { kind, arg });
    }

    /// Ops on the tape, issued or not.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Issues the warp's next operation, or `None` once every op has
    /// issued.
    pub fn next_op(&mut self) -> Option<WarpOp<'_>> {
        let h = *self.ops.get(self.next)?;
        self.next += 1;
        if h.kind == OpKind::Compute {
            return Some(WarpOp::Compute(h.arg));
        }
        let start = self.next_addr;
        self.next_addr += h.arg as usize;
        let addrs = &self.addrs[start..self.next_addr];
        Some(if h.kind == OpKind::Load { WarpOp::Load(addrs) } else { WarpOp::Store(addrs) })
    }

    /// Re-queues the last issued memory op with only the addresses `keep`
    /// accepts: the next [`next_op`](Self::next_op) returns an op of the
    /// same kind over those addresses, in their original order.
    ///
    /// The kept addresses are packed into the tail of the op's own slice
    /// and the cursor steps back one op, so a retry never allocates and
    /// can repeat any number of times. `keep` sees each address once, last
    /// to first.
    ///
    /// # Panics
    ///
    /// Panics if no op has issued yet or the last one was a compute op.
    pub fn retry_last(&mut self, keep: impl Fn(VirtAddr) -> bool) {
        let last = self.next.checked_sub(1).expect("retry_last before any op issued");
        let h = &mut self.ops[last];
        assert!(h.kind != OpKind::Compute, "retry_last after a compute op");
        let end = self.next_addr;
        let mut kept = end;
        for i in (end - h.arg as usize..end).rev() {
            let a = self.addrs[i];
            if keep(a) {
                kept -= 1;
                self.addrs[kept] = a;
            }
        }
        h.arg = (end - kept) as u32;
        self.next = last;
        self.next_addr = kept;
    }
}

/// The launch geometry of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Thread blocks in the grid.
    pub num_blocks: u32,
    /// Threads per block (a multiple of the warp size).
    pub threads_per_block: u32,
    /// Registers each thread uses (drives occupancy and context-switch
    /// cost; most GraphBIG kernels use more than 16, which is what makes
    /// baseline VT inapplicable without full context switching — §4.1).
    pub regs_per_thread: u32,
}

impl KernelSpec {
    /// Warps per block for the given warp size.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is not a positive multiple of
    /// `warp_size`.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        assert!(
            self.threads_per_block > 0 && self.threads_per_block.is_multiple_of(warp_size),
            "threads_per_block {} must be a positive multiple of warp size {}",
            self.threads_per_block,
            warp_size
        );
        self.threads_per_block / warp_size
    }
}

/// One kernel of a workload: geometry plus per-warp stream construction.
pub trait Kernel: Send + Sync {
    /// The kernel's launch geometry.
    fn spec(&self) -> KernelSpec;

    /// Builds the operation stream of warp `warp_in_block` of `block`.
    ///
    /// Called exactly once per warp, when the block is first activated.
    /// Implementations must be pure functions of `(block, warp_in_block)`
    /// — the stream's contents may not depend on call order or timing.
    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> WarpStream;
}

/// A complete workload: an ordered sequence of kernel launches over a fixed
/// virtual-memory layout.
pub trait Workload: Send {
    /// Short display name (e.g. `"BFS-TTC"`).
    fn name(&self) -> String;

    /// Total bytes of device-visible data the workload touches (its memory
    /// footprint, used to size GPU memory for oversubscription ratios).
    fn footprint_bytes(&self) -> u64;

    /// Number of kernels launched, in order.
    fn num_kernels(&self) -> u32;

    /// Builds kernel `k`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `k >= num_kernels()`.
    fn kernel(&self, k: KernelId) -> Box<dyn Kernel>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(raw: u64) -> VirtAddr {
        VirtAddr::new(raw)
    }

    #[test]
    fn warp_op_addr_views() {
        let c = WarpOp::Compute(5);
        assert!(c.addrs().is_empty());
        assert!(!c.is_mem());
        let l = WarpOp::Load(&[VirtAddr::new(64)]);
        assert_eq!(l.addrs(), &[VirtAddr::new(64)]);
        assert!(l.is_mem());
    }

    #[test]
    fn warps_per_block() {
        let s = KernelSpec { num_blocks: 10, threads_per_block: 256, regs_per_thread: 32 };
        assert_eq!(s.warps_per_block(32), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of warp size")]
    fn bad_block_shape_panics() {
        let s = KernelSpec { num_blocks: 1, threads_per_block: 100, regs_per_thread: 32 };
        let _ = s.warps_per_block(32);
    }

    #[test]
    fn warp_stream_yields_in_order() {
        let mut s = WarpStream::new();
        s.compute(1);
        s.load([addr(0), addr(128)]);
        s.store([addr(256)]);
        s.compute(2);
        assert_eq!(s.len(), 4);
        assert_eq!(s.next_op(), Some(WarpOp::Compute(1)));
        assert_eq!(s.next_op(), Some(WarpOp::Load(&[addr(0), addr(128)])));
        assert_eq!(s.next_op(), Some(WarpOp::Store(&[addr(256)])));
        assert_eq!(s.next_op(), Some(WarpOp::Compute(2)));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn compute_merges_and_zero_is_dropped() {
        let mut s = WarpStream::new();
        s.compute(0);
        assert!(s.is_empty());
        s.compute(3);
        s.compute(u32::MAX);
        assert_eq!(s.len(), 1);
        assert_eq!(s.next_op(), Some(WarpOp::Compute(u32::MAX)));
    }

    #[test]
    fn retry_replays_kept_addresses_in_order_before_the_next_op() {
        let mut s = WarpStream::new();
        s.store([addr(0), addr(1), addr(2), addr(3)]);
        s.load([addr(9)]);
        assert!(s.next_op().is_some());
        s.retry_last(|a| a.raw() % 2 == 0);
        assert_eq!(s.next_op(), Some(WarpOp::Store(&[addr(0), addr(2)])));
        s.retry_last(|a| a.raw() == 2);
        assert_eq!(s.next_op(), Some(WarpOp::Store(&[addr(2)])));
        assert_eq!(s.next_op(), Some(WarpOp::Load(&[addr(9)])));
        assert_eq!(s.next_op(), None);
    }

    #[test]
    #[should_panic(expected = "after a compute op")]
    fn retrying_a_compute_op_panics() {
        let mut s = WarpStream::new();
        s.compute(4);
        let _ = s.next_op();
        s.retry_last(|_| true);
    }

    #[test]
    #[should_panic(expected = "before any op issued")]
    fn retrying_before_any_issue_panics() {
        let mut s = WarpStream::new();
        s.load([addr(0)]);
        s.retry_last(|_| true);
    }
}
