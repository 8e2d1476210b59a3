//! Regular (Rodinia-style) workload models for the Fig. 1 working-set study.
//!
//! For these kernels each thread block works on its own contiguous tile, so
//! the pages a block touches are disjoint from other blocks' pages — which
//! is exactly why memory-aware SM throttling helps them (Fig. 1, top) and
//! does nothing for the graph workloads (Fig. 1, bottom).
//!
//! The six models (CFD, DWT, GM, H3D, HS, LUD) differ in array count,
//! stencil halo, passes, and compute intensity; what matters for the study
//! is the tiled (block-partitioned) access structure they share.

use crate::layout::{ArrayRef, LayoutBuilder};
use crate::stream::StreamBuilder;
use batmem_sim::ops::{Kernel, KernelSpec, WarpStream, Workload};
use batmem_types::{BlockId, KernelId};
use std::sync::Arc;

/// Threads per block for the regular kernels.
const TPB: u32 = 256;

/// A tiled regular workload.
#[derive(Debug, Clone)]
pub struct TiledRegular {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    name: String,
    inputs: Vec<ArrayRef>,
    output: ArrayRef,
    elements: u64,
    elems_per_thread: u64,
    passes: u32,
    /// Elements of halo read from neighbouring tiles (stencils).
    halo: u64,
    compute_per_elem: u32,
    regs_per_thread: u32,
    footprint: u64,
}

impl TiledRegular {
    /// Builds a tiled workload over `elements` 4-byte elements per array.
    ///
    /// # Panics
    ///
    /// Panics if `elements` or `num_inputs` is zero.
    pub fn new(
        name: &str,
        elements: u64,
        num_inputs: usize,
        passes: u32,
        halo: u64,
        compute_per_elem: u32,
    ) -> Self {
        Self::with_tile(name, elements, num_inputs, passes, halo, compute_per_elem, 64)
    }

    /// [`TiledRegular::new`] with an explicit per-thread element count
    /// (each block's tile is `256 * elems_per_thread` contiguous elements).
    ///
    /// # Panics
    ///
    /// Panics if `elements`, `num_inputs`, or `elems_per_thread` is zero.
    pub fn with_tile(
        name: &str,
        elements: u64,
        num_inputs: usize,
        passes: u32,
        halo: u64,
        compute_per_elem: u32,
        elems_per_thread: u64,
    ) -> Self {
        assert!(elements > 0 && num_inputs > 0 && elems_per_thread > 0, "workload needs data");
        let mut l = LayoutBuilder::new(crate::common::PAGE_BYTES);
        let inputs = (0..num_inputs).map(|_| l.array(4, elements)).collect();
        let output = l.array(4, elements);
        Self {
            inner: Arc::new(Inner {
                name: name.to_string(),
                inputs,
                output,
                elements,
                elems_per_thread,
                passes,
                halo,
                compute_per_elem,
                regs_per_thread: 24,
                footprint: l.footprint_bytes(),
            }),
        }
    }

    /// The paper's six regular workloads at a common per-array size.
    pub fn suite(elements: u64) -> Vec<TiledRegular> {
        vec![
            TiledRegular::new("CFD", elements, 5, 2, 64, 24),
            TiledRegular::new("DWT", elements, 2, 1, 16, 8),
            TiledRegular::new("GM", elements, 3, 1, 0, 16),
            TiledRegular::new("H3D", elements, 3, 2, 128, 12),
            TiledRegular::new("HS", elements, 3, 2, 64, 10),
            TiledRegular::new("LUD", elements, 1, 3, 32, 20),
        ]
    }
}

impl Workload for TiledRegular {
    fn name(&self) -> String {
        self.inner.name.clone()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint
    }

    fn num_kernels(&self) -> u32 {
        self.inner.passes
    }

    fn kernel(&self, k: KernelId) -> Box<dyn Kernel> {
        assert!(k.index() < self.inner.passes as usize, "kernel {k} out of range");
        Box::new(TiledKernel { inner: Arc::clone(&self.inner) })
    }
}

struct TiledKernel {
    inner: Arc<Inner>,
}

impl Kernel for TiledKernel {
    fn spec(&self) -> KernelSpec {
        let tile = u64::from(TPB) * self.inner.elems_per_thread;
        KernelSpec {
            num_blocks: self.inner.elements.div_ceil(tile).max(1) as u32,
            threads_per_block: TPB,
            regs_per_thread: self.inner.regs_per_thread,
        }
    }

    fn warp_stream(&self, block: BlockId, warp_in_block: u16) -> WarpStream {
        let inner = &self.inner;
        let mut b = StreamBuilder::new();
        let warp_elems = 32 * inner.elems_per_thread;
        let start = block.index() as u64 * u64::from(TPB) * inner.elems_per_thread
            + u64::from(warp_in_block) * warp_elems;
        if start >= inner.elements {
            return b.build();
        }
        let n = warp_elems.min(inner.elements - start);
        for arr in &inner.inputs {
            b.load_seq(arr, start, n);
            // Stencil halo: read a window beyond the warp's own slice.
            if inner.halo > 0 {
                let h_end = (start + n + inner.halo).min(inner.elements);
                if h_end > start + n {
                    b.load_seq(arr, start + n, h_end - (start + n));
                }
            }
        }
        b.compute(inner.compute_per_elem.saturating_mul(n as u32));
        b.store_seq(&inner.output, start, n);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batmem_sim::ops::WarpOp;
    use std::collections::HashSet;

    #[test]
    fn suite_has_six_named_workloads() {
        let s = TiledRegular::suite(4096);
        let names: Vec<String> = s.iter().map(Workload::name).collect();
        assert_eq!(names, vec!["CFD", "DWT", "GM", "H3D", "HS", "LUD"]);
    }

    #[test]
    fn blocks_touch_disjoint_pages_modulo_halo() {
        let w = TiledRegular::with_tile("T", 1 << 16, 1, 1, 0, 4, 1);
        let k = w.kernel(KernelId::new(0));
        let geom = batmem_types::addr::PageGeometry::default();
        let pages_of_block = |blk: u32| -> HashSet<u64> {
            let mut pages = HashSet::new();
            for warp in 0..8 {
                let mut s = k.warp_stream(BlockId::new(blk), warp);
                while let Some(op) = s.next_op() {
                    for a in op.addrs() {
                        pages.insert(geom.page_of(*a).index());
                    }
                }
            }
            pages
        };
        // Blocks far apart share no pages (256 threads * 4 B = 1 KB per
        // block per array; 64 blocks per page -> compare block 0 and 128).
        let a = pages_of_block(0);
        let b = pages_of_block(128);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn streams_cover_all_elements() {
        let w = TiledRegular::with_tile("T", 1000, 1, 1, 0, 4, 1);
        let k = w.kernel(KernelId::new(0));
        let spec = k.spec();
        let mut stored = 0u64;
        for blk in 0..spec.num_blocks {
            for warp in 0..8 {
                let mut s = k.warp_stream(BlockId::new(blk), warp);
                while let Some(op) = s.next_op() {
                    if let WarpOp::Store(a) = &op {
                        stored += a.len() as u64;
                    }
                }
            }
        }
        // 1000 elements over 128 B lines: at least ceil(4000/128) stores.
        assert!(stored >= 32);
    }

    #[test]
    fn halo_reads_extend_past_tile() {
        let w = TiledRegular::with_tile("T", 4096, 1, 1, 64, 4, 1);
        let k = w.kernel(KernelId::new(0));
        let mut s = k.warp_stream(BlockId::new(0), 0);
        let mut max_addr = 0;
        while let Some(op) = s.next_op() {
            for a in op.addrs() {
                max_addr = max_addr.max(a.raw());
            }
        }
        // Warp 0 owns elements 0..32 (128 B); halo of 64 elems reaches 384 B.
        assert!(max_addr >= 128 + 4 * 32, "max addr {max_addr}");
    }
}
