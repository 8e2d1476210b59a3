//! Layer replays: a workload's real inputs fed through one layer's public
//! functions on their own, each timed inside a span.
//!
//! The replays run after the simulation they dissect and in isolation
//! from each other, so their host times estimate (and do not partition)
//! the time the same work takes inside the engine.

use crate::spans::SpanLog;
use batmem::{PolicyRegistry, Probe, ProbeEvent, SimConfig, StrategyCtx};
use batmem_sim::ops::Workload;
use batmem_sim::MemPath;
use batmem_types::{BlockId, Cycle, FrameId, KernelId, PageId, SimError, SmId, VirtAddr};
use batmem_uvm::{UvmEvent, UvmOutput, UvmRuntime};
use batmem_vmem::{Mmu, TranslationOutcome};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::rc::Rc;

/// A probe that records every fault the engine hands the UVM runtime
/// (raised or absorbed), in call order, for [`replay_faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultLog(Rc<RefCell<Vec<(Cycle, PageId)>>>);

impl FaultLog {
    /// The recorded `(cycle, page)` stream.
    pub fn take(&self) -> Vec<(Cycle, PageId)> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl Probe for FaultLog {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        if let ProbeEvent::FaultRaised { page } | ProbeEvent::FaultAbsorbed { page } = event {
            self.0.borrow_mut().push((at, *page));
        }
    }
}

/// Work and host time of the warp-stream, translation, and data-path
/// replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReplay {
    /// Seconds spent building and draining warp streams.
    pub fabricate_s: f64,
    /// Seconds spent in `Mmu::translate`.
    pub translate_s: f64,
    /// Seconds spent in `MemPath::access`.
    pub data_path_s: f64,
    /// Warp operations drained (compute and memory).
    pub warp_ops: u64,
    /// Memory operations among them.
    pub mem_ops: u64,
    /// Memory transactions (addresses) the memory operations carry.
    pub addrs: u64,
    /// Translations performed (distinct pages per memory operation).
    pub translations: u64,
}

/// Drives every warp stream of every kernel to exhaustion, then replays
/// the kernel's page stream through an MMU with every page installed and
/// its address stream through the L1/L2 data path.
///
/// Warps are drained block by block; block `b` is attributed to SM
/// `b % num_sms`. The translation replay advances its clock by each
/// translation's latency, so walks never queue.
///
/// # Errors
///
/// Propagates MMU errors, and reports a fault on a page the replay
/// installed as an accounting error.
pub fn replay_streams(
    workload: &dyn Workload,
    cfg: &SimConfig,
    footprint_pages: u64,
    spans: &mut SpanLog,
    parent: u64,
) -> Result<StreamReplay, SimError> {
    let mut out = StreamReplay::default();
    let mut mmu = Mmu::new(cfg);
    for p in 0..footprint_pages {
        let frame = u32::try_from(p).expect("footprint fits 32-bit frame ids");
        mmu.install(PageId::new(p), FrameId::new(frame), 0)?;
    }
    let mut mem = MemPath::new(&cfg.mem, cfg.gpu.num_sms);
    let geom = cfg.uvm.geometry;
    let num_sms = u32::from(cfg.gpu.num_sms);
    let mut addrs: Vec<VirtAddr> = Vec::new();
    // Per memory op: its SM and the end of its slice of `addrs`.
    let mut ops: Vec<(u16, usize)> = Vec::new();
    let mut pages: Vec<PageId> = Vec::with_capacity(32);
    let mut clock: Cycle = 0;
    let mut checksum: Cycle = 0;
    for k in 0..workload.num_kernels() {
        addrs.clear();
        ops.clear();
        let start = spans.now();
        let kernel = workload.kernel(KernelId::new(k));
        let spec = kernel.spec();
        let warps = spec.warps_per_block(cfg.gpu.warp_size);
        for b in 0..spec.num_blocks {
            let sm = (b % num_sms) as u16;
            for w in 0..warps {
                let mut stream = kernel.warp_stream(BlockId::new(b), w as u16);
                while let Some(op) = stream.next_op() {
                    out.warp_ops += 1;
                    if op.is_mem() {
                        addrs.extend_from_slice(op.addrs());
                        ops.push((sm, addrs.len()));
                    }
                }
            }
        }
        let fabricated = spans.now();
        spans.push("workloads.fabricate", Some(parent), start, fabricated);
        out.fabricate_s += fabricated - start;
        out.mem_ops += ops.len() as u64;
        out.addrs += addrs.len() as u64;

        let mut lo = 0;
        for &(sm, hi) in &ops {
            // One translation per distinct page of the op, as the engine's
            // coalescer issues them.
            pages.clear();
            for a in &addrs[lo..hi] {
                let page = geom.page_of(*a);
                if pages.contains(&page) {
                    continue;
                }
                pages.push(page);
                let t = mmu.translate(SmId::new(sm), page, clock)?;
                if t.outcome == TranslationOutcome::Fault {
                    return Err(SimError::Accounting {
                        cycle: clock,
                        detail: format!("translation replay faulted on installed page {page}"),
                    });
                }
                clock += t.latency;
            }
            out.translations += pages.len() as u64;
            lo = hi;
        }
        let translated = spans.now();
        spans.push("vmem.translate", Some(parent), fabricated, translated);
        out.translate_s += translated - fabricated;

        let mut lo = 0;
        for &(sm, hi) in &ops {
            for a in &addrs[lo..hi] {
                checksum = checksum.wrapping_add(mem.access(usize::from(sm), *a));
            }
            lo = hi;
        }
        let accessed = spans.now();
        spans.push("sim.data_path", Some(parent), translated, accessed);
        out.data_path_s += accessed - translated;
    }
    black_box(checksum);
    Ok(out)
}

/// Work and host time of the fault-stream replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct UvmReplay {
    /// Seconds spent in the runtime's entry points and the replay's event
    /// queue.
    pub seconds: f64,
    /// Faults delivered to `record_fault_into`.
    pub faults: u64,
    /// Recorded faults skipped because the replayed runtime already had
    /// the page resident or in flight (its timing drifted from the run's).
    pub skipped: u64,
    /// Batches the replayed runtime formed.
    pub batches: u64,
}

/// Replays a recorded fault stream through a fresh `UvmRuntime` with the
/// run's capacity and registry-built strategies, delivering the runtime's
/// own scheduled events in `(time, order)` sequence between faults.
///
/// # Errors
///
/// Propagates unknown specs and runtime errors.
pub fn replay_faults(
    cfg: &SimConfig,
    eviction: &str,
    prefetch: &str,
    capacity: Option<u64>,
    footprint_pages: u64,
    faults: &[(Cycle, PageId)],
) -> Result<UvmReplay, SimError> {
    let registry = PolicyRegistry::builtin();
    let ctx = StrategyCtx {
        pages_per_region: cfg.uvm.pages_per_region(),
    };
    let mut uvm_cfg = cfg.uvm.clone();
    uvm_cfg.gpu_mem_pages = capacity;
    let mut rt = UvmRuntime::with_strategies(
        &uvm_cfg,
        &cfg.policy,
        footprint_pages,
        registry.build_eviction(eviction, &ctx)?,
        registry.build_prefetcher(prefetch, &ctx)?,
        registry.build_coalesce("off")?,
    );
    let mut pending = Pending::default();
    let mut outs: Vec<UvmOutput> = Vec::new();
    let mut out = UvmReplay::default();
    let start = std::time::Instant::now();
    for &(at, page) in faults {
        pending.deliver(&mut rt, &mut outs, at)?;
        if rt.is_inflight(page) || rt.is_resident(page) {
            out.skipped += 1;
            continue;
        }
        rt.record_fault_into(page, at, &mut outs)?;
        pending.push(&mut outs, at);
        out.faults += 1;
    }
    pending.deliver(&mut rt, &mut outs, Cycle::MAX)?;
    out.seconds = start.elapsed().as_secs_f64();
    out.batches = rt.stats().num_batches();
    Ok(out)
}

/// The replay's event queue: runtime events by (time, scheduling order).
#[derive(Debug, Default)]
struct Pending {
    queue: BinaryHeap<Reverse<(Cycle, usize)>>,
    events: Vec<UvmEvent>,
}

impl Pending {
    /// Queues the runtime's `Schedule` commands and drops the others
    /// (installs and evictions act on engine state the replay does not
    /// model).
    fn push(&mut self, outs: &mut Vec<UvmOutput>, now: Cycle) {
        for o in outs.drain(..) {
            if let UvmOutput::Schedule { at, event } = o {
                self.queue.push(Reverse((at.max(now), self.events.len())));
                self.events.push(event);
            }
        }
    }

    /// Delivers every queued event due at or before `limit`, in order,
    /// queueing whatever they schedule.
    fn deliver(
        &mut self,
        rt: &mut UvmRuntime,
        outs: &mut Vec<UvmOutput>,
        limit: Cycle,
    ) -> Result<(), SimError> {
        while let Some(&Reverse((at, idx))) = self.queue.peek() {
            if at > limit {
                break;
            }
            self.queue.pop();
            rt.on_event_into(self.events[idx], at, outs)?;
            self.push(outs, at);
        }
        Ok(())
    }
}
