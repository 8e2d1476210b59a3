use super::*;
use batmem_sim::ops::WarpStream;
use batmem_types::policy::{EvictionPolicy, PolicyConfig, PrefetchPolicy, SwitchTrigger, ToConfig};
use batmem_types::probe::Probe;
use batmem_types::{BlockId, KernelId, VirtAddr};
use batmem_workloads::synthetic::{SharedPages, Strided};
use std::cell::RefCell;
use std::rc::Rc;

fn no_prefetch(mut p: PolicyConfig) -> PolicyConfig {
    p.prefetch = PrefetchPolicy::None;
    p
}

#[test]
fn single_warp_single_page_timing() {
    // One block, one warp, one page, one load: time = walk + ISR +
    // handling + transfer + retry pipeline.
    let w = Strided::new(1, 32, 32, 1, 0, 1);
    let m = Simulation::builder()
        .policy(no_prefetch(PolicyConfig::baseline()))
        .try_run(Box::new(w)).unwrap();
    assert_eq!(m.uvm.num_batches(), 1);
    assert_eq!(m.uvm.batches[0].faults, 1);
    // Lower bound: ISR (1k) + handling (20k) + page transfer (~4.2k).
    assert!(m.cycles > 25_000, "{}", m.cycles);
    assert!(m.cycles < 40_000, "{}", m.cycles);
}

#[test]
fn shared_page_fault_wakes_all_waiters() {
    // 64 blocks all reading the same 3 pages: one batch serves everyone.
    let w = SharedPages::new(64, 256, 32, 3, 10);
    let m = Simulation::builder()
        .policy(no_prefetch(PolicyConfig::baseline()))
        .try_run(Box::new(w)).unwrap();
    let faults: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert_eq!(faults, 3, "shared pages must fault once each");
    assert_eq!(m.blocks_retired, 64);
}

#[test]
fn to_context_switches_on_fault_stalls() {
    // Tiny capacity + per-warp disjoint pages: active blocks stall fully
    // and the provisioned inactive blocks must switch in.
    let w = Strided::new(200, 256, 56, 2, 50, 3);
    let mut policy = no_prefetch(PolicyConfig::to_only());
    policy.oversubscription = ToConfig { max_extra_blocks: 3, ..ToConfig::enabled() };
    let m = Simulation::builder().policy(policy).memory_ratio(0.25).try_run(Box::new(w)).unwrap();
    assert!(m.ctx_switches > 0, "no switches despite fault stalls");
    assert!(m.ctx_switch_cycles > 0);
    assert_eq!(m.blocks_retired, 200);
}

#[test]
fn any_stall_trigger_switches_without_faults() {
    let w = Strided::new(200, 256, 56, 2, 0, 4);
    let mut policy = no_prefetch(PolicyConfig::to_only());
    policy.oversubscription =
        ToConfig { trigger: SwitchTrigger::AnyStall, ..ToConfig::enabled() };
    let m = Simulation::builder().policy(policy).try_run(Box::new(w)).unwrap();
    assert_eq!(m.uvm.evictions, 0);
    assert!(m.ctx_switches > 0, "AnyStall must switch on memory stalls");
}

#[test]
fn fault_stall_trigger_switches_no_more_than_any_stall() {
    // First-touch demand faults exist even with unlimited memory, so
    // FaultStall may switch — but AnyStall adds every memory stall as a
    // trigger, so it can never switch less.
    let run = |trigger: SwitchTrigger| {
        let w = Strided::new(200, 256, 56, 2, 0, 4);
        let mut policy = no_prefetch(PolicyConfig::to_only());
        policy.oversubscription = ToConfig { trigger, ..ToConfig::enabled() };
        Simulation::builder().policy(policy).try_run(Box::new(w)).unwrap()
    };
    let fault_stall = run(SwitchTrigger::FaultStall);
    let any_stall = run(SwitchTrigger::AnyStall);
    assert!(fault_stall.ctx_switches <= any_stall.ctx_switches);
    assert!(any_stall.ctx_switches > 0);
}

#[test]
fn severe_oversubscription_still_terminates() {
    // Capacity 2 pages, ops spanning more pages than capacity: the
    // per-lane replay rule must guarantee forward progress.
    let w = SharedPages::new(8, 256, 32, 12, 5);
    let m = Simulation::builder()
        .policy(no_prefetch(PolicyConfig::baseline()))
        .memory_pages(2)
        .try_run(Box::new(w)).unwrap();
    assert_eq!(m.blocks_retired, 8);
    assert!(m.uvm.evictions > 0);
    assert!(m.uvm.peak_resident_pages <= 2);
}

#[test]
fn severe_oversubscription_terminates_under_ue() {
    let w = SharedPages::new(8, 256, 32, 12, 5);
    let mut policy = no_prefetch(PolicyConfig::ue_only());
    policy.eviction = EvictionPolicy::Unobtrusive;
    let m = Simulation::builder().policy(policy).memory_pages(2).try_run(Box::new(w)).unwrap();
    assert_eq!(m.blocks_retired, 8);
}

#[test]
fn compute_only_workload_never_faults() {
    // repeats * compute with one page per warp: after the first touch,
    // everything is compute; the page count equals warps.
    let w = Strided::new(4, 64, 16, 1, 1_000, 16);
    let m = Simulation::builder().policy(no_prefetch(PolicyConfig::baseline())).try_run(Box::new(w)).unwrap();
    let faults: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert_eq!(faults, 4 * 2); // 4 blocks x 2 warps x 1 page
    assert!(m.mem_ops > faults);
}

#[test]
fn mem_ops_count_replays() {
    let w = Strided::new(1, 32, 32, 4, 0, 1);
    let m = Simulation::builder().policy(no_prefetch(PolicyConfig::baseline())).try_run(Box::new(w)).unwrap();
    // 4 loads + 4 replays after their faults.
    assert_eq!(m.mem_ops, 8);
}

/// The default 64 KB page.
const PAGE_BYTES: u64 = 1 << 16;

/// One warp that loads a line of page 1, then gathers four lines over
/// pages 0, 1 and 2, with the page-1 lane between the others.
struct PartlyResidentGather;

impl Workload for PartlyResidentGather {
    fn name(&self) -> String {
        "PARTLY-RESIDENT-GATHER".to_string()
    }

    fn footprint_bytes(&self) -> u64 {
        3 * PAGE_BYTES
    }

    fn num_kernels(&self) -> u32 {
        1
    }

    fn kernel(&self, _k: KernelId) -> Box<dyn Kernel> {
        Box::new(PartlyResidentGather)
    }
}

impl Kernel for PartlyResidentGather {
    fn spec(&self) -> KernelSpec {
        KernelSpec { num_blocks: 1, threads_per_block: 32, regs_per_thread: 32 }
    }

    fn warp_stream(&self, _block: BlockId, _warp_in_block: u16) -> WarpStream {
        let line = |page: u64, line: u64| VirtAddr::new(page * PAGE_BYTES + line * 128);
        let mut s = WarpStream::new();
        s.load([line(1, 0)]);
        s.load([line(0, 0), line(0, 1), line(1, 1), line(2, 0)]);
        s
    }
}

/// Records the `waiting_pages` of every `WarpStalled` event.
struct StallLog(Rc<RefCell<Vec<u32>>>);

impl Probe for StallLog {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        if let ProbeEvent::WarpStalled { waiting_pages, .. } = event {
            self.0.borrow_mut().push(*waiting_pages);
        }
    }
}

#[test]
fn partly_resident_gather_replays_only_the_faulted_lanes() {
    // The first load makes page 1 resident. The gather then faults on
    // pages 0 and 2 only, and its replay re-issues just their three lanes
    // (the order they replay in is pinned by `WarpStream`'s own tests).
    let stalls = Rc::new(RefCell::new(Vec::new()));
    let m = Simulation::builder()
        .policy(no_prefetch(PolicyConfig::baseline()))
        .probe(StallLog(Rc::clone(&stalls)))
        .try_run(Box::new(PartlyResidentGather))
        .unwrap();
    // Load, its replay, the gather, its replay.
    assert_eq!(m.mem_ops, 4);
    let faults: u64 = m.uvm.batches.iter().map(|b| u64::from(b.faults)).sum();
    assert_eq!(faults, 3, "pages 1, 0 and 2 fault once each");
    assert_eq!(*stalls.borrow(), vec![1, 2], "the gather waits on two pages, not three");
    // Only completed issues reach the data path: one lane for the load's
    // replay and three for the gather's. A replayed page-1 lane would make
    // it five.
    assert_eq!(m.l1d.accesses(), 4);
    assert_eq!(m.warps_retired, 1);
}

#[test]
fn builder_ratio_sets_capacity_from_footprint() {
    let w = Strided::new(4, 256, 32, 4, 10, 1); // 4*8*4 = 128 pages
    let m = Simulation::builder()
        .policy(no_prefetch(PolicyConfig::baseline()))
        .memory_ratio(0.25)
        .try_run(Box::new(w)).unwrap();
    assert_eq!(m.memory_pages, Some(32));
}

#[test]
#[should_panic(expected = "memory ratio must be positive")]
fn zero_ratio_panics() {
    let _ = Simulation::builder().memory_ratio(0.0);
}
