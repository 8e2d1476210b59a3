//! The traced run: spans around the benchmark's calls into each layer,
//! layer replays, and the per-layer metrics derived from them.
//!
//! A traced run never reports end-to-end metrics; those come only from
//! untraced runs. Spans are kept in memory and written to
//! `.bench_out/<workload>-seed<seed>-spans.jsonl` when the run ends.

use crate::digest::Digest;
use crate::replay::{self, FaultLog, StreamReplay, UvmReplay};
use crate::report::Report;
use crate::single::{self, Spec, EDGE_FACTOR, RATIO, TO_UE};
use crate::spans::{self, SpanLog};
use crate::sweep::{self, SCALE};
use batmem::policies::ConfigName;
use batmem::probes::{MetricsRow, MetricsSink, Tracer};
use batmem::{RunMetrics, SimConfig};
use batmem_bench::sweep::{CellPolicy, SweepCell, SweepPlan};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events the bounded tracer of the probe-overhead run keeps.
const TRACER_CAPACITY: usize = 1 << 16;

/// Rounds of (plain, traced, probed) runs below which overheads are not
/// reported for a single-run workload.
const MIN_ROUNDS: usize = 3;

/// Everything the traced run accumulates across its subjects.
#[derive(Debug, Default)]
struct Layers {
    rmat_s: f64,
    edges: u64,
    build_s: f64,
    streams: StreamReplay,
    uvm: UvmReplay,
    plain_s: f64,
    traced_s: f64,
    probed_s: f64,
    core_self_s: f64,
    /// The first traced run of each subject.
    runs: Vec<RunMetrics>,
}

/// One workload on one graph, simulated under TO+UE.
struct Subject<'a> {
    workload: &'a str,
    scale: u32,
    seed: u64,
    /// Digest key pinned at the pinned seed, if any.
    pinned: Option<&'a str>,
    /// Offset of the run-kind rotation (see [`trace_subject`]).
    rotate: usize,
}

fn sum(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> u64) -> u64 {
    runs.iter().map(f).sum()
}

/// Generates the subject's input, runs rounds of three simulations while
/// `more(round)` holds (at least one round), then replays the first traced
/// run's inputs through each layer. Returns the subject's simulated cycles.
///
/// The three kinds of simulation are plain (no probe), traced (the
/// benchmark's fault log), and probed (`MetricsSink` plus a bounded
/// `Tracer`); every one is checked against the first one's digest.
fn trace_subject(
    s: &Subject,
    more: impl Fn(usize) -> bool,
    log: &mut SpanLog,
    layers: &mut Layers,
    report: &mut Report,
) -> Option<u64> {
    let (graph, _, d) = log.time("graph.rmat", None, || {
        Arc::new(gen::rmat(s.scale, EDGE_FACTOR, s.seed))
    });
    layers.rmat_s += d;
    layers.edges += graph.num_edges();
    let (workload, _, d) = log.time("workloads.build", None, || {
        single::build(s.workload, &graph)
    });
    layers.build_s += d;
    let mut workload = Some(workload);
    let mut next = || {
        workload
            .take()
            .unwrap_or_else(|| single::build(s.workload, &graph))
    };

    let name = format!("{}@s{}x{}", s.workload, s.scale, s.seed);
    let mut first: Option<Digest> = None;
    let mut check = |r: Result<RunMetrics, batmem_types::SimError>, report: &mut Report| {
        let outcome = r.map_err(|e| format!("{name}: {e}")).and_then(|m| {
            single::check_run(&name, s.pinned.map(|k| (k, s.seed)), &m, &mut first).map(|()| m)
        });
        let m = outcome.as_ref().ok().cloned();
        report.attempt(outcome.map(|_| ()));
        m
    };

    let mut traced: Option<(u64, RunMetrics, Vec<_>)> = None;
    let mut round = 0;
    loop {
        // Rotate which kind runs first, so the first run's cold caches and
        // allocator growth do not always land on the same kind.
        for kind in (0..3).map(|k| (k + round + s.rotate) % 3) {
            let w = next();
            match kind {
                0 => {
                    let t = Instant::now();
                    let r = single::simulate(w, TO_UE, |b| b);
                    layers.plain_s += t.elapsed().as_secs_f64();
                    check(r, report)?;
                }
                1 => {
                    let faults = FaultLog::default();
                    let probe = faults.clone();
                    let (r, id, d) = log.time("core.try_run", None, || {
                        single::simulate(w, TO_UE, |b| b.probe(probe))
                    });
                    layers.traced_s += d;
                    let m = check(r, report)?;
                    if traced.is_none() {
                        traced = Some((id, m, faults.take()));
                    }
                }
                _ => {
                    let (sink, tracer) = (MetricsSink::new(), Tracer::bounded(TRACER_CAPACITY));
                    let t = Instant::now();
                    let r = single::simulate(w, TO_UE, |b| b.probe(sink).probe(tracer));
                    layers.probed_s += t.elapsed().as_secs_f64();
                    check(r, report)?;
                }
            }
        }
        round += 1;
        if !more(round) {
            break;
        }
    }

    let (parent, m, faults) = traced.expect("at least one round ran");
    let cfg = SimConfig::default();
    let footprint_pages = m.footprint_bytes.div_ceil(cfg.uvm.page_bytes());
    let w = next();
    let streams = replay::replay_streams(&*w, &cfg, footprint_pages, log, parent);
    report.attempt(
        streams
            .map(|r| add_streams(&mut layers.streams, r))
            .map_err(|e| format!("{name} stream replay: {e}")),
    );
    let (uvm, _, _) = log.time("uvm.fault_stream", Some(parent), || {
        replay::replay_faults(
            &cfg,
            TO_UE.eviction,
            TO_UE.prefetch,
            m.memory_pages,
            footprint_pages,
            &faults,
        )
    });
    report.attempt(
        uvm.map(|u| add_uvm(&mut layers.uvm, u))
            .map_err(|e| format!("{name} fault replay: {e}")),
    );
    layers.core_self_s += spans::self_time(log.spans(), parent);
    let cycles = m.cycles;
    layers.runs.push(m);
    Some(cycles)
}

fn add_streams(total: &mut StreamReplay, r: StreamReplay) {
    total.fabricate_s += r.fabricate_s;
    total.translate_s += r.translate_s;
    total.data_path_s += r.data_path_s;
    total.warp_ops += r.warp_ops;
    total.addrs += r.addrs;
    total.translations += r.translations;
    total.mem_ops += r.mem_ops;
}

fn add_uvm(total: &mut UvmReplay, r: UvmReplay) {
    total.seconds += r.seconds;
    total.faults += r.faults;
    total.skipped += r.skipped;
    total.batches += r.batches;
}

/// Runs `cells` through the pool once with spans, replays the store's
/// flush and load, and reports the `sweep.*` metrics. Returns the rows.
fn trace_pass(
    cells: &[SweepCell],
    log: &mut SpanLog,
    report: &mut Report,
) -> Option<BTreeMap<String, MetricsRow>> {
    let pass = match sweep::run_pass(cells, "traced") {
        Ok(p) => p,
        Err(e) => {
            report.attempt(Err(e));
            return None;
        }
    };
    let start = log.offset(pass.began);
    let run = log.push("sweep.run", None, start, start + pass.wall);
    for (s, e) in &pass.cells {
        log.push("sweep.cell", Some(run), log.offset(*s), log.offset(*e));
    }
    let rows = pass.check(cells, report);
    let (flushed, _, flush_s) = log.time("sweep.store_flush", None, || {
        pass.store.flush(&pass.report.records)
    });
    let (loaded, _, load_s) = log.time("sweep.store_load", None, || pass.store.load());
    pass.remove();
    report.attempt(flushed.map_err(|e| format!("store flush: {e}")));
    report.attempt(match loaded {
        Ok(l) if l.records.len() == cells.len() => Ok(()),
        Ok(l) => Err(format!(
            "store load found {} of {} records",
            l.records.len(),
            cells.len()
        )),
        Err(e) => Err(format!("store load: {e}")),
    });
    let cell_s: f64 = pass.cell_seconds().iter().sum();
    report.metric(
        "sweep.cell_s_sum",
        cell_s,
        format!(
            "{} cells; {}",
            pass.cells.len(),
            crate::stats::summary(&pass.cell_seconds())
        ),
    );
    report.metric(
        "sweep.pool_idle_pct",
        (1.0 - cell_s / (pass.workers as f64 * pass.wall)) * 100.0,
        format!(
            "1 - {cell_s:.3} s / ({} workers x {:.3} s wall)",
            pass.workers, pass.wall
        ),
    );
    report.metric(
        "sweep.store_flush_s",
        flush_s,
        format!("{} records", pass.report.records.len()),
    );
    report.metric(
        "sweep.store_load_s",
        load_s,
        format!("{} records", cells.len()),
    );
    println!(
        "  sweep.retries                  {} (attempts beyond the first)",
        pass.retries()
    );
    Some(rows)
}

/// Reports every per-layer metric derived from `layers`.
fn report_layers(report: &mut Report, l: &Layers) {
    let rate = |hits: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let ns = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let subjects = l.runs.len();
    report.metric("graph.rmat_s", l.rmat_s, format!("{subjects} graphs"));
    report.metric("graph.edges", l.edges as f64, format!("{subjects} graphs"));
    report.metric(
        "workloads.build_s",
        l.build_s,
        format!("{subjects} workloads"),
    );

    let s = &l.streams;
    report.metric(
        "workloads.fabricate_s",
        s.fabricate_s,
        "every warp stream drained",
    );
    report.metric(
        "workloads.warp_ops",
        s.warp_ops as f64,
        format!("{} memory ops", s.mem_ops),
    );
    report.metric(
        "workloads.addrs",
        s.addrs as f64,
        "transactions of memory ops",
    );
    report.metric(
        "workloads.addrs_per_op",
        rate(s.addrs, s.mem_ops),
        format!("{} addrs / {} memory ops", s.addrs, s.mem_ops),
    );
    report.metric(
        "workloads.fabricate_ns_per_op",
        ns(s.fabricate_s, s.warp_ops),
        format!("{:.4} s / {} warp ops", s.fabricate_s, s.warp_ops),
    );

    report.metric(
        "vmem.translate_s",
        s.translate_s,
        "page stream, every page installed",
    );
    report.metric(
        "vmem.translate_ns",
        ns(s.translate_s, s.translations),
        format!("{:.4} s / {} translations", s.translate_s, s.translations),
    );
    let (l1h, l1m) = (
        sum(&l.runs, |m| m.mmu.l1.hits),
        sum(&l.runs, |m| m.mmu.l1.misses),
    );
    let (l2h, l2m) = (
        sum(&l.runs, |m| m.mmu.l2.hits),
        sum(&l.runs, |m| m.mmu.l2.misses),
    );
    report.metric(
        "vmem.l1_tlb_hit_rate",
        rate(l1h, l1h + l1m),
        format!("{l1h} hits / {} lookups", l1h + l1m),
    );
    report.metric(
        "vmem.l2_tlb_hit_rate",
        rate(l2h, l2h + l2m),
        format!("{l2h} hits / {} lookups", l2h + l2m),
    );
    report.metric(
        "vmem.walks",
        sum(&l.runs, |m| m.mmu.walks) as f64,
        "from RunMetrics",
    );

    report.metric(
        "sim.data_path_s",
        s.data_path_s,
        "address stream through MemPath::access",
    );
    report.metric(
        "sim.data_path_ns",
        ns(s.data_path_s, s.addrs),
        format!("{:.4} s / {} accesses", s.data_path_s, s.addrs),
    );
    let (h1, a1) = (
        sum(&l.runs, |m| m.l1d.hits),
        sum(&l.runs, |m| m.l1d.accesses()),
    );
    let (h2, a2) = (
        sum(&l.runs, |m| m.l2d.hits),
        sum(&l.runs, |m| m.l2d.accesses()),
    );
    report.metric(
        "sim.l1d_hit_rate",
        rate(h1, a1),
        format!("{h1} hits / {a1} accesses"),
    );
    report.metric(
        "sim.l2d_hit_rate",
        rate(h2, a2),
        format!("{h2} hits / {a2} accesses"),
    );
    report.metric(
        "sim.mem_ops",
        sum(&l.runs, |m| m.mem_ops) as f64,
        "from RunMetrics",
    );
    report.metric(
        "sim.ctx_switches",
        sum(&l.runs, |m| m.ctx_switches) as f64,
        "from RunMetrics",
    );

    let u = &l.uvm;
    report.metric(
        "uvm.replay_s",
        u.seconds,
        format!(
            "{} faults replayed, {} skipped, {} batches formed",
            u.faults, u.skipped, u.batches
        ),
    );
    report.metric(
        "uvm.ns_per_fault",
        ns(u.seconds, u.faults),
        format!("{:.4} s / {} faults", u.seconds, u.faults),
    );
    let batches = sum(&l.runs, |m| m.uvm.num_batches());
    let batch_pages: u64 = l
        .runs
        .iter()
        .flat_map(|m| &m.uvm.batches)
        .map(|b| u64::from(b.pages()))
        .sum();
    let evictions = sum(&l.runs, |m| m.uvm.evictions);
    let premature = sum(&l.runs, |m| m.uvm.premature_evictions);
    report.metric(
        "uvm.faults",
        sum(&l.runs, |m| m.uvm.faults_raised) as f64,
        "from RunMetrics",
    );
    report.metric("uvm.batches", batches as f64, "from RunMetrics");
    report.metric(
        "uvm.avg_batch_pages",
        rate(batch_pages, batches),
        format!("{batch_pages} pages / {batches} batches"),
    );
    report.metric("uvm.evictions", evictions as f64, "from RunMetrics");
    report.metric(
        "uvm.prefetches",
        sum(&l.runs, |m| m.uvm.prefetches) as f64,
        "from RunMetrics",
    );
    report.metric(
        "uvm.premature_ratio",
        rate(premature, evictions),
        format!("{premature} premature / {evictions} evictions"),
    );

    let replays = s.fabricate_s + s.translate_s + s.data_path_s + u.seconds;
    report.metric(
        "core.self_s",
        l.core_self_s,
        format!(
            "traced try_run minus {replays:.4} s of replays (estimate; replays run in isolation)"
        ),
    );
    let pct = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    report.metric(
        "probes.overhead_pct",
        pct(l.probed_s, l.plain_s),
        format!(
            "MetricsSink + Tracer {:.4} s vs none {:.4} s",
            l.probed_s, l.plain_s
        ),
    );
    report.metric(
        "trace.overhead_pct",
        pct(l.traced_s, l.plain_s),
        format!(
            "traced try_run {:.4} s vs untraced {:.4} s",
            l.traced_s, l.plain_s
        ),
    );
}

fn write_spans(log: &SpanLog, name: &str, seed: u64, report: &mut Report) {
    let dir = crate::out_dir();
    let path = dir.join(format!("{name}-seed{seed}-spans.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.to_jsonl()));
    match written {
        Ok(()) => println!("spans: {} written to {}", log.spans().len(), path.display()),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

/// Traced run of a single-run workload.
pub fn single(spec: Spec, seed: u64, budget: Duration, report: &mut Report) {
    report.set_traced();
    let began = Instant::now();
    let mut log = SpanLog::new(format!("{}-seed{seed}", spec.name));
    let mut layers = Layers::default();
    let subject = Subject {
        workload: spec.workload,
        scale: spec.scale,
        seed,
        pinned: Some(spec.name),
        rotate: 0,
    };
    let more = |round: usize| round < MIN_ROUNDS || began.elapsed() < budget / 2;
    let Some(cycles) = trace_subject(&subject, more, &mut log, &mut layers, report) else {
        return;
    };
    // The same run as a one-cell sweep, for the pool and store layers; its
    // cycles must equal those of the run named by spec strings.
    let plan = SweepPlan {
        workloads: vec![spec.workload.to_string()],
        policies: vec![CellPolicy::Preset(ConfigName::ToUe)],
        scales: vec![spec.scale],
        edge_factors: vec![EDGE_FACTOR],
        ratios: vec![RATIO],
        seeds: vec![seed],
        ..SweepPlan::default()
    };
    let cells = match plan.cells() {
        Ok(c) => c,
        Err(e) => return report.attempt(Err(format!("one-cell plan: {e}"))),
    };
    report_layers(report, &layers);
    if let Some(rows) = trace_pass(&cells, &mut log, report) {
        let cell_cycles = rows.values().next().map(|r| r.cycles);
        if cell_cycles != Some(cycles) {
            report.fail(format!(
                "sweep cell ran {cell_cycles:?} cycles, direct run {cycles}"
            ));
        }
    }
    write_spans(&log, spec.name, seed, report);
}

/// Traced run of the sweep: every workload under TO+UE at both seeds as
/// subjects (one round each), then one traced pass of the full sweep. The
/// amount of work is fixed, so the time budget is not consulted.
pub fn sweep(seed: u64, report: &mut Report) {
    report.set_traced();
    let mut log = SpanLog::new(format!("sweep_s14-seed{seed}"));
    let mut layers = Layers::default();
    let mut subject_cycles = BTreeMap::new();
    for s in [seed, seed + 1] {
        for w in registry::irregular_names() {
            let subject = Subject {
                workload: w,
                scale: sweep::input_scale(w, SCALE),
                seed: s,
                pinned: None,
                rotate: subject_cycles.len(),
            };
            match trace_subject(&subject, |_| false, &mut log, &mut layers, report) {
                Some(c) => subject_cycles.insert((w.to_string(), s), c),
                None => return,
            };
        }
    }
    let cells = match sweep::plan(seed).cells() {
        Ok(c) => c,
        Err(e) => return report.attempt(Err(format!("sweep plan: {e}"))),
    };
    report_layers(report, &layers);
    if let Some(rows) = trace_pass(&cells, &mut log, report) {
        if let Err(e) = crate::digest::check_pinned("sweep_s14", seed, &sweep::digest_of(&rows)) {
            report.fail(e);
        }
        let to_ue = CellPolicy::Preset(ConfigName::ToUe);
        for c in cells.iter().filter(|c| c.policy == to_ue) {
            let want = subject_cycles.get(&(c.workload.clone(), c.seed)).copied();
            let got = rows.get(&c.label()).map(|r| r.cycles);
            if got != want {
                report.fail(format!(
                    "{}: sweep cell ran {got:?} cycles, direct run {want:?}",
                    c.label()
                ));
            }
        }
    }
    write_spans(&log, "sweep_s14", seed, report);
}
