//! The single-run workloads: one workload on one R-MAT graph under TO+UE.

use crate::digest::{self, Digest};
use crate::report::Report;
use crate::{host, stats};
use batmem::{RunMetrics, Simulation, SimulationBuilder};
use batmem_graph::{gen, Csr};
use batmem_sim::ops::Workload;
use batmem_types::SimError;
use batmem_workloads::registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// R-MAT edge factor of every input.
pub const EDGE_FACTOR: u32 = 16;

/// GPU memory as a share of the footprint (50% oversubscription).
pub const RATIO: f64 = 0.5;

/// Repetitions below which a median is not reported.
pub const MIN_REPS: usize = 3;

/// A policy as registry spec strings.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Eviction spec.
    pub eviction: &'static str,
    /// Prefetcher spec.
    pub prefetch: &'static str,
    /// Oversubscription spec.
    pub oversubscription: &'static str,
}

/// The paper's proposal: unobtrusive eviction plus thread oversubscription.
pub const TO_UE: Policy = Policy {
    eviction: "ue",
    prefetch: "tree:50",
    oversubscription: "to",
};

/// The prefetching baseline the paper's speedups are relative to.
pub const BASELINE: Policy = Policy {
    eviction: "lru",
    prefetch: "tree:50",
    oversubscription: "none",
};

/// A single-run workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Benchmark workload name.
    pub name: &'static str,
    /// Registry workload name.
    pub workload: &'static str,
    /// R-MAT scale.
    pub scale: u32,
}

/// The single-run workload called `name`.
///
/// # Panics
///
/// Panics on a name that is not a single-run workload (the command line
/// is validated before this is called).
pub fn spec(name: &str) -> Spec {
    match name {
        "bfs_ttc_s18" => Spec {
            name: "bfs_ttc_s18",
            workload: "BFS-TTC",
            scale: 18,
        },
        "kcore_s17" => Spec {
            name: "kcore_s17",
            workload: "KCORE",
            scale: 17,
        },
        other => panic!("`{other}` is not a single-run workload"),
    }
}

/// Builds the registry workload `name` over `graph`.
pub fn build(name: &str, graph: &Arc<Csr>) -> Box<dyn Workload> {
    registry::build(name, Arc::clone(graph)).expect("benchmark workloads are registered")
}

/// Runs `workload` on the serial engine under `policy` at [`RATIO`];
/// `attach` adds probes.
pub fn simulate(
    workload: Box<dyn Workload>,
    policy: Policy,
    attach: impl FnOnce(SimulationBuilder) -> SimulationBuilder,
) -> Result<RunMetrics, SimError> {
    let b = Simulation::builder()
        .eviction(policy.eviction)
        .prefetch(policy.prefetch)
        .oversubscription(policy.oversubscription)
        .memory_ratio(RATIO);
    attach(b).try_run(workload)
}

/// Checks `m` against the first repetition's digest (which it becomes
/// when there is none yet) and, for that first one, against the digest
/// pinned under `pin = (key, seed)`, if any.
pub fn check_run(
    label: &str,
    pin: Option<(&str, u64)>,
    m: &RunMetrics,
    first: &mut Option<Digest>,
) -> Result<(), String> {
    let d = Digest::of_run(m);
    match first {
        None => {
            let r = pin.map_or(Ok(()), |(key, seed)| digest::check_pinned(key, seed, &d));
            *first = Some(d);
            r
        }
        Some(f) => {
            let diff = f.diff(&d);
            if diff.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{label}: repetition differs from the first: {}",
                    diff.join(", ")
                ))
            }
        }
    }
}

/// Untraced end-to-end measurement: repeats input generation plus one
/// TO+UE run until `budget` is spent (at least [`MIN_REPS`] times), and
/// runs BASELINE once on the first repetition's graph for the speedup.
pub fn measure(spec: Spec, seed: u64, budget: Duration, report: &mut Report) {
    let began = Instant::now();
    let (mut setup, mut run, mut cell) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Digest> = None;
    let mut cycles = 0;
    let mut baseline_cycles = None;
    loop {
        let t0 = Instant::now();
        let graph = Arc::new(gen::rmat(spec.scale, EDGE_FACTOR, seed));
        let workload = build(spec.workload, &graph);
        let t1 = Instant::now();
        let result = simulate(workload, TO_UE, |b| b);
        let t2 = Instant::now();
        match result {
            Ok(m) => {
                cycles = m.cycles;
                report.attempt(check_run(
                    spec.name,
                    Some((spec.name, seed)),
                    &m,
                    &mut first,
                ));
            }
            Err(e) => report.attempt(Err(format!("{} TO+UE run: {e}", spec.name))),
        }
        setup.push((t1 - t0).as_secs_f64());
        run.push((t2 - t1).as_secs_f64());
        cell.push((t2 - t0).as_secs_f64());
        println!(
            "rep {}: setup {:.4} s, run {:.4} s",
            cell.len(),
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64()
        );
        if baseline_cycles.is_none() {
            let key = format!("{}/baseline", spec.name);
            match simulate(build(spec.workload, &graph), BASELINE, |b| b) {
                Ok(m) => {
                    baseline_cycles = Some(m.cycles);
                    report.attempt(check_run(&key, Some((&key, seed)), &m, &mut None));
                }
                Err(e) => report.attempt(Err(format!("{key} run: {e}"))),
            }
        }
        let next = Duration::from_secs_f64(stats::median(&cell));
        if report.has_failures() || (cell.len() >= MIN_REPS && began.elapsed() + next > budget) {
            break;
        }
    }
    if report.has_failures() {
        return;
    }
    let base = baseline_cycles.expect("baseline ran on the first repetition");
    report_timings(report, &setup, &run, &cell);
    report_rss(report);
    report.metric(
        "sim_cycles",
        cycles as f64,
        "TO+UE simulated cycles (exact)",
    );
    report_speedup(
        report,
        base as f64 / cycles as f64,
        &format!("BASELINE {base} / TO+UE {cycles} cycles"),
    );
}

/// Reports `setup_s`, `run_s`, `cell_s_p50`, and `cells_per_min` from
/// per-repetition samples.
fn report_timings(report: &mut Report, setup: &[f64], run: &[f64], cell: &[f64]) {
    report.metric("setup_s", stats::median(setup), stats::summary(setup));
    report.metric("run_s", stats::median(run), stats::summary(run));
    report.metric("cell_s_p50", stats::median(cell), stats::summary(cell));
    let total: f64 = cell.iter().sum();
    report.metric(
        "cells_per_min",
        cell.len() as f64 * 60.0 / total,
        format!("{} runs in {total:.3} s", cell.len()),
    );
}

/// Reports `peak_rss_mb`.
pub fn report_rss(report: &mut Report) {
    match host::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "VmHWM of this process"),
        None => report.fail("peak resident memory is not available on this platform"),
    }
}

/// Paper's average TO+UE speedup over the prefetching baseline (Fig. 11).
pub const PAPER_TO_UE: f64 = 2.00;

/// Reports `to_ue_speedup` beside the paper's figure and the error
/// against it.
pub fn report_speedup(report: &mut Report, speedup: f64, base: &str) {
    report.metric(
        "to_ue_speedup",
        speedup,
        format!(
            "{base}; paper Fig. 11 average {PAPER_TO_UE:.2}x, relative error {:+.1}% (the model \
             is checked only against the paper's reported averages)",
            (speedup / PAPER_TO_UE - 1.0) * 100.0
        ),
    );
}
