//! The sweep workload: every irregular workload under every preset at two
//! seeds, through the fault-tolerant sweep pool into a fresh artifact
//! store.

use crate::digest::{self, Digest};
use crate::report::Report;
use crate::single::{self, EDGE_FACTOR, RATIO};
use crate::stats;
use batmem::policies::ConfigName;
use batmem::probes::MetricsRow;
use batmem::SimConfig;
use batmem_bench::sweep::{
    self as pool, ArtifactStore, CellPolicy, CellRunner, PoolConfig, SweepCell, SweepPlan,
    SweepReport,
};
use batmem_graph::gen;
use batmem_workloads::registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// R-MAT scale of the sweep.
pub const SCALE: u32 = 14;

/// Sweep passes below which a median is not reported.
const MIN_PASSES: usize = 2;

/// Input set-ups timed per run.
const SETUP_REPS: usize = 5;

/// The sweep's plan at `seed`: all 11 irregular workloads, every preset,
/// seeds `seed` and `seed + 1`.
pub fn plan(seed: u64) -> SweepPlan {
    SweepPlan {
        workloads: registry::irregular_names()
            .iter()
            .map(|w| w.to_string())
            .collect(),
        policies: ConfigName::all()
            .iter()
            .map(|&c| CellPolicy::Preset(c))
            .collect(),
        scales: vec![SCALE],
        edge_factors: vec![EDGE_FACTOR],
        ratios: vec![RATIO],
        seeds: vec![seed, seed + 1],
        ..SweepPlan::default()
    }
}

/// The input scale a sweep cell of `workload` runs at: the coloring
/// workloads use a smaller graph. The sweep pool applies the same rule
/// internally; [`crate::trace::sweep`] cross-checks the two by comparing
/// simulated cycles.
pub fn input_scale(workload: &str, scale: u32) -> u32 {
    if workload.starts_with("GC-") {
        scale.saturating_sub(3).max(8)
    } else {
        scale
    }
}

/// One pass of `cells` through the pool.
pub struct Pass {
    /// The pool's report.
    pub report: SweepReport,
    /// Wall-clock time of `run_sweep`.
    pub wall: f64,
    /// When `run_sweep` was called.
    pub began: Instant,
    /// Every attempt's `(start, end)`, measured around the cell runner.
    pub cells: Vec<(Instant, Instant)>,
    /// The pass's store (already flushed by the pool).
    pub store: ArtifactStore,
    /// Workers the pool ran.
    pub workers: usize,
}

/// Runs `cells` through a fresh store under `.bench_out/`, timing every
/// cell with a wrapper around the production cell runner. The caller
/// removes the store with [`Pass::remove`].
pub fn run_pass(cells: &[SweepCell], tag: &str) -> Result<Pass, String> {
    let dir: PathBuf = crate::out_dir().join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let inner = pool::cell_runner(SimConfig::default());
    let samples = Arc::new(Mutex::new(Vec::with_capacity(cells.len())));
    let sink = Arc::clone(&samples);
    let runner: CellRunner = Arc::new(move |cell: &SweepCell| {
        let start = Instant::now();
        let row = inner(cell);
        sink.lock()
            .expect("timing lock poisoned")
            .push((start, Instant::now()));
        row
    });
    let cfg = PoolConfig::default();
    let cancel = AtomicBool::new(false);
    let began = Instant::now();
    let report = pool::run_sweep(cells, &store, &cfg, &cancel, runner)
        .map_err(|e| format!("sweep pool: {e}"))?;
    let wall = began.elapsed().as_secs_f64();
    let cells = std::mem::take(&mut *samples.lock().expect("timing lock poisoned"));
    Ok(Pass {
        report,
        wall,
        began,
        cells,
        store,
        workers: cfg.workers,
    })
}

impl Pass {
    /// Deletes the pass's store.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(self.store.dir());
    }

    /// Records every cell as attempted and every quarantined or missing
    /// cell as failed; returns the completed rows by label.
    pub fn check(&self, cells: &[SweepCell], report: &mut Report) -> BTreeMap<String, MetricsRow> {
        report.attempted(cells.len() as u64);
        for rec in self.report.failures() {
            report.fail(format!("quarantined cell: {}", rec.report_line()));
        }
        let rows: BTreeMap<String, MetricsRow> = self
            .report
            .records
            .iter()
            .filter_map(|r| r.row.clone().map(|row| (r.label.clone(), row)))
            .collect();
        let missing = cells
            .iter()
            .filter(|c| !rows.contains_key(&c.label()))
            .count();
        if missing > self.report.failures().len() {
            report.fail(format!("{missing} cells have no record"));
        }
        rows
    }

    /// Per-cell host seconds.
    pub fn cell_seconds(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .collect()
    }

    /// Retries the pool made (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        self.report
            .records
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum()
    }
}

/// Each cell's cycles, batches, faults, and evictions, in label order.
pub fn digest_of(rows: &BTreeMap<String, MetricsRow>) -> Digest {
    let mut d = Digest::default();
    for (label, row) in rows {
        d.push(format!("{label}.cycles"), row.cycles);
        d.push(format!("{label}.batches"), row.batches);
        d.push(format!("{label}.faults"), row.faults_raised);
        d.push(format!("{label}.evictions"), row.evictions);
    }
    d
}

/// Geomean over (workload, seed) pairs of BASELINE cycles / TO+UE cycles.
pub fn to_ue_speedup(
    cells: &[SweepCell],
    rows: &BTreeMap<String, MetricsRow>,
) -> Option<(f64, usize)> {
    let cycles_of = |c: &SweepCell, name: ConfigName| {
        let cell = SweepCell {
            policy: CellPolicy::Preset(name),
            ..c.clone()
        };
        rows.get(&cell.label()).map(|r| r.cycles as f64)
    };
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.policy == CellPolicy::Preset(ConfigName::ToUe))
        .map(|c| Some(cycles_of(c, ConfigName::Baseline)? / cycles_of(c, ConfigName::ToUe)?))
        .collect::<Option<_>>()?;
    (!ratios.is_empty()).then(|| (stats::geomean(&ratios), ratios.len()))
}

/// Generates every distinct input of the plan: the R-MAT graphs at each
/// input scale and seed, and each workload built on its graph.
fn set_up_inputs(seed: u64) {
    for s in [seed, seed + 1] {
        let mut graphs = BTreeMap::new();
        for w in registry::irregular_names() {
            let scale = input_scale(w, SCALE);
            let g = graphs
                .entry(scale)
                .or_insert_with(|| Arc::new(gen::rmat(scale, EDGE_FACTOR, s)));
            std::hint::black_box(single::build(w, g));
        }
    }
}

/// Untraced end-to-end measurement: times [`SETUP_REPS`] input set-ups,
/// then repeats whole sweep passes until `budget` is spent (at least
/// [`MIN_PASSES`]).
pub fn measure(seed: u64, budget: Duration, report: &mut Report) {
    let began = Instant::now();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            set_up_inputs(seed);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let cells = match plan(seed).cells() {
        Ok(c) => c,
        Err(e) => return report.attempt(Err(format!("sweep plan: {e}"))),
    };
    let (mut walls, mut cell_s) = (Vec::new(), Vec::new());
    let mut first: Option<Digest> = None;
    let rows = loop {
        let pass = match run_pass(&cells, &format!("pass{}", walls.len())) {
            Ok(p) => p,
            Err(e) => return report.attempt(Err(e)),
        };
        pass.remove();
        let rows = pass.check(&cells, report);
        walls.push(pass.wall);
        cell_s.extend(pass.cell_seconds());
        if report.has_failures() {
            return;
        }
        let d = digest_of(&rows);
        let checked = match &first {
            None => digest::check_pinned("sweep_s14", seed, &d),
            Some(f) if f.diff(&d).is_empty() => Ok(()),
            Some(f) => Err(format!(
                "sweep pass differs from the first: {}",
                f.diff(&d).join(", ")
            )),
        };
        if let Err(e) = checked {
            return report.fail(e);
        }
        first.get_or_insert(d);
        let next = Duration::from_secs_f64(stats::median(&walls));
        if walls.len() >= MIN_PASSES && began.elapsed() + next > budget {
            break rows;
        }
    };
    report.metric(
        "setup_s",
        stats::median(&setup),
        format!("inputs of both seeds; {}", stats::summary(&setup)),
    );
    report.metric(
        "run_s",
        stats::median(&walls),
        format!(
            "run_sweep wall, {} cells; {}",
            cells.len(),
            stats::summary(&walls)
        ),
    );
    report.metric(
        "cell_s_p50",
        stats::median(&cell_s),
        format!("per cell; {}", stats::summary(&cell_s)),
    );
    let total: f64 = walls.iter().sum();
    report.metric(
        "cells_per_min",
        (cells.len() * walls.len()) as f64 * 60.0 / total,
        format!(
            "{} cells in {total:.3} s on {} workers",
            cells.len() * walls.len(),
            PoolConfig::default().workers
        ),
    );
    single::report_rss(report);
    let cycles: u64 = rows.values().map(|r| r.cycles).sum();
    report.metric(
        "sim_cycles",
        cycles as f64,
        format!("sum over {} cells (exact)", cells.len()),
    );
    match to_ue_speedup(&cells, &rows) {
        Some((s, n)) => {
            single::report_speedup(report, s, &format!("geomean of {n} workload x seed pairs"))
        }
        None => report.fail("sweep lacks BASELINE or TO+UE cells"),
    }
}
