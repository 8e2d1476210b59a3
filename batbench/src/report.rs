//! Collects a run's metrics and failures and prints them: one line per
//! metric for readers, then the JSON result line.

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cells_per_min", "1/min"),
    ("cell_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("to_ue_speedup", "x"),
];

/// Per-layer metrics, reported by traced runs of every workload.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("graph.rmat_s", "s"),
    ("graph.edges", "count"),
    ("workloads.build_s", "s"),
    ("workloads.fabricate_s", "s"),
    ("workloads.warp_ops", "count"),
    ("workloads.addrs", "count"),
    ("workloads.addrs_per_op", "addrs/op"),
    ("workloads.fabricate_ns_per_op", "ns/op"),
    ("vmem.translate_s", "s"),
    ("vmem.translate_ns", "ns"),
    ("vmem.l1_tlb_hit_rate", "ratio"),
    ("vmem.l2_tlb_hit_rate", "ratio"),
    ("vmem.walks", "count"),
    ("sim.data_path_s", "s"),
    ("sim.data_path_ns", "ns"),
    ("sim.l1d_hit_rate", "ratio"),
    ("sim.l2d_hit_rate", "ratio"),
    ("sim.mem_ops", "count"),
    ("sim.ctx_switches", "count"),
    ("uvm.replay_s", "s"),
    ("uvm.ns_per_fault", "ns"),
    ("uvm.faults", "count"),
    ("uvm.batches", "count"),
    ("uvm.avg_batch_pages", "pages"),
    ("uvm.evictions", "count"),
    ("uvm.prefetches", "count"),
    ("uvm.premature_ratio", "ratio"),
    ("core.self_s", "s"),
    ("probes.overhead_pct", "%"),
    ("sweep.cell_s_sum", "s"),
    ("sweep.pool_idle_pct", "%"),
    ("sweep.store_flush_s", "s"),
    ("sweep.store_load_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, String)>,
    traced: bool,
}

impl Report {
    /// Counts one attempted operation (a simulation, a sweep cell, or a
    /// replay) and, on `Err`, its failure.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failure of an already-counted operation.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        println!("FAILED: {}", error.into());
    }

    /// Whether anything failed so far.
    pub fn has_failures(&self) -> bool {
        self.failed > 0
    }

    /// Marks the report as a traced run (per-layer metrics expected).
    pub fn set_traced(&mut self) {
        self.traced = true;
    }

    /// Records metric `name` (which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`]) with a human-readable detail: the sample count and
    /// spread for timings, the base for ratios.
    pub fn metric(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        let unit = unit_of(name);
        println!("  {name:<30} {value:>16.6} {unit:<8} {}", detail.into());
        self.metrics.push((name, value, unit.to_string()));
    }

    /// Prints the failure summary and the JSON result line; the exit code
    /// is non-zero unless every operation succeeded and every expected
    /// metric is present and finite.
    pub fn finish(mut self) -> ExitCode {
        let expected: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        if !self.has_failures() {
            for name in &expected {
                match self.metrics.iter().find(|(n, _, _)| n == name) {
                    None => self.fail(format!("metric {name} was not measured")),
                    Some((_, v, _)) if !v.is_finite() => {
                        self.fail(format!("metric {name} is not finite ({v})"));
                    }
                    Some(_) => {}
                }
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac {frac} ({} failed of {} attempted; errors, quarantined cells, and \
             digest mismatches all count)",
            self.failed, self.attempted
        );
        let correct = !self.has_failures() && self.attempted > 0;
        let mut metrics = String::new();
        if correct {
            for (i, name) in expected.iter().enumerate() {
                let (_, v, unit) = self
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .expect("checked above");
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`/`unit` pairs listed under `section` in BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|entry| {
                let quoted = |s: &str| s.split('"').nth(1).expect("quoted value").to_string();
                let unit = entry.split("\"unit\":").nth(1).expect("unit present");
                (quoted(entry), quoted(unit))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_and_units_match_the_benchmark_definition() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }
}
