//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written as JSONL when the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within one run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `vmem.translate`.
    pub name: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    /// Seconds since the run's epoch.
    pub end: f64,
}

impl Span {
    /// Wall-clock seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The spans of one workload run, all sharing one run id.
#[derive(Debug)]
pub struct SpanLog {
    run: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose spans carry `run` as their run id.
    pub fn new(run: impl Into<String>) -> Self {
        Self {
            run: run.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the log's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Converts an instant to seconds since the log's epoch.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn push(&mut self, name: &'static str, parent: Option<u64>, start: f64, end: f64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Runs `f` inside a span; returns its result, span id, and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u64, f64) {
        let start = self.now();
        let r = f();
        let end = self.now();
        let id = self.push(name, parent, start, end);
        (r, id, end - start)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"run\":\"{}\"}}",
                s.id, s.name, s.start, s.end, parent, self.run
            );
        }
        out
    }
}

/// A span's self time: its duration minus the summed durations of its
/// direct children.
///
/// The children are not required to nest inside the parent's interval.
/// Layer replays run after the call they dissect, and pool cells overlap
/// each other, so the sum (not the covered interval) is what is
/// subtracted, and the result can be negative.
pub fn self_time(spans: &[Span], id: u64) -> f64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration)
        .sum();
    span.duration() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> SpanLog {
        let mut log = SpanLog::new("w-seed42");
        let root = log.push("core.try_run", None, 1.0, 4.0);
        log.push("workloads.fabricate", Some(root), 5.0, 5.5);
        log.push("vmem.translate", Some(root), 5.5, 6.25);
        log.push("sim.data_path", Some(root), 6.25, 7.0);
        let uvm = log.push("uvm.fault_stream", Some(root), 7.0, 7.25);
        log.push("unrelated.grandchild", Some(uvm), 7.0, 7.1);
        log
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let log = log();
        // 3.0 - (0.5 + 0.75 + 0.75 + 0.25); the grandchild is not subtracted.
        assert!((self_time(log.spans(), 1) - 0.75).abs() < 1e-12);
        assert!((self_time(log.spans(), 5) - 0.15).abs() < 1e-12);
        assert!((self_time(log.spans(), 2) - 0.5).abs() < 1e-12);
        assert_eq!(self_time(log.spans(), 99), 0.0);
    }

    #[test]
    fn self_time_goes_negative_when_children_exceed_the_parent() {
        // Two workers: overlapping cells sum to more than the pool's wall.
        let mut log = SpanLog::new("sweep");
        let run = log.push("sweep.run", None, 0.0, 1.0);
        log.push("sweep.cell", Some(run), 0.0, 0.9);
        log.push("sweep.cell", Some(run), 0.05, 0.95);
        assert!((self_time(log.spans(), run) + 0.8).abs() < 1e-12);
    }

    #[test]
    fn jsonl_carries_name_times_parent_and_run() {
        let text = log().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            "{\"id\":1,\"name\":\"core.try_run\",\"start\":1,\"end\":4,\"parent\":null,\"run\":\"w-seed42\"}"
        );
        assert!(lines[1].contains("\"parent\":1"));
    }
}
