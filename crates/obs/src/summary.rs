//! [`Summary`] — digest a trace into the numbers people actually compare.
//!
//! MTEPS (millions of traversed edges per second), load-balance skew, and
//! the iteration/direction profile, computed from a [`Record`] stream.

use crate::trace::Record;

/// Aggregate statistics over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Iteration spans seen.
    pub iterations: usize,
    /// Total wall time across iteration spans, in nanoseconds.
    pub wall_ns: u64,
    /// Total edges inspected across advance records.
    pub edges_inspected: u64,
    /// Total vertices pushed (sum of advance output sizes).
    pub vertices_pushed: u64,
    /// Total fused-dedup suppressions.
    pub dedup_hits: u64,
    /// Advance-operator calls.
    pub advance_calls: usize,
    /// Direction decisions that chose the pull direction.
    pub pull_iterations: usize,
    /// Direction decisions seen (pull + push).
    pub direction_decisions: usize,
    /// Per-worker push totals (element-wise sum over advance records).
    pub per_worker_pushes: Vec<u64>,
}

impl Summary {
    /// Folds a record stream into a summary.
    pub fn from_records(records: &[Record]) -> Self {
        let mut s = Summary::default();
        for rec in records {
            match rec {
                Record::Iteration(span) => {
                    s.iterations += 1;
                    s.wall_ns += span.wall_ns;
                }
                Record::Advance {
                    edges_inspected,
                    output_len,
                    dedup_hits,
                    per_worker,
                    ..
                } => {
                    s.advance_calls += 1;
                    s.edges_inspected += edges_inspected;
                    s.vertices_pushed += *output_len as u64;
                    s.dedup_hits += dedup_hits;
                    if s.per_worker_pushes.len() < per_worker.len() {
                        s.per_worker_pushes.resize(per_worker.len(), 0);
                    }
                    for (slot, &n) in s.per_worker_pushes.iter_mut().zip(per_worker.iter()) {
                        *slot += n as u64;
                    }
                }
                Record::Filter(_)
                | Record::Compute(_)
                | Record::Mark(_)
                | Record::Abort(_)
                | Record::Request(_) => {}
                Record::Direction(ev) => {
                    s.direction_decisions += 1;
                    if ev.pull {
                        s.pull_iterations += 1;
                    }
                }
            }
        }
        s
    }

    /// Millions of traversed edges per second, from inspected edges over the
    /// summed iteration wall time. `0.0` when no time was recorded.
    pub fn mteps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let secs = self.wall_ns as f64 / 1e9;
        self.edges_inspected as f64 / 1e6 / secs
    }

    /// Load-balance skew: busiest worker's pushes over the per-worker mean
    /// (`1.0` = balanced). `1.0` when no per-worker data was recorded.
    pub fn skew_ratio(&self) -> f64 {
        let total: u64 = self.per_worker_pushes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.per_worker_pushes.iter().max().unwrap_or(&0);
        let mean = total as f64 / self.per_worker_pushes.len() as f64;
        max as f64 / mean
    }

    /// A compact human-readable rendering, one line per field.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("iterations        {:>12}\n", self.iterations));
        out.push_str(&format!(
            "wall time         {:>12.3} ms\n",
            self.wall_ns as f64 / 1e6
        ));
        out.push_str(&format!("edges inspected   {:>12}\n", self.edges_inspected));
        out.push_str(&format!("vertices pushed   {:>12}\n", self.vertices_pushed));
        out.push_str(&format!("dedup hits        {:>12}\n", self.dedup_hits));
        out.push_str(&format!("MTEPS             {:>12.2}\n", self.mteps()));
        out.push_str(&format!("skew ratio        {:>12.3}\n", self.skew_ratio()));
        if self.direction_decisions > 0 {
            out.push_str(&format!(
                "pull iterations   {:>9}/{:<3}\n",
                self.pull_iterations, self.direction_decisions
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DirectionEvent, IterSpan, LoopKind, OpKind};

    fn sample() -> Vec<Record> {
        vec![
            Record::Iteration(IterSpan {
                iteration: 0,
                wall_ns: 500_000,
                frontier_in: 1,
                frontier_out: 10,
                loop_kind: LoopKind::Frontier,
            }),
            Record::Iteration(IterSpan {
                iteration: 1,
                wall_ns: 500_000,
                frontier_in: 10,
                frontier_out: 0,
                loop_kind: LoopKind::Frontier,
            }),
            Record::Advance {
                kind: OpKind::AdvanceUnique,
                policy: "par",
                frontier_in: 1,
                edges_inspected: 600_000,
                admitted: 11,
                output_len: 10,
                dedup_hits: 1,
                per_worker: vec![6, 4],
            },
            Record::Advance {
                kind: OpKind::AdvanceUnique,
                policy: "par",
                frontier_in: 10,
                edges_inspected: 400_000,
                admitted: 0,
                output_len: 0,
                dedup_hits: 0,
                per_worker: vec![0, 0],
            },
            Record::Direction(DirectionEvent {
                iteration: 1,
                frontier_len: 10,
                frontier_edges: 40,
                unexplored_edges: 50,
                growing: true,
                pull: true,
            }),
        ]
    }

    #[test]
    fn summary_folds_spans_and_advances() {
        let s = Summary::from_records(&sample());
        assert_eq!(s.iterations, 2);
        assert_eq!(s.wall_ns, 1_000_000);
        assert_eq!(s.edges_inspected, 1_000_000);
        assert_eq!(s.vertices_pushed, 10);
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.advance_calls, 2);
        assert_eq!(s.pull_iterations, 1);
        assert_eq!(s.direction_decisions, 1);
        assert_eq!(s.per_worker_pushes, vec![6, 4]);
        // 1e6 edges in 1 ms = 1000 MTEPS.
        assert!((s.mteps() - 1000.0).abs() < 1e-9);
        // max 6 over mean 5.
        assert!((s.skew_ratio() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_benign() {
        let s = Summary::from_records(&[]);
        assert_eq!(s.mteps(), 0.0);
        assert_eq!(s.skew_ratio(), 1.0);
        assert!(s.render().contains("iterations"));
    }

    #[test]
    fn render_mentions_direction_only_when_present() {
        let with = Summary::from_records(&sample());
        assert!(with.render().contains("pull iterations"));
        let without = Summary::from_records(&sample()[..4]);
        assert!(!without.render().contains("pull iterations"));
    }
}
