//! [`CountersSink`] — relaxed atomic work counters.
//!
//! The machine-independent work counts `benchmark/` reports: how many
//! edges an algorithm actually looked at, how many vertices it pushed, how
//! much the fused dedup saved, and how evenly the pushes spread over the
//! workers. All counters are relaxed atomics — totals are exact because
//! every hook call happens-before the reader joins the parallel region
//! (operators are bulk-synchronous or quiescence-terminated before they
//! emit).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{AbortEvent, AdvanceEvent, ComputeEvent, FilterEvent, IterSpan};
use crate::sink::ObsSink;

/// One counter on its own cache line (the per-worker array is indexed by
/// concurrent workers; padding stops false sharing between neighbours).
#[repr(align(128))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Relaxed atomic totals over every event seen. Cheap to share
/// (`Arc<CountersSink>`) between the context and the reporting code.
pub struct CountersSink {
    edges_inspected: AtomicU64,
    edges_admitted: AtomicU64,
    vertices_pushed: AtomicU64,
    dedup_hits: AtomicU64,
    filter_drops: AtomicU64,
    compute_items: AtomicU64,
    advance_calls: AtomicU64,
    filter_calls: AtomicU64,
    compute_calls: AtomicU64,
    iterations: AtomicU64,
    aborts: AtomicU64,
    per_worker: Box<[PaddedU64]>,
}

/// A plain-value snapshot of a [`CountersSink`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterTotals {
    /// Edges the traversal operators looked at.
    pub edges_inspected: u64,
    /// Edges whose condition returned `true` (detail-dependent; 0 if no
    /// producer counted admissions).
    pub edges_admitted: u64,
    /// Vertices pushed into output frontiers.
    pub vertices_pushed: u64,
    /// Admitted edges suppressed by fused dedup.
    pub dedup_hits: u64,
    /// Vertices dropped by filter / uniquify operators.
    pub filter_drops: u64,
    /// Items processed by compute operators.
    pub compute_items: u64,
    /// Advance-family operator calls.
    pub advance_calls: u64,
    /// Filter-family operator calls.
    pub filter_calls: u64,
    /// Compute-family operator calls.
    pub compute_calls: u64,
    /// Enacted-loop iterations observed.
    pub iterations: u64,
    /// Abnormal loop stops observed (panic / budget / divergence).
    pub aborts: u64,
    /// Per-worker push counts (length = worker slots configured at
    /// construction).
    pub per_worker_pushes: Vec<u64>,
}

impl CounterTotals {
    /// Load-balance skew: the busiest worker's pushes relative to the mean
    /// over all workers that saw any work. `1.0` is perfectly balanced;
    /// `workers` is the worst case (one worker did everything). Returns
    /// `1.0` when nothing was pushed.
    pub fn skew_ratio(&self) -> f64 {
        let total: u64 = self.per_worker_pushes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.per_worker_pushes.iter().max().unwrap_or(&0);
        let mean = total as f64 / self.per_worker_pushes.len() as f64;
        max as f64 / mean
    }
}

impl CountersSink {
    /// A sink with `workers` per-worker push slots (events from higher
    /// worker ids fold into the last slot rather than being lost).
    pub fn new(workers: usize) -> Self {
        CountersSink {
            edges_inspected: AtomicU64::new(0),
            edges_admitted: AtomicU64::new(0),
            vertices_pushed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            filter_drops: AtomicU64::new(0),
            compute_items: AtomicU64::new(0),
            advance_calls: AtomicU64::new(0),
            filter_calls: AtomicU64::new(0),
            compute_calls: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            per_worker: (0..workers.max(1)).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// Snapshots every counter into plain values.
    pub fn snapshot(&self) -> CounterTotals {
        CounterTotals {
            edges_inspected: self.edges_inspected.load(Ordering::Relaxed),
            edges_admitted: self.edges_admitted.load(Ordering::Relaxed),
            vertices_pushed: self.vertices_pushed.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            filter_drops: self.filter_drops.load(Ordering::Relaxed),
            compute_items: self.compute_items.load(Ordering::Relaxed),
            advance_calls: self.advance_calls.load(Ordering::Relaxed),
            filter_calls: self.filter_calls.load(Ordering::Relaxed),
            compute_calls: self.compute_calls.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            per_worker_pushes: self
                .per_worker
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zeroes every counter (between measured runs).
    pub fn reset(&self) {
        self.edges_inspected.store(0, Ordering::Relaxed);
        self.edges_admitted.store(0, Ordering::Relaxed);
        self.vertices_pushed.store(0, Ordering::Relaxed);
        self.dedup_hits.store(0, Ordering::Relaxed);
        self.filter_drops.store(0, Ordering::Relaxed);
        self.compute_items.store(0, Ordering::Relaxed);
        self.advance_calls.store(0, Ordering::Relaxed);
        self.filter_calls.store(0, Ordering::Relaxed);
        self.compute_calls.store(0, Ordering::Relaxed);
        self.iterations.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        for c in self.per_worker.iter() {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

impl ObsSink for CountersSink {
    fn on_advance(&self, ev: &AdvanceEvent<'_>) {
        self.advance_calls.fetch_add(1, Ordering::Relaxed);
        self.edges_inspected
            .fetch_add(ev.edges_inspected, Ordering::Relaxed);
        self.edges_admitted
            .fetch_add(ev.admitted, Ordering::Relaxed);
        self.vertices_pushed
            .fetch_add(ev.output_len as u64, Ordering::Relaxed);
        self.dedup_hits.fetch_add(ev.dedup_hits, Ordering::Relaxed);
        let last = self.per_worker.len() - 1;
        for (tid, &n) in ev.per_worker.iter().enumerate() {
            if n > 0 {
                self.per_worker[tid.min(last)]
                    .0
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
        }
    }

    fn on_filter(&self, ev: &FilterEvent) {
        self.filter_calls.fetch_add(1, Ordering::Relaxed);
        self.filter_drops.fetch_add(
            ev.input_len.saturating_sub(ev.output_len) as u64,
            Ordering::Relaxed,
        );
    }

    fn on_compute(&self, ev: &ComputeEvent) {
        self.compute_calls.fetch_add(1, Ordering::Relaxed);
        self.compute_items
            .fetch_add(ev.items as u64, Ordering::Relaxed);
    }

    fn on_iteration(&self, _ev: &IterSpan) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    fn on_abort(&self, _ev: &AbortEvent) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LoopKind, OpKind};

    fn advance(per_worker: &[usize]) -> AdvanceEvent<'_> {
        AdvanceEvent {
            kind: OpKind::AdvanceUnique,
            policy: "par",
            frontier_in: 4,
            edges_inspected: 100,
            admitted: 40,
            output_len: 30,
            dedup_hits: 10,
            per_worker,
        }
    }

    #[test]
    fn totals_accumulate_across_events() {
        let c = CountersSink::new(4);
        c.on_advance(&advance(&[10, 20, 0, 0]));
        c.on_advance(&advance(&[0, 0, 25, 5]));
        c.on_filter(&FilterEvent {
            kind: OpKind::Filter,
            policy: "par",
            input_len: 60,
            output_len: 45,
        });
        c.on_compute(&ComputeEvent {
            kind: OpKind::FillIndexed,
            policy: "par",
            items: 1000,
        });
        c.on_iteration(&IterSpan {
            iteration: 0,
            wall_ns: 1,
            frontier_in: 4,
            frontier_out: 30,
            loop_kind: LoopKind::Frontier,
        });
        let t = c.snapshot();
        assert_eq!(t.edges_inspected, 200);
        assert_eq!(t.edges_admitted, 80);
        assert_eq!(t.vertices_pushed, 60);
        assert_eq!(t.dedup_hits, 20);
        assert_eq!(t.filter_drops, 15);
        assert_eq!(t.compute_items, 1000);
        assert_eq!(t.advance_calls, 2);
        assert_eq!(t.iterations, 1);
        assert_eq!(t.per_worker_pushes, vec![10, 20, 25, 5]);
        assert_eq!(t.per_worker_pushes.iter().sum::<u64>(), t.vertices_pushed);
    }

    #[test]
    fn skew_ratio_reads_imbalance() {
        let even = CounterTotals {
            per_worker_pushes: vec![25, 25, 25, 25],
            ..CounterTotals::default()
        };
        assert!((even.skew_ratio() - 1.0).abs() < 1e-12);
        let lopsided = CounterTotals {
            per_worker_pushes: vec![100, 0, 0, 0],
            ..CounterTotals::default()
        };
        assert!((lopsided.skew_ratio() - 4.0).abs() < 1e-12);
        assert_eq!(CounterTotals::default().skew_ratio(), 1.0);
    }

    #[test]
    fn out_of_range_workers_fold_into_last_slot() {
        let c = CountersSink::new(2);
        c.on_advance(&advance(&[1, 2, 3, 4]));
        let t = c.snapshot();
        assert_eq!(t.per_worker_pushes, vec![1, 9]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = CountersSink::new(2);
        c.on_advance(&advance(&[5, 5]));
        c.reset();
        assert_eq!(
            c.snapshot(),
            CounterTotals {
                per_worker_pushes: vec![0, 0],
                ..CounterTotals::default()
            }
        );
    }
}
