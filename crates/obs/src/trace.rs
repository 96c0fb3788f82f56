//! [`TraceSink`] — an append-only log of everything that happened.
//!
//! Unlike [`crate::CountersSink`] (which folds events into totals), the
//! trace keeps every event in order, so per-iteration behaviour — the
//! frontier growth curve, the push→pull switch point, operator mix — can be
//! exported ([`crate::write_jsonl`]) and inspected after the run.

use parking_lot::Mutex;

use crate::event::{
    AbortEvent, AdvanceEvent, ComputeEvent, DirectionEvent, FilterEvent, IterSpan, OpKind,
    RequestEvent,
};
use crate::sink::ObsSink;

/// One owned trace record. Borrowed event payloads are copied into owned
/// form at append time (the only allocation a [`TraceSink`] does per event).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An enacted-loop iteration (superstep) span.
    Iteration(IterSpan),
    /// A traversal-operator invocation.
    Advance {
        /// Operator variant.
        kind: OpKind,
        /// Execution-policy name.
        policy: &'static str,
        /// Input frontier size.
        frontier_in: usize,
        /// Edges inspected.
        edges_inspected: u64,
        /// Edges admitted by the condition.
        admitted: u64,
        /// Output frontier size.
        output_len: usize,
        /// Fused-dedup suppressions.
        dedup_hits: u64,
        /// Per-worker push counts (owned copy).
        per_worker: Vec<usize>,
    },
    /// A contraction-operator invocation.
    Filter(FilterEvent),
    /// A compute-operator invocation.
    Compute(ComputeEvent),
    /// A direction-optimizing switch decision.
    Direction(DirectionEvent),
    /// An abnormal loop stop (panic / budget / divergence).
    Abort(AbortEvent),
    /// A served request's span (queue wait + service time).
    Request(RequestEvent),
    /// A user-inserted label (e.g. a phase boundary).
    Mark(String),
}

/// Append-only event log behind a mutex. The lock is taken once per
/// *operator call* or *iteration* — never per edge — so contention is
/// negligible next to the work each event represents.
#[derive(Default)]
pub struct TraceSink {
    records: Mutex<Vec<Record>>,
}

impl TraceSink {
    /// An empty trace.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends a labelled marker (e.g. `"trial 3 start"`).
    pub fn mark(&self, label: impl Into<String>) {
        self.records.lock().push(Record::Mark(label.into()));
    }

    /// Copies the records collected so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().clone()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Drops all records.
    pub fn clear(&self) {
        self.records.lock().clear();
    }

    /// Consumes the sink and returns the records without copying.
    pub fn into_records(self) -> Vec<Record> {
        self.records.into_inner()
    }
}

impl ObsSink for TraceSink {
    fn on_advance(&self, ev: &AdvanceEvent<'_>) {
        self.records.lock().push(Record::Advance {
            kind: ev.kind,
            policy: ev.policy,
            frontier_in: ev.frontier_in,
            edges_inspected: ev.edges_inspected,
            admitted: ev.admitted,
            output_len: ev.output_len,
            dedup_hits: ev.dedup_hits,
            per_worker: ev.per_worker.to_vec(),
        });
    }

    fn on_filter(&self, ev: &FilterEvent) {
        self.records.lock().push(Record::Filter(*ev));
    }

    fn on_compute(&self, ev: &ComputeEvent) {
        self.records.lock().push(Record::Compute(*ev));
    }

    fn on_iteration(&self, ev: &IterSpan) {
        self.records.lock().push(Record::Iteration(*ev));
    }

    fn on_direction(&self, ev: &DirectionEvent) {
        self.records.lock().push(Record::Direction(*ev));
    }

    fn on_abort(&self, ev: &AbortEvent) {
        self.records.lock().push(Record::Abort(*ev));
    }

    fn on_request(&self, ev: &RequestEvent) {
        self.records.lock().push(Record::Request(*ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LoopKind;

    #[test]
    fn trace_preserves_order_and_payloads() {
        let t = TraceSink::new();
        t.mark("start");
        t.on_advance(&AdvanceEvent {
            kind: OpKind::AdvanceUnique,
            policy: "par",
            frontier_in: 2,
            edges_inspected: 7,
            admitted: 3,
            output_len: 3,
            dedup_hits: 0,
            per_worker: &[2, 1],
        });
        t.on_iteration(&IterSpan {
            iteration: 0,
            wall_ns: 42,
            frontier_in: 2,
            frontier_out: 3,
            loop_kind: LoopKind::Frontier,
        });
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], Record::Mark("start".into()));
        match &recs[1] {
            Record::Advance {
                edges_inspected,
                per_worker,
                ..
            } => {
                assert_eq!(*edges_inspected, 7);
                assert_eq!(per_worker, &vec![2, 1]);
            }
            other => panic!("expected advance, got {other:?}"),
        }
        match &recs[2] {
            Record::Iteration(span) => assert_eq!(span.wall_ns, 42),
            other => panic!("expected iteration, got {other:?}"),
        }
    }

    #[test]
    fn clear_and_into_records() {
        let t = TraceSink::new();
        t.mark("a");
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        t.mark("b");
        assert_eq!(t.into_records(), vec![Record::Mark("b".into())]);
    }
}
