//! The [`ObsSink`] trait and the trivial sinks ([`NullSink`], [`TeeSink`]).

use std::sync::Arc;

use crate::event::{
    AbortEvent, AdvanceEvent, ComputeEvent, DirectionEvent, FilterEvent, IterSpan, RequestEvent,
};

/// Receiver for observability events.
///
/// Every hook has an empty default body, so a sink implements only what it
/// cares about. Implementations must be cheap and non-blocking — hooks are
/// called from inside algorithm loops (once per *operator call* or
/// *iteration*, never per edge) — and thread-safe: operators running on a
/// shared [`Context`](../essentials_core/context/struct.Context.html) may
/// emit concurrently.
///
/// ## Overhead contract
///
/// * No sink on the context: the instrumentation is a `None` check per
///   operator call — effectively free.
/// * A sink with [`wants_op_detail`](ObsSink::wants_op_detail) `== false`
///   ([`NullSink`]): operators skip per-edge admission counting and
///   per-worker tallies; the residual cost is one predictable branch per
///   admitted edge and one hook call (a no-op) per operator call. The
///   steady-state zero-allocation guarantee of the frontier pipeline is
///   preserved (`tests/zero_alloc.rs` proves it with `NullSink` installed).
/// * A detail-wanting sink: adds one relaxed atomic increment per admitted
///   edge plus O(workers) bookkeeping per operator call; may allocate.
pub trait ObsSink: Send + Sync {
    /// A traversal operator (advance family) completed.
    #[inline]
    fn on_advance(&self, _ev: &AdvanceEvent<'_>) {}

    /// A contraction operator (filter / uniquify) completed.
    #[inline]
    fn on_filter(&self, _ev: &FilterEvent) {}

    /// A compute operator (vertex program / fill) completed.
    #[inline]
    fn on_compute(&self, _ev: &ComputeEvent) {}

    /// An enacted-loop iteration completed.
    #[inline]
    fn on_iteration(&self, _ev: &IterSpan) {}

    /// A direction-optimizing traversal chose its direction.
    #[inline]
    fn on_direction(&self, _ev: &DirectionEvent) {}

    /// An enacted loop stopped abnormally (panic, budget, divergence).
    #[inline]
    fn on_abort(&self, _ev: &AbortEvent) {}

    /// A served request left the engine (completed, rejected, or failed).
    #[inline]
    fn on_request(&self, _ev: &RequestEvent) {}

    /// Whether producers should pay for per-edge admission counts and
    /// per-worker push tallies. Return `false` to keep instrumented hot
    /// paths at their uninstrumented cost.
    #[inline]
    fn wants_op_detail(&self) -> bool {
        true
    }
}

/// The disabled sink: every hook is a no-op and
/// [`wants_op_detail`](ObsSink::wants_op_detail) is `false`, so the
/// instrumentation compiles down to dead branches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObsSink for NullSink {
    #[inline]
    fn wants_op_detail(&self) -> bool {
        false
    }
}

/// Fans every event out to several sinks (e.g. counters *and* a trace in
/// one run).
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Arc<dyn ObsSink>>,
}

impl TeeSink {
    /// An empty tee (events go nowhere until sinks are added).
    pub fn new() -> Self {
        TeeSink::default()
    }

    /// Adds a downstream sink.
    pub fn with(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl ObsSink for TeeSink {
    fn on_advance(&self, ev: &AdvanceEvent<'_>) {
        for s in &self.sinks {
            s.on_advance(ev);
        }
    }

    fn on_filter(&self, ev: &FilterEvent) {
        for s in &self.sinks {
            s.on_filter(ev);
        }
    }

    fn on_compute(&self, ev: &ComputeEvent) {
        for s in &self.sinks {
            s.on_compute(ev);
        }
    }

    fn on_iteration(&self, ev: &IterSpan) {
        for s in &self.sinks {
            s.on_iteration(ev);
        }
    }

    fn on_direction(&self, ev: &DirectionEvent) {
        for s in &self.sinks {
            s.on_direction(ev);
        }
    }

    fn on_abort(&self, ev: &AbortEvent) {
        for s in &self.sinks {
            s.on_abort(ev);
        }
    }

    fn on_request(&self, ev: &RequestEvent) {
        for s in &self.sinks {
            s.on_request(ev);
        }
    }

    fn wants_op_detail(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_op_detail())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use crate::CountersSink;

    #[test]
    fn null_sink_declines_detail() {
        assert!(!NullSink.wants_op_detail());
    }

    #[test]
    fn tee_fans_out_and_unions_detail() {
        let a = Arc::new(CountersSink::new(2));
        let b = Arc::new(CountersSink::new(2));
        let tee = TeeSink::new()
            .with(a.clone())
            .with(Arc::new(NullSink))
            .with(b.clone());
        assert!(tee.wants_op_detail());
        tee.on_advance(&AdvanceEvent {
            kind: OpKind::Advance,
            policy: "par",
            frontier_in: 3,
            edges_inspected: 10,
            admitted: 4,
            output_len: 4,
            dedup_hits: 0,
            per_worker: &[3, 1],
        });
        assert_eq!(a.snapshot().edges_inspected, 10);
        assert_eq!(b.snapshot().edges_inspected, 10);
        assert_eq!(a.snapshot().per_worker_pushes, vec![3, 1]);
    }

    #[test]
    fn null_only_tee_declines_detail() {
        let tee = TeeSink::new().with(Arc::new(NullSink));
        assert!(!tee.wants_op_detail());
    }
}
