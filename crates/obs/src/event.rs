//! Event payloads emitted by the instrumentation hooks.
//!
//! Events are plain borrowed structs so producers (the operators in
//! `essentials-core`) build them on the stack with no allocation; sinks that
//! need ownership ([`crate::TraceSink`]) copy what they keep.

/// Which operator (or operator family) produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `neighbors_expand` — push expansion into a sparse frontier.
    Advance,
    /// `neighbors_expand_unique` — push expansion with fused dedup.
    AdvanceUnique,
    /// `try_expand_push_dense` — push expansion into a dense bitmap frontier.
    AdvanceDense,
    /// `try_expand_pull_counted` / `try_expand_pull_masked` — pull-direction
    /// expansion.
    Pull,
    /// `try_expand_blocked_pull` — pull expansion routed through
    /// destination-binned propagation blocking.
    PullBlocked,
    /// `BlockedGather` — full-frontier gather with destination-binned
    /// propagation blocking.
    GatherBlocked,
    /// `advance_edges` — edge-frontier advance.
    AdvanceEdges,
    /// `filter` — predicate contraction.
    Filter,
    /// `uniquify` / `uniquify_with_bitmap` — duplicate elimination.
    Uniquify,
    /// `foreach_vertex` — vertex program over `0..n`.
    ForeachVertex,
    /// `foreach_active` — vertex program over a frontier.
    ForeachActive,
    /// `fill_indexed` — parallel property-array construction.
    FillIndexed,
}

impl OpKind {
    /// Stable lowercase name (used in JSONL output and summaries).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Advance => "advance",
            OpKind::AdvanceUnique => "advance_unique",
            OpKind::AdvanceDense => "advance_dense",
            OpKind::Pull => "pull",
            OpKind::PullBlocked => "pull_blocked",
            OpKind::GatherBlocked => "gather_blocked",
            OpKind::AdvanceEdges => "advance_edges",
            OpKind::Filter => "filter",
            OpKind::Uniquify => "uniquify",
            OpKind::ForeachVertex => "foreach_vertex",
            OpKind::ForeachActive => "foreach_active",
            OpKind::FillIndexed => "fill_indexed",
        }
    }
}

/// Which loop shape a span came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `Enactor::run` — frontier-driven (converges on empty frontier).
    Frontier,
    /// `Enactor::run_until` — state-driven fixpoint loop.
    Fixpoint,
}

impl LoopKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LoopKind::Frontier => "frontier",
            LoopKind::Fixpoint => "fixpoint",
        }
    }
}

/// One traversal-operator invocation (advance family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvanceEvent<'a> {
    /// Operator variant.
    pub kind: OpKind,
    /// Execution-policy name (`"seq"`, `"par"`, `"par_nosync"`).
    pub policy: &'static str,
    /// Input frontier size (active vertices or edges).
    pub frontier_in: usize,
    /// Edges the operator looked at (every condition evaluation for push;
    /// every in-edge scanned for pull).
    pub edges_inspected: u64,
    /// Edges whose condition returned `true`. Zero when the sink declined
    /// per-edge detail ([`crate::ObsSink::wants_op_detail`] == false).
    pub admitted: u64,
    /// Output frontier size (vertices actually pushed).
    pub output_len: usize,
    /// Admitted edges suppressed by the fused dedup bitmap
    /// (`admitted - output_len` for `AdvanceUnique`; 0 elsewhere).
    pub dedup_hits: u64,
    /// Per-worker push counts for load-balance skew. Empty when the path
    /// has no per-worker buffers (sequential, dense, pull) or the sink
    /// declined detail.
    pub per_worker: &'a [usize],
}

/// One contraction-operator invocation (filter / uniquify).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterEvent {
    /// Operator variant.
    pub kind: OpKind,
    /// Execution-policy name.
    pub policy: &'static str,
    /// Input frontier size.
    pub input_len: usize,
    /// Output frontier size; `input_len - output_len` vertices were dropped.
    pub output_len: usize,
}

/// One compute-operator invocation (vertex programs, property fills).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeEvent {
    /// Operator variant.
    pub kind: OpKind,
    /// Execution-policy name.
    pub policy: &'static str,
    /// Items (vertices / slots) processed.
    pub items: usize,
}

/// One enacted-loop iteration (superstep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSpan {
    /// Iteration number, 0-based.
    pub iteration: usize,
    /// Wall time of the step closure in nanoseconds.
    pub wall_ns: u64,
    /// Frontier size entering the iteration (reported work size for
    /// fixpoint loops).
    pub frontier_in: usize,
    /// Frontier size leaving the iteration (reported work size for
    /// fixpoint loops).
    pub frontier_out: usize,
    /// Which loop shape produced the span.
    pub loop_kind: LoopKind,
}

/// An enacted loop stopped abnormally: a worker panicked, a run-budget
/// limit fired, or a convergence watchdog detected divergence. Emitted by
/// the enactor's fallible loops just before the typed error is returned,
/// so sinks see partial runs too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortEvent {
    /// Stable error-kind label (`"worker-panic"`, `"cancelled"`,
    /// `"deadline-expired"`, `"iteration-cap"`, `"diverged"`).
    pub kind: &'static str,
    /// Iteration at which the loop stopped (completed iterations).
    pub iteration: usize,
}

/// One served request's span, emitted by the serving engine when the
/// request leaves the system (completed, rejected, or failed). The queue
/// and service components are separated so saturation shows up as queue
/// growth, not as mysteriously slow algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEvent {
    /// Engine-assigned request id (monotonic per engine).
    pub id: u64,
    /// Admission class label (`"light"` / `"heavy"`).
    pub class: &'static str,
    /// Request kind label (`"bfs"`, `"bfs-batch"`, `"pagerank"`, …).
    pub kind: &'static str,
    /// Outcome label: `"ok"`, `"degraded"` (a brownout run that returned a
    /// capped partial result), an [`crate::ObsSink::on_abort`]-style error
    /// kind (`"cancelled"`, `"deadline-expired"`, …), `"queue-deadline"`
    /// when the request never got past admission, or `"shed"` when the
    /// deadline-feasibility gate rejected it on arrival.
    pub outcome: &'static str,
    /// Nanoseconds spent waiting for an admission permit.
    pub queue_ns: u64,
    /// Nanoseconds spent executing (zero if never admitted).
    pub service_ns: u64,
    /// Key of the scratch-pool slot the request leased (`usize::MAX` if it
    /// never got one).
    pub scratch_key: usize,
}

/// One direction-optimizing traversal decision (Beamer α/β heuristic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionEvent {
    /// Iteration the decision applies to.
    pub iteration: usize,
    /// Frontier size at decision time.
    pub frontier_len: usize,
    /// Out-edges of the frontier (the α-side quantity; 0 when the frontier
    /// was dense and the β rule decided).
    pub frontier_edges: usize,
    /// Unexplored edges remaining (the α-side denominator).
    pub unexplored_edges: usize,
    /// Whether the frontier was still growing (push→pull precondition).
    pub growing: bool,
    /// `true` if the pull direction was chosen.
    pub pull: bool,
}
