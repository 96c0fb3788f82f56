//! The benchmark's own span recorder, installed through the program's public
//! `ObsSink` hook.
//!
//! The program's events carry counts but (until ROADMAP item 3) no times and
//! no request id, so the sink supplies both from outside: every hook call is
//! timestamped, and an operator's span is taken to be [previous hook on this
//! thread, this hook]. Hooks fire on the thread that called the algorithm,
//! after the parallel region has joined, so the thread identifies the run.
//! The benchmark opens a root span around each algorithm run or request
//! (`begin` / `end`); everything the thread emits in between is its child.

use crate::entry::{
    AdvanceEvent, ComputeEvent, DirectionEvent, FilterEvent, IterSpan, ObsSink, RequestEvent,
};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A root: one algorithm run or one request.
    Run,
    Advance,
    Filter,
    Compute,
    /// Loop bookkeeping between operators: a direction decision or the end
    /// of an enacted iteration.
    Loop,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Advance => "advance",
            Kind::Filter => "filter",
            Kind::Compute => "compute",
            Kind::Loop => "loop",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the root this span belongs to; 0 for a root (or for an event
    /// emitted outside any root).
    pub parent: u32,
    pub kind: Kind,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Edges inspected (advance family), items processed (others).
    pub work: u64,
    /// A direction decision that chose pull.
    pub pull: bool,
    /// On a request root: the engine's own queue / service split.
    pub queue_ns: u64,
    pub service_ns: u64,
}

/// This thread's open root: its id, when the thread's previous hook fired,
/// and what the engine said about the request so far.
#[derive(Clone, Copy, Default)]
struct Open {
    root: u32,
    last_ns: u64,
    queue_ns: u64,
    service_ns: u64,
}

thread_local! {
    static OPEN: Cell<Open> = const { Cell::new(Open {
        root: 0, last_ns: 0, queue_ns: 0, service_ns: 0,
    }) };
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Vertices pushed per pool worker, summed over every advance.
    per_worker: Vec<u64>,
}

pub struct SpanSink {
    epoch: Instant,
    state: Mutex<State>,
}

impl SpanSink {
    pub fn new() -> SpanSink {
        SpanSink {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        // Every update is a push or an add, so the data is valid even if a
        // panicking thread held the lock.
        f(&mut self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Opens a root span on this thread.
    pub fn begin(&self, name: &'static str) {
        let now = self.now_ns();
        let root = self.with_state(|s| {
            let id = s.spans.len() as u32 + 1;
            // Reserve the root's slot so ids stay in start order.
            s.spans.push(Span {
                id,
                parent: 0,
                kind: Kind::Run,
                name,
                start_ns: now,
                end_ns: now,
                work: 0,
                pull: false,
                queue_ns: 0,
                service_ns: 0,
            });
            id
        });
        OPEN.set(Open {
            root,
            last_ns: now,
            ..Open::default()
        });
    }

    /// Closes this thread's root span.
    pub fn end(&self) {
        let open = OPEN.take();
        if open.root == 0 {
            return;
        }
        let now = self.now_ns();
        self.with_state(|s| {
            let root = &mut s.spans[open.root as usize - 1];
            root.end_ns = now;
            root.queue_ns = open.queue_ns;
            root.service_ns = open.service_ns;
        });
    }

    fn child(&self, kind: Kind, name: &'static str, work: u64, pull: bool, per_worker: &[usize]) {
        let now = self.now_ns();
        let mut open = OPEN.get();
        let start_ns = if open.root == 0 { now } else { open.last_ns };
        open.last_ns = now;
        OPEN.set(open);
        self.with_state(|s| {
            let id = s.spans.len() as u32 + 1;
            s.spans.push(Span {
                id,
                parent: open.root,
                kind,
                name,
                start_ns,
                end_ns: now,
                work,
                pull,
                queue_ns: 0,
                service_ns: 0,
            });
            if s.per_worker.len() < per_worker.len() {
                s.per_worker.resize(per_worker.len(), 0);
            }
            for (total, &w) in s.per_worker.iter_mut().zip(per_worker) {
                *total += w as u64;
            }
        });
    }

    /// Forgets everything recorded so far (the warm-up). No root may be
    /// open on any thread.
    pub fn clear(&self) {
        self.with_state(|s| *s = State::default());
    }

    pub fn spans(&self) -> Vec<Span> {
        self.with_state(|s| s.spans.clone())
    }

    /// Busiest worker's pushes over the mean: 1.0 is perfect balance.
    pub fn balance_skew(&self) -> f64 {
        self.with_state(|s| {
            let total: u64 = s.per_worker.iter().sum();
            let max = s.per_worker.iter().copied().max().unwrap_or(0);
            if total == 0 {
                1.0
            } else {
                max as f64 * s.per_worker.len() as f64 / total as f64
            }
        })
    }
}

/// One JSON object per line. Each group is one recording (ids restart at 1
/// in each); `group` tells them apart.
pub fn write_jsonl(path: &Path, groups: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (group, spans) in groups.iter().enumerate() {
        for s in *spans {
            writeln!(
                out,
                "{{\"group\": {group}, \"id\": {}, \"parent\": {}, \"kind\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"work\": {}, \
                 \"pull\": {}, \"queue_ns\": {}, \"service_ns\": {}}}",
                s.id,
                s.parent,
                s.kind.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.work,
                s.pull,
                s.queue_ns,
                s.service_ns
            )?;
        }
    }
    out.flush()
}

impl ObsSink for SpanSink {
    fn on_advance(&self, ev: &AdvanceEvent<'_>) {
        self.child(
            Kind::Advance,
            ev.kind.name(),
            ev.edges_inspected,
            false,
            ev.per_worker,
        );
    }

    fn on_filter(&self, ev: &FilterEvent) {
        self.child(
            Kind::Filter,
            ev.kind.name(),
            ev.input_len as u64,
            false,
            &[],
        );
    }

    fn on_compute(&self, ev: &ComputeEvent) {
        self.child(Kind::Compute, ev.kind.name(), ev.items as u64, false, &[]);
    }

    fn on_iteration(&self, ev: &IterSpan) {
        self.child(Kind::Loop, "iteration", ev.frontier_out as u64, false, &[]);
    }

    fn on_direction(&self, ev: &DirectionEvent) {
        self.child(
            Kind::Loop,
            "direction",
            ev.frontier_len as u64,
            ev.pull,
            &[],
        );
    }

    fn on_request(&self, ev: &RequestEvent) {
        let mut open = OPEN.get();
        open.queue_ns = ev.queue_ns;
        open.service_ns = ev.service_ns;
        OPEN.set(open);
    }
}

/// A root span with its children folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    pub name: &'static str,
    pub wall_ns: u64,
    pub advance_ns: u64,
    pub filter_ns: u64,
    pub compute_ns: u64,
    /// Wall time outside every operator span: loop bookkeeping plus
    /// whatever runs after the last hook (result unwrapping, scratch return).
    pub tail_ns: u64,
    pub pull_decisions: u64,
    pub queue_ns: u64,
    pub service_ns: u64,
}

/// Folds children into their roots. A root's self time (`tail_ns`) is its
/// duration minus what its operator children cover.
pub fn roots(spans: &[Span]) -> Vec<Root> {
    let mut out: Vec<Option<Root>> = vec![None; spans.len() + 1];
    for s in spans.iter().filter(|s| s.kind == Kind::Run) {
        out[s.id as usize] = Some(Root {
            name: s.name,
            wall_ns: s.end_ns - s.start_ns,
            advance_ns: 0,
            filter_ns: 0,
            compute_ns: 0,
            tail_ns: 0,
            pull_decisions: 0,
            queue_ns: s.queue_ns,
            service_ns: s.service_ns,
        });
    }
    for s in spans.iter().filter(|s| s.kind != Kind::Run) {
        let Some(root) = out[s.parent as usize].as_mut() else {
            continue;
        };
        let d = s.end_ns - s.start_ns;
        match s.kind {
            Kind::Advance => root.advance_ns += d,
            Kind::Filter => root.filter_ns += d,
            Kind::Compute => root.compute_ns += d,
            Kind::Loop => root.pull_decisions += s.pull as u64,
            Kind::Run => {}
        }
    }
    out.into_iter()
        .flatten()
        .map(|mut r| {
            r.tail_ns = r
                .wall_ns
                .saturating_sub(r.advance_ns + r.filter_ns + r.compute_ns);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::OpKind;

    fn advance(sink: &SpanSink, edges: u64, per_worker: &[usize]) {
        sink.on_advance(&AdvanceEvent {
            kind: OpKind::Advance,
            policy: "par",
            frontier_in: 1,
            edges_inspected: edges,
            admitted: 0,
            output_len: 0,
            dedup_hits: 0,
            per_worker,
        });
    }

    fn filter(sink: &SpanSink) {
        sink.on_filter(&FilterEvent {
            kind: OpKind::Filter,
            policy: "par",
            input_len: 4,
            output_len: 2,
        });
    }

    #[test]
    fn children_attach_to_the_open_root_and_tile_it() {
        let sink = SpanSink::new();
        sink.begin("bfs");
        advance(&sink, 10, &[3, 1]);
        filter(&sink);
        advance(&sink, 5, &[1, 3]);
        sink.end();
        sink.begin("cc");
        advance(&sink, 7, &[4, 0]);
        sink.end();

        let spans = sink.spans();
        let (bfs, cc) = (spans[0], spans[4]);
        assert_eq!(
            (bfs.name, bfs.parent, cc.name, cc.parent),
            ("bfs", 0, "cc", 0)
        );
        assert!(spans[1..4].iter().all(|s| s.parent == bfs.id));
        assert_eq!(spans[5].parent, cc.id);
        // First child starts where the root does; each next one where the
        // previous ended; the root ends after its last child.
        assert_eq!(spans[1].start_ns, bfs.start_ns);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(bfs.end_ns >= spans[3].end_ns);

        let r = roots(&spans);
        assert_eq!(r.len(), 2);
        assert_eq!(
            r[0].advance_ns + r[0].filter_ns + r[0].compute_ns + r[0].tail_ns,
            r[0].wall_ns
        );
        assert_eq!(r[0].filter_ns, spans[2].end_ns - spans[2].start_ns);
        // Worker 0 pushed 3+1+4 = 8 of 12: skew 8 / 6.
        assert!((sink.balance_skew() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_roots_keep_their_own_children() {
        let sink = SpanSink::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for name in ["light", "heavy"] {
                let (sink, barrier) = (&sink, &barrier);
                scope.spawn(move || {
                    sink.begin(name);
                    // Both roots are open before either emits a child.
                    barrier.wait();
                    advance(sink, 1, &[]);
                    sink.on_direction(&DirectionEvent {
                        iteration: 0,
                        frontier_len: 1,
                        frontier_edges: 1,
                        unexplored_edges: 1,
                        growing: true,
                        pull: name == "heavy",
                    });
                    sink.on_request(&RequestEvent {
                        id: 0,
                        class: name,
                        kind: name,
                        outcome: "ok",
                        queue_ns: 5,
                        service_ns: 9,
                        scratch_key: 0,
                    });
                    barrier.wait();
                    sink.end();
                });
            }
        });
        let spans = sink.spans();
        assert_eq!(spans.len(), 6);
        for root in spans.iter().filter(|s| s.kind == Kind::Run) {
            let kids: Vec<_> = spans.iter().filter(|s| s.parent == root.id).collect();
            assert_eq!(kids.len(), 2, "{}", root.name);
            assert_eq!((root.queue_ns, root.service_ns), (5, 9));
        }
        let r = roots(&spans);
        let pulls = |n| r.iter().find(|r| r.name == n).unwrap().pull_decisions;
        assert_eq!((pulls("light"), pulls("heavy")), (0, 1));
    }

    #[test]
    fn an_event_outside_any_root_is_kept_as_an_orphan() {
        let sink = SpanSink::new();
        filter(&sink);
        let spans = sink.spans();
        assert_eq!((spans[0].parent, spans[0].start_ns), (0, spans[0].end_ns));
        assert!(roots(&spans).is_empty());
    }
}
