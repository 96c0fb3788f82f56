//! Queue frontier: the asynchronous / message-passing representation.
//!
//! §III-B: *"When represented as an asynchronous queue, a frontier can
//! communicate its elements using messages"* (the paper cites the Atos
//! dynamic scheduling framework). Activating a vertex *is* sending a
//! message; consuming the queue *is* receiving. The queue is sharded per
//! worker to keep enqueue contention low, and supports both usage modes:
//!
//! * **asynchronous** — workers pop and process continuously
//!   (`essentials_parallel::run_async` drives this mode);
//! * **bulk** — a BSP loop drains everything enqueued during an iteration
//!   ([`QueueFrontier::drain`]) to form the next frontier, so the
//!   representations compare inside an otherwise identical loop.

use essentials_graph::VertexId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sharded multi-producer queue of active vertices.
#[derive(Debug)]
pub struct QueueFrontier {
    shards: Vec<Mutex<VecDeque<VertexId>>>,
    /// Advisory message count. All accesses are Relaxed: the counter carries
    /// no payload — message data is ordered by the shard mutexes, and bulk
    /// readers (`drain`, end-of-superstep `len` checks) sit behind the
    /// pool's region barriers, which already give the happens-before edge.
    len: AtomicUsize,
}

impl QueueFrontier {
    /// Creates a queue with `shards` independent lanes (one per worker).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        QueueFrontier {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sends vertex `v` into lane `lane` (callers pass their worker id; any
    /// value is accepted and wrapped).
    pub fn push(&self, lane: usize, v: VertexId) {
        self.len.fetch_add(1, Ordering::Relaxed);
        self.shards[lane % self.shards.len()].lock().push_back(v);
    }

    /// Receives one message from `lane`, falling back to stealing from other
    /// lanes. Returns `None` only when every lane is empty at the time of
    /// the scan.
    pub fn pop(&self, lane: usize) -> Option<VertexId> {
        let k = self.shards.len();
        for i in 0..k {
            let shard = &self.shards[(lane + i) % k];
            if let Some(v) = shard.lock().pop_front() {
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(v);
            }
        }
        None
    }

    /// Total queued messages.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership scan across all lanes (O(len) — the uniform interface is
    /// supported, but queue frontiers are meant to be consumed, not probed).
    pub fn contains(&self, v: VertexId) -> bool {
        self.shards.iter().any(|s| s.lock().contains(&v))
    }

    /// Drains every lane into one vector (bulk mode: end-of-superstep
    /// collection of next-iteration messages).
    pub fn drain(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            let mut s = s.lock();
            self.len.fetch_sub(s.len(), Ordering::Relaxed);
            out.extend(s.drain(..));
        }
        out
    }
}

impl crate::Frontier for QueueFrontier {
    fn len(&self) -> usize {
        QueueFrontier::len(self)
    }
    fn contains(&self, v: VertexId) -> bool {
        QueueFrontier::contains(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::{Schedule, ThreadPool};

    #[test]
    fn push_pop_single_lane() {
        let q = QueueFrontier::new(1);
        q.push(0, 5);
        q.push(0, 6);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(0), Some(5));
        assert_eq!(q.pop(0), Some(6));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn pop_steals_across_lanes() {
        let q = QueueFrontier::new(4);
        q.push(2, 9);
        // Popping from a different lane still finds it.
        assert_eq!(q.pop(0), Some(9));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_empties_all_lanes() {
        let q = QueueFrontier::new(3);
        for v in 0..10 {
            q.push(v as usize, v);
        }
        let mut got = q.drain();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spins up a real thread pool; Miri runs the serial tests
    fn concurrent_producers_lose_nothing() {
        let pool = ThreadPool::new(4);
        let q = QueueFrontier::new(4);
        pool.parallel_for(0..10_000, Schedule::Dynamic(64), |i| {
            q.push(i, (i % 1000) as VertexId);
        });
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.drain().len(), 10_000);
    }

    #[test]
    fn contains_scans_lanes() {
        let q = QueueFrontier::new(2);
        q.push(0, 3);
        q.push(1, 8);
        assert!(q.contains(8));
        assert!(!q.contains(4));
    }
}
