//! Typed mailboxes: the only channel between ranks.
//!
//! `Mailbox<M>` holds one buffer per (receiver, sender) pair, so concurrent
//! sends from different ranks never contend on a lock, and a receiver
//! drains all its buffers at a superstep boundary. This is the
//! message-passing realization of the frontier: *pushing a vertex id (plus
//! payload) into a mailbox is activating it on its owner*.

use essentials_graph::VertexId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `(vertex, payload)` message addressed to the vertex's owner rank.
pub type Envelope<M> = (VertexId, M);

/// Per-(receiver, sender) buffered message store for `k` ranks.
pub struct Mailbox<M> {
    /// `bufs[to][from]`.
    bufs: Vec<Vec<Mutex<Vec<Envelope<M>>>>>,
    /// Cumulative messages sent (stats).
    total: AtomicUsize,
    /// Cumulative messages whose sender rank differed from the receiver.
    remote: AtomicUsize,
}

impl<M> Mailbox<M> {
    /// A mailbox for `k` ranks.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Mailbox {
            bufs: (0..k)
                .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            total: AtomicUsize::new(0),
            remote: AtomicUsize::new(0),
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.bufs.len()
    }

    /// Sends `msg` to vertex `dst` owned by rank `to`, from rank `from`.
    pub fn send(&self, from: usize, to: usize, dst: VertexId, msg: M) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if from != to {
            self.remote.fetch_add(1, Ordering::Relaxed);
        }
        self.bufs[to][from].lock().push((dst, msg));
    }

    /// Drains everything addressed to rank `to` (all senders). Called at a
    /// superstep boundary when no sender is active.
    pub fn drain_for(&self, to: usize) -> Vec<Envelope<M>> {
        let row = &self.bufs[to];
        let mut out = Vec::new();
        for buf in row {
            out.append(&mut buf.lock());
        }
        out
    }

    /// Messages sent over the mailbox's lifetime.
    pub fn total_messages(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Cross-rank messages over the lifetime — the quantity edge-cut
    /// predicts.
    pub fn remote_messages(&self) -> usize {
        self.remote.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_drain_round_trip() {
        let mb: Mailbox<u32> = Mailbox::new(3);
        mb.send(0, 1, 7, 100);
        mb.send(2, 1, 8, 200);
        mb.send(1, 1, 9, 300); // local
        let mut got = mb.drain_for(1);
        got.sort_unstable();
        assert_eq!(got, vec![(7, 100), (8, 200), (9, 300)]);
        assert!(mb.drain_for(1).is_empty());
        assert_eq!(mb.total_messages(), 3);
        assert_eq!(mb.remote_messages(), 2);
    }

    #[test]
    fn ranks_are_isolated() {
        let mb: Mailbox<()> = Mailbox::new(2);
        mb.send(0, 0, 1, ());
        assert!(mb.drain_for(1).is_empty());
        assert_eq!(mb.drain_for(0).len(), 1);
    }
}
