//! Fixture: EL014 at a call site — the shared per-edge counter of the old
//! label propagation fires; the decoys below it must stay silent.

pub fn cc_label_propagation(frontier: &[u32]) -> usize {
    let updates = CachePadded(Counter::new());
    try_advance_adaptive(frontier, |src, dst| {
        updates.add(1);
        src < dst
    });
    updates.get()
}

/// Decoys: a per-chunk local with one trailing add in a pool loop body, a
/// closure-local counter and a per-vertex cell inside the edge closure, and
/// the count added once after the advance returns.
pub fn multi_source_sweep(pool: &ThreadPool, frontier: &[u32], edges: &Counter, hits: &[Counter]) {
    pool.try_parallel_for(0..frontier.len(), |w| {
        let mut inspected = 0;
        for v in 0..64 {
            inspected += w + v;
        }
        edges.add(inspected);
    });
    let admitted = try_advance_adaptive(frontier, |src, dst| {
        let local = Counter::new();
        local.add(1);
        hits[dst as usize].add(1);
        src < dst
    });
    edges.add(admitted);
}
