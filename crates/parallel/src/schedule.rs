//! Loop-scheduling strategies for data-parallel operators.
//!
//! The paper (§IV-C) locates "the bulk of optimizations … such as utilizing
//! data parallelism and load balancing" in the operators. The schedule is
//! the substrate-level half of that knob: how an iteration space is divided
//! among workers. Operators choose a schedule per workload shape (uniform
//! meshes → `Static`, skewed power-law frontiers → `Dynamic`);
//! `benchmark/` times both (`parallel.for_{static,dynamic}_ns_per_item`).

/// How a `parallel_for` iteration space is divided among workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous block per worker. Zero scheduling overhead, no load
    /// balancing. Best when every index costs the same.
    Static,
    /// Workers repeatedly grab fixed-size chunks (the *grain*) from a shared
    /// counter. Balances skew at the cost of one atomic per chunk.
    Dynamic(usize),
}

impl Default for Schedule {
    /// Dynamic with a grain of 256 indices: a good default for per-vertex
    /// work of unknown skew.
    fn default() -> Self {
        Schedule::Dynamic(256)
    }
}

/// Work below which a loop runs on its calling thread: waking the pool
/// costs about as much as this many vertex slots (or edges) of a kernel's
/// body. See [`Schedule::runs_inline`].
pub const MIN_REGION_WORK: usize = 2048;

impl Schedule {
    /// The one dispatch rule of every data-parallel loop: a loop over `len`
    /// items that stands for `work` units (vertex slots or edges, as its
    /// caller states them) runs on its calling thread when its work cannot
    /// pay for a region (`work < MIN_REGION_WORK`) or when it splits into
    /// fewer than two chunks (`Static` counts one chunk per item). A loop
    /// whose items are 64-vertex words or coarse chunks states the work
    /// behind them, so a few items of heavy work still reach the pool.
    pub fn runs_inline(&self, len: usize, work: usize) -> bool {
        let chunks = match self {
            Schedule::Static => len,
            Schedule::Dynamic(g) => len.div_ceil((*g).max(1)),
        };
        chunks < 2 || work < MIN_REGION_WORK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_dynamic() {
        assert_eq!(Schedule::default(), Schedule::Dynamic(256));
    }

    #[test]
    fn cutoff_counts_work_and_chunks() {
        // Per-item loops (work = items) keep the old 2048-item cut-off.
        assert!(Schedule::Static.runs_inline(2047, 2047));
        assert!(!Schedule::Static.runs_inline(2048, 2048));
        assert!(!Schedule::Dynamic(8).runs_inline(2048, 2048));
        // A loop of 64-vertex words reaches the pool on the work it holds.
        assert!(!Schedule::Dynamic(4).runs_inline(1024, 1024 * 64));
        assert!(Schedule::Dynamic(4).runs_inline(16, 16 * 64));
        // One chunk never pays for a region, however heavy.
        assert!(Schedule::Dynamic(10_000).runs_inline(10_000, 1 << 30));
        assert!(!Schedule::Dynamic(10_000).runs_inline(10_001, 10_001));
        assert!(Schedule::Dynamic(1).runs_inline(1, 1 << 30));
        assert!(!Schedule::Dynamic(1).runs_inline(2, MIN_REGION_WORK));
    }
}
