//! Loop-scheduling strategies for data-parallel operators.
//!
//! The paper (§IV-C) locates "the bulk of optimizations … such as utilizing
//! data parallelism and load balancing" in the operators. The schedule is
//! the substrate-level half of that knob: how an iteration space is divided
//! among workers. Operators choose a schedule per workload shape (uniform
//! meshes → `Static`, skewed power-law frontiers → `Dynamic`/`Guided`);
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
    /// Like `Dynamic` but the chunk size starts at `remaining / 2n` and
    /// shrinks toward the given minimum grain, reducing atomics early and
    /// balancing the tail.
    Guided(usize),
}

impl Default for Schedule {
    /// Dynamic with a grain of 256 indices: a good default for per-vertex
    /// work of unknown skew.
    fn default() -> Self {
        Schedule::Dynamic(256)
    }
}

impl Schedule {
    /// Ranges shorter than this run sequentially on the calling thread; the
    /// fixed cost of waking the pool dwarfs the work.
    pub fn sequential_cutoff(&self) -> usize {
        match self {
            Schedule::Static => 2048,
            Schedule::Dynamic(g) | Schedule::Guided(g) => (*g).max(2048),
        }
    }

    /// A reasonable dynamic grain for reductions over `len` items on
    /// `threads` workers: aim for ~8 chunks per worker, clamped to [64, 8192].
    pub fn grain_hint(&self, len: usize, threads: usize) -> usize {
        match self {
            Schedule::Dynamic(g) | Schedule::Guided(g) if *g > 0 => *g,
            _ => (len / (threads * 8).max(1)).clamp(64, 8192),
        }
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
    fn cutoff_respects_grain() {
        assert_eq!(Schedule::Dynamic(10_000).sequential_cutoff(), 10_000);
        assert_eq!(Schedule::Dynamic(8).sequential_cutoff(), 2048);
        assert_eq!(Schedule::Static.sequential_cutoff(), 2048);
    }

    #[test]
    fn grain_hint_clamps() {
        let s = Schedule::Static;
        assert_eq!(s.grain_hint(10, 4), 64);
        assert_eq!(s.grain_hint(10_000_000, 1), 8192);
        assert_eq!(Schedule::Dynamic(100).grain_hint(1_000_000, 4), 100);
    }
}
