//! Graph algorithms as vertex programs — the Pregel row of Table I,
//! verified against their shared-memory counterparts.

use essentials_core::Context;
use essentials_graph::{EdgeValue, GraphBase, VertexId};
use essentials_partition::PartitionedGraph;

use crate::pregel::{run_pregel, CombinerFn, ComputeCtx, MpStats, NeighborView, VertexProgram};

/// Level marker for unvisited vertices (mirrors `essentials_algos::bfs`).
pub const UNVISITED: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

struct BfsProgram {
    source: VertexId,
    /// Min-combine the level proposals a rank sends to one vertex.
    combine: bool,
}

impl<W: EdgeValue> VertexProgram<W> for BfsProgram {
    type Value = u32;
    type Msg = u32;

    fn init(&self, v: VertexId) -> u32 {
        if v == self.source {
            0
        } else {
            UNVISITED
        }
    }

    fn combiner(&self) -> Option<CombinerFn<u32>> {
        self.combine.then_some(u32::min)
    }

    fn compute(
        &self,
        ctx: &ComputeCtx<'_, u32>,
        _v: VertexId,
        value: &mut u32,
        out: NeighborView<'_, W>,
        msgs: &[u32],
    ) {
        if ctx.superstep() == 0 {
            // Seed: announce level 1 to neighbors.
            for &d in out.dsts {
                ctx.send(d, 1);
            }
            return;
        }
        if *value != UNVISITED {
            return; // already settled; stay halted
        }
        if let Some(&lvl) = msgs.iter().min() {
            *value = lvl;
            for &d in out.dsts {
                ctx.send(d, lvl + 1);
            }
        }
    }
}

/// Message-passing BFS: levels identical to `essentials_algos::bfs`.
pub fn mp_bfs<W: EdgeValue>(
    ctx: &Context,
    pg: &PartitionedGraph<W>,
    source: VertexId,
) -> (Vec<u32>, MpStats) {
    let program = BfsProgram {
        source,
        combine: false,
    };
    run_pregel(ctx, pg, &program, &[source])
}

/// [`mp_bfs`] with sender-side min-combining: identical levels, at most
/// one message per (rank, destination) per superstep.
pub fn mp_bfs_combined<W: EdgeValue>(
    ctx: &Context,
    pg: &PartitionedGraph<W>,
    source: VertexId,
) -> (Vec<u32>, MpStats) {
    let program = BfsProgram {
        source,
        combine: true,
    };
    run_pregel(ctx, pg, &program, &[source])
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

struct SsspProgram {
    source: VertexId,
    /// Min-combine the distance proposals a rank sends to one vertex.
    combine: bool,
}

impl VertexProgram<f32> for SsspProgram {
    type Value = f32;
    type Msg = f32;

    fn init(&self, v: VertexId) -> f32 {
        if v == self.source {
            0.0
        } else {
            f32::INFINITY
        }
    }

    fn combiner(&self) -> Option<CombinerFn<f32>> {
        self.combine.then_some(f32::min)
    }

    fn compute(
        &self,
        ctx: &ComputeCtx<'_, f32>,
        _v: VertexId,
        value: &mut f32,
        out: NeighborView<'_, f32>,
        msgs: &[f32],
    ) {
        let candidate = msgs.iter().copied().fold(f32::INFINITY, f32::min);
        let improved = if ctx.superstep() == 0 {
            true // seed relaxes its edges unconditionally
        } else if candidate < *value {
            *value = candidate;
            true
        } else {
            false
        };
        if improved {
            for (&d, &w) in out.dsts.iter().zip(out.weights) {
                ctx.send(d, *value + w);
            }
        }
    }
}

/// Message-passing SSSP: distances identical to `essentials_algos::sssp`.
pub fn mp_sssp(ctx: &Context, pg: &PartitionedGraph<f32>, source: VertexId) -> (Vec<f32>, MpStats) {
    let program = SsspProgram {
        source,
        combine: false,
    };
    run_pregel(ctx, pg, &program, &[source])
}

/// [`mp_sssp`] with sender-side min-combining.
pub fn mp_sssp_combined(
    ctx: &Context,
    pg: &PartitionedGraph<f32>,
    source: VertexId,
) -> (Vec<f32>, MpStats) {
    let program = SsspProgram {
        source,
        combine: true,
    };
    run_pregel(ctx, pg, &program, &[source])
}

// ---------------------------------------------------------------------------
// PageRank (fixed number of iterations)
// ---------------------------------------------------------------------------

struct PrProgram {
    n: usize,
    damping: f64,
    iterations: usize,
}

impl<W: EdgeValue> VertexProgram<W> for PrProgram {
    type Value = f64;
    type Msg = f64;

    fn init(&self, _v: VertexId) -> f64 {
        1.0 / self.n as f64
    }

    fn compute(
        &self,
        ctx: &ComputeCtx<'_, f64>,
        _v: VertexId,
        value: &mut f64,
        out: NeighborView<'_, W>,
        msgs: &[f64],
    ) {
        if ctx.superstep() > 0 {
            let sum: f64 = msgs.iter().sum();
            *value = (1.0 - self.damping) / self.n as f64 + self.damping * sum;
        }
        // Keep iterating for a fixed number of supersteps; quiescence after.
        if ctx.superstep() < self.iterations && !out.dsts.is_empty() {
            let share = *value / out.dsts.len() as f64;
            for &d in out.dsts {
                ctx.send(d, share);
            }
        }
    }
}

/// Message-passing PageRank run for a fixed number of supersteps on a
/// dangling-free graph (every vertex needs an out-edge for mass
/// conservation; callers symmetrize or filter).
pub fn mp_pagerank<W: EdgeValue>(
    ctx: &Context,
    pg: &PartitionedGraph<W>,
    damping: f64,
    iterations: usize,
) -> (Vec<f64>, MpStats) {
    let n = pg.num_vertices();
    let seeds: Vec<VertexId> = (0..n as VertexId).collect();
    let program = PrProgram {
        n,
        damping,
        iterations,
    };
    run_pregel(ctx, pg, &program, &seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_core::prelude::*;
    use essentials_gen as gen;
    use essentials_partition::{multilevel_partition, random_partition, MultilevelConfig};

    #[test]
    fn mp_bfs_matches_shared_memory_bfs() {
        let ctx = Context::new(2);
        let g = Graph::<()>::from_coo(&gen::rmat(8, 8, gen::RmatParams::default(), 3));
        let oracle = essentials_algos::bfs::bfs_sequential(&g, 0);
        for k in [1, 2, 4] {
            let p = random_partition(g.get_num_vertices(), k, 7);
            let pg = essentials_partition::PartitionedGraph::build(&g, &p);
            let (levels, stats) = mp_bfs(&ctx, &pg, 0);
            assert_eq!(levels, oracle.level, "k={k}");
            assert!(stats.supersteps >= 2);
        }
    }

    #[test]
    fn mp_sssp_matches_dijkstra() {
        let ctx = Context::new(2);
        let coo = gen::gnm(300, 2400, 5);
        let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 2.0, 9));
        let oracle = essentials_algos::sssp::dijkstra(&g, 0);
        let p = multilevel_partition(&g, MultilevelConfig::new(3));
        let pg = essentials_partition::PartitionedGraph::build(&g, &p);
        let (dist, _) = mp_sssp(&ctx, &pg, 0);
        for (a, b) in dist.iter().zip(&oracle.dist) {
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn mp_pagerank_matches_pull_pagerank() {
        let ctx = Context::new(2);
        // Symmetrized graph => no dangling vertices.
        let g = GraphBuilder::from_coo(gen::gnm(150, 900, 2))
            .symmetrize()
            .deduplicate()
            .with_csc()
            .build();
        let iterations = 30;
        let p = random_partition(g.get_num_vertices(), 4, 3);
        let pg = essentials_partition::PartitionedGraph::build(&g, &p);
        let (mp_rank, _) = mp_pagerank(&ctx, &pg, 0.85, iterations);

        let cfg = essentials_algos::pagerank::PrConfig {
            damping: 0.85,
            tolerance: 0.0,
            max_iterations: iterations,
        };
        let sm = essentials_algos::pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
        for (a, b) in mp_rank.iter().zip(&sm.rank) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn combiners_preserve_results_and_cut_message_volume() {
        let ctx = Context::new(2);
        // A hub-heavy graph: many frontier vertices propose to the same
        // destinations, so min-combining must strictly reduce volume.
        let coo = gen::rmat(9, 10, gen::RmatParams::default(), 6);
        let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 2.0, 2));
        for ranks in [1, 2] {
            let p = random_partition(g.get_num_vertices(), ranks, 4);
            let pg = essentials_partition::PartitionedGraph::build(&g, &p);

            let (d_plain, s_plain) = mp_sssp(&ctx, &pg, 0);
            let (d_comb, s_comb) = mp_sssp_combined(&ctx, &pg, 0);
            assert_eq!(d_plain, d_comb);
            assert!(
                s_comb.messages_total < s_plain.messages_total,
                "{ranks} ranks: combined {} !< plain {}",
                s_comb.messages_total,
                s_plain.messages_total
            );

            let (l_plain, b_plain) = mp_bfs(&ctx, &pg, 0);
            let (l_comb, b_comb) = mp_bfs_combined(&ctx, &pg, 0);
            assert_eq!(l_plain, l_comb);
            assert!(b_comb.messages_total <= b_plain.messages_total);
        }
    }

    #[test]
    fn better_partitions_send_fewer_remote_messages() {
        let ctx = Context::new(2);
        let g = GraphBuilder::from_coo(gen::grid2d(24, 24))
            .deduplicate()
            .build();
        let n = g.get_num_vertices();
        let rnd = random_partition(n, 4, 1);
        let ml = multilevel_partition(&g, MultilevelConfig::new(4));
        let pg_rnd = essentials_partition::PartitionedGraph::build(&g, &rnd);
        let pg_ml = essentials_partition::PartitionedGraph::build(&g, &ml);
        let (_, s_rnd) = mp_bfs(&ctx, &pg_rnd, 0);
        let (_, s_ml) = mp_bfs(&ctx, &pg_ml, 0);
        assert!(
            s_ml.messages_remote * 2 < s_rnd.messages_remote,
            "multilevel {} vs random {}",
            s_ml.messages_remote,
            s_rnd.messages_remote
        );
    }
}
