//! The adapter: every call from the benchmark into the program goes through
//! this file, so a change to the program's API (ROADMAP item 2 collapses the
//! `algo x {adaptive, compressed}` matrix) needs a follow-up here and
//! nowhere else. Nothing in this file measures; it only calls.

use essentials_algos::bfs::{self, UNVISITED};
use essentials_algos::multi_source::MsBfsResult;
use essentials_algos::pagerank::{self, PrConfig};
use essentials_algos::{cc, sssp};
use essentials_core::prelude::*;
use essentials_frontier::convert::{dense_to_sparse_into, sparse_to_dense};
use essentials_gen as gen;
use essentials_io::binary::write_compressed_binary;
use essentials_io::mmap::CompressedContainer;
use essentials_parallel::scan::parallel_scan;
use essentials_serve::{Engine, EngineConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

pub use essentials_core::Context;
#[cfg(test)]
pub use essentials_obs::OpKind;
pub use essentials_obs::{
    AdvanceEvent, ComputeEvent, DirectionEvent, FilterEvent, IterSpan, ObsSink, RequestEvent,
};

pub type RawGraph = Graph<f32>;
pub type Compressed = CompressedGraph<f32>;
pub type Container = CompressedContainer<f32>;
pub type View<'a> = CompressedGraphView<'a, f32>;
pub type ServeEngine = Engine<f32>;

/// Sources in one batched-BFS request. The engine takes up to 64; the level
/// table of a 64-source batch over 65 536 vertices is 16 MB of scattered
/// writes, and on a shared host its time follows the neighbours' use of the
/// last-level cache (380 to 650 ms within minutes, while a 16-source batch
/// beside it stayed within 4 %). 16 sources keep the table at 4 MB.
pub const BATCH: usize = 16;

/// PageRank as the direct phase runs it: a fixed amount of work, so the
/// time does not depend on where convergence happens to fall.
const PR_DIRECT: PrConfig = PrConfig {
    damping: 0.85,
    tolerance: 0.0,
    max_iterations: 20,
};

/// PageRank as a heavy request.
const PR_HEAVY: PrConfig = PrConfig {
    max_iterations: 5,
    ..PR_DIRECT
};

/// The environment variables that silently change thread count or pinning.
pub const FORBIDDEN_ENV: [&str; 2] = ["ESSENTIALS_THREADS", "ESSENTIALS_PIN"];

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Which generator makes a workload's edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// R-MAT, Graph500 parameters, edge factor 16, `2^scale` vertices.
    Rmat { scale: u32 },
    /// `side x side` 2-D grid.
    Grid { side: usize },
}

pub fn generate(shape: Shape, seed: u64) -> Coo<()> {
    match shape {
        Shape::Rmat { scale } => gen::rmat(scale, 16, gen::RmatParams::default(), seed),
        Shape::Grid { side } => gen::grid2d(side, side),
    }
}

/// Symmetrized, deduplicated, loop-free graph with endpoint-hashed weights
/// in `[0.1, 2.0)`, CSR + CSC.
pub fn build(mut coo: Coo<()>, seed: u64) -> RawGraph {
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let mut g = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, seed));
    g.ensure_csc();
    g
}

pub fn compress(ctx: &Context, g: &RawGraph) -> Compressed {
    CompressedGraph::from_graph(ctx.pool(), g)
}

/// Serialises `cg` to `path`; returns the container size in bytes.
pub fn write_container(cg: &Compressed, path: &Path) -> std::io::Result<usize> {
    let bytes = write_compressed_binary(cg);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len())
}

pub fn open_container(path: &Path) -> Result<Container, String> {
    let c = Container::open(path).map_err(|e| e.to_string())?;
    c.view().map_err(|e| e.to_string())?;
    Ok(c)
}

pub fn view(c: &Container) -> View<'_> {
    c.view().expect("container validated when it was opened")
}

/// Coded out-adjacency bytes per edge.
pub fn ccsr_bytes_per_edge(cg: &Compressed) -> f64 {
    cg.out_ccsr().topology_bytes() as f64 / cg.num_edges().max(1) as f64
}

/// FNV-1a over CSR offsets, columns and weight bits: the identity of a
/// workload's input.
pub fn fingerprint(g: &RawGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let csr = g.csr();
    csr.row_offsets().iter().for_each(|&o| eat(o as u64));
    csr.column_indices().iter().for_each(|&c| eat(c as u64));
    csr.values().iter().for_each(|&w| eat(w.to_bits() as u64));
    h
}

pub fn degrees(g: &RawGraph) -> Vec<usize> {
    g.vertices().map(|v| g.out_degree(v)).collect()
}

// ---------------------------------------------------------------------------
// Contexts and the engine
// ---------------------------------------------------------------------------

pub fn context(threads: usize, sink: Option<Arc<dyn ObsSink>>) -> Context {
    let ctx = Context::new(threads);
    match sink {
        Some(s) => ctx.with_obs(s),
        None => ctx,
    }
}

pub fn engine(g: Arc<RawGraph>, threads: usize, sink: Option<Arc<dyn ObsSink>>) -> ServeEngine {
    let e = Engine::new(
        g,
        EngineConfig {
            threads,
            permits: 2,
            heavy_permits: 1,
        },
    );
    match sink {
        Some(s) => e.with_obs(s),
        None => e,
    }
}

/// `(shed, degraded, rebuilt)` since the engine was built.
pub fn engine_counters(e: &ServeEngine) -> (u64, u64, u64) {
    let h = e.health();
    (h.shed_total, h.degraded_total, h.rebuilt_total)
}

// ---------------------------------------------------------------------------
// The four algorithms of the direct phase
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Bfs,
    Sssp,
    Cc,
    Pagerank,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pagerank];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Pagerank => "pagerank",
        }
    }
}

/// The representation an algorithm runs over.
#[derive(Clone, Copy)]
pub enum Rep<'a> {
    Raw(&'a RawGraph),
    Mapped(&'a View<'a>),
}

/// What an algorithm returned, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Levels(Vec<u32>),
    Dists(Vec<f32>),
    Labels(Vec<u32>),
    Ranks { rank: Vec<f64>, final_error: f64 },
}

pub struct RunOut {
    pub answer: Answer,
    pub iterations: usize,
    /// Edges the run looked at, as the algorithm itself counts them.
    pub edges_inspected: u64,
}

pub fn run(algo: Algo, rep: Rep<'_>, ctx: &Context, source: VertexId) -> RunOut {
    let par = execution::par;
    match (algo, rep) {
        (Algo::Bfs, Rep::Raw(g)) => bfs_out(bfs::bfs_adaptive(par, ctx, g, source)),
        (Algo::Bfs, Rep::Mapped(v)) => bfs_out(bfs::bfs_adaptive_compressed(
            par,
            ctx,
            v,
            source,
            DirectionPolicy::default(),
        )),
        (Algo::Sssp, Rep::Raw(g)) => sssp_out(sssp::sssp_adaptive(par, ctx, g, source)),
        (Algo::Sssp, Rep::Mapped(v)) => {
            sssp_out(sssp::sssp_adaptive_compressed(par, ctx, v, source))
        }
        (Algo::Cc, Rep::Raw(g)) => cc_out(cc::cc_adaptive(par, ctx, g)),
        (Algo::Cc, Rep::Mapped(v)) => cc_out(cc::cc_adaptive_compressed::<_, f32, _>(par, ctx, v)),
        (Algo::Pagerank, Rep::Raw(g)) => pr_out(
            pagerank::pagerank_pull(par, ctx, g, PR_DIRECT),
            g.get_num_edges(),
        ),
        (Algo::Pagerank, Rep::Mapped(v)) => pr_out(
            pagerank::pagerank_pull_compressed(par, ctx, v, PR_DIRECT),
            v.num_edges(),
        ),
    }
}

fn bfs_out(r: bfs::BfsResult) -> RunOut {
    RunOut {
        iterations: r.stats.iterations,
        edges_inspected: r.edges_inspected as u64,
        answer: Answer::Levels(r.level),
    }
}

fn sssp_out(r: sssp::SsspResult) -> RunOut {
    RunOut {
        iterations: r.stats.iterations,
        edges_inspected: r.relaxations as u64,
        answer: Answer::Dists(r.dist),
    }
}

fn cc_out(r: cc::CcResult) -> RunOut {
    RunOut {
        iterations: r.stats.iterations,
        edges_inspected: r.updates as u64,
        answer: Answer::Labels(r.comp),
    }
}

fn pr_out(r: pagerank::PageRankResult, m: usize) -> RunOut {
    RunOut {
        iterations: r.stats.iterations,
        edges_inspected: (r.stats.iterations * m) as u64,
        answer: Answer::Ranks {
            rank: r.rank,
            final_error: r.final_error,
        },
    }
}

/// The sequential reference answer.
pub fn oracle(algo: Algo, g: &RawGraph, source: VertexId) -> Answer {
    match algo {
        Algo::Bfs => Answer::Levels(bfs::bfs_sequential(g, source).level),
        Algo::Sssp => Answer::Dists(sssp::dijkstra(g, source).dist),
        Algo::Cc => Answer::Labels(cc::cc_union_find(g).comp),
        Algo::Pagerank => {
            let r = pagerank::pagerank_sequential(g, PR_DIRECT);
            Answer::Ranks {
                rank: r.rank,
                final_error: r.final_error,
            }
        }
    }
}

/// Checks an answer against the problem's definition, with no oracle.
pub fn verify(g: &RawGraph, source: VertexId, answer: &Answer) -> bool {
    match answer {
        Answer::Levels(level) => bfs::verify_bfs(g, source, level),
        Answer::Dists(dist) => sssp::verify_sssp(g, source, dist, 1e-4),
        Answer::Labels(comp) => cc::verify_cc(g, comp),
        // After a fixed number of iterations the ranks are not a fixpoint;
        // each vertex is off by at most the last L1 change.
        Answer::Ranks { rank, final_error } => {
            pagerank::verify_pagerank(g, rank, PR_DIRECT.damping, final_error.max(1e-12))
        }
    }
}

/// `(count, sum)`: reached vertices and level/distance sum, component count
/// and label sum, or vertex count and rank sum. Cheap enough to take on
/// every timed run.
pub fn checksum(answer: &Answer) -> (u64, f64) {
    match answer {
        Answer::Levels(level) => levels_checksum(level),
        Answer::Dists(dist) => {
            let reached = dist.iter().filter(|d| d.is_finite());
            (
                reached.clone().count() as u64,
                reached.map(|&d| d as f64).sum(),
            )
        }
        Answer::Labels(comp) => {
            let roots = comp.iter().enumerate().filter(|&(v, &c)| c as usize == v);
            (roots.count() as u64, comp.iter().map(|&c| c as f64).sum())
        }
        Answer::Ranks { rank, .. } => (rank.len() as u64, rank.iter().sum()),
    }
}

/// Reached vertices and the sum of their levels.
pub fn levels_checksum(level: &[u32]) -> (u64, f64) {
    let reached = level.iter().filter(|&&l| l != UNVISITED);
    (
        reached.clone().count() as u64,
        reached.map(|&l| l as f64).sum(),
    )
}

// ---------------------------------------------------------------------------
// Requests of the engine phase
// ---------------------------------------------------------------------------

pub fn serve_light(e: &ServeEngine, source: VertexId) -> Result<Vec<u32>, String> {
    e.bfs(source, RunBudget::unlimited())
        .map(|r| r.level)
        .map_err(|err| err.to_string())
}

/// A batched BFS answer: `level(vertex, source_index)`.
pub struct BatchAnswer(MsBfsResult);

impl BatchAnswer {
    pub fn level(&self, v: VertexId, s: usize) -> u32 {
        self.0.level(v, s)
    }
}

pub fn serve_batch(e: &ServeEngine, sources: &[VertexId]) -> Result<BatchAnswer, String> {
    e.bfs_batch(sources, RunBudget::unlimited())
        .map(BatchAnswer)
        .map_err(|err| err.to_string())
}

/// Hands the level table back so the next batch does not allocate one.
pub fn recycle_batch(e: &ServeEngine, answer: BatchAnswer) {
    e.recycle_batch(answer.0);
}

pub fn serve_heavy(e: &ServeEngine) -> Result<Vec<f64>, String> {
    e.pagerank(PR_HEAVY, RunBudget::unlimited())
        .map(|r| r.rank)
        .map_err(|err| err.to_string())
}

/// Sequential push PageRank with the heavy request's settings.
pub fn heavy_oracle(g: &RawGraph) -> Vec<f64> {
    pagerank::pagerank_push(execution::seq, &Context::sequential(), g, PR_HEAVY).rank
}

pub fn light_oracle(g: &RawGraph, source: VertexId) -> Vec<u32> {
    bfs::bfs_sequential(g, source).level
}

// ---------------------------------------------------------------------------
// Layer probes: one direct call into a layer's public function each
// ---------------------------------------------------------------------------

/// One probe: the per-layer metric it feeds, how many items one call
/// processes, and the call.
pub struct Probe<'a> {
    pub metric: &'static str,
    pub items: f64,
    pub call: Box<dyn FnMut() + 'a>,
}

/// Frontiers and arrays the probes read, built once per workload.
pub struct ProbeInputs {
    all: SparseFrontier,
    tenth: SparseFrontier,
    tenth_dense: DenseFrontier,
    full: DenseFrontier,
    degs: Vec<usize>,
    cells: Vec<AtomicU32>,
    vals: Vec<f64>,
}

impl ProbeInputs {
    pub fn new(g: &RawGraph) -> Self {
        let n = g.get_num_vertices();
        let tenth = SparseFrontier::from_vec((0..n as VertexId).step_by(10).collect());
        let full = DenseFrontier::new(n);
        full.set_all();
        ProbeInputs {
            all: SparseFrontier::from_vec((0..n as VertexId).collect()),
            tenth_dense: sparse_to_dense(&tenth, n),
            tenth,
            full,
            degs: degrees(g),
            cells: (0..n).map(|_| AtomicU32::new(0)).collect(),
            vals: (0..n).map(|i| i as f64).collect(),
        }
    }
}

/// One push expansion of every vertex that admits every edge, through `ctx`
/// (and so through its sink, which sees how the pushes fell on the workers).
pub fn push_everything(ctx: &Context, g: &RawGraph, inputs: &ProbeInputs) {
    let out = neighbors_expand(execution::par, ctx, g, &inputs.all, |_, _, _, _: f32| true);
    ctx.recycle_frontier(out);
}

/// Probes over the workload's own graph, all with an all-vertex frontier so
/// every one of them touches every edge (or vertex) exactly once.
pub fn probes<'a>(
    g: &'a RawGraph,
    v: &'a View<'a>,
    ctx: &'a Context,
    inputs: &'a ProbeInputs,
) -> Vec<Probe<'a>> {
    let par = execution::par;
    let n = g.get_num_vertices();
    let m = g.get_num_edges() as f64;
    let ProbeInputs {
        all,
        tenth,
        tenth_dense,
        full,
        degs,
        cells,
        vals,
    } = inputs;
    let pool = ctx.pool();
    const ITEMS: usize = 1 << 20;
    const REGIONS: usize = 256;

    let mut out: Vec<Probe<'a>> = Vec::new();
    let mut add = |metric: &'static str, items: f64, call: Box<dyn FnMut() + 'a>| {
        out.push(Probe {
            metric,
            items,
            call,
        })
    };

    add(
        "graph.raw_scan_ns_per_edge",
        m,
        Box::new(move || {
            let mut acc = 0u64;
            for u in g.vertices() {
                for &d in g.out_neighbors(u) {
                    acc += d as u64;
                }
            }
            black_box(acc);
        }),
    );
    add(
        "graph.decode_ns_per_edge",
        m,
        Box::new(move || {
            let mut acc = 0u64;
            for u in 0..n as VertexId {
                for d in v.out_decoder(u) {
                    acc += d as u64;
                }
            }
            black_box(acc);
        }),
    );
    add(
        "parallel.region_ns",
        REGIONS as f64,
        Box::new(move || {
            for _ in 0..REGIONS {
                pool.run(|tid| {
                    black_box(tid);
                });
            }
        }),
    );
    add(
        "parallel.for_static_ns_per_item",
        ITEMS as f64,
        Box::new(move || {
            pool.parallel_for(0..ITEMS, Schedule::Static, |i| {
                black_box(i);
            })
        }),
    );
    add(
        "parallel.for_dynamic_ns_per_item",
        ITEMS as f64,
        Box::new(move || {
            pool.parallel_for(0..ITEMS, Schedule::Dynamic(256), |i| {
                black_box(i);
            })
        }),
    );
    let mut scanned = Vec::new();
    add(
        "parallel.scan_ns_per_item",
        n as f64,
        Box::new(move || {
            black_box(parallel_scan(pool, degs, &mut scanned));
        }),
    );
    add(
        "frontier.to_dense_ns_per_vertex",
        tenth.len() as f64,
        Box::new(move || {
            black_box(sparse_to_dense(tenth, n));
        }),
    );
    let mut sparse = Vec::new();
    add(
        "frontier.to_sparse_ns_per_vertex",
        tenth.len() as f64,
        Box::new(move || {
            dense_to_sparse_into(tenth_dense, &mut sparse);
            black_box(sparse.len());
        }),
    );
    add(
        "core.push_ns_per_edge",
        m,
        Box::new(move || {
            ctx.recycle_frontier(neighbors_expand(par, ctx, g, all, |_, _, _, _: f32| false))
        }),
    );
    add(
        "core.push_admit_all_ns_per_edge",
        m,
        Box::new(move || {
            ctx.recycle_frontier(neighbors_expand(par, ctx, g, all, |_, _, _, _: f32| true))
        }),
    );
    add(
        "core.push_unique_ns_per_edge",
        m,
        Box::new(move || {
            ctx.recycle_frontier(neighbors_expand_unique(
                par,
                ctx,
                g,
                all,
                |_, _, _, _: f32| true,
            ))
        }),
    );
    add(
        "core.pull_ns_per_edge",
        m,
        Box::new(move || {
            let (o, _) = expand_pull_counted(
                par,
                ctx,
                g,
                full,
                PullConfig::default(),
                |_| true,
                |_, _, _: f32| false,
            );
            ctx.recycle_dense_frontier(o);
        }),
    );
    add(
        "core.pull_masked_ns_per_edge",
        m,
        Box::new(move || {
            let (o, _) = expand_pull_masked(
                par,
                ctx,
                g,
                full,
                full,
                PullConfig::default(),
                |_, _, _: f32| false,
            );
            ctx.recycle_dense_frontier(o);
        }),
    );
    add(
        "core.blocked_build_ms",
        1.0,
        Box::new(move || {
            BlockedGather::over_out_edges(par, ctx, g, BlockedConfig::default()).finish(ctx)
        }),
    );
    let mut gather = BlockedGather::over_out_edges(par, ctx, g, BlockedConfig::default());
    let mut gathered = vec![0.0f64; n];
    add(
        "core.blocked_gather_ns_per_edge",
        m,
        Box::new(move || gather.gather(par, ctx, |u| vals[u], |_, acc| acc, &mut gathered)),
    );
    add(
        "core.push_compressed_ns_per_edge",
        m,
        Box::new(move || {
            ctx.recycle_frontier(neighbors_expand_compressed(
                par,
                ctx,
                v,
                all,
                |_, _, _, _: f32| false,
            ))
        }),
    );
    add(
        "core.pull_compressed_ns_per_edge",
        m,
        Box::new(move || {
            let (o, _) = expand_pull_counted_compressed(
                par,
                ctx,
                v,
                full,
                PullConfig::default(),
                |_| true,
                |_, _, _: f32| false,
            );
            ctx.recycle_dense_frontier(o);
        }),
    );
    add(
        "core.filter_ns_per_item",
        n as f64,
        Box::new(move || ctx.recycle_frontier(filter(par, ctx, all, |u| u % 2 == 0))),
    );
    add(
        "core.foreach_vertex_ns_per_item",
        n as f64,
        Box::new(move || {
            foreach_vertex(par, ctx, n, |u| {
                cells[u as usize].store(u, Ordering::Relaxed)
            })
        }),
    );
    add(
        "core.sum_f64_ns_per_item",
        n as f64,
        Box::new(move || {
            black_box(sum_f64(par, ctx, n, |i| vals[i]));
        }),
    );
    out
}
