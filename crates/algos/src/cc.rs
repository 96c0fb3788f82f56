//! Connected components (of undirected / symmetrized graphs).
//!
//! Three computations of the same partition:
//! * [`cc_label_propagation`] — frontier-driven min-label propagation built
//!   entirely from essentials operators (the "abstraction-native" version),
//!   in whichever direction its plan picks;
//! * [`cc_hooking`] — Shiloach–Vishkin-style hooking + pointer jumping over
//!   the edge list (no frontier; shows the abstraction also hosts
//!   non-traversal algorithms via compute operators);
//! * [`cc_union_find`] — sequential union-find baseline (oracle).
//!
//! Component ids are canonicalized to the minimum vertex id of each
//! component, so results compare with `==` across variants.

use essentials_core::prelude::*;
use essentials_parallel::atomics::{CachePadded, Counter};
use std::sync::atomic::{AtomicU32, Ordering};

/// Component labeling plus run metadata.
#[derive(Debug, Clone)]
pub struct CcResult {
    /// `comp[v]` = smallest vertex id in v's component.
    pub comp: Vec<VertexId>,
    /// Loop statistics.
    pub stats: LoopStats,
    /// Label updates attempted (work measure).
    pub updates: usize,
    /// Direction taken each iteration ([`cc_label_propagation`] only;
    /// empty otherwise).
    pub directions: Vec<Direction>,
}

/// [`try_cc_label_propagation`], panicking on an error.
pub fn cc_label_propagation<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    plan: DirectionPolicy,
) -> CcResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    try_cc_label_propagation(policy, ctx, g, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// Frontier-driven min-label propagation: every vertex starts labeled with
/// itself and active; an active vertex offers its label to its neighbors,
/// who adopt it if smaller and activate in turn. Converges to the
/// component minimum. Requires a symmetric graph for the labels to mean
/// *connected* (not merely reachable) components.
///
/// The advance is [`try_advance_adaptive`]: `plan` picks push (CSR only) or
/// pull (needs the CSC) per iteration. The initial frontier is every vertex,
/// so the default plan opens dense and shifts to sparse push as labels
/// settle; `fetch_min` is monotone, so every plan reaches the same labels,
/// bit-for-bit on every representation (`tests/differential.rs`). Budget
/// and fault hooks fire at iteration and chunk boundaries; on error the
/// partial labels are dropped and the context stays reusable.
pub fn try_cc_label_propagation<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    plan: DirectionPolicy,
) -> Result<CcResult, ExecError>
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    let labels: Vec<AtomicU32> = (0..g.num_vertices() as u32).map(AtomicU32::new).collect();
    let updates = CachePadded(Counter::new());
    let mut engine = AdaptiveAdvance::new(
        g,
        AdaptiveConfig {
            policy: plan,
            ..AdaptiveConfig::default()
        },
    );
    let init = VertexFrontier::Sparse(g.vertices().collect());
    let run = Enactor::for_ctx(ctx).try_run(init, |_, f| {
        try_advance_adaptive(
            policy,
            ctx,
            g,
            &mut engine,
            f,
            |_dst| true,
            |src, dst, _w| {
                updates.add(1);
                let l = labels[src as usize].load(Ordering::Acquire);
                labels[dst as usize].fetch_min(l, Ordering::AcqRel) > l
            },
        )
    });
    let (stats, directions) = engine.finish(ctx, run)?;
    Ok(CcResult {
        comp: labels.into_iter().map(AtomicU32::into_inner).collect(),
        stats,
        updates: updates.get(),
        directions,
    })
}

/// [`cc_label_propagation`] with the default (direction-optimizing) plan.
/// Kept as a name because the frozen benchmark calls it with this signature
/// and generic order.
pub fn cc_adaptive<P, W, G>(policy: P, ctx: &Context, g: &G) -> CcResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    cc_label_propagation(policy, ctx, g, DirectionPolicy::default())
}

/// Former name of [`cc_adaptive`] on compressed adjacency; the frozen
/// benchmark still calls it.
pub use self::cc_adaptive as cc_adaptive_compressed;

/// Hooking + pointer jumping: repeatedly hook the larger root onto the
/// smaller across every edge, then compress all parent chains, until no
/// hook fires. O(m log n) total work, a constant number of supersteps on
/// most graphs.
pub fn cc_hooking<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
) -> CcResult {
    let n = g.get_num_vertices();
    let m = g.get_num_edges();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let updates = Counter::new();

    let find = |mut v: u32| -> u32 {
        loop {
            let p = parent[v as usize].load(Ordering::Acquire);
            if p == v {
                return v;
            }
            v = p;
        }
    };

    let (_, stats) = Enactor::for_ctx(ctx)
        .max_iterations(64)
        .run_until((), |_, (), progress| {
            let changed = Counter::new();
            // Hook phase: for every edge, point the larger root at the smaller.
            foreach_vertex(policy, ctx, m, |e| {
                let e = e as usize;
                let u = g.get_source_vertex(e);
                let v = g.get_dest_vertex(e);
                let (ru, rv) = (find(u), find(v));
                if ru == rv {
                    return;
                }
                updates.add(1);
                let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
                // CAS so only roots are re-pointed; a failed CAS means someone
                // else hooked hi first — the next round will see it.
                if parent[hi as usize]
                    .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    changed.add(1);
                }
            });
            // Jump phase: full path compression.
            foreach_vertex(policy, ctx, n, |v| {
                let root = find(v);
                parent[v as usize].store(root, Ordering::Release);
            });
            // Hooks that fired this round are the loop's work measure.
            progress.report_work(changed.get());
            changed.get() == 0
        });
    CcResult {
        comp: parent.into_iter().map(AtomicU32::into_inner).collect(),
        stats,
        updates: updates.get(),
        directions: Vec::new(),
    }
}

/// Sequential union-find with path halving and union-by-smaller-id
/// (canonical labels fall out directly). The oracle.
pub fn cc_union_find<W: EdgeValue>(g: &Graph<W>) -> CcResult {
    let n = g.get_num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // halve
            v = parent[v as usize];
        }
        v
    }
    let mut updates = 0usize;
    for u in g.vertices() {
        for e in g.get_edges(u) {
            let v = g.get_dest_vertex(e);
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                updates += 1;
                let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
                parent[hi as usize] = lo;
            }
        }
    }
    // Canonicalize.
    for v in 0..n as u32 {
        let r = find(&mut parent, v);
        parent[v as usize] = r;
    }
    CcResult {
        comp: parent,
        stats: LoopStats::default(),
        updates,
        directions: Vec::new(),
    }
}

/// Number of distinct components in a labeling.
pub fn num_components(comp: &[VertexId]) -> usize {
    let mut ids: Vec<VertexId> = comp.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Verifies a component labeling on a symmetric graph: endpoints of every
/// edge share a label, every label is the minimum id of its class, and
/// distinct labels are genuinely disconnected (guaranteed by minimality +
/// edge consistency + each label naming itself).
pub fn verify_cc<W: EdgeValue>(g: &Graph<W>, comp: &[VertexId]) -> bool {
    if comp.len() != g.get_num_vertices() {
        return false;
    }
    // Edge consistency.
    for u in g.vertices() {
        for e in g.get_edges(u) {
            if comp[u as usize] != comp[g.get_dest_vertex(e) as usize] {
                return false;
            }
        }
    }
    // Labels are self-naming minima.
    for (v, &c) in comp.iter().enumerate() {
        if c as usize > v || comp[c as usize] != c {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn push() -> DirectionPolicy {
        DirectionPolicy::fixed(Direction::Push)
    }

    fn sym(coo: &Coo<()>) -> Graph<()> {
        GraphBuilder::from_coo(coo.clone())
            .symmetrize()
            .deduplicate()
            .build()
    }

    #[test]
    fn three_variants_agree_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [1, 2, 3] {
            let g = sym(&gen::gnm(300, 350, seed)); // sparse => several comps
            let oracle = cc_union_find(&g);
            assert!(verify_cc(&g, &oracle.comp));
            let lp = cc_label_propagation(execution::par, &ctx, &g, push());
            let hook = cc_hooking(execution::par, &ctx, &g);
            assert_eq!(lp.comp, oracle.comp, "label propagation diverged");
            assert_eq!(hook.comp, oracle.comp, "hooking diverged");
        }
    }

    #[test]
    fn every_plan_matches_union_find() {
        let ctx = Context::new(4);
        for seed in [1, 2, 3] {
            let g = GraphBuilder::from_coo(gen::gnm(300, 350, seed))
                .symmetrize()
                .deduplicate()
                .with_csc()
                .build();
            let oracle = cc_union_find(&g);
            // The density-1 initial frontier drives the default plan
            // through its dense kernels; fetch_min still lands on the
            // component minima in every direction.
            for plan in [
                push(),
                DirectionPolicy::fixed(Direction::DensePush),
                DirectionPolicy::fixed(Direction::Pull),
                DirectionPolicy::default(),
            ] {
                let r = cc_label_propagation(execution::par, &ctx, &g, plan);
                assert_eq!(r.comp, oracle.comp, "{plan:?}");
            }
        }
    }

    #[test]
    fn policy_equivalence_for_label_propagation() {
        let ctx = Context::new(4);
        let g = sym(&gen::gnm(200, 220, 9));
        let seq = cc_label_propagation(execution::seq, &ctx, &g, push());
        let par = cc_label_propagation(execution::par, &ctx, &g, push());
        let nosync = cc_label_propagation(execution::par_nosync, &ctx, &g, push());
        assert_eq!(seq.comp, par.comp);
        assert_eq!(seq.comp, nosync.comp);
    }

    #[test]
    fn disconnected_pieces_are_counted() {
        // Two triangles + an isolated vertex.
        let mut coo = Coo::<()>::new(7);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            coo.push(a, b, ());
        }
        let g = sym(&coo);
        let ctx = Context::new(2);
        let r = cc_label_propagation(execution::par, &ctx, &g, push());
        assert_eq!(num_components(&r.comp), 3);
        assert_eq!(r.comp, vec![0, 0, 0, 3, 3, 3, 6]);
    }

    #[test]
    fn connected_graph_has_one_component() {
        let g = sym(&gen::grid2d(12, 12));
        let ctx = Context::new(2);
        let r = cc_hooking(execution::par, &ctx, &g);
        assert_eq!(num_components(&r.comp), 1);
        assert!(r.comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let ctx = Context::sequential();
        let g0 = Graph::<()>::from_coo(&Coo::new(0));
        assert!(cc_label_propagation(execution::seq, &ctx, &g0, push())
            .comp
            .is_empty());
        let g5 = Graph::<()>::from_coo(&Coo::new(5));
        let r = cc_union_find(&g5);
        assert_eq!(num_components(&r.comp), 5);
        assert!(verify_cc(&g5, &r.comp));
    }

    #[test]
    fn verifier_rejects_bad_labelings() {
        let g = sym(&Coo::from_edges(3, [(0, 1, ())]));
        assert!(!verify_cc(&g, &[0, 1, 2])); // edge 0-1 split
        assert!(!verify_cc(&g, &[1, 1, 2])); // label not minimal
        assert!(verify_cc(&g, &[0, 0, 2]));
    }
}
