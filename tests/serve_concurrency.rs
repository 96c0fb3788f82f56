//! Concurrency contract of the serving engine, written to run under
//! ThreadSanitizer (this binary is in the TSan CI matrix).
//!
//! Eight client threads hammer one [`Engine`] with a mixed
//! BFS / batched-BFS / PageRank workload and every response is checked
//! against a sequential oracle computed up front — so any cross-request
//! scratch aliasing, lost admission permit, or torn level table shows up
//! as a wrong answer, not just as a sanitizer report. A separate
//! poisoned-scratch canary leases raw pool slots from many threads and
//! verifies both the CAS exclusivity of the lease protocol and the
//! integrity of data parked in a leased slot. Rejected requests (expired
//! deadline, pre-cancelled token) must leave the engine fully reusable,
//! and so must batches on a grid — whose lanes run one after another on
//! the leased slot — that panic or hit their iteration cap mid-lane.

use essentials::prelude::*;
use essentials::serve::{Brownout, Engine, EngineConfig, ScratchPool};
use essentials_algos::bfs::bfs_sequential;
use essentials_algos::hits::HitsConfig;
use essentials_algos::multi_source::MsBfsResult;
use essentials_algos::pagerank::PrConfig;
use essentials_gen as gen;
use essentials_parallel::{RequestFault, RequestFaultPlan};
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

fn serving_graph() -> Arc<Graph<()>> {
    Arc::new(Graph::from_coo(&gen::rmat(
        9,
        8,
        gen::RmatParams::default(),
        1234,
    )))
}

/// The same workload on the CSR-only serving graph, which every request
/// runs as push, and on the graph with its CSC, where the default plan
/// pulls: the same oracles hold on both.
#[test]
fn mixed_workload_from_eight_clients_is_deterministic() {
    let csr_only = serving_graph();
    let with_csc = Arc::new(Graph::from_csr(csr_only.csr().clone()).with_csc());
    for graph in [csr_only, with_csc] {
        mixed_workload(graph);
    }
}

fn mixed_workload(graph: Arc<Graph<()>>) {
    let csc = graph.csc().is_some();
    let n = graph.num_vertices();
    // Oracle levels for every source any client will use.
    let sources: Vec<VertexId> = (0..CLIENTS as VertexId)
        .map(|i| (i * 97) % n as VertexId)
        .collect();
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs_sequential(&graph, s).level)
        .collect();
    // PageRank through atomic f64 adds (the CSR-only graph) is
    // order-sensitive in the last bits, so the oracle is a tolerance band
    // around one reference run.
    let pr_cfg = PrConfig {
        max_iterations: 30,
        ..PrConfig::default()
    };
    let engine = Arc::new(Engine::new(
        graph.clone(),
        EngineConfig {
            threads: 2,
            permits: 4,
            heavy_permits: 2,
        },
    ));
    let pr_ref = engine
        .pagerank(pr_cfg, RunBudget::unlimited())
        .expect("reference pagerank")
        .rank;

    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let engine = &engine;
            let sources = &sources;
            let oracle = &oracle;
            let pr_ref = &pr_ref;
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    match (c + round) % 3 {
                        // Single-source probe: bit-identical to the oracle.
                        0 => {
                            let r = engine
                                .bfs(sources[c], RunBudget::unlimited())
                                .expect("bfs served");
                            assert_eq!(r.level, oracle[c], "csc {csc}: client {c} round {round}");
                        }
                        // Batched probe: every lane bit-identical.
                        1 => {
                            let batch = engine
                                .bfs_batch(sources, RunBudget::unlimited())
                                .expect("batch served");
                            for (s, want) in oracle.iter().enumerate() {
                                assert_eq!(
                                    &batch.source_levels(s),
                                    want,
                                    "csc {csc}: client {c} round {round} lane {s}"
                                );
                            }
                            engine.recycle_batch(batch);
                        }
                        // Heavy analytics: within float-summation noise of
                        // the reference (structure identical, order free).
                        _ => {
                            let pr = engine
                                .pagerank(pr_cfg, RunBudget::unlimited())
                                .expect("pagerank served");
                            assert_eq!(pr.rank.len(), pr_ref.len());
                            for (i, (a, b)) in pr.rank.iter().zip(pr_ref).enumerate() {
                                assert!(
                                    (a - b).abs() < 1e-9,
                                    "csc {csc}: client {c} round {round}: rank[{i}] {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            });
        }
    });
    // Every permit and lease returned.
    assert_eq!(engine.load(), (0, 0, 0), "csc {csc}");
}

/// HITS on a CSR-only graph scatters its authority half; served by the
/// engine, plain and degradable, it agrees with the CSC graph's scans.
#[test]
fn hits_is_served_on_csr_only_and_csc_graphs_alike() {
    let csr_only = serving_graph();
    let with_csc = Arc::new(Graph::from_csr(csr_only.csr().clone()).with_csc());
    let cfg = HitsConfig {
        tolerance: 0.0,
        max_iterations: 20,
    };
    let brownout = Brownout::new(50);
    let served = |graph: &Arc<Graph<()>>| {
        let config = EngineConfig {
            threads: 2,
            permits: 2,
            heavy_permits: 1,
        };
        let engine = Engine::new(graph.clone(), config);
        let plain = engine
            .hits(cfg, RunBudget::unlimited())
            .expect("hits served");
        let degradable = engine
            .hits_degradable(cfg, RunBudget::unlimited(), brownout)
            .expect("degradable hits served");
        assert_eq!(engine.load(), (0, 0, 0));
        (plain, degradable.value)
    };
    let (want, _) = served(&with_csc);
    assert_eq!(want.direction, Direction::Pull);
    let (plain, degradable) = served(&csr_only);
    for r in [&plain, &degradable] {
        assert_eq!(r.direction, Direction::Push);
        for (a, b) in r
            .hub
            .iter()
            .zip(&want.hub)
            .chain(r.authority.iter().zip(&want.authority))
        {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}

#[test]
fn leased_scratch_slots_never_alias_across_threads() {
    // The canary: each thread leases a slot, writes a thread-unique
    // pattern into the slot's pooled f64 buffer, re-reads it after a
    // scheduling gap, and releases. Concurrently-live keys are tracked in
    // a set — a key inserted twice means the CAS protocol leaked a slot to
    // two requests at once.
    let pool = ScratchPool::new(4);
    let tp = Arc::new(essentials_parallel::ThreadPool::new(1));
    let live: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let pool = &pool;
            let tp = &tp;
            let live = &live;
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for round in 0..40 {
                    let Some(lease) = pool.checkout() else {
                        std::thread::yield_now();
                        continue;
                    };
                    {
                        let mut live = live.lock().expect("canary set");
                        assert!(
                            live.insert(lease.key()),
                            "slot {} leased to two threads at once",
                            lease.key()
                        );
                    }
                    let ctx = Context::with_parts(tp.clone(), lease.scratch().clone());
                    let mut buf = ctx.take_f64_buffer();
                    buf.clear();
                    let stamp = (c * 1000 + round) as f64;
                    buf.resize(64, stamp);
                    std::thread::yield_now();
                    assert!(
                        buf.iter().all(|&x| x == stamp),
                        "scratch data poisoned by another request"
                    );
                    ctx.recycle_f64_buffer(buf);
                    live.lock().expect("canary set").remove(&lease.key());
                    drop(lease);
                }
            });
        }
    });
    assert_eq!(pool.available(), 4, "every slot returned to the pool");
}

#[test]
fn recycling_never_steals_a_slot_from_admitted_requests() {
    // Regression guard: a recycle path that checks out a scratch slot can —
    // with permits = 1 — transiently hold the engine's only slot exactly
    // when a freshly admitted request leases, panicking the serving
    // pipeline. Recycling goes through a private free-list instead, so
    // servers and a concurrent recycler hammering a one-slot engine must
    // never fail and every answer stays exact.
    use std::sync::mpsc;

    let graph = serving_graph();
    let n = graph.num_vertices();
    let sources: Vec<VertexId> = (0..8).map(|i| (i * 31) % n as VertexId).collect();
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs_sequential(&graph, s).level)
        .collect();
    let engine = Engine::new(
        graph,
        EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        },
    );
    let (tx, rx) = mpsc::channel::<MsBfsResult>();
    std::thread::scope(|scope| {
        let engine = &engine;
        let recycler = scope.spawn(move || {
            // Returns every served batch while the servers keep serving, so
            // recycle_batch races real admissions the whole run.
            for batch in rx {
                engine.recycle_batch(batch);
            }
        });
        for _ in 0..4 {
            let tx = tx.clone();
            let sources = &sources;
            let oracle = &oracle;
            scope.spawn(move || {
                for round in 0..24 {
                    let batch = engine
                        .bfs_batch(sources, RunBudget::unlimited())
                        .expect("batch served");
                    for (s, want) in oracle.iter().enumerate() {
                        assert_eq!(&batch.source_levels(s), want, "round {round} lane {s}");
                    }
                    tx.send(batch).expect("recycler alive");
                }
            });
        }
        drop(tx);
        recycler.join().expect("recycler thread");
    });
    assert_eq!(engine.load(), (0, 0, 0));
}

#[test]
fn rejected_requests_leave_the_engine_reusable() {
    let graph = serving_graph();
    let want = bfs_sequential(&graph, 0).level;
    let engine = Engine::new(
        graph,
        EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        },
    );

    // Deadline already expired: fails in the queue or at the first budget
    // check, never with a wrong answer.
    let expired = RunBudget::unlimited().with_timeout(Duration::ZERO);
    let err = engine.bfs(0, expired).expect_err("expired deadline");
    assert!(
        matches!(err.kind(), "deadline-expired" | "queue-deadline"),
        "got {}",
        err.kind()
    );

    // Pre-cancelled token: same story through the cancellation path.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = RunBudget::unlimited().with_cancel(token);
    let err = engine.bfs(0, cancelled).expect_err("cancelled request");
    assert_eq!(err.kind(), "cancelled");

    // The engine still serves exact answers afterwards.
    for _ in 0..3 {
        let r = engine.bfs(0, RunBudget::unlimited()).expect("reusable");
        assert_eq!(r.level, want);
    }
    assert_eq!(engine.load(), (0, 0, 0));
}

#[test]
fn split_grid_batches_fail_typed_mid_lane_and_the_slots_stay_exact() {
    // A CSR-only grid: every 16-wide batch splits into single push
    // traversals on its leased slot after four lock-step levels, so both a
    // fault at iteration 6 and a cap of 6 iterations land inside a lane.
    let graph = Arc::new(Graph::<()>::from_coo(&gen::grid2d(32, 32)));
    let sources: Vec<VertexId> = (0..16).map(|i| i * 61 % 1024).collect();
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs_sequential(&graph, s).level)
        .collect();
    let panic_mid_lane = RequestFault::Panic {
        iteration: 6,
        chunk: 0,
    };
    let chaos = [1, 4, 9, 16]
        .into_iter()
        .fold(RequestFaultPlan::new(), |p, id| {
            p.fault_at(id, panic_mid_lane)
        });
    let engine = Engine::new(
        graph,
        EngineConfig {
            threads: 2,
            permits: 3,
            heavy_permits: 1,
        },
    )
    .with_chaos(Arc::new(chaos));
    let check = |r: &MsBfsResult, at: &str| {
        for (s, want) in oracle.iter().enumerate() {
            assert_eq!(&r.source_levels(s), want, "{at} lane {s}");
        }
    };
    let panics = Mutex::new(0usize);
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (engine, sources, check, panics, start) =
                (&engine, &sources, &check, &panics, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let capped = (c + round) % 2 == 1;
                    let budget = if capped {
                        RunBudget::unlimited().with_max_iterations(6)
                    } else {
                        RunBudget::unlimited()
                    };
                    // Request ids are taken in arrival order, so any request
                    // may be one the chaos plan panics; a capped one stops
                    // at the iteration-6 boundary before that chunk runs.
                    match engine.bfs_batch(sources, budget) {
                        Ok(r) if !capped => {
                            check(&r, &format!("client {c} round {round}"));
                            engine.recycle_batch(r);
                        }
                        Ok(_) => panic!("client {c} round {round}: the cap never fired"),
                        Err(e) if capped => assert_eq!(e.kind(), "iteration-cap"),
                        Err(e) => {
                            assert_eq!(e.kind(), "worker-panic", "client {c} round {round}");
                            *panics.lock().unwrap() += 1;
                        }
                    }
                }
            });
        }
    });
    // Every panicked slot was quarantined; the engine still answers
    // exactly, from every slot.
    assert_eq!(
        engine.health().quarantined_total as usize,
        *panics.lock().unwrap()
    );
    for round in 0..4 {
        let r = engine
            .bfs_batch(&sources, RunBudget::unlimited())
            .expect("batch served");
        check(&r, &format!("rerun {round}"));
        engine.recycle_batch(r);
    }
    assert_eq!(engine.load(), (0, 0, 0));
}
