//! Chaos/soak harness for the serving engine (DESIGN.md §16), written to
//! run under ThreadSanitizer (this binary is in the TSan CI matrix, with
//! `ESSENTIALS_STRESS_SCALE` raising the round count).
//!
//! A seeded [`RequestFaultPlan`] injects ≥100 mixed faults — mid-run
//! worker panics at `(iteration, chunk)` coordinates, service delays,
//! exhausted budgets, poisoned recycle locks — into a storm of concurrent
//! mixed requests against 1-permit and 8-permit engines. While the storm
//! runs, every client samples [`Engine::health`] and asserts the zero-leak
//! invariant `free + leased + quarantined == permits`; every outcome must
//! be either a verified-correct result or one of the documented typed
//! error kinds. After the storm, a delay-pinned recovery wave claims every
//! slot concurrently (rebuilding the quarantined ones) and proves clean
//! requests are bit-identical to serial oracles — the engine survived the
//! faults with no capacity loss and no corrupted scratch.
//!
//! Every injected fault is replayable: the plan is a pure function of its
//! seed, and each fault's key is `(request, iteration, chunk)` — on any
//! assertion failure, rerun with the same seed and the same schedule
//! reproduces it.

use essentials::prelude::*;
use essentials::serve::{Brownout, Engine, EngineConfig, Outcome, ServeError};
use essentials_algos::bfs::bfs_sequential;
use essentials_algos::pagerank::PrConfig;
use essentials_gen as gen;
use essentials_parallel::{RequestFault, RequestFaultPlan};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Scales a workload by `ESSENTIALS_STRESS_SCALE` (default 1). The
/// sanitizer CI job raises it so instrumented runs still soak the engine;
/// local runs stay fast.
fn scaled(n: usize) -> usize {
    match std::env::var("ESSENTIALS_STRESS_SCALE") {
        Ok(s) => n * s.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => n,
    }
}

/// Error kinds a chaos-storm request may legitimately surface. Anything
/// else (or a wrong *result*) is a bug.
const ALLOWED_KINDS: &[&str] = &[
    "worker-panic",
    "cancelled",
    "deadline-expired",
    "iteration-cap",
    "diverged",
    "invalid-input",
    "queue-deadline",
    "shed",
];

fn chaos_graph() -> Arc<Graph<()>> {
    Arc::new(Graph::from_coo(&gen::rmat(
        9,
        8,
        gen::RmatParams::default(),
        1234,
    )))
}

/// Per-client outcome tally, aggregated after the storm (plain data over
/// join handles — no shared atomics needed).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: usize,
    ok: usize,
    degraded: usize,
    panics: usize,
    sheds: usize,
    other_typed: usize,
}

/// Renders the replay key of the fault (if any) planned for a request —
/// printed in assertion messages so a failing schedule reruns from the
/// seed.
fn replay_key(plan: &RequestFaultPlan, id: u64) -> String {
    match plan.for_request(id) {
        Some(f) => {
            let (i, c) = f.coordinate();
            format!(
                "fault key (request {id}, iteration {i}, chunk {c}) [{}]",
                f.name()
            )
        }
        None => format!("no fault planned for request {id}"),
    }
}

/// Runs a seeded chaos storm against an engine and verifies the
/// resilience contract end to end (see module docs).
fn chaos_storm(permits: usize, heavy_permits: usize, clients: usize, seed: u64) {
    let rounds = scaled(20);
    let graph = chaos_graph();
    let n = graph.num_vertices();
    let storm_requests = (clients * rounds) as u64;

    // ≥100 mixed faults, deterministically drawn from the seed. The same
    // seed always yields the same plan (replayability).
    let base = RequestFaultPlan::seeded(seed, storm_requests, 45, 30, 20, 10, 3, 2, 300);
    assert!(base.len() >= 100, "plan must inject >=100 faults");
    assert_eq!(
        base,
        RequestFaultPlan::seeded(seed, storm_requests, 45, 30, 20, 10, 3, 2, 300),
        "same seed must reproduce the same plan"
    );
    // Recovery-wave requests (ids past the storm) get a deliberate service
    // delay so a wave of `permits` concurrent requests overlaps in
    // service and claims *every* slot — including quarantined ones, which
    // only rebuild on claim.
    let mut plan = base;
    for id in storm_requests..storm_requests + (permits * 20) as u64 {
        plan = plan.fault_at(id, RequestFault::Delay { micros: 20_000 });
    }
    let plan = Arc::new(plan);

    // Serial oracles, computed before any chaos.
    let sources: Vec<VertexId> = (0..clients as VertexId)
        .map(|i| (i * 97) % n as VertexId)
        .collect();
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs_sequential(&graph, s).level)
        .collect();
    let pr_cfg = PrConfig {
        max_iterations: 30,
        ..PrConfig::default()
    };
    // PageRank reference from a clean engine (same thread count — the
    // deterministic reduce makes ranks stable for a given configuration).
    let clean = Engine::new(
        graph.clone(),
        EngineConfig {
            threads: 2,
            permits,
            heavy_permits,
        },
    );
    let pr_ref = clean
        .pagerank(pr_cfg, RunBudget::unlimited())
        .expect("reference pagerank")
        .rank;

    let engine = Engine::new(
        graph.clone(),
        EngineConfig {
            threads: 2,
            permits,
            heavy_permits,
        },
    )
    .with_chaos(plan.clone());

    // ---- The storm ----
    let start = Barrier::new(clients);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let engine = &engine;
                let sources = &sources;
                let oracle = &oracle;
                let pr_ref = &pr_ref;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut t = Tally::default();
                    for round in 0..rounds {
                        t.requests += 1;
                        let outcome_kind = match (c + round) % 4 {
                            // Light probe: on success, bit-identical.
                            0 => match engine.bfs(sources[c], RunBudget::unlimited()) {
                                Ok(r) => {
                                    assert_eq!(
                                        r.level, oracle[c],
                                        "client {c} round {round}: wrong bfs under chaos"
                                    );
                                    None
                                }
                                Err(e) => Some(e),
                            },
                            // Batched probe: every lane bit-identical.
                            1 => match engine.bfs_batch(sources, RunBudget::unlimited()) {
                                Ok(batch) => {
                                    for (s, want) in oracle.iter().enumerate() {
                                        assert_eq!(
                                            &batch.source_levels(s),
                                            want,
                                            "client {c} round {round} lane {s} under chaos"
                                        );
                                    }
                                    engine.recycle_batch(batch);
                                    None
                                }
                                Err(e) => Some(e),
                            },
                            // Degradable heavy: full runs match the
                            // reference band; browned-out runs still
                            // return a valid distribution.
                            2 => match engine.pagerank_degradable(
                                pr_cfg,
                                RunBudget::unlimited().with_timeout(Duration::from_millis(250)),
                                Brownout::new(3),
                            ) {
                                Ok(resp) => {
                                    let sum: f64 = resp.value.rank.iter().sum();
                                    assert!(
                                        (sum - 1.0).abs() < 1e-6,
                                        "client {c} round {round}: ranks sum to {sum}"
                                    );
                                    if let Outcome::Degraded { residual, .. } = resp.outcome {
                                        assert!(residual.is_finite());
                                        t.degraded += 1;
                                    } else {
                                        for (a, b) in resp.value.rank.iter().zip(pr_ref) {
                                            assert!(
                                                (a - b).abs() < 1e-9,
                                                "client {c} round {round}: rank drift under chaos"
                                            );
                                        }
                                    }
                                    None
                                }
                                Err(e) => Some(e),
                            },
                            // Plain heavy: within float-summation noise.
                            _ => match engine.pagerank(pr_cfg, RunBudget::unlimited()) {
                                Ok(pr) => {
                                    for (a, b) in pr.rank.iter().zip(pr_ref) {
                                        assert!(
                                            (a - b).abs() < 1e-9,
                                            "client {c} round {round}: rank drift under chaos"
                                        );
                                    }
                                    None
                                }
                                Err(e) => Some(e),
                            },
                        };
                        if let Some(e) = outcome_kind {
                            let kind = e.kind();
                            assert!(
                                ALLOWED_KINDS.contains(&kind),
                                "client {c} round {round}: unexpected error kind {kind:?}"
                            );
                            match kind {
                                "worker-panic" => t.panics += 1,
                                "shed" => t.sheds += 1,
                                _ => t.other_typed += 1,
                            }
                            if matches!(e, ServeError::Rejected(_)) && kind == "shed" {
                                // fine: counted above
                            }
                        } else {
                            t.ok += 1;
                        }
                        // Zero-leak invariant, sampled while faults fly:
                        // every slot is free, leased, or quarantined.
                        let h = engine.health();
                        assert_eq!(
                            h.free_slots + h.leased_slots + h.quarantined_slots,
                            h.permits,
                            "client {c} round {round}: slot leaked mid-storm"
                        );
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked outside the engine"))
            .collect()
    });

    // ---- Post-storm bookkeeping ----
    let total: Tally = tallies.iter().fold(Tally::default(), |mut acc, t| {
        acc.requests += t.requests;
        acc.ok += t.ok;
        acc.degraded += t.degraded;
        acc.panics += t.panics;
        acc.sheds += t.sheds;
        acc.other_typed += t.other_typed;
        acc
    });
    assert_eq!(total.requests, clients * rounds);
    let h = engine.health();
    assert_eq!(h.leased_slots, 0, "storm over: no lease outstanding");
    assert_eq!(
        h.free_slots + h.quarantined_slots,
        h.permits,
        "storm over: every slot accounted for"
    );
    assert_eq!(
        h.quarantined_total as usize, total.panics,
        "each captured worker panic quarantines exactly one slot"
    );
    assert_eq!(
        h.quarantined_total - h.rebuilt_total,
        h.quarantined_slots as u64,
        "cumulative counters reconcile with the live quarantine count"
    );
    assert_eq!(
        h.shed_total as usize, total.sheds,
        "shed counter matches observed shed rejections"
    );
    assert!(
        total.sheds <= total.requests / 2,
        "shed rate must stay bounded: {} of {}",
        total.sheds,
        total.requests
    );
    assert_eq!(h.degraded_total as usize, total.degraded);
    // The storm must have actually exercised the panic path (the seeded
    // coordinates are chosen to land inside real runs). If this fires,
    // the replay keys below identify the plan's panic faults.
    assert!(
        total.panics > 0,
        "no injected panic fired; first planned: {}",
        replay_key(&plan, plan.faults()[0].0)
    );

    // ---- Recovery: quarantined slots rebuild, results are pristine ----
    // Waves of `permits` concurrent requests, each delayed 20ms in
    // service by the plan, so one wave claims every slot at once; loop a
    // few waves in case the scheduler staggers one.
    let mut waves = 0;
    while engine.health().quarantined_slots > 0 && waves < 20 {
        let wave_start = Barrier::new(permits);
        std::thread::scope(|scope| {
            for w in 0..permits {
                let engine = &engine;
                let graph = &graph;
                let wave_start = &wave_start;
                scope.spawn(move || {
                    wave_start.wait();
                    let s = (w as VertexId * 131) % graph.num_vertices() as VertexId;
                    let got = engine
                        .bfs(s, RunBudget::unlimited())
                        .expect("recovery request must succeed");
                    let want = bfs_sequential(graph, s).level;
                    assert_eq!(got.level, want, "recovery bfs not bit-identical");
                });
            }
        });
        waves += 1;
    }
    let h = engine.health();
    assert_eq!(h.quarantined_slots, 0, "all quarantined slots rebuilt");
    assert_eq!(h.free_slots, h.permits, "full capacity restored");
    assert_eq!(h.quarantined_total, h.rebuilt_total);

    // Clean single-threaded requests after the chaos: bit-identical BFS
    // lanes and in-band PageRank, with recycling working.
    let batch = engine
        .bfs_batch(&sources, RunBudget::unlimited())
        .expect("post-chaos batch");
    for (s, want) in oracle.iter().enumerate() {
        assert_eq!(&batch.source_levels(s), want, "post-chaos lane {s}");
    }
    engine.recycle_batch(batch);
    let pr = engine
        .pagerank(pr_cfg, RunBudget::unlimited())
        .expect("post-chaos pagerank");
    for (a, b) in pr.rank.iter().zip(&pr_ref) {
        assert!((a - b).abs() < 1e-9, "post-chaos rank drift");
    }
    assert_eq!(engine.load(), (0, 0, 0), "no permit outstanding");
}

/// The seed the CI chaos soak replays (`0xCAFEBABE`); both engines run it
/// beside their own.
const SOAK_SEED: u64 = 3_405_691_582;

#[test]
fn chaos_storm_on_a_single_permit_engine() {
    // One permit: every fault hits the engine's only slot, so quarantine
    // must rebuild it or the engine is dead — the harshest recovery test.
    for seed in [0xC0FFEE, SOAK_SEED] {
        chaos_storm(1, 1, 4, seed);
    }
}

#[test]
fn chaos_storm_on_an_eight_permit_engine() {
    for seed in [0xDECAF, SOAK_SEED] {
        chaos_storm(8, 2, 8, seed);
    }
}
