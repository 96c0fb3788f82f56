//! The two measured phases every workload has: the direct phase calls the
//! four algorithms as a library, the engine phase sends requests through
//! `essentials-serve`. Both take an optional span sink, so the traced pass
//! runs exactly what the timed pass runs.

use crate::entry::{self, Algo, Answer, RawGraph, Rep, ServeEngine, BATCH};
use crate::json::Json;
use crate::trace::SpanSink;
use crate::workload::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// BFS sources per round. SSSP starts from the first of them.
pub const SOURCES: usize = 8;

/// Operations attempted and failed. An operation is one algorithm run, one
/// request, or one correctness check; it fails on an error, a panic, or a
/// wrong answer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// `(count, sum)` checksums equal: counts exactly, sums to rounding.
pub fn checksums_agree(a: (u64, f64), b: (u64, f64)) -> bool {
    a.0 == b.0 && (a.1 - b.1).abs() <= 1e-9 * a.1.abs().max(b.1.abs()).max(1.0)
}

/// The oracle's checksum for every run of a round. BFS and SSSP have one
/// per source.
pub struct Expected {
    pub bfs: Vec<(u64, f64)>,
    pub sssp: Vec<(u64, f64)>,
    pub cc: (u64, f64),
    pub pagerank: (u64, f64),
}

impl Expected {
    /// For handing the oracles to a helper process instead of having it
    /// recompute them. `f64` prints with every digit it needs, so the sums
    /// survive the trip exactly.
    pub fn to_json(&self) -> Json {
        let pair =
            |&(count, sum): &(u64, f64)| Json::Arr(vec![Json::Num(count as f64), Json::Num(sum)]);
        Json::obj([
            ("bfs", Json::Arr(self.bfs.iter().map(pair).collect())),
            ("sssp", Json::Arr(self.sssp.iter().map(pair).collect())),
            ("cc", pair(&self.cc)),
            ("pagerank", pair(&self.pagerank)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Expected> {
        let pair = |j: &Json| {
            Some((
                j.as_arr().first()?.as_f64()? as u64,
                j.as_arr().get(1)?.as_f64()?,
            ))
        };
        let list = |key: &str| {
            doc.get(key)?
                .as_arr()
                .iter()
                .map(pair)
                .collect::<Option<Vec<_>>>()
        };
        Some(Expected {
            bfs: list("bfs")?,
            sssp: list("sssp")?,
            cc: pair(doc.get("cc")?)?,
            pagerank: pair(doc.get("pagerank")?)?,
        })
    }

    pub fn from_oracles(g: &RawGraph, sources: &[u32]) -> Expected {
        let sum = |algo, s| entry::checksum(&entry::oracle(algo, g, s));
        Expected {
            bfs: sources.iter().map(|&s| sum(Algo::Bfs, s)).collect(),
            sssp: sources.iter().map(|&s| sum(Algo::Sssp, s)).collect(),
            cc: sum(Algo::Cc, sources[0]),
            pagerank: sum(Algo::Pagerank, sources[0]),
        }
    }
}

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much time, but not before `min_rounds` rounds.
    After { time: Duration, min_rounds: usize },
    /// After exactly this many rounds.
    Rounds(usize),
}

/// What the direct phase measured, per algorithm in `Algo::ALL` order.
#[derive(Default)]
pub struct Direct {
    /// Wall time of every run, ms.
    pub ms: [Vec<f64>; 4],
    /// Per round: iterations and edges inspected, summed over the round's
    /// runs of the algorithm.
    pub iterations: [Vec<u64>; 4],
    pub edges: [Vec<u64>; 4],
    /// The last answer of each algorithm, with its source.
    pub last: [Option<(u32, Answer)>; 4],
    pub rounds: usize,
}

/// Rounds of: BFS from each source, SSSP, CC, PageRank. Interleaved so a
/// slow interval of a shared host spreads over every metric instead of
/// sinking one. SSSP takes the next source each round, so its median is over
/// all of them rather than over the accidents of one.
pub fn direct_phase(
    rep: Rep<'_>,
    ctx: &entry::Context,
    sources: &[u32],
    expected: &Expected,
    stop: Stop,
    sink: Option<&SpanSink>,
    tally: &mut Tally,
) -> Direct {
    let mut out = Direct::default();
    let start = Instant::now();
    loop {
        let done = match stop {
            Stop::After { time, min_rounds } => out.rounds >= min_rounds && start.elapsed() >= time,
            Stop::Rounds(r) => out.rounds >= r,
        };
        if done {
            return out;
        }
        for v in out.iterations.iter_mut().chain(out.edges.iter_mut()) {
            v.push(0);
        }
        let turn = out.rounds % sources.len();
        let plan = sources
            .iter()
            .zip(&expected.bfs)
            .map(|(&s, &want)| (Algo::Bfs, s, want))
            .chain([
                (Algo::Sssp, sources[turn], expected.sssp[turn]),
                (Algo::Cc, sources[0], expected.cc),
                (Algo::Pagerank, sources[0], expected.pagerank),
            ]);
        for (algo, source, want) in plan {
            let slot = algo as usize;
            if let Some(s) = sink {
                s.begin(algo.name());
            }
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| entry::run(algo, rep, ctx, source)));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(s) = sink {
                s.end();
            }
            match run {
                Ok(r) => {
                    out.ms[slot].push(ms);
                    *out.iterations[slot].last_mut().expect("pushed above") += r.iterations as u64;
                    *out.edges[slot].last_mut().expect("pushed above") += r.edges_inspected;
                    let got = entry::checksum(&r.answer);
                    tally.op(checksums_agree(got, want), || {
                        format!(
                            "{} from {source}: checksum {got:?}, oracle {want:?}",
                            algo.name()
                        )
                    });
                    out.last[slot] = Some((source, r.answer));
                }
                Err(_) => tally.op(false, || format!("{} from {source} panicked", algo.name())),
            }
        }
        out.rounds += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Single-source BFS.
    Light,
    /// 16-source batched BFS, level table recycled.
    Batch,
    /// PageRank.
    Heavy,
}

impl Request {
    pub const ALL: [Request; 3] = [Request::Light, Request::Batch, Request::Heavy];

    pub fn name(self) -> &'static str {
        match self {
            Request::Light => "light",
            Request::Batch => "batch",
            Request::Heavy => "heavy",
        }
    }
}

/// Requests per block: 8 light, 1 batch, 1 heavy, so the mix is exactly
/// 80/10/10 over any whole number of blocks.
const BLOCK: usize = 10;

/// The kinds of one block. Where the batch and the heavy request fall is
/// drawn per block: with a fixed cycle the two closed-loop clients lock in
/// phase (one's batch always beside the other's heavy, light only ever
/// beside light), and the tail of the light latency then hangs on which way
/// a few microseconds of drift tip that alignment.
fn block(rng: &mut Rng) -> [Request; BLOCK] {
    let mut kinds = [Request::Light; BLOCK];
    let batch = (rng.next() % BLOCK as u64) as usize;
    let heavy = (batch + 1 + (rng.next() % (BLOCK as u64 - 1)) as usize) % BLOCK;
    kinds[batch] = Request::Batch;
    kinds[heavy] = Request::Heavy;
    kinds
}

pub const CLIENTS: usize = 2;

/// A BFS answer reduced to what a later comparison with the sequential
/// oracle needs.
pub struct BfsClaim {
    pub source: u32,
    pub checksum: (u64, f64),
}

/// What the engine phase measured, per request kind in `Request::ALL` order.
#[derive(Default)]
pub struct Served {
    /// Client-observed latency of every request, ms.
    pub ms: [Vec<f64>; 3],
    pub wall_s: f64,
    /// One claim per light response and per batch response (one of its
    /// columns).
    pub claims: Vec<BfsClaim>,
    /// A few complete light answers.
    pub kept_levels: Vec<(u32, Vec<u32>)>,
    /// The last heavy answer of each client.
    pub kept_ranks: Vec<Vec<f64>>,
}

impl Served {
    pub fn completed(&self) -> usize {
        self.ms.iter().map(Vec::len).sum()
    }
}

/// How long the clients keep sending.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    For(Duration),
    /// One request of each kind per client: the warm-up, which fills both
    /// scratch slots before anything is timed.
    OneOfEach,
}

/// Closed loop: each client sends its next request when the previous one
/// returns, with no think time. Callers of the engine are in-process
/// threads blocked on the call, which is what a closed loop models; there
/// are no deadlines, so nothing is shed.
pub fn engine_phase(
    engine: &ServeEngine,
    degrees: &[usize],
    seed: u64,
    load: Load,
    sink: Option<&SpanSink>,
    tally: &mut Tally,
) -> Served {
    let barrier = Barrier::new(CLIENTS);
    let per_client: Vec<(Served, Tally, Instant, Instant)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng =
                        Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                    let mut kinds_rng = Rng::new(rng.next());
                    let (mut served, mut tally) = (Served::default(), Tally::default());
                    barrier.wait();
                    let start = Instant::now();
                    let mut kinds = [Request::Light; BLOCK];
                    let mut send = |kind, i| {
                        one_request(
                            engine,
                            kind,
                            i,
                            degrees,
                            &mut rng,
                            sink,
                            &mut served,
                            &mut tally,
                        )
                    };
                    match load {
                        Load::OneOfEach => Request::ALL.into_iter().for_each(|k| send(k, 1)),
                        Load::For(time) => {
                            let mut i = 0;
                            while start.elapsed() < time {
                                if i % BLOCK == 0 {
                                    kinds = block(&mut kinds_rng);
                                }
                                send(kinds[i % BLOCK], i);
                                i += 1;
                            }
                        }
                    }
                    (served, tally, start, Instant::now())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client threads catch their own panics"))
            .collect()
    });
    let first_start = per_client.iter().map(|c| c.2).min().expect("two clients");
    let last_end = per_client.iter().map(|c| c.3).max().expect("two clients");
    let mut all = Served {
        wall_s: (last_end - first_start).as_secs_f64(),
        ..Served::default()
    };
    for (served, client_tally, _, _) in per_client {
        for (into, from) in all.ms.iter_mut().zip(served.ms) {
            into.extend(from);
        }
        all.claims.extend(served.claims);
        all.kept_levels.extend(served.kept_levels);
        all.kept_ranks.extend(served.kept_ranks);
        tally.merge(client_tally);
    }
    all
}

#[allow(clippy::too_many_arguments)]
fn one_request(
    engine: &ServeEngine,
    kind: Request,
    index: usize,
    degrees: &[usize],
    rng: &mut Rng,
    sink: Option<&SpanSink>,
    served: &mut Served,
    tally: &mut Tally,
) {
    let sources: Vec<u32> = match kind {
        Request::Light => vec![rng.source(degrees)],
        Request::Batch => (0..BATCH).map(|_| rng.source(degrees)).collect(),
        Request::Heavy => Vec::new(),
    };
    if let Some(s) = sink {
        s.begin(kind.name());
    }
    let t = Instant::now();
    // The engine turns a panic inside a request into an error; this net is
    // for one that escapes it, so the client still counts the failure.
    let result = catch_unwind(AssertUnwindSafe(|| match kind {
        Request::Light => entry::serve_light(engine, sources[0]).map(Reply::Levels),
        Request::Batch => entry::serve_batch(engine, &sources).map(Reply::Batch),
        Request::Heavy => entry::serve_heavy(engine).map(Reply::Ranks),
    }));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(s) = sink {
        s.end();
    }
    let reply = match result {
        Ok(Ok(reply)) => reply,
        Ok(Err(e)) => return tally.op(false, || format!("{} request failed: {e}", kind.name())),
        Err(_) => return tally.op(false, || format!("{} request panicked", kind.name())),
    };
    served.ms[kind as usize].push(ms);
    // Everything below is outside the latency, and cheap beside a request.
    let ok = match reply {
        Reply::Levels(level) => {
            served.claims.push(BfsClaim {
                source: sources[0],
                checksum: entry::levels_checksum(&level),
            });
            let ok = level[sources[0] as usize] == 0;
            // Every sixteenth light answer, up to four per client.
            if served.kept_levels.len() < 4 && served.ms[kind as usize].len() % 16 == 1 {
                served.kept_levels.push((sources[0], level));
            }
            ok
        }
        Reply::Batch(answer) => {
            let column = index % BATCH;
            let level: Vec<u32> = (0..degrees.len() as u32)
                .map(|v| answer.level(v, column))
                .collect();
            let ok = (0..BATCH).all(|s| answer.level(sources[s], s) == 0);
            entry::recycle_batch(engine, answer);
            served.claims.push(BfsClaim {
                source: sources[column],
                checksum: entry::levels_checksum(&level),
            });
            ok
        }
        Reply::Ranks(rank) => {
            let ok = (rank.iter().sum::<f64>() - 1.0).abs() < 1e-6;
            served.kept_ranks = vec![rank];
            ok
        }
    };
    tally.op(ok, || {
        format!("{} request returned a malformed answer", kind.name())
    });
}

enum Reply {
    Levels(Vec<u32>),
    Batch(entry::BatchAnswer),
    Ranks(Vec<f64>),
}

/// Compares what the engine answered with the sequential oracles: a sample
/// of at least 32 BFS claims (all of them when fewer), the complete answers
/// that were kept, and the kept PageRank answers.
pub fn check_served(g: &RawGraph, served: &Served, tally: &mut Tally) {
    let stride = (served.claims.len() / 32).max(1);
    for claim in served.claims.iter().step_by(stride) {
        let want = entry::levels_checksum(&entry::light_oracle(g, claim.source));
        tally.op(checksums_agree(claim.checksum, want), || {
            format!(
                "served BFS from {}: checksum {:?}, oracle {want:?}",
                claim.source, claim.checksum
            )
        });
    }
    for (source, level) in &served.kept_levels {
        tally.op(*level == entry::light_oracle(g, *source), || {
            format!("served BFS from {source}: levels differ from the oracle")
        });
    }
    if !served.kept_ranks.is_empty() {
        let want = entry::heavy_oracle(g);
        for rank in &served.kept_ranks {
            let close = rank.len() == want.len()
                && rank.iter().zip(&want).all(|(a, b)| (a - b).abs() <= 1e-9);
            tally.op(close, || {
                "served PageRank differs from the oracle".to_string()
            });
        }
    }
}

/// After the timed rounds: each algorithm's last answer against the
/// problem's definition, and, when the direct phase ran over the mapped
/// container, bit-for-bit against the raw path.
pub fn check_direct(
    g: &RawGraph,
    ctx: &entry::Context,
    direct: &Direct,
    mapped: bool,
    tally: &mut Tally,
) {
    for (algo, last) in Algo::ALL.iter().zip(&direct.last) {
        let Some((source, answer)) = last else {
            tally.op(false, || format!("{} never completed", algo.name()));
            continue;
        };
        tally.op(entry::verify(g, *source, answer), || {
            format!(
                "{} from {source}: answer violates the definition",
                algo.name()
            )
        });
        if mapped {
            let raw = entry::run(*algo, Rep::Raw(g), ctx, *source).answer;
            tally.op(raw == *answer, || {
                format!(
                    "{} from {source}: mapped answer differs from the raw one",
                    algo.name()
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_has_the_stated_mix_and_positions_vary() {
        let mut rng = Rng::new(9);
        let blocks: Vec<_> = (0..50).map(|_| block(&mut rng)).collect();
        for b in &blocks {
            let count = |k| b.iter().filter(|&&r| r == k).count();
            assert_eq!(
                (
                    count(Request::Light),
                    count(Request::Batch),
                    count(Request::Heavy)
                ),
                (8, 1, 1)
            );
        }
        assert!(blocks.iter().any(|b| b != &blocks[0]));
    }

    #[test]
    fn expected_checksums_survive_the_handoff_exactly() {
        let e = Expected {
            bfs: vec![(65536, 0.1 + 0.2), (3, 1e-300)],
            sssp: vec![(9, 12345.678901234567)],
            cc: (1, 2.0f64.powi(60)),
            pagerank: (7, 0.9999999999999999),
        };
        let back = Expected::from_json(&Json::parse(&e.to_json().render()).unwrap()).unwrap();
        assert_eq!(
            (back.bfs, back.sssp, back.cc, back.pagerank),
            (e.bfs, e.sssp, e.cc, e.pagerank)
        );
        assert!(Expected::from_json(&Json::parse("{\"bfs\": []}").unwrap()).is_none());
    }

    #[test]
    fn tally_counts_and_keeps_the_first_failures() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        for i in 0..20 {
            t.op(false, || format!("failure {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.notes.len()), (21, 20, 8));
        assert_eq!(t.notes[0], "failure 0");
    }

    #[test]
    fn checksums_compare_counts_exactly_and_sums_to_rounding() {
        assert!(checksums_agree((3, 1.0), (3, 1.0 + 1e-12)));
        assert!(!checksums_agree((3, 1.0), (4, 1.0)));
        assert!(!checksums_agree((3, 1.0), (3, 1.001)));
    }
}
