//! The four workloads: their inputs, how set-up builds them, and the pinned
//! identity of each input.

use crate::entry::{self, Container, RawGraph, ServeEngine, Shape};
use crate::trace::SpanSink;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One workload. Every run has a direct phase (the four algorithms called
/// as a library) and an engine phase (requests through `essentials-serve`);
/// workloads differ in input, in the representation the direct phase runs
/// over, and in which phase gets most of the measured time.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub smoke_shape: Shape,
    /// The direct phase runs over the mmapped compressed container.
    pub mapped: bool,
    /// Share of `--seconds` the direct phase gets; the engine phase gets
    /// the rest.
    pub direct_share: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rmat-analytics",
        shape: Shape::Rmat { scale: 16 },
        smoke_shape: Shape::Rmat { scale: 10 },
        mapped: false,
        direct_share: 0.65,
    },
    Workload {
        name: "grid-traversal",
        shape: Shape::Grid { side: 256 },
        smoke_shape: Shape::Grid { side: 32 },
        mapped: false,
        direct_share: 0.65,
    },
    Workload {
        name: "rmat-compressed",
        shape: Shape::Rmat { scale: 16 },
        smoke_shape: Shape::Rmat { scale: 10 },
        mapped: true,
        direct_share: 0.65,
    },
    Workload {
        name: "serve-mix",
        shape: Shape::Rmat { scale: 14 },
        smoke_shape: Shape::Rmat { scale: 9 },
        mapped: false,
        direct_share: 0.3,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed used when `--seed` is absent. Seed 2 is the held-out seed: develop
/// against 1, confirm a claim on 2.
pub const DEFAULT_SEED: u64 = 1;

/// `(shape, seed, n, m, fingerprint)`. A run whose input differs from its
/// row fails: a change to `gen` or to graph building would otherwise move
/// every number without anyone noticing. Seeds without a row run unchecked
/// and say so.
const PINNED: [(Shape, u64, usize, usize, u64); 9] = [
    (
        Shape::Rmat { scale: 16 },
        1,
        65536,
        1820766,
        0x41b99b7bbe30dfe1,
    ),
    (
        Shape::Rmat { scale: 16 },
        2,
        65536,
        1820972,
        0xdbebda2fc9c231e0,
    ),
    (
        Shape::Rmat { scale: 14 },
        1,
        16384,
        426554,
        0xbe761a3e0dc5506d,
    ),
    (
        Shape::Rmat { scale: 14 },
        2,
        16384,
        426912,
        0xa34d99005df82712,
    ),
    (
        Shape::Grid { side: 256 },
        1,
        65536,
        261120,
        0xf2ad1fb150132dd3,
    ),
    (
        Shape::Grid { side: 256 },
        2,
        65536,
        261120,
        0xd8148aca20c6f58f,
    ),
    (
        Shape::Rmat { scale: 10 },
        1,
        1024,
        21000,
        0xebee2e8dc233ea6d,
    ),
    (Shape::Rmat { scale: 9 }, 1, 512, 9610, 0xb64ae0a7806d53f7),
    (Shape::Grid { side: 32 }, 1, 1024, 3968, 0xab025ed7c9620015),
];

/// Identity of a built input and how it compares with its pinned row.
#[derive(Debug, Clone, PartialEq)]
pub struct InputId {
    pub n: usize,
    pub m: usize,
    pub hash: u64,
    /// `"match"`, `"unpinned"`, or a description of the mismatch.
    pub pinned: String,
}

impl InputId {
    pub fn is_mismatch(&self) -> bool {
        self.pinned != "match" && self.pinned != "unpinned"
    }
}

pub fn identify(shape: Shape, seed: u64, g: &RawGraph) -> InputId {
    let (n, m, hash) = (
        g.get_num_vertices(),
        g.get_num_edges(),
        entry::fingerprint(g),
    );
    let row = PINNED.iter().find(|r| r.0 == shape && r.1 == seed);
    let pinned = match row {
        None => "unpinned".to_string(),
        Some(&(_, _, pn, pm, ph)) if (pn, pm, ph) == (n, m, hash) => "match".to_string(),
        Some(&(_, _, pn, pm, ph)) => {
            format!("MISMATCH: pinned n={pn} m={pm} hash={ph:#018x}")
        }
    };
    InputId { n, m, hash, pinned }
}

/// Deterministic stream for sources and request cycles (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A vertex with at least one edge: a traversal from an isolated vertex
    /// (R-MAT leaves many) measures nothing.
    pub fn source(&mut self, degrees: &[usize]) -> u32 {
        loop {
            let v = (self.next() % degrees.len() as u64) as usize;
            if degrees[v] > 0 {
                return v as u32;
            }
        }
    }
}

/// Candidates drawn for every set of sources kept.
const CANDIDATES: usize = 64;

/// `count` traversal sources: of 64 seeded candidates, the ones whose BFS
/// depth is nearest the candidates' median depth (and that reach the bulk of
/// the graph). A seed changes which vertices are used, not how deep the
/// traversals from them go - on a grid the depth from a random vertex
/// varies by a factor of two, and that would be a difference between seeds,
/// not between programs.
pub fn pick_sources(g: &RawGraph, degrees: &[usize], seed: u64, count: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut candidates: Vec<(u32, u32, usize)> = (0..CANDIDATES)
        .map(|_| {
            let v = rng.source(degrees);
            let level = entry::light_oracle(g, v);
            let reached = level.iter().filter(|&&l| l != u32::MAX);
            (
                v,
                reached.clone().max().copied().unwrap_or(0),
                reached.count(),
            )
        })
        .collect();
    let most = candidates.iter().map(|c| c.2).max().unwrap_or(0);
    candidates.retain(|c| c.2 * 2 > most);
    let mut depths: Vec<u32> = candidates.iter().map(|c| c.1).collect();
    depths.sort_unstable();
    let median = depths[depths.len() / 2];
    // Stable sort: among equally typical candidates, draw order decides.
    candidates.sort_by_key(|c| c.1.abs_diff(median));
    candidates.iter().take(count).map(|c| c.0).collect()
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub build_s: f64,
    pub compress_s: f64,
    pub write_s: f64,
    pub open_s: f64,
    pub total_s: f64,
    pub container_bytes: usize,
    pub ccsr_bytes_per_edge: f64,
}

/// Everything a run needs before its first operation.
pub struct Inputs {
    pub graph: Arc<RawGraph>,
    pub container: Option<Container>,
    pub engine: ServeEngine,
    pub times: SetupTimes,
    _file: Option<ScratchFile>,
}

/// Generate, build, optionally compress + write + map, and start the
/// engine: the path from nothing to "the first request could be served".
pub fn setup(
    shape: Shape,
    seed: u64,
    with_container: bool,
    threads: usize,
    sink: Option<Arc<SpanSink>>,
) -> Result<Inputs, String> {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let coo = timed(&mut t.gen_s, || entry::generate(shape, seed));
    let graph = Arc::new(timed(&mut t.build_s, || entry::build(coo, seed)));
    let (container, file) = if with_container {
        let ctx = entry::context(threads, None);
        let cg = timed(&mut t.compress_s, || entry::compress(&ctx, &graph));
        t.ccsr_bytes_per_edge = entry::ccsr_bytes_per_edge(&cg);
        let file = ScratchFile::new("esnc")?;
        t.container_bytes = timed(&mut t.write_s, || entry::write_container(&cg, &file.path))
            .map_err(|e| format!("writing {}: {e}", file.path.display()))?;
        drop(cg);
        let c = timed(&mut t.open_s, || entry::open_container(&file.path))?;
        (Some(c), Some(file))
    } else {
        (None, None)
    };
    let engine = entry::engine(graph.clone(), threads, sink.map(|s| s as _));
    t.total_s = start.elapsed().as_secs_f64();
    Ok(Inputs {
        graph,
        container,
        engine,
        times: t,
        _file: file,
    })
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

/// Directory for files the benchmark writes: beside its own executable, so
/// inside whatever build directory the run uses and never in `/tmp`.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("benchmark-scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch file removed when dropped. Named by process id so concurrent
/// runs do not share one.
pub struct ScratchFile {
    pub path: PathBuf,
}

impl ScratchFile {
    pub fn new(ext: &str) -> Result<ScratchFile, String> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        Ok(ScratchFile {
            path: scratch_dir()?.join(format!("{}-{k}.{ext}", std::process::id())),
        })
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_topology_weights_and_seed() {
        let shape = Shape::Rmat { scale: 7 };
        let a = entry::build(entry::generate(shape, 1), 1);
        let again = entry::build(entry::generate(shape, 1), 1);
        assert_eq!(entry::fingerprint(&a), entry::fingerprint(&again));
        let other_topology = entry::build(entry::generate(shape, 2), 1);
        let other_weights = entry::build(entry::generate(shape, 1), 2);
        assert_ne!(entry::fingerprint(&a), entry::fingerprint(&other_topology));
        assert_ne!(entry::fingerprint(&a), entry::fingerprint(&other_weights));
    }

    #[test]
    fn pinned_rows_decide_match_mismatch_and_unpinned() {
        let shape = find("grid-traversal").unwrap().smoke_shape;
        let g = entry::build(entry::generate(shape, 1), 1);
        assert_eq!(identify(shape, 1, &g).pinned, "match");
        assert_eq!(identify(shape, 77, &g).pinned, "unpinned");
        // Seed 1's row against seed 2's weights: same n and m, other hash.
        let g2 = entry::build(entry::generate(shape, 2), 2);
        let id = identify(shape, 1, &g2);
        assert!(id.is_mismatch(), "{}", id.pinned);
    }

    #[test]
    fn sources_are_repeatable_and_never_isolated() {
        let degrees = [0, 3, 0, 1, 0, 0, 2];
        let picks = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.source(&degrees)).collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
        assert!(picks(5).iter().all(|&v| degrees[v as usize] > 0));
    }

    #[test]
    fn picked_sources_are_repeatable_and_of_typical_depth() {
        let g = entry::build(entry::generate(Shape::Grid { side: 24 }, 1), 1);
        let degrees = entry::degrees(&g);
        let picked = pick_sources(&g, &degrees, 3, 8);
        assert_eq!(picked, pick_sources(&g, &degrees, 3, 8));
        assert_ne!(picked, pick_sources(&g, &degrees, 4, 8));
        assert_eq!(picked.len(), 8);
        // Depth from (x, y) on a 24 x 24 grid is between 24 (centre) and 46
        // (corner); the kept ones sit close together in the middle of that.
        let depth = |v: u32| *entry::light_oracle(&g, v).iter().max().unwrap();
        let depths: Vec<u32> = picked.iter().map(|&v| depth(v)).collect();
        let (lo, hi) = (depths.iter().min().unwrap(), depths.iter().max().unwrap());
        assert!(hi - lo <= 4, "{depths:?}");
    }

    #[test]
    fn workload_names_are_the_ones_benchmark_json_lists() {
        let listed = crate::spec::Spec::load().workloads;
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
    }
}
