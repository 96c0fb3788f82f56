//! mmap-backed loading of compressed-adjacency containers.
//!
//! The `ESNC` container holds the sections of a [`Ccsr`] (per direction:
//! edge offsets, byte offsets, coded byte stream, optional `f32` weights)
//! at 8-byte-aligned offsets, so a read-only memory map of the file can be
//! reinterpreted as the `&[u64]`/`&[u8]` slices a [`CcsrView`] borrows —
//! no materialization, no copy, and a scale-26 graph starts traversing as
//! fast as the page cache can fault. Layout:
//!
//! ```text
//! magic    "ESNC"   4 bytes
//! version  u32      currently 1
//! flags    u32      bit 0: has in-direction; bit 1: f32 weights
//! reserved u32      zero
//! n        u64      vertices
//! m        u64      edges
//! total    u64      whole-file length, footer included
//! per direction (out, then in when flagged):
//!   edge_offsets (n+1)×u64
//!   byte_offsets (n+1)×u64
//!   bytes        byte_offsets[n] bytes, zero-padded to 8
//!   values       m×f32, zero-padded to 8 (only when flagged)
//! checksum u64      FNV-1a over everything above
//! ```
//!
//! Validation order is framing first (magic, version, length, checksum),
//! then structure ([`CcsrView::try_new`] re-checks every invariant the
//! decoder indexes by), so a truncated or foreign file yields a typed
//! [`IoError`] before any offset is trusted. The zero-copy path is gated
//! on `unix` + little-endian targets; everywhere else (and in
//! [`CompressedContainer::from_bytes`]) the sections are decoded into
//! owned vectors with explicit `from_le_bytes`, which is also the
//! endian-portable fallback.

use std::ops::Range;
use std::path::Path;

use bytes::BufMut;

use essentials_graph::{CcsrView, CompressedGraphView, EdgeValue};

use crate::IoError;

pub(crate) const CCSR_MAGIC: &[u8; 4] = b"ESNC";
pub(crate) const CCSR_VERSION: u32 = 1;
pub(crate) const FLAG_HAS_IN: u32 = 1;
pub(crate) const FLAG_WEIGHTED: u32 = 2;

const HEADER_LEN: usize = 40;
const FOOTER_LEN: usize = 8;

/// FNV-1a over `bytes`; the footer checksum of both binary formats.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for () {}
    impl Sealed for f32 {}
}

/// Weight types the container can carry: `()` (no value section) and
/// `f32` (the weight type of every weighted algorithm in the repo).
/// Sealed — the on-disk format enumerates its cases.
pub trait ContainerWeight: EdgeValue + sealed::Sealed {
    /// Whether a value section is present for this weight type.
    const WEIGHTED: bool;
    /// Appends the value section, little-endian.
    fn put_values(buf: &mut Vec<u8>, values: &[Self]);
    /// Decodes the value section into an owned vector (endian-portable).
    fn read_values(bytes: &[u8]) -> Vec<Self>;
    /// Reinterprets a mapped value section in place. Callers guarantee
    /// the slice is 4-byte aligned and its length a multiple of the
    /// element size; only meaningful on little-endian targets.
    fn cast_values(bytes: &[u8]) -> &[Self];
    /// Value-level validation (e.g. the NaN rejection the raw snapshot
    /// reader performs).
    fn validate_values(values: &[Self]) -> Result<(), IoError>;
}

impl ContainerWeight for () {
    const WEIGHTED: bool = false;
    fn put_values(_buf: &mut Vec<u8>, _values: &[Self]) {}
    fn read_values(_bytes: &[u8]) -> Vec<Self> {
        Vec::new()
    }
    fn cast_values(_bytes: &[u8]) -> &[Self] {
        &[]
    }
    fn validate_values(_values: &[Self]) -> Result<(), IoError> {
        Ok(())
    }
}

impl ContainerWeight for f32 {
    const WEIGHTED: bool = true;
    fn put_values(buf: &mut Vec<u8>, values: &[Self]) {
        for &v in values {
            buf.put_f32_le(v);
        }
    }
    fn read_values(bytes: &[u8]) -> Vec<Self> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
    fn cast_values(bytes: &[u8]) -> &[Self] {
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
        debug_assert_eq!(bytes.len() % 4, 0);
        // SAFETY: the layout parser hands in a section that starts at an
        // 8-aligned offset of a page-aligned mapping and whose length is
        // 4·m; every f32 bit pattern is a valid value (NaNs are rejected
        // separately by `validate_values`).
        unsafe { core::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) }
    }
    fn validate_values(values: &[Self]) -> Result<(), IoError> {
        if values.iter().any(|v| v.is_nan()) {
            return Err(IoError::Parse("NaN weight in container".into()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Layout parsing (shared by the mapped and owned paths)
// ---------------------------------------------------------------------------

struct Header {
    flags: u32,
    n: usize,
    m: usize,
}

/// Byte ranges of one direction's sections. `bytes` is the exact coded
/// length; the next section starts at its 8-padded end.
struct DirRanges {
    edge_offsets: Range<usize>,
    byte_offsets: Range<usize>,
    bytes: Range<usize>,
    values: Range<usize>,
}

fn le_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

fn le_u64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

fn pad8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

/// Validates framing (magic, version, length, checksum) and returns the
/// header. Everything after this reads checksum-verified bytes.
fn parse_frame(data: &[u8], weighted: bool) -> Result<Header, IoError> {
    if data.len() < HEADER_LEN + FOOTER_LEN {
        return Err(IoError::Truncated {
            what: "container header",
            offset: data.len(),
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&data[..4]);
    if &magic != CCSR_MAGIC {
        return Err(IoError::Foreign {
            expected: "ESNC container",
            found: magic,
        });
    }
    let version = le_u32(data, 4);
    if version != CCSR_VERSION {
        return Err(IoError::UnsupportedVersion(version));
    }
    let flags = le_u32(data, 8);
    let n = le_u64(data, 16) as usize;
    let m = le_u64(data, 24) as usize;
    let total = le_u64(data, 32) as usize;
    if total > data.len() {
        return Err(IoError::Truncated {
            what: "container body",
            offset: data.len(),
        });
    }
    if total < data.len() {
        return Err(IoError::Parse(format!(
            "trailing bytes: header says {total}, file has {}",
            data.len()
        )));
    }
    let footer_at = data.len() - FOOTER_LEN;
    let footer = le_u64(data, footer_at);
    let actual = fnv1a(&data[..footer_at]);
    if actual != footer {
        return Err(IoError::Checksum {
            expected: footer,
            actual,
        });
    }
    if (flags & FLAG_WEIGHTED != 0) != weighted {
        return Err(IoError::Parse(format!(
            "weight mismatch: container {} weighted, caller expects the opposite",
            if flags & FLAG_WEIGHTED != 0 {
                "is"
            } else {
                "is not"
            },
        )));
    }
    Ok(Header { flags, n, m })
}

/// Walks one direction's sections starting at `pos` (8-aligned), bounds-
/// checking each against `body_end`. Returns the ranges and the position
/// after the direction.
fn parse_dir(
    data: &[u8],
    head: &Header,
    weighted: bool,
    mut pos: usize,
    body_end: usize,
) -> Result<(DirRanges, usize), IoError> {
    let offsets_len = head
        .n
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .ok_or_else(|| IoError::Parse("vertex count overflows".into()))?;
    let take = |pos: &mut usize, len: usize, what: &'static str| -> Result<Range<usize>, IoError> {
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= body_end)
            .ok_or(IoError::Truncated {
                what,
                offset: body_end,
            })?;
        let r = *pos..end;
        *pos = pad8(end);
        Ok(r)
    };
    let edge_offsets = take(&mut pos, offsets_len, "edge offsets")?;
    let byte_offsets = take(&mut pos, offsets_len, "byte offsets")?;
    // The coded-stream length is the terminal byte offset; the section was
    // just bounds-checked, so this read is in verified territory.
    let coded_len = le_u64(data, byte_offsets.end - 8) as usize;
    let bytes = take(&mut pos, coded_len, "coded neighbor stream")?;
    let values = if weighted {
        let len = head
            .m
            .checked_mul(4)
            .ok_or_else(|| IoError::Parse("edge count overflows".into()))?;
        take(&mut pos, len, "edge weights")?
    } else {
        pos..pos
    };
    Ok((
        DirRanges {
            edge_offsets,
            byte_offsets,
            bytes,
            values,
        },
        pos,
    ))
}

fn parse_layout(
    data: &[u8],
    head: &Header,
    weighted: bool,
) -> Result<(DirRanges, Option<DirRanges>), IoError> {
    let body_end = data.len() - FOOTER_LEN;
    let (out, pos) = parse_dir(data, head, weighted, HEADER_LEN, body_end)?;
    let (in_, pos) = if head.flags & FLAG_HAS_IN != 0 {
        let (d, p) = parse_dir(data, head, weighted, pos, body_end)?;
        (Some(d), p)
    } else {
        (None, pos)
    };
    if pos != body_end {
        return Err(IoError::Parse(format!(
            "section layout ends at byte {pos}, footer starts at {body_end}"
        )));
    }
    Ok((out, in_))
}

// ---------------------------------------------------------------------------
// Backings
// ---------------------------------------------------------------------------

/// One direction's sections decoded into owned storage.
struct OwnedDir<W> {
    edge_offsets: Vec<u64>,
    byte_offsets: Vec<u64>,
    bytes: Vec<u8>,
    values: Vec<W>,
}

fn read_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            u64::from_le_bytes(b)
        })
        .collect()
}

fn copy_dir<W: ContainerWeight>(data: &[u8], r: &DirRanges) -> OwnedDir<W> {
    OwnedDir {
        edge_offsets: read_u64s(&data[r.edge_offsets.clone()]),
        byte_offsets: read_u64s(&data[r.byte_offsets.clone()]),
        bytes: data[r.bytes.clone()].to_vec(),
        values: W::read_values(&data[r.values.clone()]),
    }
}

#[cfg(all(unix, target_endian = "little"))]
mod map_region {
    use std::os::unix::io::AsRawFd;

    use crate::IoError;

    use core::ffi::{c_int, c_void};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// A read-only, private memory mapping of a whole file.
    pub(super) struct MapRegion {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE — no thread can write
    // through it, so sharing the region (and slices derived from it)
    // across threads is sound. Concurrent truncation of the underlying
    // file by another process can still SIGBUS a load (the usual mmap
    // caveat, documented on `CompressedContainer::open`), but that is not
    // a data race.
    unsafe impl Send for MapRegion {}
    // SAFETY: as above — the region is never written through.
    unsafe impl Sync for MapRegion {}

    impl MapRegion {
        pub(super) fn map(file: &std::fs::File, len: usize) -> Result<Self, IoError> {
            // SAFETY: addr = null lets the kernel choose the placement;
            // len > 0 is guaranteed by the caller's header-size check; the
            // fd is open for reading and outlives the call (the mapping
            // itself keeps the pages alive after the fd closes).
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(IoError::Io(std::io::Error::last_os_error()));
            }
            Ok(MapRegion { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is exactly the region mmap returned,
            // valid for reads until munmap in Drop; u8 has no alignment
            // or validity requirements.
            unsafe { core::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for MapRegion {
        fn drop(&mut self) {
            // SAFETY: ptr/len are the exact pair mmap returned, unmapped
            // exactly once here; no slice borrowed from `bytes` can
            // outlive `self`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Backing<W> {
    Owned {
        out: OwnedDir<W>,
        in_: Option<OwnedDir<W>>,
    },
    #[cfg(all(unix, target_endian = "little"))]
    Mapped {
        region: map_region::MapRegion,
        out: DirRanges,
        in_: Option<DirRanges>,
    },
}

#[cfg(all(unix, target_endian = "little"))]
fn u64_slice<'a>(base: &'a [u8], r: &Range<usize>) -> &'a [u64] {
    debug_assert_eq!(r.start % 8, 0);
    debug_assert_eq!((r.end - r.start) % 8, 0);
    // SAFETY: every section starts at an 8-aligned offset of a
    // page-aligned mapping (maintained by the writer's padding and
    // checked by the layout parser), the range is in bounds of `base`,
    // and u64 has no invalid bit patterns. Little-endian reinterpretation
    // is exact on the targets this path compiles for.
    unsafe {
        core::slice::from_raw_parts(
            base[r.start..r.end].as_ptr().cast::<u64>(),
            (r.end - r.start) / 8,
        )
    }
}

// ---------------------------------------------------------------------------
// The container
// ---------------------------------------------------------------------------

/// An opened `ESNC` compressed-graph container.
///
/// On unix little-endian targets [`CompressedContainer::open`] memory-maps
/// the file read-only and [`CompressedContainer::view`] borrows the
/// mapped sections directly — opening a scale-26 container is O(validate),
/// not O(copy). Elsewhere (and via [`CompressedContainer::from_bytes`])
/// the sections are decoded into owned vectors.
///
/// The usual mmap caveat applies: the file must not be truncated or
/// rewritten by another process while the container is open; the
/// checksum is verified at open time, not per access.
pub struct CompressedContainer<W: ContainerWeight> {
    n: usize,
    m: usize,
    backing: Backing<W>,
}

impl<W: ContainerWeight> CompressedContainer<W> {
    /// Opens a container file, mapping it when the platform allows.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref();
        #[cfg(all(unix, target_endian = "little"))]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len < HEADER_LEN + FOOTER_LEN {
                return Err(IoError::Truncated {
                    what: "container header",
                    offset: len,
                });
            }
            let region = map_region::MapRegion::map(&file, len)?;
            let head = parse_frame(region.bytes(), W::WEIGHTED)?;
            let (out, in_) = parse_layout(region.bytes(), &head, W::WEIGHTED)?;
            let container = CompressedContainer {
                n: head.n,
                m: head.m,
                backing: Backing::Mapped { region, out, in_ },
            };
            // Structural validation once at open; `view` repeats it only
            // because the borrow cannot be stored self-referentially.
            container.view()?;
            Ok(container)
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            let data = std::fs::read(path)?;
            Self::from_bytes(&data)
        }
    }

    /// Decodes a container from an in-memory byte slice into owned
    /// sections (no mapping; always available).
    pub fn from_bytes(data: &[u8]) -> Result<Self, IoError> {
        let head = parse_frame(data, W::WEIGHTED)?;
        let (out, in_) = parse_layout(data, &head, W::WEIGHTED)?;
        let container = CompressedContainer {
            n: head.n,
            m: head.m,
            backing: Backing::Owned {
                out: copy_dir(data, &out),
                in_: in_.as_ref().map(|r| copy_dir(data, r)),
            },
        };
        container.view()?;
        Ok(container)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges (per direction).
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// True when the backing is a zero-copy memory map.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            Backing::Owned { .. } => false,
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { .. } => true,
        }
    }

    /// Borrows the container as the view every decode-aware operator and
    /// algorithm entry point accepts. Re-runs the cheap structural
    /// validation ([`CcsrView::try_new`]); `open`/`from_bytes` already
    /// proved it passes, so failures here mean the backing was modified
    /// externally.
    pub fn view(&self) -> Result<CompressedGraphView<'_, W>, IoError> {
        let (out, in_) = match &self.backing {
            Backing::Owned { out, in_ } => {
                let ov = self.owned_view(out)?;
                let iv = match in_ {
                    Some(d) => Some(self.owned_view(d)?),
                    None => None,
                };
                (ov, iv)
            }
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { region, out, in_ } => {
                let base = region.bytes();
                let ov = self.mapped_view(base, out)?;
                let iv = match in_ {
                    Some(r) => Some(self.mapped_view(base, r)?),
                    None => None,
                };
                (ov, iv)
            }
        };
        CompressedGraphView::try_new(out, in_).map_err(IoError::Parse)
    }

    fn owned_view<'a>(&self, d: &'a OwnedDir<W>) -> Result<CcsrView<'a, W>, IoError> {
        W::validate_values(&d.values)?;
        CcsrView::try_new(
            self.n,
            self.m,
            &d.edge_offsets,
            &d.byte_offsets,
            &d.bytes,
            &d.values,
        )
        .map_err(IoError::Parse)
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn mapped_view<'a>(&self, base: &'a [u8], r: &DirRanges) -> Result<CcsrView<'a, W>, IoError> {
        let values = W::cast_values(&base[r.values.clone()]);
        W::validate_values(values)?;
        CcsrView::try_new(
            self.n,
            self.m,
            u64_slice(base, &r.edge_offsets),
            u64_slice(base, &r.byte_offsets),
            &base[r.bytes.clone()],
            values,
        )
        .map_err(IoError::Parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::write_compressed_binary;
    use essentials_graph::{CompressedGraph, Coo, Graph, InAdjacency, OutAdjacency};
    use essentials_parallel::ThreadPool;

    fn sample() -> Graph<f32> {
        Graph::from_coo(&Coo::from_edges(
            6,
            [
                (0, 1, 1.0f32),
                (0, 4, 2.0),
                (1, 2, 0.5),
                (2, 0, 0.25),
                (3, 2, 0.5),
                (4, 0, 9.0),
                (5, 5, 1.5),
            ],
        ))
        .with_csc()
    }

    fn adjacency<G: OutAdjacency>(g: &G) -> Vec<Vec<u32>> {
        (0..g.num_vertices() as u32)
            .map(|v| g.out_neighbors_from(v, 0).collect())
            .collect()
    }

    #[test]
    fn weighted_container_round_trips_owned() {
        let pool = ThreadPool::new(2);
        let g = sample();
        let cg = CompressedGraph::from_graph(&pool, &g);
        let bytes = write_compressed_binary(&cg);
        let back = CompressedContainer::<f32>::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_vertices(), 6);
        let view = back.view().unwrap();
        assert_eq!(adjacency(&view), adjacency(&cg.view()));
        for v in 0..6u32 {
            let a: Vec<u32> = view.in_neighbors_from(v, 0).collect();
            let b: Vec<u32> = cg.view().in_neighbors_from(v, 0).collect();
            assert_eq!(a, b, "in-neighbors of {v}");
        }
    }

    #[test]
    fn unweighted_container_has_no_value_section() {
        let pool = ThreadPool::new(2);
        let g: Graph<()> = Graph::from_coo(&Coo::from_edges(
            4,
            [(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 0, ())],
        ));
        let cg = CompressedGraph::from_graph(&pool, &g);
        let bytes = write_compressed_binary(&cg);
        let back = CompressedContainer::<()>::from_bytes(&bytes).unwrap();
        assert_eq!(adjacency(&back.view().unwrap()), adjacency(&cg.view()));
        // Opening with the wrong weight expectation is a typed refusal.
        assert!(CompressedContainer::<f32>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn container_rejects_framing_damage() {
        let pool = ThreadPool::new(2);
        let cg = CompressedGraph::from_graph(&pool, &sample());
        let clean = write_compressed_binary(&cg).to_vec();

        let mut foreign = clean.clone();
        foreign[0] = b'Z';
        assert!(matches!(
            CompressedContainer::<f32>::from_bytes(&foreign),
            Err(IoError::Foreign { .. })
        ));

        let mut versioned = clean.clone();
        versioned[4] = 42;
        assert!(matches!(
            CompressedContainer::<f32>::from_bytes(&versioned),
            Err(IoError::UnsupportedVersion(42))
        ));

        for cut in [0, HEADER_LEN, clean.len() / 2, clean.len() - 1] {
            assert!(
                matches!(
                    CompressedContainer::<f32>::from_bytes(&clean[..cut]),
                    Err(IoError::Truncated { .. })
                ),
                "cut at {cut} must be a typed truncation"
            );
        }

        let mut flipped = clean.clone();
        let mid = clean.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            CompressedContainer::<f32>::from_bytes(&flipped),
            Err(IoError::Checksum { .. })
        ));

        let mut trailing = clean.clone();
        trailing.extend_from_slice(b"oops");
        assert!(CompressedContainer::<f32>::from_bytes(&trailing).is_err());
    }

    #[test]
    fn open_maps_and_round_trips_through_a_file() {
        let pool = ThreadPool::new(2);
        let g = sample();
        let cg = CompressedGraph::from_graph(&pool, &g);
        let bytes = write_compressed_binary(&cg);
        let dir = std::env::temp_dir().join(format!("essentials-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.esnc");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = CompressedContainer::<f32>::open(&path).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            assert!(
                mapped.is_mapped(),
                "unix little-endian must take the mmap path"
            );
        }
        assert_eq!(adjacency(&mapped.view().unwrap()), adjacency(&cg.view()));
        drop(mapped);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
