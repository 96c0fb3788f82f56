//! One graph in every representation the operators run over, so a suite can
//! call the *same* generic function on each: the raw CSR/CSC [`Graph`], the
//! in-memory byte-coded [`CompressedGraph`], and a [`CompressedGraphView`]
//! borrowed from the on-disk container (memory-mapped where the platform
//! allows).

use std::sync::atomic::{AtomicUsize, Ordering};

use essentials::io::{write_compressed_binary, CompressedContainer, ContainerWeight};
use essentials::prelude::*;

pub struct Reps<W: ContainerWeight> {
    pub raw: Graph<W>,
    pub compressed: CompressedGraph<W>,
    container: CompressedContainer<W>,
}

impl<W: ContainerWeight> Reps<W> {
    /// `raw` must carry its CSC (`with_csc`) for the pull side to exist.
    pub fn new(raw: Graph<W>) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let compressed = CompressedGraph::from_graph(&ThreadPool::new(2), &raw);
        let path = std::env::temp_dir().join(format!(
            "essentials-reps-{}-{}.esnc",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, write_compressed_binary(&compressed)).unwrap();
        let container = CompressedContainer::open(&path).unwrap();
        // The mapping (or the loaded copy) outlives the directory entry.
        std::fs::remove_file(&path).unwrap();
        Reps {
            raw,
            compressed,
            container,
        }
    }

    pub fn mapped(&self) -> CompressedGraphView<'_, W> {
        self.container.view().unwrap()
    }
}
