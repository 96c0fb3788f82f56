//! Fixture: EL021/EL050 — allocation and blocking calls inside, and reachable
//! from, index and chunk-window worker bodies; the waived lock stays silent.

use std::sync::Mutex;

pub struct Pool;

impl Pool {
    pub fn parallel_for<F: Fn(usize)>(&self, n: usize, f: F) {
        for i in 0..n {
            f(i);
        }
    }
}

pub fn leaf_alloc(sink: &mut Vec<u32>, v: u32) {
    sink.push(v);
}

pub fn mid(sink: &mut Vec<u32>, v: u32) {
    leaf_alloc(sink, v);
}

pub fn run(pool: &Pool, shared: &Mutex<Vec<u32>>, sink: &mut Vec<u32>) {
    pool.parallel_for(4, |i| {
        let _guard = shared.lock();
        mid(sink, i as u32);
    });
    let _outside = shared.lock();
}

pub fn run_waived(pool: &Pool, shared: &Mutex<Vec<u32>>) {
    pool.parallel_for(2, |_i| {
        let _ = shared.lock(); // block-ok: fixture — uncontended by construction
    });
}

pub fn try_for_each_chunk_mut<F: Fn(usize, &mut [u32])>(data: &mut [u32], f: F) {
    f(0, data);
}

pub fn fill_windows(shared: &Mutex<Vec<u32>>, data: &mut [u32]) {
    try_for_each_chunk_mut(data, |_c, window| {
        let _guard = shared.lock();
        let scratch: Vec<u32> = Vec::new();
        window[0] = scratch.len() as u32;
    });
}
