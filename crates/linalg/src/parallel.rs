//! Scoped-thread parallel utilities shared across the workspace.
//!
//! Built on `std::thread::scope` (no lifetime gymnastics, no detached
//! threads) with two flavours of scheduling:
//!
//! * **static** partitioning ([`par_for_range`], [`par_chunks_mut`]) for
//!   uniform work such as GEMM row blocks, and
//! * **dynamic** self-scheduling ([`par_map_indexed`]) where an atomic
//!   cursor hands out indices one at a time — the right choice for
//!   irregular tasks like fitting trees of varying depth or simulating
//!   CCSD configurations whose cost spans orders of magnitude.
//!
//! Thread count defaults to `std::thread::available_parallelism()` and can
//! be capped per call, which the benchmark ablations use to measure scaling.
//!
//! The calling thread takes the first share itself (the first range, the
//! first chunk, index 0) and spawns one helper per further share, so a
//! split over `k` shares costs `k − 1` spawns. A callback that runs on
//! the caller must therefore not borrow a thread-local the caller holds
//! across the call.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use by default:
/// `std::thread::available_parallelism()`, read once per process,
/// because on Linux each call reads cgroup files (13–14 µs measured,
/// paid twice per parallel batch). A later change of CPU affinity or
/// cgroup quota is therefore not picked up.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f(start, end)` over a static partition of `0..n` across up to
/// `threads` workers, the first range on the calling thread. `f` must be
/// safe to call concurrently on disjoint ranges.
pub fn par_for_range<F>(n: usize, threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n == 0 {
        f(0, n);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 1..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(n);
            if start >= end {
                break;
            }
            let f = &f;
            s.spawn(move || f(start, end));
        }
        f(0, chunk);
    });
}

/// Split `data` into contiguous chunks whose lengths are multiples of
/// `stride` (except possibly the last) and process them in parallel, the
/// first chunk on the calling thread. The callback receives the chunk's
/// starting offset within `data`.
pub fn par_chunks_mut<T, F>(data: &mut [T], stride: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let stride = stride.max(1);
    let units = data.len().div_ceil(stride);
    let threads = default_threads().min(units.max(1));
    if threads <= 1 {
        f(0, data);
        return;
    }
    let units_per = units.div_ceil(threads);
    let chunk_len = units_per * stride;
    std::thread::scope(|s| {
        let (first, mut rest) = data.split_at_mut(chunk_len);
        let mut offset = chunk_len;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let f = &f;
            let off = offset;
            s.spawn(move || f(off, head));
            offset += take;
            rest = tail;
        }
        f(0, first);
    });
}

/// Dynamically scheduled parallel map over `0..n`, preserving order.
///
/// Each worker pulls the next index from an atomic cursor, so uneven task
/// costs balance automatically. The calling thread is one of the workers
/// and takes index 0 before any helper starts. Results are stitched back
/// in index order.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Index 0 is the caller's; helpers pull from 1 on.
    let cursor = AtomicUsize::new(1);
    let sink: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let drain = |mut local: Vec<(usize, T)>| {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        if !local.is_empty() {
            sink.lock().append(&mut local);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            let drain = &drain;
            s.spawn(move || drain(Vec::new()));
        }
        drain(vec![(0, f(0))]);
    });
    let mut pairs = sink.into_inner();
    pairs.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Convenience: dynamic parallel map with the default thread count.
pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    par_map_indexed(n, default_threads(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_range_covers_everything_once() {
        let n = 1003;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for_range(n, 7, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_range_zero_items() {
        par_for_range(0, 4, |s, e| assert_eq!((s, e), (0, 0)));
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_matches() {
        let a = par_map_indexed(37, 1, |i| i + 1);
        let b = par_map_indexed(37, 6, |i| i + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_uneven_work_balances() {
        // Tasks with wildly different costs must still produce ordered output.
        let out = par_map_indexed(50, 4, |i| {
            let mut acc = 0u64;
            for k in 0..((i % 7) * 10_000) as u64 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0.0; 128];
        par_chunks_mut(&mut data, 8, |off, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (off + k) as f64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn par_chunks_chunk_lengths_are_stride_multiples() {
        let mut data = vec![0.0; 70];
        par_chunks_mut(&mut data, 7, |off, chunk| {
            assert_eq!(off % 7, 0);
            // All chunks here are multiples of the stride (70 = 10 rows of 7).
            assert_eq!(chunk.len() % 7, 0);
        });
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn the_calling_thread_takes_the_first_share() {
        let me = std::thread::current().id();

        let seen = Mutex::new(Vec::new());
        par_for_range(40, 4, |start, _| seen.lock().push((start, std::thread::current().id())));
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 4);
        for (start, id) in seen {
            assert_eq!(id == me, start == 0, "range from {start}");
        }

        let mut data = vec![0u8; 64];
        let seen = Mutex::new(Vec::new());
        par_chunks_mut(&mut data, 1, |off, _| seen.lock().push((off, std::thread::current().id())));
        let seen = seen.into_inner();
        assert_eq!(seen.len(), default_threads().min(64));
        for (off, id) in seen {
            assert_eq!(id == me, off == 0, "chunk at {off}");
        }

        // Index 0 waits until a helper has run index 1, so index 1 cannot
        // have run on the caller.
        let done = std::sync::atomic::AtomicBool::new(false);
        let ids = par_map_indexed(2, 2, |i| {
            if i == 0 {
                let started = std::time::Instant::now();
                while !done.load(Ordering::Acquire) {
                    assert!(started.elapsed().as_secs() < 60, "no helper ran index 1");
                    std::thread::yield_now();
                }
            } else {
                done.store(true, Ordering::Release);
            }
            std::thread::current().id()
        });
        assert_eq!(ids[0], me);
        assert_ne!(ids[1], me);
    }
}
