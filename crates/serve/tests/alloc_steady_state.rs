//! Steady-state allocation accounting for the serving hot paths.
//!
//! A counting global allocator (test binary only — the production
//! binary keeps the system allocator) tallies per-thread allocation
//! *counts*. After warm-up, the engineered zero-alloc components must
//! perform exactly zero allocations per operation:
//!
//! - the advise cache's borrowed-key probe on a warm hit,
//! - sharded metrics counters,
//! - HTTP response encoding into a reused connection buffer,
//! - quantized flat inference into a reused output buffer
//!   (thread-local scratch inside `chemcost-ml`).
//!
//! The full warm `/v1/advise` request through `Router::handle` is held
//! to a small fixed budget rather than zero: what remains is the
//! per-request journal id and response header strings, which are part
//! of the API (each round trip gets a fresh prediction id). The bound
//! is a regression tripwire — new per-request allocations on the warm
//! path fail this test. See docs/PERFORMANCE.md for the inventory.
//!
//! Everything runs inside ONE `#[test]` so the per-thread counter only
//! ever observes this test's own work.

use chemcost_linalg::Matrix;
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_serve::cache::{AdviseCache, AdviseKeyRef};
use chemcost_serve::http::{encode_response_into, Request, Response};
use chemcost_serve::metrics::{CACHE_HITS, KEEPALIVE_REUSES};
use chemcost_serve::{Metrics, ModelRegistry, Router};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // `const` init: the TLS slot is usable from inside the allocator
    // without lazy initialization (which would itself allocate), and
    // `Cell<u64>` has no destructor, so access never re-enters the
    // runtime during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation count on this thread across `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The warm advise request may allocate at most this many times: the
/// per-request prediction id (and its response header strings) plus the
/// response struct itself. Measured 11 on the current code; headroom
/// covers allocator-count jitter across toolchains, not new work.
const WARM_ADVISE_ALLOC_BUDGET: u64 = 24;

fn trained_flat() -> FlatGbt {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 80, 7);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(60, 4, 0.1);
    gb.seed = 11;
    gb.fit(&x, &y).unwrap();
    FlatGbt::compile(&gb)
}

fn test_router() -> Router {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 80, 7);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(60, 4, 0.1);
    gb.seed = 11;
    gb.fit(&x, &y).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb", "aurora", gb);
    Router::new(registry)
}

#[test]
fn warm_hot_paths_do_not_allocate() {
    // --- component: advise cache borrowed-key probe ------------------
    let cache = AdviseCache::new(64);
    let key = AdviseKeyRef {
        model: "gb",
        version: 1,
        machine: "aurora",
        o: 116,
        v: 840,
        goal: "stq",
        budget_bits: None,
        deadline_bits: None,
    };
    cache.insert(key.to_owned_key(), "{\"ok\":true}", Some((64, 24, 1.5)));
    assert!(cache.get(&key).is_some(), "warm probe must hit");
    let n = allocations_in(|| {
        for _ in 0..100 {
            let hit = cache.get(&key);
            assert!(hit.is_some());
        }
    });
    assert_eq!(n, 0, "warm cache probe allocated {n} times per 100 hits");

    // --- component: sharded metrics counters -------------------------
    let metrics = Metrics::new();
    metrics.inc(CACHE_HITS); // warm this thread's stripe assignment
    metrics.inc(KEEPALIVE_REUSES);
    let n = allocations_in(|| {
        for _ in 0..100 {
            metrics.inc(CACHE_HITS);
            metrics.inc(KEEPALIVE_REUSES);
        }
    });
    assert_eq!(n, 0, "sharded counters allocated {n} times per 200 increments");
    assert_eq!(metrics.count(CACHE_HITS), 101);

    // --- component: response encode into a reused buffer -------------
    let response = Response::text(200, "ok");
    let mut wire = Vec::new();
    encode_response_into(&response, true, &mut wire); // size the buffer
    let n = allocations_in(|| {
        for _ in 0..100 {
            wire.clear();
            encode_response_into(&response, true, &mut wire);
        }
    });
    assert_eq!(n, 0, "encode into warm buffer allocated {n} times per 100 encodes");

    // --- component: quantized flat inference, warm buffers -----------
    let flat = trained_flat();
    let x = Matrix::from_fn(32, 4, |i, j| [120.0 + i as f64, 900.0, 64.0, 24.0][j]);
    let mut out = Vec::new();
    flat.predict_batch_into(&x, &mut out); // warm thread-local scratch + out
    let n = allocations_in(|| {
        for _ in 0..10 {
            flat.predict_batch_into(&x, &mut out);
        }
    });
    assert_eq!(n, 0, "warm quantized inference allocated {n} times per 10 batches");

    // --- full warm advise request through the router ------------------
    let router = test_router();
    let body = br#"{"o":116,"v":840,"goal":"stq"}"#;
    // Two warm-ups: fill the cache, then let every lazy structure on the
    // replay path (journal ring, header vectors, obs state) reach
    // steady state.
    for _ in 0..2 {
        let resp = router.handle(&Request::new("POST", "/v1/advise", body));
        assert_eq!(resp.status, 200);
    }
    let request = Request::new("POST", "/v1/advise", body);
    let n = allocations_in(|| {
        let resp = router.handle(&request);
        assert_eq!(resp.status, 200);
    });
    assert!(
        n <= WARM_ADVISE_ALLOC_BUDGET,
        "warm /v1/advise allocated {n} times (budget {WARM_ADVISE_ALLOC_BUDGET}); \
         a new allocation crept onto the cached-hit path"
    );
}
