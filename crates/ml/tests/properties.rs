//! Property-based tests for the ML layer: metric identities, scaler
//! round-trips, model sanity on arbitrary data, and decoder robustness.

use chemcost_linalg::Matrix;
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::metrics::{mae, mape, mse, r2_score};
use chemcost_ml::persist::{decode_flat, decode_gb, encode_flat, encode_gb, DecodeError, Lineage};
use chemcost_ml::preprocessing::{StandardScaler, TargetScaler};
use chemcost_ml::tree::DecisionTree;
use chemcost_ml::Regressor;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init and no destructor: usable from inside the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request made on each thread.
struct Tracking;

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// `f`'s result and the largest single allocation it made on this thread.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A model file's 32-byte header: 4 features, `n_trees` trees.
fn header(n_trees: u32) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&0x4343_4742u32.to_le_bytes());
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&1.0f64.to_le_bytes());
    b.extend_from_slice(&0.1f64.to_le_bytes());
    b.extend_from_slice(&4u32.to_le_bytes());
    b.extend_from_slice(&n_trees.to_le_bytes());
    b
}

/// A 100-byte input that claims `u32::MAX` nodes in its first tree, and
/// one that claims 1,000,000 trees, are both truncated, and the decoder
/// makes no allocation sized by either claim on the way.
#[test]
fn huge_claims_in_a_short_input_fail_without_allocating_for_them() {
    let mut nodes = header(1);
    nodes.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut trees = header(1_000_000);
    for mut bytes in [nodes, trees.split_off(0)] {
        bytes.resize(100, 0);
        let (result, largest) = largest_allocation_in(|| decode_flat(&bytes).map(|_| ()));
        assert_eq!(result, Err(DecodeError::Truncated));
        assert!(largest <= 1024, "decoding 100 bytes allocated {largest} bytes at once");
    }
}

/// A version-1 model file of `init` 1.0 and learning rate 0.1 over
/// `n_features` features: each tree a split on `feature` at `threshold`
/// whose left leaf is -1 and right leaf +1.
fn stump_file(n_features: u32, stumps: &[(u32, f64)]) -> Vec<u8> {
    let mut b = header(stumps.len() as u32);
    b[24..28].copy_from_slice(&n_features.to_le_bytes());
    for &(feature, threshold) in stumps {
        b.extend_from_slice(&3u32.to_le_bytes());
        for (f, t, left, right, value) in [
            (feature, threshold, 1u32, 2u32, 0.0f64),
            (u32::MAX, 0.0, 0, 0, -1.0),
            (u32::MAX, 0.0, 0, 0, 1.0),
        ] {
            b.extend_from_slice(&f.to_le_bytes());
            b.extend_from_slice(&t.to_le_bytes());
            b.extend_from_slice(&left.to_le_bytes());
            b.extend_from_slice(&right.to_le_bytes());
            b.extend_from_slice(&value.to_le_bytes());
        }
    }
    b
}

/// The threshold tables are sized by the splits a file holds: a valid
/// one-tree file whose header claims 1,000,000 features decodes without
/// an allocation sized by that claim.
#[test]
fn a_claimed_million_features_size_no_allocation() {
    let bytes = stump_file(1_000_000, &[(7, 2.5)]);
    let (result, largest) = largest_allocation_in(|| decode_flat(&bytes).map(|_| ()));
    assert_eq!(result, Ok(()));
    assert!(largest <= 1024, "decoding a 3-node model allocated {largest} bytes at once");
}

/// No value is `≤` a NaN threshold: a version-1 file with NaN split
/// thresholds (two bit patterns) loads, sends every row right on the row
/// path and in the grid walk, and re-encodes to its own bytes.
#[test]
fn a_nan_split_threshold_loads_routes_right_and_reencodes() {
    let bytes = stump_file(2, &[(0, f64::NAN), (1, f64::from_bits(0xFFF8_0000_0000_0001))]);
    let (flat, lineage) = decode_flat(&bytes).unwrap();
    assert_eq!(lineage, None);
    let both_right = 1.0 + 0.1 + 0.1;
    let values = [f64::NAN, f64::NEG_INFINITY, -1e300, -0.0, 0.0, 3.0, f64::INFINITY];
    for &x in &values {
        for &y in &values {
            assert_eq!(flat.predict_row(&[x, y]), both_right, "row ({x}, {y})");
        }
    }
    let grid = flat.predict_grid(&[0.0, 0.0], (0, &values), (1, &values));
    assert_eq!(grid, vec![both_right; values.len() * values.len()]);
    assert!(encode_flat(&flat, None) == bytes);
}

/// A fitted model over two features, and its training rows.
fn small_model(rows: usize, seed: u64, stages: usize, depth: usize) -> (GradientBoosting, Matrix) {
    let x = Matrix::from_fn(rows, 2, |i, j| (((i + 1) * (j + 3)) as u64 * (seed + 5) % 71) as f64);
    let y: Vec<f64> = (0..rows).map(|i| (i as u64 * (seed + 17) % 131) as f64).collect();
    let mut gb = GradientBoosting::new(stages, depth, 0.1);
    gb.seed = seed;
    gb.fit(&x, &y).unwrap();
    (gb, x)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn targets(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e3f64..1e3, len)
}

proptest! {
    #[test]
    fn r2_of_perfect_predictions_is_one(y in targets(2..40)) {
        prop_assume!(chemcost_linalg::vecops::variance(&y) > 1e-9);
        prop_assert!((r2_score(&y, &y) - 1.0).abs() < 1e-12);
        prop_assert_eq!(mae(&y, &y), 0.0);
        prop_assert_eq!(mape(&y, &y), 0.0);
    }

    #[test]
    fn r2_never_exceeds_one(y in targets(2..40), p in targets(2..40)) {
        let n = y.len().min(p.len());
        prop_assume!(chemcost_linalg::vecops::variance(&y[..n]) > 1e-9);
        prop_assert!(r2_score(&y[..n], &p[..n]) <= 1.0 + 1e-12);
    }

    #[test]
    fn mae_bounded_by_rmse(y in targets(2..40), p in targets(2..40)) {
        // Jensen: MAE ≤ RMSE always.
        let n = y.len().min(p.len());
        let (y, p) = (&y[..n], &p[..n]);
        prop_assert!(mae(y, p) <= mse(y, p).sqrt() + 1e-9);
    }

    #[test]
    fn mae_scale_equivariant(y in targets(2..30), p in targets(2..30), c in 0.1f64..100.0) {
        let n = y.len().min(p.len());
        let ys: Vec<f64> = y[..n].iter().map(|v| v * c).collect();
        let ps: Vec<f64> = p[..n].iter().map(|v| v * c).collect();
        let lhs = mae(&ys, &ps);
        let rhs = c * mae(&y[..n], &p[..n]);
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.max(1.0));
    }

    #[test]
    fn mape_scale_invariant(y in proptest::collection::vec(1.0f64..1e3, 2..30), c in 0.1f64..100.0) {
        let p: Vec<f64> = y.iter().map(|v| v * 1.1).collect();
        let ys: Vec<f64> = y.iter().map(|v| v * c).collect();
        let ps: Vec<f64> = p.iter().map(|v| v * c).collect();
        prop_assert!((mape(&ys, &ps) - mape(&y, &p)).abs() < 1e-9);
    }

    #[test]
    fn scaler_round_trip(rows in 2usize..20, cols in 1usize..6, seed in 0u64..1000) {
        let x = Matrix::from_fn(rows, cols, |i, j| {
            (((i as u64 + 1) * (j as u64 + 3) * (seed + 7)) % 997) as f64 * 0.37 - 100.0
        });
        let s = StandardScaler::fit(&x);
        let back = s.inverse_transform(&s.transform(&x));
        prop_assert!(back.max_abs_diff(&x) < 1e-8);
    }

    #[test]
    fn target_scaler_round_trip(y in targets(2..40)) {
        let s = TargetScaler::fit(&y);
        for (&orig, &scaled) in y.iter().zip(&s.transform(&y)) {
            prop_assert!((s.inverse(scaled) - orig).abs() < 1e-8 * orig.abs().max(1.0));
        }
    }

    #[test]
    fn tree_predictions_stay_in_target_range(
        rows in 5usize..60,
        seed in 0u64..500,
        depth in 1usize..8,
    ) {
        let x = Matrix::from_fn(rows, 2, |i, j| {
            (((i as u64 + 2) * (j as u64 + 5) * (seed + 3)) % 101) as f64
        });
        let y: Vec<f64> = (0..rows)
            .map(|i| ((i as u64 * (seed + 11)) % 211) as f64 - 100.0)
            .collect();
        let mut t = DecisionTree::new(depth);
        t.fit(&x, &y).unwrap();
        let (lo, hi) = y.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        // Probe points beyond the training range too: trees cannot
        // extrapolate outside the observed targets.
        let probe = Matrix::from_fn(20, 2, |i, j| (i as f64 - 10.0) * 40.0 + j as f64);
        for p in t.predict(&probe) {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn gb_training_error_never_worse_than_mean_baseline(
        rows in 10usize..60,
        seed in 0u64..300,
    ) {
        let x = Matrix::from_fn(rows, 2, |i, j| {
            (((i as u64 + 1) * (j as u64 + 2) * (seed + 13)) % 89) as f64
        });
        let y: Vec<f64> = (0..rows)
            .map(|i| ((i as u64 * (seed + 29)) % 173) as f64 * 0.5)
            .collect();
        let mut gb = GradientBoosting::new(30, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let pred = gb.predict(&x);
        let mean = chemcost_linalg::vecops::mean(&y);
        let baseline: Vec<f64> = vec![mean; rows];
        prop_assert!(mse(&y, &pred) <= mse(&y, &baseline) + 1e-9);
    }

    #[test]
    fn gb_codec_round_trip_is_lossless(rows in 10usize..40, seed in 0u64..200) {
        let x = Matrix::from_fn(rows, 2, |i, j| (((i + 1) * (j + 3)) as u64 * (seed + 5) % 71) as f64);
        let y: Vec<f64> = (0..rows).map(|i| (i as u64 * (seed + 17) % 131) as f64).collect();
        let mut gb = GradientBoosting::new(15, 3, 0.1);
        gb.fit(&x, &y).unwrap();
        let decoded = decode_gb(&encode_gb(&gb)).unwrap();
        prop_assert_eq!(gb.predict(&x), decoded.predict(&x));
    }

    /// Version-1 and version-2 files: re-encoding the decoded image
    /// reproduces the input bytes, and the model it rebuilds predicts
    /// bit-identically to the source.
    #[test]
    fn decoded_image_reencodes_to_its_input(
        rows in 10usize..40,
        seed in 0u64..200,
        stages in 1usize..20,
        depth in 1usize..6,
        v2 in any::<bool>(),
        stamp in any::<u64>(),
    ) {
        let (gb, x) = small_model(rows, seed, stages, depth);
        let lineage = v2.then_some(Lineage {
            parent_version: stamp,
            train_rows: rows as u32,
            observed_rows: seed as u32,
            fit_duration_ms: stamp >> 7,
            seed: stamp ^ 0xA5A5,
        });
        let bytes = match &lineage {
            Some(l) => encode_flat(&FlatGbt::compile(&gb), Some(l)),
            None => encode_gb(&gb),
        };
        let (flat, decoded) = decode_flat(&bytes).unwrap();
        prop_assert_eq!(decoded, lineage);
        prop_assert!(encode_flat(&flat, decoded.as_ref()) == bytes);
        prop_assert_eq!(bits(&flat.to_gb().predict(&x)), bits(&gb.predict(&x)));
    }

    /// The image decoded straight from bytes answers `predict_batch` and
    /// `predict_grid` bit-identically to the image compiled from the
    /// decoded model — what a reference that decodes, then compiles,
    /// relies on.
    #[test]
    fn decoded_image_predicts_like_a_compiled_decode(
        rows in 10usize..40,
        seed in 0u64..200,
        stages in 1usize..20,
        depth in 1usize..6,
    ) {
        let (gb, x) = small_model(rows, seed, stages, depth);
        let bytes = encode_gb(&gb);
        let (direct, _) = decode_flat(&bytes).unwrap();
        let compiled = FlatGbt::compile(&decode_gb(&bytes).unwrap());
        prop_assert_eq!(bits(&direct.predict_batch(&x)), bits(&compiled.predict_batch(&x)));
        let (a, b): (Vec<f64>, Vec<f64>) = (0..x.nrows()).map(|i| (x[(i, 0)], x[(i, 1)])).unzip();
        let base = x.row(0);
        prop_assert_eq!(
            bits(&direct.predict_grid(base, (0, &a), (1, &b))),
            bits(&compiled.predict_grid(base, (0, &a), (1, &b)))
        );
    }

    #[test]
    fn gb_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes must return an error (or, astronomically
        // unlikely, a valid model) — never panic.
        let _ = decode_gb(&bytes);
    }

    #[test]
    fn gb_decoder_never_panics_on_corrupted_valid_model(
        flip_at in 0usize..2000,
        new_byte in any::<u8>(),
    ) {
        let x = Matrix::from_fn(20, 2, |i, j| ((i + 1) * (j + 2)) as f64);
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut gb = GradientBoosting::new(8, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let mut bytes = encode_gb(&gb);
        let idx = flip_at % bytes.len();
        bytes[idx] = new_byte;
        // Must not panic; may error or decode (single-byte flips in leaf
        // values still form valid models, and a flip in the feature count
        // a valid model of another width, scored here at its own width).
        if let Ok(model) = decode_gb(&bytes) {
            let width = model.n_features();
            let _ = model.predict(&Matrix::from_fn(x.nrows(), width, |i, j| x[(i, j % 2)]));
        }
    }
}
