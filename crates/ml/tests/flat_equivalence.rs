//! Equivalence battery for the flat image, in three tiers:
//!
//! * **Round-trip tier** — `FlatGbt::compile(&gb).to_gb()` must be `gb`
//!   again: it encodes to the same bytes and predicts bit-for-bit like
//!   `gb` on the recursive path (every assertion is `==` on raw `f64`s,
//!   never a tolerance). Nothing of the source model is lost, which is
//!   what lets the image be the one in-memory form of a served model.
//! * **Tolerance tier** — the quantized (`f32`) path every prediction
//!   takes must stay within [`QUANT_REL_TOL`] of the recursive model on
//!   `f32`-representable inputs (which the advisor's integer candidate
//!   grids always are): thresholds quantize toward −∞ so routing is
//!   preserved exactly, and the only error is one `f64 → f32` rounding
//!   per leaf value. Covered on proptest-generated models and on the
//!   750-tree paper-config ensemble.
//! * **Grid tier** — `FlatGbt::predict_grid` (the advisor's sweep path,
//!   its trees split over the cores past `GRID_PAR_MIN_VISITS`), its
//!   serial twin `predict_grid_serial`, and `predict_batch` on the same
//!   grid written out as a matrix must agree bit for bit, for any axis
//!   values and on every sweep the paper-config model serves.
//! * **Contract tier** — every walk equals, bit for bit, a reference
//!   that applies the quantization contract straight to `to_gb()`'s
//!   nodes, on node-built ensembles whose thresholds repeat across trees
//!   and include ±0, ±∞, NaNs and two `f64`s that share an `f32`.

use chemcost_linalg::Matrix;
use chemcost_ml::flat::{FlatGbt, GRID_PAR_MIN_VISITS, QUANT_REL_TOL};
use chemcost_ml::gradient_boosting::{GbLoss, GradientBoosting};
use chemcost_ml::persist::{decode_flat, encode_flat, encode_gb};
use chemcost_ml::tree::FlatNode;
use chemcost_ml::Regressor;
use chemcost_sim::ccsd::Problem;
use chemcost_sim::datagen::{
    aurora_problems, frontier_problems, generate_dataset_sized, node_candidates, tile_candidates,
};
use chemcost_sim::machine::{aurora, frontier};
use chemcost_sim::simulate::fits_in_memory;
use proptest::prelude::*;

/// Deterministic pseudo-random training corpus with a nonlinear target.
/// Feature values are snapped through `f32` so they are exactly
/// representable on the quantized path (routing then matches the
/// recursive model leaf-for-leaf; see the module docs in
/// `chemcost_ml::flat`).
fn corpus(n: usize, d: usize, salt: u64) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, d, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(salt);
        (((h >> 33) % 10_000) as f64 / 100.0) as f32 as f64
    });
    let y = (0..n)
        .map(|i| {
            let r = x.row(i);
            (r[0] * 0.11).sin() * 40.0 + r[1 % d] * 0.5 - (r[d - 1] * 0.07).cos() * 9.0
        })
        .collect();
    (x, y)
}

/// Fresh query rows the models never saw during fitting.
fn queries(n: usize, d: usize) -> Matrix {
    corpus(n, d, 0xBEEF).0
}

/// Tolerance-tier assertion: quantized vs exact within `QUANT_REL_TOL`.
fn assert_close(quantized: &[f64], exact: &[f64], what: &str) {
    assert_eq!(quantized.len(), exact.len(), "{what}: length mismatch");
    for (i, (q, e)) in quantized.iter().zip(exact).enumerate() {
        assert!(
            (q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
            "{what} row {i}: quantized {q} vs exact {e} outside QUANT_REL_TOL"
        );
    }
}

/// Round-trip-tier assertion: the image rebuilds `gb` — the same bytes,
/// and bit-identical recursive predictions on `x`.
fn assert_round_trip(flat: &FlatGbt, gb: &GradientBoosting, x: &Matrix) {
    let back = flat.to_gb();
    assert!(encode_gb(&back) == encode_gb(gb), "to_gb() encodes differently from its source");
    assert_eq!(back.predict(x), gb.predict(x));
}

#[test]
fn gbt_equivalence_across_losses_and_controls() {
    let (x, y) = corpus(180, 3, 2);
    let q = queries(250, 3);
    let configs: Vec<GradientBoosting> = vec![
        GradientBoosting::new(60, 3, 0.1),
        GradientBoosting::new(10, 1, 1.0),
        {
            let mut gb = GradientBoosting::new(50, 4, 0.2);
            gb.loss = GbLoss::AbsoluteError;
            gb
        },
        {
            let mut gb = GradientBoosting::new(50, 4, 0.2);
            gb.loss = GbLoss::Huber { alpha: 0.9 };
            gb
        },
        {
            let mut gb = GradientBoosting::new(80, 3, 0.3);
            gb.subsample = 0.6;
            gb.seed = 5;
            gb
        },
        {
            let mut gb = GradientBoosting::new(400, 3, 0.3);
            gb.n_iter_no_change = Some(5);
            gb.seed = 8;
            gb
        },
    ];
    for mut gb in configs {
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        assert_round_trip(&flat, &gb, &q);
        assert_round_trip(&flat, &gb, &x);
        assert_close(&flat.predict_batch(&q), &gb.predict(&q), "gbt quantized");
        // The single-row path agrees with its batch counterpart.
        for i in (0..q.nrows()).step_by(37) {
            assert_eq!(flat.predict_row(q.row(i)), flat.predict_batch(&q)[i]);
        }
    }
}

#[test]
fn equivalence_on_advisor_style_sweep_inputs() {
    // The advisor's candidate matrices hold integer-valued (o, v, nodes,
    // tile) columns of very different magnitudes — exactly the inputs the
    // serving hot path sees. Integers are f32-representable, so the
    // quantized path routes identically to the recursive model here.
    let (x, y) = corpus(220, 4, 3);
    // Rescale features into (o, v, nodes, tile)-like ranges.
    let x = Matrix::from_fn(x.nrows(), 4, |i, j| match j {
        0 => (40.0 + x[(i, 0)] * 3.0).round(),
        1 => (260.0 + x[(i, 1)] * 13.0).round(),
        2 => (5.0 + x[(i, 2)] * 9.0).round(),
        _ => (40.0 + x[(i, 3)]).round(),
    });
    let mut gb = GradientBoosting::new(120, 6, 0.1);
    gb.seed = 42;
    gb.fit(&x, &y).unwrap();

    // A dense (nodes, tile) grid at fixed (o, v) — the sweep shape.
    let nodes_grid: Vec<f64> = vec![5.0, 10.0, 20.0, 35.0, 50.0, 80.0, 120.0, 200.0, 400.0, 900.0];
    let tiles_grid: Vec<f64> = (4..=18).map(|k| (k * 10) as f64).collect();
    let mut sweep = Matrix::zeros(0, 4);
    for &n in &nodes_grid {
        for &t in &tiles_grid {
            sweep.push_row(&[116.0, 840.0, n, t]);
        }
    }
    let flat = FlatGbt::compile(&gb);
    assert_round_trip(&flat, &gb, &sweep);
    assert_close(&flat.predict_batch(&sweep), &gb.predict(&sweep), "gbt sweep");
}

#[test]
fn paper_config_model_within_tolerance() {
    // The deployed shape: the 750-estimator paper-config ensemble. The
    // quantized serving path must stay inside QUANT_REL_TOL of the
    // recursive model across a full advisor-style sweep, and the image
    // must rebuild the model bit-for-bit.
    let (x, y) = corpus(400, 4, 7);
    let x = Matrix::from_fn(x.nrows(), 4, |i, j| match j {
        0 => (40.0 + x[(i, 0)] * 3.0).round(),
        1 => (260.0 + x[(i, 1)] * 13.0).round(),
        2 => (5.0 + x[(i, 2)] * 9.0).round(),
        _ => (40.0 + x[(i, 3)]).round(),
    });
    let mut gb = GradientBoosting::paper_config();
    gb.seed = 42;
    gb.fit(&x, &y).unwrap();
    let flat = FlatGbt::compile(&gb);
    assert_eq!(flat.n_trees(), gb.n_stages());

    let mut sweep = Matrix::zeros(0, 4);
    for nodes in [5.0, 10.0, 20.0, 50.0, 120.0, 400.0, 900.0] {
        for k in 4..=18 {
            sweep.push_row(&[116.0, 840.0, nodes, (k * 10) as f64]);
        }
    }
    let exact = gb.predict(&sweep);
    assert_round_trip(&flat, &gb, &sweep);
    assert_close(&flat.predict_batch(&sweep), &exact, "paper-config quantized");
    // Row path and batch path are bit-identical within the quantized tier.
    let batch = flat.predict_batch(&sweep);
    for (i, &b) in batch.iter().enumerate() {
        assert_eq!(flat.predict_row(sweep.row(i)), b);
    }
}

#[test]
fn compiled_model_survives_persistence_round_trip() {
    // A model rebuilt from its export must compile to an image that
    // rebuilds the original, and quantizes to the same predictions.
    let (x, y) = corpus(100, 4, 4);
    let mut gb = GradientBoosting::new(30, 5, 0.1);
    gb.fit(&x, &y).unwrap();
    let (init, lr, d, trees) = gb.export();
    let restored = GradientBoosting::from_export(init, lr, d, &trees);
    let q = queries(120, 4);
    assert_round_trip(&FlatGbt::compile(&restored), &gb, &q);
    // The quantized layouts of original and round-tripped models must
    // agree bit-for-bit too (same nodes in, same quantization out).
    assert_eq!(
        FlatGbt::compile(&restored).predict_batch(&q),
        FlatGbt::compile(&gb).predict_batch(&q)
    );
}

/// The grid `base` × `a` (column `col_a`, outer) × `b` (column `col_b`,
/// inner) written out row-major as a matrix — what `predict_grid` scores.
fn grid_matrix(base: &[f64], (col_a, a): (usize, &[f64]), (col_b, b): (usize, &[f64])) -> Matrix {
    let mut x = Matrix::zeros(0, base.len());
    for &va in a {
        for &vb in b {
            let mut row = base.to_vec();
            row[col_a] = va;
            row[col_b] = vb;
            x.push_row(&row);
        }
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A grid axis value: mostly inside the corpus's `[0, 100)` feature
/// range (with repeats), sometimes NaN, ±∞ or −0.
fn axis_value(code: u64) -> f64 {
    match code {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        c => ((c * 37) % 101) as f64 - 0.5,
    }
}

#[test]
fn grid_walk_matches_the_stepper_on_every_served_sweep() {
    // The deployed shape (750 stages, depth 10) fitted on the Aurora
    // corpus, swept exactly as `Advisor::sweep` sweeps: the memory-
    // feasible node counts × every tile size, at every (O, V) of both
    // machines' corpora, at 200 seeded cold questions from the
    // serving benchmark's range, and at problems no node count can hold.
    let machine = aurora();
    let samples = generate_dataset_sized(&machine, 600, 42);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| samples[i].features()[j]);
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::paper_config();
    gb.fit(&x, &y).unwrap();
    let flat = FlatGbt::compile(&gb);

    let mut questions: Vec<(usize, usize, _)> = Vec::new();
    for (problems, m) in [(aurora_problems(), aurora()), (frontier_problems(), frontier())] {
        questions.extend(problems.iter().map(|p| (p.o, p.v, m.clone())));
    }
    let mut state = 42u64;
    let mut next = |lo: usize, hi: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lo + ((state >> 33) as usize) % (hi - lo)
    };
    for _ in 0..200 {
        questions.push((next(40, 350), next(250, 1600), machine.clone()));
    }
    questions.push((1000, 20_000, machine.clone()));
    questions.push((1000, 20_000, frontier()));

    let tiles: Vec<f64> = tile_candidates().into_iter().map(|t| t as f64).collect();
    let (mut empty, mut past_floor) = (0, 0);
    for (o, v, m) in &questions {
        let p = Problem::new(*o, *v);
        let nodes: Vec<f64> = node_candidates()
            .into_iter()
            .filter(|&n| fits_in_memory(&p, n, m))
            .map(|n| n as f64)
            .collect();
        empty += nodes.is_empty() as usize;
        let base = [*o as f64, *v as f64, 0.0, 0.0];
        let grid = flat.predict_grid(&base, (2, &nodes), (3, &tiles));
        let serial = flat.predict_grid_serial(&base, (2, &nodes), (3, &tiles));
        let matrix = flat.predict_batch(&grid_matrix(&base, (2, &nodes), (3, &tiles)));
        assert_eq!(grid.len(), nodes.len() * tiles.len());
        past_floor += (flat.grid_visits(grid.len()) >= GRID_PAR_MIN_VISITS) as usize;
        assert_eq!(bits(&grid), bits(&matrix), "sweep ({o}, {v}) on {}", m.name);
        assert_eq!(bits(&serial), bits(&matrix), "serial sweep ({o}, {v}) on {}", m.name);
    }
    assert_eq!(empty, 2, "only the oversized problems should have empty sweeps");
    assert!(past_floor * 2 > questions.len(), "most sweeps must be large enough to split");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Small random GB models over random grids — unsorted, duplicated,
    /// NaN and ±∞ axis values, 1-long axes, a NaN in `base`, either
    /// column order: the grid walk equals the stepper on the written-out
    /// matrix bit for bit, and the recursive model's default
    /// `predict_grid` equals its `predict` on that matrix.
    #[test]
    fn prop_grid_matches_matrix(
        d in 2usize..5,
        n_estimators in 1usize..25,
        max_depth in 1usize..7,
        seed in 0u64..1000,
        a_codes in collection::vec(0u64..40, 1..9),
        b_codes in collection::vec(0u64..40, 1..9),
        cols in 0usize..12,
        nan_at in 0usize..8,
    ) {
        let (x, y) = corpus(120, d, seed);
        let mut gb = GradientBoosting::new(n_estimators, max_depth, 0.2);
        gb.seed = seed;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);

        let col_a = cols % d;
        let col_b = (col_a + 1 + cols / d % (d - 1)) % d;
        let a: Vec<f64> = a_codes.iter().map(|&c| axis_value(c)).collect();
        let b: Vec<f64> = b_codes.iter().map(|&c| axis_value(c)).collect();
        let mut base = queries(1, d).row(0).to_vec();
        if nan_at < d {
            base[nan_at] = f64::NAN;
        }
        let m = grid_matrix(&base, (col_a, &a), (col_b, &b));
        let grid = flat.predict_grid(&base, (col_a, &a), (col_b, &b));
        prop_assert_eq!(bits(&grid), bits(&flat.predict_batch(&m)));
        prop_assert_eq!(bits(&flat.predict_grid_serial(&base, (col_a, &a), (col_b, &b))), bits(&grid));
        prop_assert_eq!(
            bits(&gb.predict_grid(&base, (col_a, &a), (col_b, &b))),
            bits(&gb.predict(&m))
        );
    }
}

/// A random ensemble over `d` features, built node by node instead of
/// fitted, so it can be past the grid walk's work floor at no training
/// cost: `n_trees` preorder trees, each full down to depth 7 and then
/// ending in a leaf with chance 1/3 per level, at depth 10 at the latest
/// (so at least 255 nodes a tree). Each split's threshold is
/// `threshold(r, s)` of two fresh random numbers.
fn node_built_ensemble(
    seed: u64,
    n_trees: usize,
    d: usize,
    threshold: fn(u64, u64) -> f64,
) -> FlatGbt {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    fn grow(
        nodes: &mut Vec<FlatNode>,
        depth: u32,
        d: u64,
        threshold: fn(u64, u64) -> f64,
        next: &mut impl FnMut() -> u64,
    ) {
        if depth == 10 || (depth >= 7 && next().is_multiple_of(3)) {
            let value = (next() % 2000) as f64 / 10.0 - 100.0;
            nodes.push(FlatNode { feature: u32::MAX, threshold: 0.0, left: 0, right: 0, value });
            return;
        }
        let i = nodes.len();
        let feature = (next() % d) as u32;
        let t = threshold(next(), next());
        let left = i as u32 + 1;
        nodes.push(FlatNode { feature, threshold: t, left, right: 0, value: 0.0 });
        grow(nodes, depth + 1, d, threshold, next);
        nodes[i].right = nodes.len() as u32;
        grow(nodes, depth + 1, d, threshold, next);
    }
    let trees: Vec<Vec<FlatNode>> = (0..n_trees)
        .map(|_| {
            let mut nodes = Vec::new();
            grow(&mut nodes, 0, d as u64, threshold, &mut next);
            nodes
        })
        .collect();
    FlatGbt::compile(&GradientBoosting::from_export(12.5, 0.1, d, &trees))
}

/// [`node_built_ensemble`] with half its thresholds exactly on an
/// [`axis_value`], where `x ≤ t` ties route left.
fn random_ensemble(seed: u64, n_trees: usize, d: usize) -> FlatGbt {
    node_built_ensemble(seed, n_trees, d, |r, s| match r % 2 {
        0 => axis_value(4 + s % 36),
        _ => (s % 10_100) as f64 / 100.0 - 0.5,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random ensembles over random grids past the work floor, so
    /// `predict_grid` splits its trees over the cores of a multi-core
    /// host: axes of 20–47 values, unsorted, duplicated, NaN and ±∞, a
    /// NaN in `base`, either column order. The split walk, the serial
    /// twin and the stepper on the written-out matrix agree bit for bit.
    #[test]
    fn prop_split_grid_matches_serial_and_matrix(
        d in 2usize..5,
        n_trees in 390usize..440,
        seed in 0u64..1000,
        a_codes in collection::vec(0u64..40, 20..48),
        b_codes in collection::vec(0u64..40, 20..48),
        cols in 0usize..12,
        nan_at in 0usize..8,
    ) {
        let flat = random_ensemble(seed, n_trees, d);
        let col_a = cols % d;
        let col_b = (col_a + 1 + cols / d % (d - 1)) % d;
        let a: Vec<f64> = a_codes.iter().map(|&c| axis_value(c)).collect();
        let b: Vec<f64> = b_codes.iter().map(|&c| axis_value(c)).collect();
        let mut base = queries(1, d).row(0).to_vec();
        if nan_at < d {
            base[nan_at] = f64::NAN;
        }
        prop_assert!(flat.grid_visits(a.len() * b.len()) >= GRID_PAR_MIN_VISITS);
        let split = flat.predict_grid(&base, (col_a, &a), (col_b, &b));
        let serial = flat.predict_grid_serial(&base, (col_a, &a), (col_b, &b));
        let matrix = flat.predict_batch(&grid_matrix(&base, (col_a, &a), (col_b, &b)));
        prop_assert_eq!(bits(&split), bits(&serial));
        prop_assert_eq!(bits(&split), bits(&matrix));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized shapes and hyper-parameters: the image rebuilds the
    /// recursive model, always; quantized flat within QUANT_REL_TOL,
    /// always.
    #[test]
    fn prop_flat_matches_recursive(
        n in 20usize..120,
        d in 1usize..6,
        n_estimators in 1usize..30,
        max_depth in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (x, y) = corpus(n, d, seed);
        let q = queries(150, d);

        let mut gb = GradientBoosting::new(n_estimators, max_depth, 0.15);
        gb.seed = seed;
        gb.fit(&x, &y).unwrap();
        let flat_gb = FlatGbt::compile(&gb);
        let back = flat_gb.to_gb();
        prop_assert!(encode_gb(&back) == encode_gb(&gb));
        prop_assert_eq!(back.predict(&q), gb.predict(&q));
        for (i, (qv, e)) in flat_gb.predict_batch(&q).iter().zip(gb.predict(&q)).enumerate() {
            prop_assert!(
                (qv - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
                "gbt row {} quantized {} vs exact {}", i, qv, e
            );
        }
    }
}

/// Thresholds a contract-tier ensemble draws from, so each repeats across
/// trees: both zeros, both infinities, NaNs of three bit patterns, two
/// pairs of distinct `f64`s that round down to one `f32`, values past
/// `f32`'s range, and plain ones.
const CONTRACT_THRESHOLDS: [f64; 18] = [
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::from_bits(0x7FF8_0000_0000_0001),
    f64::from_bits(0xFFF8_0000_0000_0000),
    1.0,
    1.0 + f64::EPSILON,
    0.1,
    0.1 + 1e-12,
    2.5,
    7.0,
    -3.0,
    40.0,
    1e300,
    -1e300,
    3.4e38,
];

/// Row and axis values for the contract tier: every threshold, and
/// values that round onto one (`1 + 2⁻³⁰`), sit just beside one, or
/// leave `f32`'s range.
fn contract_value(code: u64) -> f64 {
    const MORE: [f64; 8] =
        [1.0 + 1.0 / (1u64 << 30) as f64, 0.099_999_994, 2.499_999, 2.6, 5e38, -5e38, 39.5, 1e-3];
    let k = code as usize % (CONTRACT_THRESHOLDS.len() + MORE.len());
    CONTRACT_THRESHOLDS.get(k).copied().unwrap_or_else(|| MORE[k - CONTRACT_THRESHOLDS.len()])
}

/// The largest `f32` ≤ `t`: the contract's threshold rounding.
fn round_down(t: f64) -> f32 {
    let q = t as f32;
    if q as f64 <= t {
        q
    } else {
        q.next_down()
    }
}

/// The quantization contract applied straight to `to_gb()`'s nodes, the
/// reference every quantized walk must equal bit for bit: a split sends
/// the row right unless its value rounded to nearest `f32` is `≤` the
/// threshold rounded toward −∞ (so a NaN on either side sends it right),
/// and the prediction is `init + Σ lr · leaf`, each leaf rounded to
/// nearest `f32`, summed in `f64` in tree order.
struct ContractWalk {
    init: f64,
    lr: f64,
    trees: Vec<Vec<FlatNode>>,
}

impl ContractWalk {
    fn of(flat: &FlatGbt) -> ContractWalk {
        let (init, lr, _, trees) = flat.to_gb().export();
        ContractWalk { init, lr, trees }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let mut acc = self.init;
        for tree in &self.trees {
            let mut n = &tree[0];
            while n.feature != u32::MAX {
                let x = row[n.feature as usize] as f32;
                n = &tree[if x <= round_down(n.threshold) { n.left } else { n.right } as usize];
            }
            acc += self.lr * (n.value as f32) as f64;
        }
        acc
    }

    fn predict_matrix(&self, x: &Matrix) -> Vec<f64> {
        (0..x.nrows()).map(|i| self.predict(x.row(i))).collect()
    }
}

#[test]
fn every_walk_is_the_quantization_contract_on_to_gb_nodes() {
    for seed in 0..4 {
        let d = 2 + seed as usize % 3;
        let flat = node_built_ensemble(seed, 400, d, |r, _| {
            CONTRACT_THRESHOLDS[r as usize % CONTRACT_THRESHOLDS.len()]
        });
        let contract = ContractWalk::of(&flat);
        let mut state = seed + 99;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        // 71 rows: past the batch's split floor, with a ragged tail.
        let rows = Matrix::from_fn(71, d, |_, _| contract_value(next()));
        let want = contract.predict_matrix(&rows);
        assert_eq!(bits(&flat.predict_batch(&rows)), bits(&want), "seed {seed}: predict_batch");
        assert_eq!(bits(&flat.predict_batch_serial(&rows)), bits(&want), "seed {seed}: serial");
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(flat.predict_row(rows.row(i)).to_bits(), w.to_bits(), "seed {seed} row {i}");
        }
        // Unsorted axes with repeats, past the grid walk's split floor.
        let a: Vec<f64> = (0..24).map(|_| contract_value(next())).collect();
        let b: Vec<f64> = (0..20).map(|_| contract_value(next())).collect();
        let base = rows.row(seed as usize).to_vec();
        let (col_a, col_b) = (seed as usize % d, (seed as usize + 1) % d);
        assert!(flat.grid_visits(a.len() * b.len()) >= GRID_PAR_MIN_VISITS);
        let want = contract.predict_matrix(&grid_matrix(&base, (col_a, &a), (col_b, &b)));
        let grid = flat.predict_grid(&base, (col_a, &a), (col_b, &b));
        assert_eq!(bits(&grid), bits(&want), "seed {seed}: predict_grid");
        let serial = flat.predict_grid_serial(&base, (col_a, &a), (col_b, &b));
        assert_eq!(bits(&serial), bits(&want), "seed {seed}: predict_grid_serial");
        // The file keeps every threshold's bits.
        let file = encode_flat(&flat, None);
        let (decoded, _) = decode_flat(&file).expect("the encoder's bytes decode");
        assert!(encode_flat(&decoded, None) == file, "seed {seed}: re-encode differs");
    }
}
