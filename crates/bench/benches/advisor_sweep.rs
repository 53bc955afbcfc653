//! Advisor candidate-sweep inference: recursive vs. flat vs. flat
//! batched, plus the flat stepper on one predict body.
//!
//! Six inference strategies over the same fitted ensemble and the same
//! ~465-row candidate matrix the advisor sweeps per question, and one
//! over held-out rows:
//!
//! * `recursive_per_row` — the naive path: `predict_one` per candidate,
//!   pointer-chasing `Node` enums for every tree.
//! * `recursive_batched` — `GradientBoosting::predict` over the matrix
//!   (per-tree recursion, batched outer loop).
//! * `flat_per_row` — `FlatGbt::predict_row` per candidate: iterative
//!   traversal over the contiguous node arrays.
//! * `flat_batched` — `FlatGbt::predict_batch`: the 8-lane stepper,
//!   trees parallelised over scoped threads. Target: ≥5× over
//!   `recursive_batched`.
//! * `flat_grid` — `FlatGbt::predict_grid` over the same `(nodes × tile)`
//!   grid: one region walk per tree, the trees split over the cores on a
//!   multi-core runner (the model is past the walk's work floor),
//!   bit-identical to `flat_batched`. This is what `Advisor::sweep` and a
//!   lone `/v1/advise` run.
//! * `flat_grid_serial` — `FlatGbt::predict_grid_serial`: the same walk
//!   on the calling thread alone, what a daemon's `/v1/advise` runs while
//!   other requests keep the cores busy.
//! * `flat_serial_64` — `FlatGbt::predict_batch_serial` over 64 held-out
//!   rows: the stepper pass a daemon's `/v1/predict` of 64 rows takes
//!   while other requests keep the cores busy, bit-identical to
//!   `predict_batch`.
//!
//! Plus an end-to-end group timing `Advisor::answer` (which now sweeps
//! once through whatever `Regressor` it wraps) with the recursive vs.
//! the flat model behind it.

use chemcost_core::advisor::{Advisor, Goal};
use chemcost_core::data::{MachineData, Target};
use chemcost_linalg::Matrix;
use chemcost_ml::flat::{FlatGbt, QUANT_REL_TOL};
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_sim::datagen::{node_candidates, tile_candidates};
use chemcost_sim::machine::aurora;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// The Aurora corpus: the model fits its training split, and the
/// predict bench scores rows of its held-out split.
fn aurora_data() -> MachineData {
    MachineData::generate_sized(&aurora(), 1200, 42)
}

/// The paper's deployed ensemble (750 estimators, depth 10) fitted on the
/// Aurora training split.
fn fitted_model(md: &MachineData) -> GradientBoosting {
    let train = md.train_dataset(Target::Seconds);
    let mut gb = GradientBoosting::paper_config();
    gb.fit(&train.x, &train.y).unwrap();
    gb
}

/// The first 64 rows of the held-out split: one 64-row `/v1/predict`
/// body.
fn held_out_rows(md: &MachineData) -> Matrix {
    let test = md.test_dataset(Target::Seconds);
    Matrix::from_fn(64, test.x.ncols(), |i, j| test.x[(i, j)])
}

/// The full (nodes, tile) candidate grid at a fixed water-cluster-sized
/// problem — the exact matrix `Advisor::sweep_with` builds.
fn candidate_matrix(o: usize, v: usize) -> Matrix {
    let mut x = Matrix::zeros(0, 4);
    for nodes in node_candidates() {
        for tile in tile_candidates() {
            x.push_row(&[o as f64, v as f64, nodes as f64, tile as f64]);
        }
    }
    x
}

/// The same grid as `predict_grid` axes: nodes (column 2) × tiles (column 3).
fn grid_axes() -> (Vec<f64>, Vec<f64>) {
    let axis = |g: Vec<usize>| g.into_iter().map(|k| k as f64).collect();
    (axis(node_candidates()), axis(tile_candidates()))
}

fn bench_sweep_inference(c: &mut Criterion) {
    let md = aurora_data();
    let gb = fitted_model(&md);
    let flat = FlatGbt::compile(&gb);
    let x = candidate_matrix(116, 840);
    let rows = held_out_rows(&md);
    let n_rows = x.nrows();

    // Sanity before timing: the quantized path must sit inside the
    // documented tolerance of the recursive model (the candidate grid is
    // all small integers, so routing is identical and only leaf rounding
    // differs).
    let exact = gb.predict(&x);
    for (q, e) in flat.predict_batch(&x).iter().zip(&exact) {
        assert!((q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()));
    }
    // The grid walk, split and serial, must be the stepper, bit for bit.
    let base = [116.0, 840.0, 0.0, 0.0];
    let (nodes, tiles) = grid_axes();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let stepper = bits(flat.predict_batch(&x));
    assert_eq!(bits(flat.predict_grid(&base, (2, &nodes), (3, &tiles))), stepper);
    assert_eq!(bits(flat.predict_grid_serial(&base, (2, &nodes), (3, &tiles))), stepper);
    // So must the serial pass over held-out rows.
    assert_eq!(flat.predict_batch_serial(&rows), flat.predict_batch(&rows));

    let mut group = c.benchmark_group("advisor_sweep_inference");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n_rows as u64));
    group.bench_function("recursive_per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n_rows {
                acc += gb.predict_one(black_box(x.row(i)));
            }
            black_box(acc)
        })
    });
    group.bench_function("recursive_batched", |b| b.iter(|| black_box(gb.predict(black_box(&x)))));
    group.bench_function("flat_per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..n_rows {
                acc += flat.predict_row(black_box(x.row(i)));
            }
            black_box(acc)
        })
    });
    group.bench_function("flat_batched", |b| {
        b.iter(|| black_box(flat.predict_batch(black_box(&x))))
    });
    group.bench_function("flat_grid", |b| {
        b.iter(|| black_box(flat.predict_grid(black_box(&base), (2, &nodes), (3, &tiles))))
    });
    group.bench_function("flat_grid_serial", |b| {
        b.iter(|| black_box(flat.predict_grid_serial(black_box(&base), (2, &nodes), (3, &tiles))))
    });
    group.throughput(Throughput::Elements(rows.nrows() as u64));
    group.bench_function("flat_serial_64", |b| {
        b.iter(|| black_box(flat.predict_batch_serial(black_box(&rows))))
    });
    group.finish();
}

fn bench_advisor_end_to_end(c: &mut Criterion) {
    let machine = aurora();
    let gb = fitted_model(&aurora_data());
    let flat = FlatGbt::compile(&gb);
    let recursive_advisor = Advisor::new(&gb, machine.clone());
    let flat_advisor = Advisor::new(&flat, machine);

    // Same recommendation, or the comparison is meaningless. The flat
    // advisor runs the quantized path: the integer candidate grid routes
    // identically, so nodes/tile must match exactly and the predicted
    // seconds agree within the quantization tolerance.
    let r = recursive_advisor.answer(116, 840, Goal::ShortestTime).unwrap();
    let f = flat_advisor.answer(116, 840, Goal::ShortestTime).unwrap();
    assert_eq!((r.nodes, r.tile), (f.nodes, f.tile));
    assert!(
        (r.predicted_seconds - f.predicted_seconds).abs()
            <= QUANT_REL_TOL * (1.0 + r.predicted_seconds.abs())
    );

    let mut group = c.benchmark_group("advisor_answer_stq");
    group.sample_size(10);
    group.bench_function("recursive_model", |b| {
        b.iter(|| {
            black_box(recursive_advisor.answer(black_box(116), black_box(840), Goal::ShortestTime))
        })
    });
    group.bench_function("flat_model", |b| {
        b.iter(|| {
            black_box(flat_advisor.answer(black_box(116), black_box(840), Goal::ShortestTime))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_inference, bench_advisor_end_to_end);
criterion_main!(benches);
