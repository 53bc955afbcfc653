//! Flat, struct-of-arrays tree-ensemble inference — the serving hot path.
//!
//! Fitted [`DecisionTree`]s store `enum` nodes in per-tree arenas; walking
//! them means matching an enum and chasing per-tree allocations for every
//! row × tree. That is fine for training-time evaluation but wasteful on
//! the advisor's query path, where one `/v1/advise` request sweeps hundreds
//! of candidate configurations through an ensemble of hundreds of trees.
//!
//! This module compiles a fitted ensemble into two parallel layouts:
//!
//! * an **exact** struct-of-arrays layout (`FlatNodes`): one `Vec` each for
//!   split feature, `f64` threshold, children and leaf value, trees
//!   concatenated and addressed by root offset. Served by
//!   [`FlatForest::predict_batch_exact`] / [`FlatGbt::predict_batch_exact`],
//!   its predictions are **bit-for-bit identical** to the recursive path:
//!   per-row accumulation order over trees, the `<=`-threshold comparison
//!   (including its NaN behaviour) and the scaling operations are exactly
//!   those of [`RandomForest::predict`] and [`GradientBoosting::predict`].
//! * a **quantized** layout (`QNodes`): 16-byte array-of-structs nodes
//!   (`f32` threshold, feature, two child indices) plus a separate `f32`
//!   leaf-value array. This is the default path behind
//!   [`FlatForest::predict_batch`] / [`FlatGbt::predict_batch`]. Nodes
//!   shrink from 28 to 16 bytes on the traversal stream, rows are
//!   converted to `f32` once per batch, and leaves are stored as ordinary
//!   self-loop nodes so the 8-lane interleaved stepper needs no leaf test
//!   at all: it runs a fixed, per-tree-depth count of uniform
//!   load→compare→select steps (bounds checks hoisted to one-time
//!   compile-side validation), giving the core eight independent
//!   dependent-load chains to overlap while a deep ensemble streams
//!   through cache at roughly half the bytes of the exact layout.
//!
//! # Quantization contract
//!
//! Thresholds quantize **toward −∞** (the largest `f32` ≤ the exact `f64`
//! threshold). For any `f32` value `x` this preserves routing exactly:
//! `x ≤ t ⟺ x ≤ quantize(t)`, because an `f32` strictly above the
//! quantized threshold cannot lie at or below the exact one. Feature
//! values are rounded to nearest `f32` once per batch, so for inputs that
//! are exactly representable in `f32` — including the advisor's whole
//! candidate grid of small-integer node/tile/O/V counts — the quantized
//! path visits the *same leaves* as the recursive model and differs only
//! by `f32` rounding of the leaf values themselves (one rounding of
//! ≤ 2⁻²⁴ relative per tree, accumulated in `f64`). That error is bounded
//! well inside [`QUANT_REL_TOL`], which the tolerance battery in
//! `tests/flat_equivalence.rs` asserts on proptest-generated models and on
//! the 750-tree paper-config ensemble. For inputs *not* representable in
//! `f32`, the quantized path computes an exact evaluation of the nearest-
//! `f32` perturbation of the input (a backward-error statement): relative
//! input perturbation ≤ 2⁻²⁴, which only matters for rows engineered to
//! sit within one `f32` ulp of a split threshold.
//!
//! Within the quantized path, batched, blocked-parallel and single-row
//! evaluation remain bit-for-bit identical to each other (same comparison,
//! same `f64` accumulation order over trees), so serve-side batching
//! equivalence tests keep asserting with `==`.
//!
//! # Grid sweeps
//!
//! An advisor sweep scores a `(nodes × tile)` grid at a fixed `(O, V)`.
//! [`FlatGbt`]'s [`Regressor::predict_grid`] walks each quantized tree
//! once over *rectangles* of that grid rather than once per row: splits
//! on `O` or `V` send the whole rectangle one way, splits on a grid axis
//! cut it at the axis's partition point, and a leaf adds its value to
//! every cell it covers. A deep tree cuts a sweep grid into a few dozen
//! rectangles, so one walk visits about a hundred nodes where the lane
//! stepper takes thousands of steps. Every cell still sums the same
//! leaves in the same tree order with the same comparison, so the result
//! is bit-identical to [`FlatGbt::predict_batch`] on the grid written out
//! as a matrix; `tests/flat_equivalence.rs` asserts that with `==`.
//!
//! Evaluation is **tree-major** everywhere (trees outer, rows inner): a
//! deep ensemble's node arrays are far larger than cache, so walking one
//! tree across all rows before moving to the next keeps its hot nodes
//! resident instead of re-streaming the whole ensemble per row. Large
//! batches additionally parallelise over *trees* — each worker fills leaf
//! values for its run of trees, streamed once in total, and a serial pass
//! reduces each row's leaves in tree order so results are independent of
//! worker count.

use crate::forest::RandomForest;
use crate::gradient_boosting::GradientBoosting;
use crate::traits::{check_grid_columns, FitError, Regressor};
use crate::tree::{DecisionTree, FlatNode};
use chemcost_linalg::{parallel, Matrix};
use std::cell::RefCell;

/// Sentinel feature index marking a leaf (same encoding as [`FlatNode`]).
const LEAF: u32 = u32::MAX;

/// Below this many rows a batch is predicted serially: spawning scoped
/// threads costs more than walking a few hundred trees for a handful of
/// rows.
const PAR_MIN_ROWS: usize = 64;

/// Rows per block in the parallel batch path; bounds the transient
/// per-tree leaf buffer (`n_trees × ROW_BLOCK × 4` bytes).
const ROW_BLOCK: usize = 1024;

/// Documented relative-error bound of the quantized path against the
/// recursive `f64` model, for feature values representable in `f32`.
///
/// The per-tree error is one `f64 → f32` rounding of the leaf value
/// (≤ 2⁻²⁴ ≈ 6 × 10⁻⁸ relative); accumulation happens in `f64`, so the
/// ensemble error stays far below this bound. The tolerance battery in
/// `tests/flat_equivalence.rs` and the in-bench sanity checks assert
/// `|quantized − exact| ≤ QUANT_REL_TOL · (1 + |exact|)`.
pub const QUANT_REL_TOL: f64 = 1e-5;

/// Largest `f32` less than or equal to `t` (round toward −∞), so that for
/// every `f32` value `x`: `x ≤ t ⟺ x ≤ quantize_threshold(t)`.
fn quantize_threshold(t: f64) -> f32 {
    let q = t as f32; // round to nearest
    if q as f64 <= t {
        q
    } else {
        q.next_down()
    }
}

/// Number of split steps on the longest root-to-leaf path of the tree
/// whose nodes occupy `root..end` of `exact` (0 for a lone-leaf tree).
/// Iterative DFS — recursion depth would otherwise track tree depth.
fn tree_depth(exact: &FlatNodes, root: u32, end: usize) -> u32 {
    let mut max = 0u32;
    let mut stack = vec![(root as usize, 0u32)];
    while let Some((i, d)) = stack.pop() {
        assert!(i < end, "child index escapes its tree");
        if exact.feature[i] == LEAF {
            max = max.max(d);
        } else {
            let [l, r] = exact.children[i];
            stack.push((l as usize, d + 1));
            stack.push((r as usize, d + 1));
        }
    }
    max
}

/// Concatenated struct-of-arrays node storage for a whole ensemble — the
/// exact (`f64`) representation.
///
/// Node `i` of the ensemble lives at position `i` of every array; tree
/// boundaries exist only as entries in `roots`. Leaves carry `LEAF` in
/// `feature` and their prediction in `value`; split nodes carry the
/// feature index, threshold and two absolute child indices.
#[derive(Debug, Clone, Default)]
struct FlatNodes {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    children: Vec<[u32; 2]>,
    value: Vec<f64>,
    roots: Vec<u32>,
}

impl FlatNodes {
    fn with_capacity(trees: usize, nodes: usize) -> Self {
        Self {
            feature: Vec::with_capacity(nodes),
            threshold: Vec::with_capacity(nodes),
            children: Vec::with_capacity(nodes),
            value: Vec::with_capacity(nodes),
            roots: Vec::with_capacity(trees),
        }
    }

    /// Append one tree's exported nodes, rebasing child indices to the
    /// ensemble-wide address space.
    fn push_tree(&mut self, nodes: &[FlatNode]) {
        assert!(!nodes.is_empty(), "cannot flatten an unfitted tree");
        let base = self.feature.len() as u32;
        self.roots.push(base);
        for n in nodes {
            let abs = self.feature.len() as u32;
            self.feature.push(n.feature);
            if n.feature == LEAF {
                // Leaves self-loop behind an always-true comparison so the
                // interleaved traversal can keep stepping a finished row
                // harmlessly while its lane-mates are still descending.
                self.threshold.push(f64::INFINITY);
                self.children.push([abs, abs]);
                self.value.push(n.value);
            } else {
                assert!(
                    (n.left as usize) < nodes.len() && (n.right as usize) < nodes.len(),
                    "child index out of range in flattened tree"
                );
                self.threshold.push(n.threshold);
                self.children.push([base + n.left, base + n.right]);
                self.value.push(0.0);
            }
        }
    }

    /// Largest feature index referenced by any split, plus one.
    fn min_features(&self) -> usize {
        self.feature.iter().filter(|&&f| f != LEAF).map(|&f| f as usize + 1).max().unwrap_or(0)
    }

    /// Walk one tree for one row. Branch-light: the comparison selects a
    /// child slot instead of branching, and the loop exits only at a leaf.
    ///
    /// The comparison is `!(x <= t)` rather than `x > t` so NaN feature
    /// values fall right, exactly as in `DecisionTree::predict_row`.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn leaf_value(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.value[i];
            }
            let go_right = !(row[f as usize] <= self.threshold[i]) as usize;
            i = self.children[i][go_right] as usize;
        }
    }

    /// Accumulate `init + Σ weight · tree(row)` over all trees, in tree
    /// order — the exact floating-point sequence of the recursive path.
    #[inline]
    fn score_row(&self, row: &[f64], init: f64, weight: f64) -> f64 {
        let mut acc = init;
        for &root in &self.roots {
            acc += weight * self.leaf_value(root, row);
        }
        acc
    }

    /// Score every row of `x` serially, tree-major, into a fresh vector —
    /// the exact-path batch entry point. (The quantized path owns the
    /// parallel machinery; the exact path exists as a reference and for
    /// callers that need bit-for-bit recursive equality, where throughput
    /// is secondary.)
    fn score_batch(&self, x: &Matrix, init: f64, weight: f64) -> Vec<f64> {
        let mut out = vec![init; x.nrows()];
        for &root in &self.roots {
            for (k, o) in out.iter_mut().enumerate() {
                *o += weight * self.leaf_value(root, x.row(k));
            }
        }
        out
    }
}

/// One quantized tree node: 16 bytes, a single predictable stream for the
/// traversal loop (threshold, feature and both children land on one cache
/// line together instead of three separate array streams).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct QNode {
    threshold: f32,
    feature: u32,
    children: [u32; 2],
}

/// The quantized ensemble: array-of-structs nodes plus a separate leaf
/// value array (leaf values are only touched once per row × tree, at the
/// end of a descent — keeping them out of [`QNode`] keeps the hot
/// traversal stream dense).
///
/// Quantized leaves are stored as *ordinary* nodes that compare feature 0
/// against `+∞` and route to themselves, so the traversal loop needs no
/// leaf test at all: it steps every lane exactly [`QNodes::depth`] times
/// (the tree's longest root-to-leaf path) and lands on a leaf by
/// construction, with finished rows self-looping harmlessly.
#[derive(Debug, Clone, Default)]
struct QNodes {
    nodes: Vec<QNode>,
    value: Vec<f32>,
    roots: Vec<u32>,
    /// Per tree: the number of split steps on its longest root-to-leaf
    /// path. Walking exactly this many uniform steps from the root is
    /// guaranteed to finish on (or self-loop at) a leaf.
    depth: Vec<u32>,
}

/// Reusable per-thread scratch for the quantized batch path: the `f32`
/// row-major copy of the input and the per-tree leaf buffer. Thread-local
/// so warm steady-state batches allocate nothing.
#[derive(Default)]
struct QScratch {
    rows: Vec<f32>,
    leaves: Vec<f32>,
    row: Vec<f32>,
}

thread_local! {
    static Q_SCRATCH: RefCell<QScratch> = RefCell::new(QScratch::default());
}

impl QNodes {
    /// Quantize the exact layout: thresholds round toward −∞ (see
    /// [`quantize_threshold`]), leaf values round to nearest `f32`.
    /// Leaves become uniform self-loop nodes (`feature 0` vs `+∞`, both
    /// children pointing back at themselves) so the traversal loops never
    /// have to distinguish them, and each tree's maximum descent depth is
    /// recorded so those loops can run a fixed number of steps.
    fn quantize(exact: &FlatNodes) -> Self {
        let nodes = exact
            .feature
            .iter()
            .zip(&exact.threshold)
            .zip(&exact.children)
            .map(|((&feature, &t), &children)| QNode {
                threshold: quantize_threshold(t),
                feature: if feature == LEAF { 0 } else { feature },
                children,
            })
            .collect();
        let value = exact.value.iter().map(|&v| v as f32).collect();
        let depth = (0..exact.roots.len())
            .map(|t| {
                let end = exact.roots.get(t + 1).map_or(exact.feature.len(), |&r| r as usize);
                tree_depth(exact, exact.roots[t], end)
            })
            .collect();
        let q = QNodes { nodes, value, roots: exact.roots.clone(), depth };
        // One-time structural validation backing the unchecked loads in
        // `for_each_leaf`: every root and every child index must land
        // inside the node array (push_tree guarantees this per tree; this
        // re-checks the rebased ensemble-wide indices).
        let len = q.nodes.len();
        assert!(q.value.len() == len, "leaf value array out of sync");
        assert!(q.roots.iter().all(|&r| (r as usize) < len), "root index out of range");
        assert!(
            q.nodes
                .iter()
                .all(|n| (n.children[0] as usize) < len && (n.children[1] as usize) < len),
            "child index out of range"
        );
        q
    }

    /// Walk one tree for one `f32` row; returns the leaf's node index.
    /// Runs exactly `depth` uniform steps — leaves self-loop, so landing
    /// early just spins in place (see [`QNodes`]).
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn leaf_index(&self, root: u32, depth: u32, row: &[f32]) -> usize {
        let mut i = root as usize;
        for _ in 0..depth {
            let n = self.nodes[i];
            let go_right = !(row[n.feature as usize] <= n.threshold) as usize;
            i = n.children[go_right] as usize;
        }
        i
    }

    /// Accumulate `init + Σ weight · tree(row)` in tree order, in `f64`.
    #[inline]
    fn score_row(&self, row: &[f32], init: f64, weight: f64) -> f64 {
        let mut acc = init;
        for (&root, &depth) in self.roots.iter().zip(&self.depth) {
            acc += weight * self.value[self.leaf_index(root, depth, row)] as f64;
        }
        acc
    }

    /// Call `sink(k, leaf)` with tree `root`'s leaf value for each row
    /// `start + k`, `k < n`, walking `LANES` rows at a time through the
    /// tree. Tree traversal is a chain of dependent loads; independent
    /// per-lane cursors give the core that many load chains to overlap.
    /// The per-lane step is uniform and branchless — leaves are ordinary
    /// self-loop nodes (see [`QNodes`]) — so the group runs exactly
    /// `depth` lock-step iterations with no leaf test, and rows that
    /// reach a leaf early self-loop until the group finishes.
    ///
    /// The inner loop uses unchecked loads; its indices are covered by
    /// two invariants. (1) Node cursors: each `idx[j]` starts at `root`
    /// and only ever moves to a `children` slot, and [`Self::quantize`]
    /// asserts every root and child index is in range once per compile.
    /// (2) Feature gathers: every stored feature index is below the
    /// ensemble's `min_features` (leaves store feature 0, which a
    /// non-empty split set makes valid; an all-leaf ensemble has
    /// `depth == 0` and never gathers), and the public entry points
    /// assert `ncols ≥ min_features`, so
    /// `base[j] + feature < (start + n) · ncols ≤ rows.len()` — the
    /// debug assertion below re-states that bound.
    #[inline]
    #[allow(clippy::needless_range_loop)] // j indexes lock-step lane arrays
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    #[allow(clippy::too_many_arguments)] // flat args keep the hot call zero-cost
    fn for_each_leaf<F: FnMut(usize, f32)>(
        &self,
        root: u32,
        depth: u32,
        rows: &[f32],
        ncols: usize,
        start: usize,
        n: usize,
        mut sink: F,
    ) {
        const LANES: usize = 8;
        debug_assert!(rows.len() >= (start + n) * ncols);
        let r = root as usize;
        let mut k = 0;
        while k + LANES <= n {
            let base: [usize; LANES] = std::array::from_fn(|j| (start + k + j) * ncols);
            let mut idx = [r; LANES];
            for _ in 0..depth {
                // One fused load→compare→select step per lane, fully
                // unrolled (LANES is const): each lane's chain lives in
                // registers and the eight chains overlap their loads.
                // SAFETY: invariants (1) and (2) in the doc comment —
                // `idx` holds quantize-validated node indices and the
                // gather offset is bounded by the entry-point width check.
                for j in 0..LANES {
                    let n = unsafe { *self.nodes.get_unchecked(idx[j]) };
                    let x = unsafe { *rows.get_unchecked(base[j] + n.feature as usize) };
                    let go_right = !(x <= n.threshold) as usize;
                    idx[j] = n.children[go_right] as usize;
                }
            }
            for j in 0..LANES {
                sink(k + j, self.value[idx[j]]);
            }
            k += LANES;
        }
        while k < n {
            let row = &rows[(start + k) * ncols..(start + k + 1) * ncols];
            sink(k, self.value[self.leaf_index(root, depth, row)]);
            k += 1;
        }
    }

    /// Score rows `offset..offset + out.len()` of the `f32` row-major
    /// buffer into `out`, **tree-major**: the outer loop walks trees, the
    /// inner loop rows, so one tree's nodes stay hot in cache across the
    /// whole chunk. Each row accumulates `init + Σ weight·tree(row)` in
    /// tree order in `f64` — the identical floating-point sequence to
    /// [`Self::score_row`].
    fn score_chunk(
        &self,
        rows: &[f32],
        ncols: usize,
        offset: usize,
        out: &mut [f64],
        init: f64,
        weight: f64,
    ) {
        out.fill(init);
        let n = out.len();
        for (&root, &depth) in self.roots.iter().zip(&self.depth) {
            self.for_each_leaf(root, depth, rows, ncols, offset, n, |k, leaf| {
                out[k] += weight * leaf as f64
            });
        }
    }

    /// Score every row of `x` into `out`, in parallel for large batches
    /// when `split` allows it.
    ///
    /// The parallel split is over **trees**, not rows: each worker owns a
    /// contiguous run of trees and fills their leaf values for every row
    /// of the block, so the ensemble's node arrays are streamed through
    /// cache once in total instead of once per row chunk. A serial pass
    /// then accumulates each row's leaves in tree order — the identical
    /// floating-point sequence to [`Self::score_row`], so results are
    /// independent of worker count.
    ///
    /// All scratch (the `f32` row conversion, the per-tree leaf buffer)
    /// is thread-local and reused, and `out` is resized in place: a warm
    /// steady-state caller that holds on to `out` allocates nothing here.
    fn score_batch_into(
        &self,
        x: &Matrix,
        init: f64,
        weight: f64,
        split: bool,
        out: &mut Vec<f64>,
    ) {
        let n = x.nrows();
        let ncols = x.ncols();
        out.clear();
        out.resize(n, 0.0);
        Q_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.rows.clear();
            s.rows.reserve(n * ncols);
            for i in 0..n {
                s.rows.extend(x.row(i).iter().map(|&v| v as f32));
            }
            // Small batches, callers that asked for no split, and any
            // batch on a single-core host, where the tree-split buys
            // nothing, take the direct tree-major pass and skip the
            // intermediate leaf buffer entirely. Both paths accumulate
            // each row's leaves in tree order in `f64`, so the choice
            // never changes a result bit.
            if !split || n < PAR_MIN_ROWS || parallel::default_threads() <= 1 {
                self.score_chunk(&s.rows, ncols, 0, out, init, weight);
                return;
            }
            let t = self.roots.len();
            // Row blocking bounds the transient leaf buffer at
            // `t × ROW_BLOCK × 4` bytes regardless of batch size.
            let block = n.min(ROW_BLOCK);
            s.leaves.clear();
            s.leaves.resize(t * block, 0.0);
            for start in (0..n).step_by(block) {
                let rows = block.min(n - start);
                let leaves = &mut s.leaves[..t * rows];
                let xrows: &[f32] = &s.rows;
                parallel::par_chunks_mut(leaves, rows, |offset, chunk| {
                    for (b, tree_leaves) in chunk.chunks_mut(rows).enumerate() {
                        let t = offset / rows + b;
                        let (root, depth) = (self.roots[t], self.depth[t]);
                        self.for_each_leaf(root, depth, xrows, ncols, start, rows, |k, leaf| {
                            tree_leaves[k] = leaf
                        });
                    }
                });
                let out_block = &mut out[start..start + rows];
                out_block.fill(init);
                for tree_leaves in leaves.chunks(rows) {
                    for (o, &l) in out_block.iter_mut().zip(tree_leaves.iter()) {
                        *o += weight * l as f64;
                    }
                }
            }
        });
    }

    /// Score the grid of `base` × `outer` × `inner` (each a column and
    /// its sorted axis), `outer`-major in sorted order, walking each tree
    /// **once** over rectangles of index ranges instead of once per row:
    /// a split on any other column sends the whole rectangle down the
    /// branch `base` takes, a split on an axis column cuts the rectangle
    /// at that axis's partition point, and a leaf adds `weight · value`
    /// to every cell of its rectangle. The rectangles of one tree tile
    /// the grid, so each cell still accumulates `init + Σ weight·leaf` in
    /// tree order with the stepper's own comparison — bit-identical to
    /// [`Self::score_chunk`] on the grid written out as rows.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn score_grid(
        &self,
        base: &[f32],
        (col_o, outer): (usize, &GridAxis),
        (col_i, inner): (usize, &GridAxis),
        init: f64,
        weight: f64,
    ) -> Vec<f64> {
        let (no, ni) = (outer.values.len(), inner.values.len());
        let mut out = vec![init; no * ni];
        // Pending rectangles: (node, [o_lo, o_hi, i_lo, i_hi]), never empty.
        let mut stack: Vec<(usize, [usize; 4])> = Vec::new();
        for &root in &self.roots {
            stack.push((root as usize, [0, no, 0, ni]));
            while let Some((mut i, mut rect)) = stack.pop() {
                loop {
                    let n = self.nodes[i];
                    let [left, right] = n.children.map(|c| c as usize);
                    // Leaves are the self-loop nodes (see `QNodes`).
                    if left == i {
                        fill_rect(&mut out, ni, rect, weight * self.value[i] as f64);
                        break;
                    }
                    let f = n.feature as usize;
                    let (axis, lo) = match f {
                        _ if f == col_o => (outer, 0),
                        _ if f == col_i => (inner, 2),
                        _ => {
                            i = if !(base[f] <= n.threshold) { right } else { left };
                            continue;
                        }
                    };
                    let cut = axis.split(rect[lo], rect[lo + 1], n.threshold);
                    if cut == rect[lo] {
                        i = right;
                    } else if cut == rect[lo + 1] {
                        i = left;
                    } else {
                        let mut upper = rect;
                        upper[lo] = cut;
                        stack.push((right, upper));
                        rect[lo + 1] = cut;
                        i = left;
                    }
                }
            }
        }
        out
    }

    /// Score one `f64` row through the quantized ensemble, converting it
    /// into thread-local scratch (allocation-free when warm).
    fn score_row_f64(&self, row: &[f64], init: f64, weight: f64) -> f64 {
        Q_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.row.clear();
            s.row.extend(row.iter().map(|&v| v as f32));
            self.score_row(&s.row, init, weight)
        })
    }
}

/// One axis of a [`FlatGbt::predict_grid`] grid, converted to `f32` once
/// and sorted ascending with NaNs last: the order in which every split's
/// `x <= t` holds for a prefix, so a split cuts an index range in two.
struct GridAxis {
    values: Vec<f32>,
    /// `perm[k]` is the caller's index of the `k`-th sorted value; `None`
    /// when the axis was already in order (the advisor's grids are).
    perm: Option<Vec<usize>>,
}

impl GridAxis {
    fn new(axis: &[f64]) -> GridAxis {
        let values: Vec<f32> = axis.iter().map(|&v| v as f32).collect();
        // NaN fails every `x <= t`, so it sorts after every number.
        let order = |x: &f32, y: &f32| match (x.is_nan(), y.is_nan()) {
            (false, false) => x.partial_cmp(y).unwrap(),
            (nan_x, nan_y) => nan_x.cmp(&nan_y),
        };
        if values.windows(2).all(|w| order(&w[0], &w[1]).is_le()) {
            return GridAxis { values, perm: None };
        }
        let mut perm: Vec<usize> = (0..values.len()).collect();
        perm.sort_by(|&i, &j| order(&values[i], &values[j]));
        let values = perm.iter().map(|&i| values[i]).collect();
        GridAxis { values, perm: Some(perm) }
    }

    /// First index in `lo..hi` whose value routes right at threshold `t`.
    fn split(&self, lo: usize, hi: usize, t: f32) -> usize {
        lo + self.values[lo..hi].partition_point(|&x| x <= t)
    }

    /// The caller's index of sorted position `k`.
    fn original(&self, k: usize) -> usize {
        self.perm.as_ref().map_or(k, |p| p[k])
    }
}

/// Add `v` to every cell of the rectangle `[o_lo, o_hi) × [i_lo, i_hi)`
/// of an outer-major grid `ni` cells wide.
fn fill_rect(out: &mut [f64], ni: usize, [o_lo, o_hi, i_lo, i_hi]: [usize; 4], v: f64) {
    for row in out[o_lo * ni..o_hi * ni].chunks_exact_mut(ni) {
        row[i_lo..i_hi].iter_mut().for_each(|o| *o += v);
    }
}

/// A fitted [`RandomForest`] compiled for fast batched inference.
///
/// The default [`predict_batch`](FlatForest::predict_batch) runs the
/// quantized `f32` path (see the module docs for the tolerance contract);
/// [`predict_batch_exact`](FlatForest::predict_batch_exact) replays the
/// recursive path bit-for-bit.
///
/// # Example
///
/// ```
/// use chemcost_linalg::Matrix;
/// use chemcost_ml::flat::{FlatForest, QUANT_REL_TOL};
/// use chemcost_ml::forest::RandomForest;
/// use chemcost_ml::Regressor;
///
/// let x = Matrix::from_fn(60, 2, |i, j| ((i * (j + 2)) % 17) as f64);
/// let y: Vec<f64> = (0..60).map(|i| x[(i, 0)] * 3.0 - x[(i, 1)]).collect();
/// let mut rf = RandomForest::new(12, 6);
/// rf.fit(&x, &y).unwrap();
///
/// let flat = FlatForest::compile(&rf);
/// // The exact path is bit-for-bit the recursive model …
/// assert_eq!(flat.predict_batch_exact(&x), rf.predict(&x));
/// // … and the quantized default stays within the documented tolerance.
/// for (q, e) in flat.predict_batch(&x).iter().zip(rf.predict(&x)) {
///     assert!((q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FlatForest {
    nodes: FlatNodes,
    qnodes: QNodes,
    /// `x.ncols()` must be at least this for prediction to be meaningful.
    min_features: usize,
}

impl FlatForest {
    /// Compile a fitted forest into the flat layouts.
    ///
    /// # Panics
    /// Panics if the forest has not been fitted.
    pub fn compile(rf: &RandomForest) -> FlatForest {
        assert!(!rf.trees().is_empty(), "FlatForest::compile before fit");
        let total: usize = rf.trees().iter().map(DecisionTree::n_nodes).sum();
        let mut nodes = FlatNodes::with_capacity(rf.trees().len(), total);
        for tree in rf.trees() {
            nodes.push_tree(&tree.export_nodes());
        }
        let min_features = nodes.min_features();
        let qnodes = QNodes::quantize(&nodes);
        FlatForest { nodes, qnodes, min_features }
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.nodes.roots.len()
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.feature.len()
    }

    /// Predict one row on the quantized path (allocation-free when warm).
    ///
    /// # Panics
    /// Panics if `row` is shorter than the largest feature index used.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(row.len() >= self.min_features, "FlatForest::predict_row: row too short");
        self.qnodes.score_row_f64(row, 0.0, 1.0) / self.n_trees() as f64
    }

    /// Predict every row of `x` on the quantized path, in parallel for
    /// large batches.
    ///
    /// # Panics
    /// Panics if `x` has fewer columns than the largest feature index used.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        assert!(x.ncols() >= self.min_features, "FlatForest::predict_batch: too few columns");
        let k = self.n_trees() as f64;
        let mut out = Vec::new();
        self.qnodes.score_batch_into(x, 0.0, 1.0, true, &mut out);
        for o in &mut out {
            *o /= k;
        }
        out
    }

    /// Predict one row on the exact `f64` path — bit-for-bit
    /// [`RandomForest::predict`].
    ///
    /// # Panics
    /// Panics if `row` is shorter than the largest feature index used.
    pub fn predict_row_exact(&self, row: &[f64]) -> f64 {
        assert!(row.len() >= self.min_features, "FlatForest::predict_row_exact: row too short");
        self.nodes.score_row(row, 0.0, 1.0) / self.n_trees() as f64
    }

    /// Predict every row of `x` on the exact `f64` path — bit-for-bit
    /// [`RandomForest::predict`].
    ///
    /// # Panics
    /// Panics if `x` has fewer columns than the largest feature index used.
    pub fn predict_batch_exact(&self, x: &Matrix) -> Vec<f64> {
        assert!(x.ncols() >= self.min_features, "FlatForest::predict_batch_exact: too few columns");
        let k = self.n_trees() as f64;
        let mut out = self.nodes.score_batch(x, 0.0, 1.0);
        for o in &mut out {
            *o /= k;
        }
        out
    }
}

impl Regressor for FlatForest {
    /// Compiled models are read-only; refit the source [`RandomForest`]
    /// and re-[`compile`](FlatForest::compile) instead.
    fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> Result<(), FitError> {
        Err(FitError::NotTrainable("FlatForest"))
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.predict_batch(x)
    }

    fn name(&self) -> &'static str {
        "FlatRF"
    }
}

/// A fitted [`GradientBoosting`] ensemble compiled for fast batched
/// inference.
///
/// The default [`predict_batch`](FlatGbt::predict_batch) runs the
/// quantized `f32` path within the module-level tolerance contract;
/// [`predict_batch_exact`](FlatGbt::predict_batch_exact) replays
/// `init + Σ lr · treeᵗ(row)` in stage order — the exact floating-point
/// sequence of [`GradientBoosting::predict`], bit-for-bit.
#[derive(Debug, Clone)]
pub struct FlatGbt {
    nodes: FlatNodes,
    qnodes: QNodes,
    init: f64,
    learning_rate: f64,
    n_features: usize,
}

impl FlatGbt {
    /// Compile a fitted gradient-boosting ensemble into the flat layouts.
    ///
    /// # Panics
    /// Panics if the ensemble has no fitted stages.
    pub fn compile(gb: &GradientBoosting) -> FlatGbt {
        let (init, learning_rate, n_features, trees) = gb.export();
        assert!(!trees.is_empty(), "FlatGbt::compile before fit");
        let total: usize = trees.iter().map(Vec::len).sum();
        let mut nodes = FlatNodes::with_capacity(trees.len(), total);
        for tree in &trees {
            nodes.push_tree(tree);
        }
        let qnodes = QNodes::quantize(&nodes);
        FlatGbt { nodes, qnodes, init, learning_rate, n_features }
    }

    /// Number of boosting stages in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.nodes.roots.len()
    }

    /// Total nodes across all stages.
    pub fn n_nodes(&self) -> usize {
        self.nodes.feature.len()
    }

    /// Number of features the source model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    fn check_width(&self, ncols: usize, what: &str) {
        if self.n_features > 0 {
            assert_eq!(ncols, self.n_features, "FlatGbt::{what}: feature-count mismatch");
        }
    }

    /// Predict one row on the quantized path (allocation-free when warm).
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.check_width(row.len(), "predict_row");
        self.qnodes.score_row_f64(row, self.init, self.learning_rate)
    }

    /// Predict every row of `x` on the quantized path, in parallel for
    /// large batches.
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(x, &mut out);
        out
    }

    /// Predict every row of `x` into a caller-owned buffer, resized in
    /// place — the zero-allocation entry point for steady-state serving
    /// (all internal scratch is thread-local and reused).
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        self.check_width(x.ncols(), "predict_batch");
        self.qnodes.score_batch_into(x, self.init, self.learning_rate, true, out);
    }

    /// [`predict_batch`](FlatGbt::predict_batch) on the calling thread
    /// alone, whatever the batch size: for a caller whose siblings
    /// already keep every core busy, such as a server worker with other
    /// requests in flight. Bit-identical to `predict_batch`.
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch_serial(&self, x: &Matrix) -> Vec<f64> {
        self.check_width(x.ncols(), "predict_batch_serial");
        let mut out = Vec::new();
        self.qnodes.score_batch_into(x, self.init, self.learning_rate, false, &mut out);
        out
    }

    /// Predict one row on the exact `f64` path — bit-for-bit
    /// [`GradientBoosting::predict`].
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_row_exact(&self, row: &[f64]) -> f64 {
        self.check_width(row.len(), "predict_row_exact");
        self.nodes.score_row(row, self.init, self.learning_rate)
    }

    /// Predict every row of `x` on the exact `f64` path — bit-for-bit
    /// [`GradientBoosting::predict`].
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_batch_exact(&self, x: &Matrix) -> Vec<f64> {
        self.check_width(x.ncols(), "predict_batch_exact");
        self.nodes.score_batch(x, self.init, self.learning_rate)
    }
}

impl Regressor for FlatGbt {
    /// Compiled models are read-only; refit the source
    /// [`GradientBoosting`] and re-[`compile`](FlatGbt::compile) instead.
    fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> Result<(), FitError> {
        Err(FitError::NotTrainable("FlatGbt"))
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.predict_batch(x)
    }

    /// The quantized path's serial region walk (see the module docs):
    /// bit-identical to [`FlatGbt::predict_batch`] on the same grid
    /// written out as a matrix, for any axis values — unsorted,
    /// duplicated, NaN or infinite.
    ///
    /// # Panics
    /// Panics on feature-count mismatch or a bad column pair.
    fn predict_grid(
        &self,
        base: &[f64],
        (col_a, a): (usize, &[f64]),
        (col_b, b): (usize, &[f64]),
    ) -> Vec<f64> {
        self.check_width(base.len(), "predict_grid");
        check_grid_columns(base.len(), col_a, col_b);
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let base: Vec<f32> = base.iter().map(|&v| v as f32).collect();
        let (a, b) = (GridAxis::new(a), GridAxis::new(b));
        let sorted =
            self.qnodes.score_grid(&base, (col_a, &a), (col_b, &b), self.init, self.learning_rate);
        if a.perm.is_none() && b.perm.is_none() {
            return sorted;
        }
        let nb = b.values.len();
        let mut out = vec![0.0; sorted.len()];
        for (i, row) in sorted.chunks_exact(nb).enumerate() {
            let base = a.original(i) * nb;
            for (j, &s) in row.iter().enumerate() {
                out[base + b.original(j)] = s;
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "FlatGB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data(n: usize) -> (Matrix, Vec<f64>) {
        // Feature values pass through f32 so the quantized path routes
        // rows through exactly the same leaves as the recursive model
        // (see the module-level quantization contract).
        let x =
            Matrix::from_fn(n, 3, |i, j| ((((i * 41 + j * 17) % 59) as f64) / 3.0) as f32 as f64);
        let y = (0..n).map(|i| (x[(i, 0)] * 0.7).sin() * 10.0 + x[(i, 1)] - x[(i, 2)]).collect();
        (x, y)
    }

    fn assert_close(quantized: &[f64], exact: &[f64]) {
        assert_eq!(quantized.len(), exact.len());
        for (i, (q, e)) in quantized.iter().zip(exact).enumerate() {
            assert!(
                (q - e).abs() <= QUANT_REL_TOL * (1.0 + e.abs()),
                "row {i}: quantized {q} vs exact {e} outside QUANT_REL_TOL"
            );
        }
    }

    #[test]
    fn forest_exact_path_matches_recursive_exactly() {
        let (x, y) = training_data(150);
        let mut rf = RandomForest::new(15, 7);
        rf.seed = 11;
        rf.fit(&x, &y).unwrap();
        let flat = FlatForest::compile(&rf);
        assert_eq!(flat.predict_batch_exact(&x), rf.predict(&x));
        assert_eq!(flat.n_trees(), 15);
    }

    #[test]
    fn forest_quantized_path_within_tolerance() {
        let (x, y) = training_data(150);
        let mut rf = RandomForest::new(15, 7);
        rf.seed = 11;
        rf.fit(&x, &y).unwrap();
        let flat = FlatForest::compile(&rf);
        assert_close(&flat.predict_batch(&x), &rf.predict(&x));
    }

    #[test]
    fn gbt_exact_path_matches_recursive_exactly() {
        let (x, y) = training_data(120);
        let mut gb = GradientBoosting::new(40, 4, 0.1);
        gb.seed = 7;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        assert_eq!(flat.predict_batch_exact(&x), gb.predict(&x));
        assert_eq!(flat.n_trees(), gb.n_stages());
        assert_eq!(flat.n_features(), 3);
    }

    #[test]
    fn gbt_quantized_path_within_tolerance() {
        let (x, y) = training_data(120);
        let mut gb = GradientBoosting::new(40, 4, 0.1);
        gb.seed = 7;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        assert_close(&flat.predict_batch(&x), &gb.predict(&x));
        for i in 0..x.nrows() {
            assert!(
                (flat.predict_row_exact(x.row(i)) - gb.predict(&x)[i]).abs() == 0.0,
                "exact row path must stay bit-for-bit"
            );
        }
    }

    #[test]
    fn single_row_matches_batch() {
        // 90 rows: past PAR_MIN_ROWS, so predict_batch splits over trees
        // on a multi-core host while predict_batch_serial never does.
        let (x, y) = training_data(90);
        let mut gb = GradientBoosting::new(25, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let batch = flat.predict_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), b);
        }
        assert_eq!(flat.predict_batch_serial(&x), batch);
    }

    #[test]
    fn predict_batch_into_reuses_buffer() {
        let (x, y) = training_data(80);
        let mut gb = GradientBoosting::new(10, 3, 0.2);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let mut out = Vec::new();
        flat.predict_batch_into(&x, &mut out);
        let first = out.clone();
        let cap = out.capacity();
        flat.predict_batch_into(&x, &mut out);
        assert_eq!(out, first);
        assert_eq!(out.capacity(), cap, "warm call must not reallocate the out buffer");
    }

    #[test]
    fn large_batch_takes_parallel_path() {
        // More rows than PAR_MIN_ROWS so score_batch goes parallel; the
        // result must be identical to the serial per-row quantized path
        // and within tolerance of the recursive model.
        let (x, y) = training_data(PAR_MIN_ROWS * 4);
        let mut rf = RandomForest::new(8, 6);
        rf.fit(&x, &y).unwrap();
        let flat = FlatForest::compile(&rf);
        let batch = flat.predict_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), b);
        }
        assert_close(&batch, &rf.predict(&x));
        assert_eq!(flat.predict_batch_exact(&x), rf.predict(&x));
    }

    #[test]
    fn quantized_thresholds_round_toward_neg_inf() {
        for t in [0.1, -0.1, 1.0 / 3.0, 1e300, -1e300, 5.0, f64::INFINITY] {
            let q = quantize_threshold(t);
            assert!(q as f64 <= t, "quantized threshold {q} above exact {t}");
            if q.is_finite() {
                assert!(
                    q.next_up() as f64 > t,
                    "quantized threshold {q} not the largest f32 ≤ {t}"
                );
            }
        }
    }

    #[test]
    fn flat_models_are_not_trainable() {
        let (x, y) = training_data(40);
        let mut gb = GradientBoosting::new(5, 2, 0.5);
        gb.fit(&x, &y).unwrap();
        let mut flat = FlatGbt::compile(&gb);
        assert!(matches!(flat.fit(&x, &y), Err(FitError::NotTrainable(_))));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn compile_unfitted_forest_panics() {
        let _ = FlatForest::compile(&RandomForest::new(5, 3));
    }

    #[test]
    #[should_panic(expected = "feature-count mismatch")]
    fn gbt_batch_rejects_wrong_width() {
        let (x, y) = training_data(40);
        let mut gb = GradientBoosting::new(5, 2, 0.5);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let _ = flat.predict_batch(&Matrix::zeros(2, 2));
    }

    #[test]
    fn regressor_impl_routes_through_flat_path() {
        let (x, y) = training_data(60);
        let mut gb = GradientBoosting::new(10, 3, 0.3);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let as_regressor: &dyn Regressor = &flat;
        assert_eq!(as_regressor.predict(&x), flat.predict_batch(&x));
        assert_close(&as_regressor.predict(&x), &gb.predict(&x));
        assert_eq!(as_regressor.name(), "FlatGB");
    }
}
