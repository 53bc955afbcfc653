//! Flat tree-ensemble inference — the serving hot path.
//!
//! Fitted [`DecisionTree`](crate::tree::DecisionTree)s store `enum` nodes
//! in per-tree arenas; walking them means matching an enum and chasing
//! per-tree allocations for every row × tree. That is fine for
//! training-time evaluation but wasteful on the advisor's query path,
//! where one `/v1/advise` request sweeps hundreds of candidate
//! configurations through an ensemble of hundreds of trees.
//!
//! [`FlatGbt`] is the one in-memory form of a served model. Per node it
//! holds:
//!
//! * the **hot** quantized layout: one 8-byte node, trees concatenated
//!   in preorder and addressed by root offset. A split holds its `f32`
//!   threshold and one link word: its right child's offset above the
//!   low bits that name its feature. Its left child is the next node,
//!   so it needs no link. A leaf holds its `f32` value where a split
//!   holds its threshold, and a zero link. Every prediction walks only
//!   this. Rows are converted to `f32` once per batch. A walk moves by
//!   the right offset when the row falls right and by `min(offset, 1)`
//!   when it falls left, so a leaf, offset 0, stays put either way and
//!   the 8-lane interleaved stepper needs no leaf test at all: it runs a
//!   fixed, per-tree-depth count of uniform load→compare→step moves
//!   (bounds checks hoisted to build-time validation), giving the core
//!   eight independent dependent-load chains to overlap while a deep
//!   ensemble streams through cache. Its lanes are eight rows of one
//!   tree, or, for a single row and the rows a batch has past its last
//!   whole eight, eight trees of one row;
//! * one **cold** `f64`: a split's exact threshold or a leaf's exact
//!   value. No prediction reads it. It makes the image lossless:
//!   [`FlatGbt::to_gb`] rebuilds the source [`GradientBoosting`] exactly,
//!   and `crate::persist` re-encodes the image byte for byte.
//!
//! That is 16 bytes per node in all. One builder fills the image, from a
//! fitted model ([`FlatGbt::compile`]) or straight from a model file
//! (`crate::persist`), one tree at a time. It checks each tree as it
//! pushes it — split features below the feature count, child links
//! forward, inside the tree and claimed by one split only, each left
//! child the next node and each right offset small enough for the link
//! word — and records the tree's depth on the way.
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
//! A sweep whose walk can visit [`GRID_PAR_MIN_VISITS`] nodes or more
//! (see [`FlatGbt::grid_visits`]) splits its trees over the cores: the
//! calling thread walks the first run straight into the grid, one scoped
//! helper per further core paints each of its trees' leaf values into a
//! per-tree `f32` plane of one process-wide buffer, and after the join
//! the caller adds the planes in tree order. Smaller sweeps, and every
//! [`Regressor::predict_grid_serial`] call, walk serially; the bits are
//! the same either way.
//!
//! Evaluation is **tree-major** everywhere (trees outer, rows inner): a
//! deep ensemble's node arrays are far larger than cache, so walking one
//! tree across all rows before moving to the next keeps its hot nodes
//! resident instead of re-streaming the whole ensemble per row. Only a
//! batch's last `n % 8` rows, too few to fill the row lanes, stream it
//! once each, eight trees at a time. Large batches and large grid sweeps
//! additionally parallelise over *trees*, the calling thread taking the
//! first run: each share fills leaf values for its run of trees,
//! streamed once in total, and a serial pass reduces each row's (or
//! cell's) leaves in tree order, so results are independent of worker
//! count.

use crate::gradient_boosting::GradientBoosting;
use crate::persist::DecodeError;
use crate::traits::{check_grid_columns, FitError, Regressor};
use crate::tree::FlatNode;
use chemcost_linalg::{parallel, Matrix};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, TryLockError};

/// Sentinel feature index marking a leaf (same encoding as [`FlatNode`]).
const LEAF: u32 = u32::MAX;

/// Cursors the interleaved stepper walks in lock-step: rows of one
/// tree ([`QNodes::for_each_leaf`]) or trees of one row
/// ([`QNodes::for_each_tree_leaf`]).
const LANES: usize = 8;

/// Below this many rows a batch is predicted serially: spawning scoped
/// threads costs more than walking a few hundred trees for a handful of
/// rows.
const PAR_MIN_ROWS: usize = 64;

/// Rows per block in the parallel batch path; bounds the transient
/// per-tree leaf buffer (`n_trees × ROW_BLOCK × 4` bytes).
const ROW_BLOCK: usize = 1024;

/// Below this bound on the nodes a grid sweep visits (see
/// [`FlatGbt::grid_visits`]) it walks serially: the helper's spawn and
/// the merge of its planes cost more than the trees it takes off the
/// caller. A 100- or 150-tree depth-6 model (at most 17,250 nodes) never
/// reaches it; the 750-tree depth-10 paper-config model passes it on
/// every grid of a whole tile axis.
pub const GRID_PAR_MIN_VISITS: usize = 96 * 1024;

/// The helpers' per-tree leaf planes of a split grid sweep: one buffer
/// for the process, not one per worker thread, so it is resident once
/// (about 0.7 MB for half the paper-config model over a full advise
/// grid). A sweep that finds it taken walks serially.
static PLANES: Mutex<Vec<f32>> = Mutex::new(Vec::new());

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

/// One quantized tree node: 8 bytes, so eight fit a cache line.
///
/// A split's left child is the next node. Its `link` holds its right
/// child's offset from itself, shifted above the [`QNodes::fbits`] low
/// bits that hold its feature; the offset is at least 2, so a split's
/// link is never 0. A leaf's `link` is 0: offset 0, feature 0.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct QNode {
    /// A split's threshold, quantized (see [`quantize_threshold`]), or a
    /// leaf's value rounded to the nearest `f32`.
    tv: f32,
    /// `right offset << fbits | feature` for a split, 0 for a leaf.
    link: u32,
}

impl QNode {
    /// The node's feature, the low `fbits` bits of its link (0 for a
    /// leaf).
    #[inline(always)]
    fn feature(self, fbits: u32) -> usize {
        (self.link & ((1 << fbits) - 1)) as usize
    }

    /// The right child's offset from this node, the link's high bits (0
    /// for a leaf).
    #[inline(always)]
    fn offset(self, fbits: u32) -> usize {
        (self.link >> fbits) as usize
    }

    /// How far a walk moves from this node on feature value `x`: the
    /// right child's offset if `x` falls right (NaN does), else
    /// `min(offset, 1)`, the next node for a split. A leaf's offset is 0,
    /// so it stays put either way.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn step(self, x: f32, fbits: u32) -> usize {
        let off = self.offset(fbits);
        if !(x <= self.tv) {
            off
        } else {
            off.min(1)
        }
    }
}

/// The quantized ensemble: one array of 8-byte nodes, trees in preorder.
///
/// A leaf is an *ordinary* node that moves by 0 whichever way its
/// comparison falls, so the traversal loop needs no leaf test at all:
/// it steps every lane at least [`QNodes::depth`] times (at least the
/// tree's longest root-to-leaf path) and lands on a leaf by
/// construction, with finished lanes staying put harmlessly. The leaf's
/// value is in the node it lands on, so no second array is read.
#[derive(Debug, Clone)]
struct QNodes {
    nodes: Vec<QNode>,
    roots: Vec<u32>,
    /// Per tree: the number of split steps on its longest root-to-leaf
    /// path (more only if the tree holds a node no split names). Walking
    /// exactly this many uniform steps from the root is guaranteed to
    /// finish on (or stay at) a leaf.
    depth: Vec<u32>,
    /// Low bits of a split's link that hold its feature: as many as
    /// `n_features − 1` needs, at most 31.
    fbits: u32,
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

/// Marks a node of the tree being pushed that no split has claimed as a
/// child (yet).
const UNCLAIMED: u32 = u32::MAX;

/// Fills a [`FlatGbt`] one tree at a time: [`FlatGbt::compile`] feeds it
/// a fitted model's trees, `crate::persist` a model file's trees as it
/// reads them.
pub(crate) struct Builder {
    q: QNodes,
    exact: Vec<f64>,
    n_features: usize,
    /// Per node of the tree being pushed: its depth once a split has
    /// claimed it, else [`UNCLAIMED`]. Reused across trees.
    depth_of: Vec<u32>,
}

impl Builder {
    /// A builder for an ensemble over `n_features` features, with room
    /// for `trees` trees of `nodes` nodes in all.
    ///
    /// # Panics
    /// Panics unless `1 ≤ n_features ≤ 2³¹` (the decoder admits at most
    /// 10⁶; a fitted model's count is a matrix width).
    pub(crate) fn new(n_features: usize, trees: usize, nodes: usize) -> Builder {
        assert!((1..=1 << 31).contains(&n_features), "feature count {n_features}");
        let fbits = u32::BITS - ((n_features - 1) as u32).leading_zeros();
        Builder {
            q: QNodes {
                nodes: Vec::with_capacity(nodes),
                roots: Vec::with_capacity(trees),
                depth: Vec::with_capacity(trees),
                fbits,
            },
            exact: Vec::with_capacity(nodes),
            n_features,
            depth_of: Vec::new(),
        }
    }

    /// Append one tree, given in preorder with tree-local child links.
    ///
    /// Thresholds round toward −∞ (see [`quantize_threshold`]) and leaf
    /// values to the nearest `f32`. A leaf's link is 0, so the traversal
    /// loops never tell it apart from a split (see [`QNode::step`]).
    ///
    /// Every split must name a feature below the feature count, and two
    /// children that lie ahead of it inside the tree and that no other
    /// split names: the left one the next node, the right one close
    /// enough for its offset to fit the link word's `32 − fbits` high
    /// bits. So every walk ends at a leaf of its own tree in at most the
    /// recorded depth of steps, and a node's depth is known before the
    /// node is pushed. These checks back the unchecked loads in
    /// [`QNodes::for_each_leaf`]. A node no split names starts a walk of
    /// its own at depth 0, which can only raise the recorded depth.
    pub(crate) fn push_tree(&mut self, tree: &[FlatNode]) -> Result<(), DecodeError> {
        let n = tree.len();
        if n == 0 {
            return Err(DecodeError::Corrupt("empty tree".into()));
        }
        let start = self.q.nodes.len();
        if start + n > u32::MAX as usize {
            return Err(DecodeError::Corrupt("more nodes than 32-bit links address".into()));
        }
        let base = start as u32;
        // The largest right offset a link holds above the feature bits.
        let max_offset = u32::MAX >> self.q.fbits;
        self.depth_of.clear();
        self.depth_of.resize(n, UNCLAIMED);
        let mut depth = 0;
        for (i, node) in tree.iter().enumerate() {
            let d = match self.depth_of[i] {
                UNCLAIMED => 0,
                d => d,
            };
            depth = depth.max(d);
            if node.feature == LEAF {
                self.q.nodes.push(QNode { tv: node.value as f32, link: 0 });
                self.exact.push(node.value);
                continue;
            }
            if node.feature as usize >= self.n_features {
                return Err(DecodeError::Corrupt(format!(
                    "split feature {} >= feature count {}",
                    node.feature, self.n_features
                )));
            }
            let (left, right) = (node.left as usize, node.right as usize);
            if left >= n || right >= n {
                return Err(DecodeError::Corrupt("child index out of range".into()));
            }
            for child in [left, right] {
                if child <= i {
                    return Err(DecodeError::Corrupt(format!(
                        "node {i} links back to node {child}"
                    )));
                }
                if self.depth_of[child] != UNCLAIMED {
                    return Err(DecodeError::Corrupt(format!(
                        "node {child} is the child of two splits"
                    )));
                }
                self.depth_of[child] = d + 1;
            }
            if left != i + 1 {
                return Err(DecodeError::Corrupt(format!(
                    "node {i}'s left child {left} is not the next node"
                )));
            }
            // A right child lies ahead of the left one, so `offset ≥ 2`.
            let offset = (right - i) as u32;
            if offset > max_offset {
                return Err(DecodeError::Corrupt(format!(
                    "node {i}'s right child is {offset} nodes ahead, past the {max_offset} a link holds"
                )));
            }
            self.q.nodes.push(QNode {
                tv: quantize_threshold(node.threshold),
                link: offset << self.q.fbits | node.feature,
            });
            self.exact.push(node.threshold);
        }
        self.q.roots.push(base);
        self.q.depth.push(depth);
        Ok(())
    }

    /// The finished image.
    pub(crate) fn finish(self, init: f64, learning_rate: f64) -> FlatGbt {
        let Builder { q, exact, n_features, .. } = self;
        FlatGbt { q, exact, init, learning_rate, n_features }
    }
}

impl QNodes {
    /// Walk tree `t` for one `f32` row; returns the leaf's value. Runs
    /// exactly the tree's depth of uniform steps — a leaf moves by 0, so
    /// landing early just stays put (see [`QNodes`]).
    #[inline]
    fn leaf_value(&self, t: usize, row: &[f32]) -> f32 {
        let fbits = self.fbits;
        let mut i = self.roots[t] as usize;
        for _ in 0..self.depth[t] {
            let n = self.nodes[i];
            i += n.step(row[n.feature(fbits)], fbits);
        }
        self.nodes[i].tv
    }

    /// Accumulate `init + Σ weight · tree(row)` in tree order, in `f64`.
    #[inline]
    fn score_row(&self, row: &[f32], init: f64, weight: f64) -> f64 {
        let mut acc = init;
        self.for_each_tree_leaf(0..self.roots.len(), row, |_, leaf| acc += weight * leaf as f64);
        acc
    }

    /// Move the [`LANES`] cursors `idx` `depth` uniform steps in
    /// lock-step, lane `j` reading feature `f` of its row at `x(j, f)`.
    /// Tree traversal is a chain of dependent loads; independent lanes
    /// give the core that many chains to overlap. The step is branchless
    /// — a leaf is an ordinary node that moves by 0 (see [`QNodes`]) — so
    /// there is no leaf test, and a lane that reaches its leaf early
    /// stays put until the others finish.
    ///
    /// # Safety
    ///
    /// Every cursor must start on a tree's root, and `depth` must be at
    /// least that tree's depth. Then the unchecked node loads stay in
    /// bounds: a cursor only ever moves forward by `min(off, 1)` or
    /// `off`, the node's right offset (0 at a leaf), and
    /// [`Builder::push_tree`] range-checks both as it pushes a split —
    /// its left child is the next node and its right child lies inside
    /// its tree. `x` is called with the features of the nodes the lanes
    /// visit: the builder keeps every split's feature below the
    /// ensemble's feature count, and a leaf's link reads as feature 0.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // j indexes lock-step lane arrays
    unsafe fn step_lanes(
        &self,
        idx: &mut [usize; LANES],
        depth: u32,
        x: impl Fn(usize, usize) -> f32,
    ) {
        let fbits = self.fbits;
        for _ in 0..depth {
            // One fused load→compare→step move per lane, fully unrolled
            // (LANES is const): each lane's chain lives in registers.
            for j in 0..LANES {
                // SAFETY: the cursor condition under `# Safety`.
                let n = unsafe { *self.nodes.get_unchecked(idx[j]) };
                idx[j] += n.step(x(j, n.feature(fbits)), fbits);
            }
        }
    }

    /// Call `sink(k, leaf)` with tree `t`'s leaf value for each row
    /// `start + k`, `k < n`, of the `f32` row-major buffer, walking
    /// [`LANES`] rows at a time through the tree. `n` must be a multiple
    /// of `LANES`; a batch's last `n % LANES` rows take
    /// [`Self::for_each_tree_leaf`] instead.
    ///
    /// The public entry points assert `ncols` equals the feature count,
    /// so every gather stays inside its row: `base[j] + f <
    /// (start + n) · ncols ≤ rows.len()`, as the debug assertion
    /// re-states.
    #[inline]
    fn for_each_leaf<F: FnMut(usize, f32)>(
        &self,
        t: usize,
        rows: &[f32],
        ncols: usize,
        start: usize,
        n: usize,
        mut sink: F,
    ) {
        debug_assert!(n.is_multiple_of(LANES) && rows.len() >= (start + n) * ncols);
        let (root, depth) = (self.roots[t] as usize, self.depth[t]);
        for k in (0..n).step_by(LANES) {
            let base: [usize; LANES] = std::array::from_fn(|j| (start + k + j) * ncols);
            let mut idx = [root; LANES];
            // SAFETY: every lane starts on tree `t`'s root and runs its
            // depth; lane `j` gathers feature `f < ncols` of its own row,
            // inside `rows` by the bound above.
            unsafe { self.step_lanes(&mut idx, depth, |j, f| *rows.get_unchecked(base[j] + f)) };
            for (j, &i) in idx.iter().enumerate() {
                sink(k + j, self.nodes[i].tv);
            }
        }
    }

    /// Call `sink(t, leaf)` with tree `t`'s leaf value for `row`, for
    /// each tree `t` in `trees` in ascending order, walking [`LANES`]
    /// trees at a time: one row alone is one dependent-load chain per
    /// tree, so this gives it the stepper's independent chains. Trees
    /// past the last whole run of `LANES` walk one at a time. `row` must
    /// hold at least the ensemble's feature count of values; the public
    /// entry points assert it holds exactly that.
    #[inline]
    fn for_each_tree_leaf<F: FnMut(usize, f32)>(
        &self,
        trees: Range<usize>,
        row: &[f32],
        mut sink: F,
    ) {
        let mut t0 = trees.start;
        while t0 + LANES <= trees.end {
            let mut idx: [usize; LANES] = std::array::from_fn(|j| self.roots[t0 + j] as usize);
            let depth = self.depth[t0..t0 + LANES].iter().copied().max().unwrap_or(0);
            // SAFETY: lane `j` starts on tree `t0 + j`'s root and runs the
            // deepest depth of the run; `row` holds every feature.
            unsafe { self.step_lanes(&mut idx, depth, |_, f| *row.get_unchecked(f)) };
            for (j, &i) in idx.iter().enumerate() {
                sink(t0 + j, self.nodes[i].tv);
            }
            t0 += LANES;
        }
        for t in t0..trees.end {
            sink(t, self.leaf_value(t, row));
        }
    }

    /// Score rows `offset..offset + out.len()` of the `f32` row-major
    /// buffer into `out`, **tree-major**: the outer loop walks trees, the
    /// inner loop rows, so one tree's nodes stay hot in cache across the
    /// whole chunk. The rows past the last whole run of [`LANES`] then
    /// take [`Self::score_row`]. Each row accumulates
    /// `init + Σ weight·tree(row)` in tree order in `f64` — the identical
    /// floating-point sequence either way.
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
        let whole = n - n % LANES;
        for t in 0..self.roots.len() {
            self.for_each_leaf(t, rows, ncols, offset, whole, |k, leaf| {
                out[k] += weight * leaf as f64
            });
        }
        for (k, o) in out.iter_mut().enumerate().skip(whole) {
            let row = &rows[(offset + k) * ncols..(offset + k + 1) * ncols];
            *o = self.score_row(row, init, weight);
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
                let whole = rows - rows % LANES;
                parallel::par_chunks_mut(leaves, rows, |offset, chunk| {
                    let t0 = offset / rows;
                    for (b, tree_leaves) in chunk.chunks_mut(rows).enumerate() {
                        self.for_each_leaf(t0 + b, xrows, ncols, start, whole, |k, leaf| {
                            tree_leaves[k] = leaf
                        });
                    }
                    for k in whole..rows {
                        let row = &xrows[(start + k) * ncols..(start + k + 1) * ncols];
                        let trees = t0..t0 + chunk.len() / rows;
                        self.for_each_tree_leaf(trees, row, |t, leaf| {
                            chunk[(t - t0) * rows + k] = leaf
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

    /// Call `leaf(t, rect, value)` for every leaf rectangle of each tree
    /// `t` in `trees`, in ascending order, walking the tree **once** over
    /// rectangles `[o_lo, o_hi, i_lo, i_hi]` of index ranges into the
    /// grid's sorted axes instead of once per cell: a split on any other
    /// column sends the whole rectangle down the branch `base` takes, and
    /// a split on an axis column cuts the rectangle at that axis's
    /// partition point. The rectangles of one tree tile the grid, and
    /// each cell's leaf is the one the stepper's own comparison reaches.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fall right
    fn walk_grid<F: FnMut(usize, [usize; 4], f32)>(
        &self,
        trees: Range<usize>,
        grid: &Grid,
        mut leaf: F,
    ) {
        let fbits = self.fbits;
        let (col_o, col_i) = (grid.outer.0, grid.inner.0);
        let (no, ni) = (grid.outer.1.values.len(), grid.inner.1.values.len());
        // Pending rectangles: (node, [o_lo, o_hi, i_lo, i_hi]), never empty.
        let mut stack: Vec<(usize, [usize; 4])> = Vec::new();
        for t in trees {
            stack.push((self.roots[t] as usize, [0, no, 0, ni]));
            while let Some((mut i, mut rect)) = stack.pop() {
                loop {
                    let n = self.nodes[i];
                    // A leaf is the node of right offset 0 (see `QNode`).
                    let off = n.offset(fbits);
                    if off == 0 {
                        leaf(t, rect, n.tv);
                        break;
                    }
                    let (left, right) = (i + 1, i + off);
                    let f = n.feature(fbits);
                    let (axis, lo) = match f {
                        _ if f == col_o => (&grid.outer.1, 0),
                        _ if f == col_i => (&grid.inner.1, 2),
                        _ => {
                            i = if !(grid.base[f] <= n.tv) { right } else { left };
                            continue;
                        }
                    };
                    let cut = axis.split(rect[lo], rect[lo + 1], n.tv);
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
    }

    /// Score `grid` outer-major in sorted order: every cell sums
    /// `init + Σ weight·leaf` in tree order, in `f64`, with the stepper's
    /// own comparison — bit-identical to [`Self::score_chunk`] on the
    /// grid written out as rows.
    ///
    /// With `shares > 1` (see [`grid_shares`]) the trees split into that
    /// many runs. The caller walks the first run straight into the
    /// output, as the serial walk does; one scoped helper per further run
    /// walks it and paints each tree's leaf values into a per-tree `f32`
    /// plane of [`PLANES`]. After the join the caller adds the planes in
    /// tree order, so the split changes no bit.
    fn score_grid(&self, grid: &Grid, init: f64, weight: f64, shares: usize) -> Vec<f64> {
        let ni = grid.inner.1.values.len();
        let cells = grid.outer.1.values.len() * ni;
        let trees = self.roots.len();
        let mut out = vec![init; cells];
        let fill =
            |out: &mut [f64], rect, leaf: f32| fill_rect(out, ni, rect, weight * leaf as f64);
        let planes = match (shares > 1).then(|| PLANES.try_lock()) {
            Some(Ok(planes)) => Some(planes),
            // A helper that panicked left no state a later sweep reads:
            // every plane is painted in full before it is merged.
            Some(Err(TryLockError::Poisoned(p))) => Some(p.into_inner()),
            Some(Err(TryLockError::WouldBlock)) | None => None,
        };
        let Some(mut planes) = planes else {
            self.walk_grid(0..trees, grid, |_, rect, leaf| fill(&mut out, rect, leaf));
            return out;
        };
        let run = trees.div_ceil(shares);
        let helped = (trees - run) * cells;
        if planes.len() < helped {
            planes.resize(helped, 0.0);
        }
        let planes = &mut planes[..helped];
        std::thread::scope(|s| {
            for (k, share) in planes.chunks_mut(run * cells).enumerate() {
                let t0 = run * (k + 1);
                let t1 = t0 + share.len() / cells;
                s.spawn(move || {
                    self.walk_grid(t0..t1, grid, |t, rect, leaf| {
                        paint_rect(&mut share[(t - t0) * cells..][..cells], ni, rect, leaf)
                    })
                });
            }
            self.walk_grid(0..run, grid, |_, rect, leaf| fill(&mut out, rect, leaf));
        });
        for plane in planes.chunks_exact(cells) {
            for (o, &leaf) in out.iter_mut().zip(plane) {
                *o += weight * leaf as f64;
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

/// How many shares a grid sweep that visits at most `visits` nodes of
/// `trees` trees splits into on `threads` cores: one, a serial walk,
/// below [`GRID_PAR_MIN_VISITS`] or on one core; else one per core, at
/// most one per tree.
fn grid_shares(visits: usize, trees: usize, threads: usize) -> usize {
    if visits < GRID_PAR_MIN_VISITS {
        1
    } else {
        threads.min(trees).max(1)
    }
}

/// A [`FlatGbt::predict_grid`] grid: the fixed row, `f32`, and its two
/// axes, each with its column.
struct Grid {
    base: Vec<f32>,
    outer: (usize, GridAxis),
    inner: (usize, GridAxis),
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

/// Set every cell of the rectangle `[o_lo, o_hi) × [i_lo, i_hi)` of an
/// outer-major plane `ni` cells wide to `v`.
fn paint_rect(plane: &mut [f32], ni: usize, [o_lo, o_hi, i_lo, i_hi]: [usize; 4], v: f32) {
    for row in plane[o_lo * ni..o_hi * ni].chunks_exact_mut(ni) {
        row[i_lo..i_hi].fill(v);
    }
}

/// A fitted [`GradientBoosting`] ensemble as one flat image: the
/// quantized nodes every prediction walks, within the module-level
/// tolerance contract, plus the exact `f64` per node that
/// [`FlatGbt::to_gb`] rebuilds the source model from.
#[derive(Debug, Clone)]
pub struct FlatGbt {
    q: QNodes,
    /// Cold, per node: a split's exact threshold or a leaf's exact value.
    exact: Vec<f64>,
    pub(crate) init: f64,
    pub(crate) learning_rate: f64,
    n_features: usize,
}

impl FlatGbt {
    /// Compile a fitted gradient-boosting ensemble into the flat image.
    ///
    /// A fitted model whose residuals vanished before its first stage
    /// compiles to an image of no trees, which predicts its `init`.
    ///
    /// # Panics
    /// Panics before fit, or if a tree breaks the builder's structural
    /// checks (a model fitted here never does).
    pub fn compile(gb: &GradientBoosting) -> FlatGbt {
        let (init, learning_rate, n_features, trees) = gb.export();
        assert!(n_features > 0, "FlatGbt::compile before fit");
        let total = trees.iter().map(Vec::len).sum();
        let mut builder = Builder::new(n_features, trees.len(), total);
        for tree in &trees {
            if let Err(e) = builder.push_tree(tree) {
                panic!("FlatGbt::compile: {e}");
            }
        }
        builder.finish(init, learning_rate)
    }

    /// Rebuild the source model from the exact values: its recursive
    /// predictions are bit-identical to the model this image was built
    /// from, and `crate::persist` encodes it to the same bytes.
    pub fn to_gb(&self) -> GradientBoosting {
        let trees: Vec<Vec<FlatNode>> =
            (0..self.n_trees()).map(|t| self.tree(t).collect()).collect();
        GradientBoosting::from_export(self.init, self.learning_rate, self.n_features, &trees)
    }

    /// Tree `t` as tree-local [`FlatNode`]s, with the fields a node does
    /// not use zeroed, as `DecisionTree::export_nodes` writes them.
    pub(crate) fn tree(&self, t: usize) -> impl ExactSizeIterator<Item = FlatNode> + '_ {
        let start = self.q.roots[t];
        let end = self.q.roots.get(t + 1).map_or(self.q.nodes.len() as u32, |&r| r);
        let fbits = self.q.fbits;
        (start..end).map(move |i| {
            let (n, exact) = (self.q.nodes[i as usize], self.exact[i as usize]);
            // A leaf's link is 0; a split's left child is the next node.
            if n.link == 0 {
                FlatNode { feature: LEAF, threshold: 0.0, left: 0, right: 0, value: exact }
            } else {
                let (left, right) = (i + 1 - start, i + n.offset(fbits) as u32 - start);
                let feature = n.feature(fbits) as u32;
                FlatNode { feature, threshold: exact, left, right, value: 0.0 }
            }
        })
    }

    /// Number of boosting stages in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.q.roots.len()
    }

    /// Total nodes across all stages.
    pub fn n_nodes(&self) -> usize {
        self.q.nodes.len()
    }

    /// Number of features the source model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    fn check_width(&self, ncols: usize, what: &str) {
        assert_eq!(ncols, self.n_features, "FlatGbt::{what}: feature-count mismatch");
    }

    /// At most how many nodes [`Regressor::predict_grid`] visits over a
    /// grid of `cells` cells: each node at most once, and for each cell
    /// at most its path of a tree's depth of splits and a leaf. A deep
    /// ensemble's sweep costs its node visits, a shallow one's the cells
    /// its leaves fill, so the bound orders sweeps by cost better than
    /// the grid's size alone. `predict_grid` splits its trees over the
    /// cores of a multi-core host once this reaches
    /// [`GRID_PAR_MIN_VISITS`].
    pub fn grid_visits(&self, cells: usize) -> usize {
        let paths: usize = self.q.depth.iter().map(|&d| d as usize + 1).sum();
        self.n_nodes().min(paths.saturating_mul(cells))
    }

    /// Predict one row on the quantized path (allocation-free when warm).
    ///
    /// # Panics
    /// Panics on feature-count mismatch.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.check_width(row.len(), "predict_row");
        self.q.score_row_f64(row, self.init, self.learning_rate)
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
        self.q.score_batch_into(x, self.init, self.learning_rate, true, out);
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
        self.q.score_batch_into(x, self.init, self.learning_rate, false, &mut out);
        out
    }

    /// The grid walk behind both [`Regressor::predict_grid`] methods,
    /// split over trees when `split` allows it; returns the grid in the
    /// caller's axis order.
    fn predict_grid_with(
        &self,
        base: &[f64],
        (col_a, a): (usize, &[f64]),
        (col_b, b): (usize, &[f64]),
        split: bool,
    ) -> Vec<f64> {
        self.check_width(base.len(), "predict_grid");
        check_grid_columns(base.len(), col_a, col_b);
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let grid = Grid {
            base: base.iter().map(|&v| v as f32).collect(),
            outer: (col_a, GridAxis::new(a)),
            inner: (col_b, GridAxis::new(b)),
        };
        let (a, b) = (&grid.outer.1, &grid.inner.1);
        let threads = if split { parallel::default_threads() } else { 1 };
        let visits = self.grid_visits(a.values.len() * b.values.len());
        let shares = grid_shares(visits, self.n_trees(), threads);
        let sorted = self.q.score_grid(&grid, self.init, self.learning_rate, shares);
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

    /// The quantized path's region walk (see the module docs), its
    /// trees split over the cores for a grid past the work floor:
    /// bit-identical to [`FlatGbt::predict_batch`] on the same grid
    /// written out as a matrix, for any axis values — unsorted,
    /// duplicated, NaN or infinite.
    ///
    /// # Panics
    /// Panics on feature-count mismatch or a bad column pair.
    fn predict_grid(&self, base: &[f64], a: (usize, &[f64]), b: (usize, &[f64])) -> Vec<f64> {
        self.predict_grid_with(base, a, b, true)
    }

    /// [`predict_grid`](Regressor::predict_grid) on the calling thread
    /// alone, whatever the grid's size: for a caller whose siblings
    /// already keep every core busy. Bit-identical to `predict_grid`.
    ///
    /// # Panics
    /// Panics on feature-count mismatch or a bad column pair.
    fn predict_grid_serial(
        &self,
        base: &[f64],
        a: (usize, &[f64]),
        b: (usize, &[f64]),
    ) -> Vec<f64> {
        self.predict_grid_with(base, a, b, false)
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
    fn to_gb_rebuilds_the_source_model_exactly() {
        let (x, y) = training_data(120);
        let mut gb = GradientBoosting::new(40, 4, 0.1);
        gb.seed = 7;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        assert_eq!(flat.to_gb().predict(&x), gb.predict(&x));
        assert_eq!(flat.to_gb().export(), gb.export());
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
    fn every_batch_size_sums_each_tree_in_order() {
        // 21 comb trees of depths 0..=6 over 3 features, each split's
        // left child a leaf: two whole lock-step groups of trees of mixed
        // depths and a partial one. Batches of 1..=19 rows mix whole runs
        // of LANES rows with leftover rows, and a batch past PAR_MIN_ROWS
        // splits over trees on a multi-core host; each row must equal its
        // trees walked one at a time and summed in order.
        let leaf =
            |value: f64| FlatNode { feature: LEAF, threshold: 0.0, left: 0, right: 0, value };
        let trees: Vec<Vec<FlatNode>> = (0..21u32)
            .map(|t| {
                let mut nodes = Vec::new();
                for m in 0..(t * 5) % 7 {
                    let (i, threshold) = (2 * m, f64::from((7 * t + 3 * m) % 19) * 1.1);
                    let feature = (t + m) % 3;
                    nodes.push(FlatNode {
                        feature,
                        threshold,
                        left: i + 1,
                        right: i + 2,
                        value: 0.0,
                    });
                    nodes.push(leaf(f64::from(t * 10 + m)));
                }
                nodes.push(leaf(f64::from(t) - 3.5));
                nodes
            })
            .collect();
        let flat = FlatGbt::compile(&GradientBoosting::from_export(0.5, 0.1, 3, &trees));
        let (x, _) = training_data(PAR_MIN_ROWS + 5);
        let one_tree_at_a_time = |i: usize| {
            let row: Vec<f32> = x.row(i).iter().map(|&v| v as f32).collect();
            (0..flat.n_trees()).fold(flat.init, |acc, t| {
                acc + flat.learning_rate * flat.q.leaf_value(t, &row) as f64
            })
        };
        let want: Vec<f64> = (0..x.nrows()).map(one_tree_at_a_time).collect();
        for n in 1..=19 {
            let rows = Matrix::from_fn(n, x.ncols(), |i, j| x[(i, j)]);
            assert_eq!(flat.predict_batch_serial(&rows), want[..n], "{n} rows");
        }
        assert_eq!(flat.predict_batch(&x), want);
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), w, "row {i}");
        }
        assert_close(&want, &flat.to_gb().predict(&x));
    }

    #[test]
    fn a_grid_splits_only_past_the_work_floor() {
        // Below the floor a sweep walks serially; at it, one share per
        // core, never more shares than trees, and no helper on one core.
        assert_eq!(grid_shares(GRID_PAR_MIN_VISITS - 1, 750, 2), 1);
        assert_eq!(grid_shares(GRID_PAR_MIN_VISITS, 750, 2), 2);
        assert_eq!(grid_shares(GRID_PAR_MIN_VISITS, 750, 4), 4);
        assert_eq!(grid_shares(GRID_PAR_MIN_VISITS, 3, 8), 3);
        assert_eq!(grid_shares(usize::MAX, 750, 1), 1);

        // The visit bound: each node once, and a path of depth + 1 nodes
        // per cell. 40 full depth-3 trees (15 nodes each, 600 in all)
        // over 3 cells visit at most 40 × 4 × 3 = 480 nodes, over 9 cells
        // all 600.
        fn full(nodes: &mut Vec<FlatNode>, depth: u32) {
            let i = nodes.len() as u32;
            if depth == 0 {
                nodes.push(FlatNode {
                    feature: LEAF,
                    threshold: 0.0,
                    left: 0,
                    right: 0,
                    value: 1.0,
                });
                return;
            }
            nodes.push(FlatNode {
                feature: depth % 3,
                threshold: 2.0,
                left: i + 1,
                right: 0,
                value: 0.0,
            });
            full(nodes, depth - 1);
            nodes[i as usize].right = nodes.len() as u32;
            full(nodes, depth - 1);
        }
        let mut tree = Vec::new();
        full(&mut tree, 3);
        let flat = FlatGbt::compile(&GradientBoosting::from_export(0.0, 0.1, 3, &vec![tree; 40]));
        assert_eq!(flat.n_nodes(), 600);
        assert_eq!(flat.grid_visits(3), 480);
        assert_eq!(flat.grid_visits(9), 600);
        assert_eq!(flat.grid_visits(usize::MAX), 600);

        // A 100-tree depth-6 model has at most 100 × 127 nodes, so even a
        // full advise grid (31 node counts × 15 tiles) walks serially.
        const { assert!(100 * 127 < GRID_PAR_MIN_VISITS) };
        // The paper-config model (750 trees 10 deep, ~650 k nodes) splits
        // even a grid of one node count: its bound is 750 × 11 × 15.
        const { assert!(750 * 11 * 15 >= GRID_PAR_MIN_VISITS) };
    }

    #[test]
    fn a_split_grid_walk_merges_the_planes_in_tree_order() {
        // 23 trees in every share count up to more than any test host
        // has cores, with runs of unequal length, over unsorted axes
        // with repeats: each gives the serial walk's bits, which are the
        // stepper's on the grid written out as rows.
        let (x, y) = training_data(120);
        let mut gb = GradientBoosting::new(23, 4, 0.3);
        gb.seed = 5;
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let axis = |n: usize| (0..n).map(|k| ((k * 7) % 20) as f64).collect::<Vec<f64>>();
        let (a, b, base) = (axis(9), axis(13), [5.0, 0.0, 0.0]);
        let grid = Grid {
            base: base.iter().map(|&v| v as f32).collect(),
            outer: (1, GridAxis::new(&a)),
            inner: (2, GridAxis::new(&b)),
        };
        let serial = flat.q.score_grid(&grid, flat.init, flat.learning_rate, 1);
        for shares in 2..=9 {
            let split = flat.q.score_grid(&grid, flat.init, flat.learning_rate, shares);
            assert_eq!(split, serial, "{shares} shares");
        }
        let rows = Matrix::from_fn(a.len() * b.len(), 3, |r, c| match c {
            1 => a[r / b.len()],
            2 => b[r % b.len()],
            _ => base[c],
        });
        let stepper = flat.predict_batch_serial(&rows);
        assert_eq!(flat.predict_grid(&base, (1, &a), (2, &b)), stepper);
        assert_eq!(flat.predict_grid_serial(&base, (1, &a), (2, &b)), stepper);
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
        let mut gb = GradientBoosting::new(8, 6, 0.3);
        gb.fit(&x, &y).unwrap();
        let flat = FlatGbt::compile(&gb);
        let batch = flat.predict_batch(&x);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(flat.predict_row(x.row(i)), b);
        }
        assert_close(&batch, &gb.predict(&x));
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
    fn compile_unfitted_model_panics() {
        let _ = FlatGbt::compile(&GradientBoosting::new(5, 3, 0.1));
    }

    /// An in-memory model gets the same structural checks as a file: a
    /// child link back to the root would make every walk cycle.
    #[test]
    #[should_panic(expected = "links back")]
    fn compile_rejects_a_backward_link() {
        let split = FlatNode { feature: 0, threshold: 1.0, left: 1, right: 0, value: 0.0 };
        let leaf = FlatNode { feature: LEAF, threshold: 0.0, left: 0, right: 0, value: 2.0 };
        let _ = FlatGbt::compile(&GradientBoosting::from_export(0.0, 0.1, 1, &[vec![split, leaf]]));
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
