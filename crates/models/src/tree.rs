//! Depth-limited regression trees with second-order (Newton) split gains.
//!
//! One tree type serves three consumers:
//!
//! * [`crate::gbdt`] fits trees to per-example gradients/hessians of the
//!   logistic loss (XGBoost-style Newton boosting),
//! * [`crate::forest`] fits trees to raw targets (gradient `-y`, hessian 1
//!   makes the Newton leaf value the plain mean and the gain the classical
//!   variance reduction),
//! * the validator's gradient-boosted classifier in `lvp-core`.
//!
//! Two split finders are available (see [`SplitMethod`]):
//!
//! * **Exact** re-sorts every feature column at every node and scans all
//!   boundaries between adjacent distinct values — the oracle.
//! * **Histogram** pre-bins every column once per training run into at most
//!   [`MAX_HISTOGRAM_BINS`] quantile-spaced bins ([`BinnedColumns`]),
//!   accumulates per-node (grad, hess, count) histograms in a single pass
//!   over the node's rows, and scans bin boundaries. Large nodes fill one
//!   flat histogram over every feature; after a split, only the smaller
//!   child's is accumulated from rows and the sibling's is derived by
//!   subtracting it from the parent's (the subtract trick). Every other
//!   node fills one sampled feature at a time into a reused, all-zero
//!   histogram and scans only the bins its rows touched, clearing each as
//!   it reads it.
//!
//! Both grow the tree with one recursion; they differ only in how a node's
//! best split is found and in the predicate that partitions its rows (raw
//! value against the threshold, or bin index against the boundary bin).
//!
//! Missing values (NaN) follow one deterministic rule everywhere: they sort
//! after every finite value during split finding, and they route **right**
//! both when partitioning training rows and at prediction time (`v <=
//! threshold` is false for NaN). The histogram path reserves a dedicated
//! missing bin per feature for the same purpose and bins `+inf` there too;
//! the exact path ends its scan at `+inf` as it does at NaN. Every stored
//! threshold is finite, so prediction routes `+inf` right.
//!
//! # Inference
//!
//! A [`RegressionTree`] is held as flat per-node arrays: a `u32` split
//! feature, a threshold, two child indices and a leaf value. Both children
//! of a leaf point at the leaf itself, so one more step from a leaf stays
//! put. The layout is built once, when a tree is grown or deserialized;
//! artifacts keep storing the node list (`{"nodes": [{"Leaf": …},
//! {"Split": …}]}`) through a private serde proxy, byte for byte.
//!
//! Every ensemble predicts through one kernel, `walk_rows`. It densifies
//! a block of 64 rows, reading only the features the ensemble's nodes
//! name, each into its own scratch slot. Then each tree walks the
//! whole block level by level: on each pass every row moves down one level
//! with the branch-free step `n = child[2n + !(v <= t)]`, and after as many
//! passes as the tree is deep every row sits in its leaf. The rows of a
//! block are independent, so the CPU overlaps their loads instead of
//! mispredicting a branch at every node (the level-synchronous traversal of
//! Asadi, Lin & de Vries, *Runtime Optimizations for Tree-based Machine
//! Learning Models*, TKDE 2014). `v <= t` is false for NaN, so missing
//! values go right, as in training. The kernel hands its caller one
//! tree's leaves for the whole block in one slice, tree after tree, so a
//! caller accumulates with a plain slice loop and still adds each row's
//! leaves in tree order.

use crate::ModelError;
use lvp_linalg::{row_blocks, CsrMatrix, DenseMatrix};
use rand::seq::SliceRandom;
use rand::Rng;
use std::borrow::Borrow;

/// How split candidates are enumerated during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitMethod {
    /// Re-sort each feature column at every node and consider every
    /// boundary between adjacent distinct values. Slowest, but exhaustive;
    /// kept as the oracle the histogram path is tested against.
    Exact,
    /// Quantile-binned histogram split finding with the subtract trick.
    /// Thresholds are restricted to bin boundaries (at most
    /// [`MAX_HISTOGRAM_BINS`] per feature), trading a bounded loss of split
    /// resolution for node costs that no longer pay a per-node sort.
    #[default]
    Histogram,
}

/// Hard cap on histogram bins per feature: bin indices are stored as `u8`,
/// leaving up to 255 finite bins (254 interior cuts) plus one dedicated
/// missing-value bin.
pub const MAX_HISTOGRAM_BINS: usize = 256;

/// Column-major dense view of a feature matrix, built once per training run
/// so split finding can scan contiguous feature values.
#[derive(Debug, Clone)]
pub struct DenseColumns {
    n_rows: usize,
    cols: Vec<Vec<f64>>,
}

impl DenseColumns {
    /// Materializes all columns of a CSR matrix (implicit zeros included).
    #[allow(clippy::needless_range_loop)] // parallel row/col index bookkeeping
    pub fn from_csr(x: &CsrMatrix) -> Self {
        let mut cols = vec![vec![0.0; x.rows()]; x.cols()];
        for r in 0..x.rows() {
            let (idx, vals) = x.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                cols[c as usize][r] = v;
            }
        }
        Self {
            n_rows: x.rows(),
            cols,
        }
    }

    /// Column-major view of a dense matrix.
    pub fn from_dense(x: &DenseMatrix) -> Self {
        let cols = (0..x.cols()).map(|c| x.column(c)).collect();
        Self {
            n_rows: x.rows(),
            cols,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Value of feature `c` for row `r`.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> f64 {
        self.cols[c][r]
    }
}

/// One feature of a [`BinnedColumns`]: per-row bin indices plus the cut
/// thresholds that separate the bins.
///
/// The bin of a finite value `v` is `cuts.partition_point(|&c| c < v)`, so
/// bin `b < cuts.len()` holds values in `(cuts[b-1], cuts[b]]` and bin
/// `cuts.len()` holds everything above the last cut. Because cuts are
/// strictly increasing this gives the invariant the split finder relies on:
///
/// > `v <= cuts[b]`  ⇔  `bin(v) <= b`  for every finite `v`.
///
/// NaN and `+inf` rows land in the dedicated missing bin `cuts.len() + 1`,
/// which is never on the left of any boundary. Every threshold a binned
/// split stores is finite, so prediction routes both right as well.
#[derive(Debug, Clone)]
struct BinnedFeature {
    /// Per-row bin index (NaN and `+inf` map to `cuts.len() + 1`).
    bins: Vec<u8>,
    /// Strictly increasing finite cut thresholds.
    cuts: Vec<f64>,
}

impl BinnedFeature {
    /// Finite bins plus the missing bin.
    fn n_bins(&self) -> usize {
        self.cuts.len() + 2
    }
}

/// Quantile-binned view of a feature matrix, built once per training run
/// for histogram split finding (see [`SplitMethod::Histogram`]).
#[derive(Debug, Clone)]
pub struct BinnedColumns {
    feats: Vec<BinnedFeature>,
    /// Start offset of each feature's bin range in a flat histogram.
    offsets: Vec<usize>,
    /// Total bin slots across all features (flat histogram length).
    total_bins: usize,
}

impl BinnedColumns {
    /// Bins every column of `columns` into at most `max_bins` bins
    /// (clamped to `[3, MAX_HISTOGRAM_BINS]`; one bin is always reserved
    /// for missing values).
    ///
    /// Cut thresholds are midpoints between adjacent distinct values: all
    /// of them when a column has few distinct values (in which case the
    /// candidate set matches the exact finder's), evenly spaced quantiles
    /// of the sorted column otherwise.
    pub fn from_columns(columns: &DenseColumns, max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(3, MAX_HISTOGRAM_BINS);
        let max_cuts = max_bins - 2;
        let mut feats = Vec::with_capacity(columns.n_cols());
        let mut sorted: Vec<f64> = Vec::with_capacity(columns.n_rows());
        for col in &columns.cols {
            sorted.clear();
            sorted.extend(col.iter().copied().filter(|&v| v < f64::INFINITY));
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaNs filtered out"));
            let cuts = quantile_cuts(&sorted, max_cuts);
            let missing = (cuts.len() + 1) as u8;
            let bins = col
                .iter()
                .map(|&v| {
                    if v.is_nan() || v == f64::INFINITY {
                        missing
                    } else {
                        cuts.partition_point(|&c| c < v) as u8
                    }
                })
                .collect();
            feats.push(BinnedFeature { bins, cuts });
        }
        let mut offsets = Vec::with_capacity(feats.len());
        let mut total_bins = 0;
        for feat in &feats {
            offsets.push(total_bins);
            total_bins += feat.n_bins();
        }
        Self {
            feats,
            offsets,
            total_bins,
        }
    }

    /// Whether a node of `n_rows` rows splitting over `n_features` sampled
    /// features should use a flat histogram: once the accumulation work
    /// over its rows dwarfs the O(`total_bins`) zeroing and subtraction the
    /// flat path adds per node. `n_features` is constant across a tree's
    /// nodes, so the rule is monotone down the tree: a child never
    /// re-enters the flat path after its parent leaves it.
    fn flat_pays(&self, n_rows: usize, n_features: usize) -> bool {
        n_rows * n_features >= 2 * self.total_bins
    }
}

/// Picks strictly increasing cut thresholds for one sorted column free of
/// NaN and `+inf`. When the column has at most `max_cuts` distinct-value
/// boundaries, every boundary midpoint becomes a cut (histogram splits
/// then coincide with exact splits); otherwise cuts sit at evenly spaced
/// quantile positions.
fn quantile_cuts(sorted: &[f64], max_cuts: usize) -> Vec<f64> {
    let n = sorted.len();
    if n < 2 || max_cuts == 0 {
        return Vec::new();
    }
    let mut cuts = Vec::new();
    let n_boundaries = (1..n).filter(|&i| sorted[i] > sorted[i - 1]).count();
    if n_boundaries <= max_cuts {
        for i in (1..n).filter(|&i| sorted[i] > sorted[i - 1]) {
            push_cut(&mut cuts, sorted[i - 1], sorted[i]);
        }
    } else {
        for j in 1..=max_cuts {
            let pos = (j * n / (max_cuts + 1)).clamp(1, n - 1);
            if sorted[pos] > sorted[pos - 1] {
                push_cut(&mut cuts, sorted[pos - 1], sorted[pos]);
            }
        }
    }
    cuts
}

/// Appends the threshold separating `a < b`, if one exists and it keeps
/// `cuts` strictly increasing.
fn push_cut(cuts: &mut Vec<f64>, a: f64, b: f64) {
    let threshold = split_threshold(a, b).filter(|&t| cuts.last().is_none_or(|&last| t > last));
    if let Some(t) = threshold {
        cuts.push(t);
    }
}

/// The one threshold rule of both split finders: where the split between
/// adjacent sorted values `a < b` goes (`value <= t` routes left). `b` may
/// be `+inf` or NaN, which route right at any finite threshold.
///
/// The midpoint when it separates them. It does not when it rounds up to
/// `b` (two adjacent floats) or overflows; then `a` itself when it is
/// finite, else (`a` is `-inf`) `f64::MIN`. `None` when no finite
/// threshold separates them: `a` is `-inf` and `b` is `f64::MIN`.
fn split_threshold(a: f64, b: f64) -> Option<f64> {
    let mid = 0.5 * (a + b);
    let t = if mid.is_finite() && mid >= a && mid < b {
        mid
    } else if a.is_finite() {
        a
    } else {
        f64::MIN
    };
    (t < b || b.is_nan()).then_some(t)
}

/// Training input for one run: the raw column-major values, and for
/// histogram split finding their pre-binned view. Built once per `fit`,
/// shared by every tree of an ensemble; boosting also predicts its
/// training rows from the raw values after every round.
#[derive(Debug, Clone)]
pub struct TrainingColumns {
    raw: DenseColumns,
    /// Quantile-binned indices for [`SplitMethod::Histogram`]; `None` for
    /// [`SplitMethod::Exact`], which reads `raw`.
    binned: Option<BinnedColumns>,
}

impl TrainingColumns {
    /// Builds the split-finder input for `method` from a CSR matrix.
    pub fn from_csr(x: &CsrMatrix, method: SplitMethod) -> Self {
        Self::from_dense_columns(DenseColumns::from_csr(x), method)
    }

    /// Builds the split-finder input for `method` from a dense matrix.
    pub fn from_dense(x: &DenseMatrix, method: SplitMethod) -> Self {
        Self::from_dense_columns(DenseColumns::from_dense(x), method)
    }

    /// Wraps already-materialized columns, binning them if `method` is
    /// [`SplitMethod::Histogram`].
    pub fn from_dense_columns(raw: DenseColumns, method: SplitMethod) -> Self {
        let binned = match method {
            SplitMethod::Exact => None,
            SplitMethod::Histogram => Some(BinnedColumns::from_columns(&raw, MAX_HISTOGRAM_BINS)),
        };
        Self { raw, binned }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.raw.n_rows()
    }

    /// The raw values, column-major.
    pub(crate) fn raw(&self) -> &DenseColumns {
        &self.raw
    }
}

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (a depth-0 tree is a single leaf).
    pub max_depth: usize,
    /// Minimum number of examples in each child of a split.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values (XGBoost's λ).
    pub lambda: f64,
    /// Fraction of features considered at each split (`(0, 1]`).
    pub colsample: f64,
    /// Minimum gain required to accept a split (XGBoost's γ).
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 4,
            min_samples_leaf: 2,
            lambda: 1.0,
            colsample: 1.0,
            min_gain: 1e-9,
        }
    }
}

/// One node of a tree's stored form (see [`NodeList`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The stored form of a [`RegressionTree`]: its nodes, each split before
/// its children. Fitting grows this list and then lays it out flat;
/// serde reads and writes it, so artifacts do not see the flat layout.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct NodeList {
    nodes: Vec<Node>,
}

/// The child index a split stores for a child outside the node list or
/// not after its parent. No node has it, so [`RegressionTree::check`]
/// rejects the tree.
const NO_CHILD: u32 = u32::MAX;

/// A fitted regression tree, laid out flat for inference (see the module
/// doc's "Inference").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(into = "NodeList", try_from = "NodeList")]
pub struct RegressionTree {
    /// Split feature of each node; 0 at leaves.
    feature: Vec<u32>,
    /// Split threshold of each node (`v <= threshold` goes left); 0 at
    /// leaves.
    threshold: Vec<f64>,
    /// Children of node `n` at `2n` (left) and `2n + 1` (right). A leaf's
    /// both point at itself; a split's never do.
    child: Vec<u32>,
    /// Value of each leaf; 0 at splits.
    value: Vec<f64>,
    /// Steps from the root to its deepest leaf: the passes a walk takes.
    depth: usize,
}

impl TryFrom<NodeList> for RegressionTree {
    type Error = ModelError;

    /// Lays the node list out flat. Never walks the tree, so a cycle
    /// cannot hang it: a child index outside `n + 1..len` of its parent
    /// `n` (or beyond `u32`) becomes [`NO_CHILD`], and a feature beyond
    /// `u32` becomes `u32::MAX`, which [`RegressionTree::check`] rejects.
    fn try_from(list: NodeList) -> Result<Self, ModelError> {
        let len = list.nodes.len();
        if u32::try_from(len).is_err() {
            return Err(ModelError::invalid_input(format!(
                "regression tree has {len} nodes, more than u32 indexes"
            )));
        }
        let mut tree = Self {
            feature: Vec::with_capacity(len),
            threshold: Vec::with_capacity(len),
            child: Vec::with_capacity(2 * len),
            value: Vec::with_capacity(len),
            depth: 0,
        };
        for (n, node) in list.nodes.into_iter().enumerate() {
            let (feature, threshold, children, value) = match node {
                Node::Leaf { value } => (0, 0.0, [n as u32; 2], value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let child = |c: usize| if c > n && c < len { c as u32 } else { NO_CHILD };
                    let feature = u32::try_from(feature).unwrap_or(u32::MAX);
                    (feature, threshold, [child(left), child(right)], 0.0)
                }
            };
            tree.feature.push(feature);
            tree.threshold.push(threshold);
            tree.child.extend(children);
            tree.value.push(value);
        }
        // Children come after their parents, so one backward pass sees
        // both children's depths before the parent's.
        let mut depth = vec![0usize; len];
        for n in (0..len).rev() {
            if !tree.is_leaf(n) {
                let below = |c: u32| depth.get(c as usize).map_or(0, |d| d + 1);
                let deepest = below(tree.child[2 * n]).max(below(tree.child[2 * n + 1]));
                depth[n] = deepest;
            }
        }
        tree.depth = depth.first().copied().unwrap_or(0);
        Ok(tree)
    }
}

impl From<RegressionTree> for NodeList {
    fn from(tree: RegressionTree) -> Self {
        let nodes = (0..tree.n_nodes())
            .map(|n| {
                if tree.is_leaf(n) {
                    Node::Leaf {
                        value: tree.value[n],
                    }
                } else {
                    Node::Split {
                        feature: tree.feature[n] as usize,
                        threshold: tree.threshold[n],
                        left: tree.child[2 * n] as usize,
                        right: tree.child[2 * n + 1] as usize,
                    }
                }
            })
            .collect();
        Self { nodes }
    }
}

/// Per-bin split statistics: gradient sum, hessian sum, row count.
#[derive(Debug, Clone, Copy, Default)]
struct BinStat {
    g: f64,
    h: f64,
    n: u32,
}

/// Buffers the split finders reuse from node to node of one tree.
struct SplitScratch {
    /// The node's rows in the exact finder's per-feature sort order.
    order: Vec<usize>,
    /// One feature's histogram, indexed by bin; all zero between uses (the
    /// scan takes each bin a node's rows touched, which zeroes it).
    dense: Box<[BinStat; MAX_HISTOGRAM_BINS]>,
}

impl Default for SplitScratch {
    fn default() -> Self {
        Self {
            order: Vec::new(),
            dense: Box::new([BinStat::default(); MAX_HISTOGRAM_BINS]),
        }
    }
}

/// Accumulates the flat (all features × all bins) histogram for `rows` in
/// one pass per feature over the node's rows.
fn accumulate_histogram(
    binned: &BinnedColumns,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
) -> Vec<BinStat> {
    let mut hist = vec![BinStat::default(); binned.total_bins];
    for (feat, &offset) in binned.feats.iter().zip(&binned.offsets) {
        let slots = &mut hist[offset..offset + feat.n_bins()];
        for &r in rows {
            let slot = &mut slots[feat.bins[r] as usize];
            slot.g += grad[r];
            slot.h += hess[r];
            slot.n += 1;
        }
    }
    hist
}

/// In-place `parent -= child`: derives the sibling histogram from the
/// parent's without touching any rows (the subtract trick).
fn subtract_histogram(parent: &mut [BinStat], child: &[BinStat]) {
    for (p, c) in parent.iter_mut().zip(child) {
        p.g -= c.g;
        p.h -= c.h;
        p.n -= c.n;
    }
}

/// A node's winning split. Prediction sends `value <= threshold` left.
/// Training partitions the node's rows by that rule on raw values (exact)
/// or by `bin index <= bin` (histogram), which the binning invariant makes
/// agree on finite values.
#[derive(Debug, Clone)]
struct Split {
    feature: usize,
    threshold: f64,
    /// Last bin on the left of a histogram split; unused by exact splits.
    bin: usize,
    gain: f64,
}

/// One node's split search. The finders offer candidate boundaries in
/// feature order, then in scan order; only a strictly larger Newton gain
/// replaces the incumbent, so ties go to the earliest boundary.
struct SplitSearch<'p> {
    params: &'p TreeParams,
    n_rows: usize,
    g_total: f64,
    h_total: f64,
    /// The unsplit node's score `G²/(H+λ)`.
    base_score: f64,
    best: Option<Split>,
}

impl<'p> SplitSearch<'p> {
    fn new(params: &'p TreeParams, n_rows: usize, g_total: f64, h_total: f64) -> Self {
        Self {
            params,
            n_rows,
            g_total,
            h_total,
            base_score: g_total * g_total / (h_total + params.lambda),
            best: None,
        }
    }

    /// Whether `n_left` rows on the left leave both children at least
    /// `min_samples_leaf` rows.
    fn sizes_ok(&self, n_left: usize) -> bool {
        let min = self.params.min_samples_leaf;
        n_left >= min && self.n_rows - n_left >= min
    }

    /// Offers the boundary whose left side sums to `g_left`, `h_left`.
    fn offer(&mut self, feature: usize, threshold: f64, bin: usize, g_left: f64, h_left: f64) {
        let lambda = self.params.lambda;
        let g_right = self.g_total - g_left;
        let h_right = self.h_total - h_left;
        let gain = 0.5
            * (g_left * g_left / (h_left + lambda) + g_right * g_right / (h_right + lambda)
                - self.base_score);
        if gain > self.params.min_gain && self.best.as_ref().is_none_or(|b| gain > b.gain) {
            self.best = Some(Split {
                feature,
                threshold,
                bin,
                gain,
            });
        }
    }

    /// Exact scan of feature `f`: `order` holds the node's rows sorted by
    /// the feature with NaN last, and every boundary between adjacent
    /// distinct values below `+inf` is a candidate. `+inf` and NaN both
    /// route right at every stored (finite) threshold, as in the
    /// histogram path.
    fn scan_sorted(
        &mut self,
        columns: &DenseColumns,
        f: usize,
        order: &[usize],
        grad: &[f64],
        hess: &[f64],
    ) {
        let mut g_left = 0.0;
        let mut h_left = 0.0;
        for i in 0..order.len() - 1 {
            let r = order[i];
            g_left += grad[r];
            h_left += hess[r];
            let v = columns.value(r, f);
            if v.is_nan() || v == f64::INFINITY {
                // `+inf` and NaN sort last and both route right: no
                // boundary remains that a finite threshold can draw.
                break;
            }
            let v_next = columns.value(order[i + 1], f);
            if v == v_next {
                continue; // cannot split between equal values
            }
            if !self.sizes_ok(i + 1) {
                continue;
            }
            if let Some(threshold) = split_threshold(v, v_next) {
                self.offer(f, threshold, 0, g_left, h_left);
            }
        }
    }
}

/// A histogram scan of one feature's bin boundaries. Both histogram paths
/// feed it the feature's bins in ascending order, each with its
/// accumulated stat (empty bins may be fed or skipped — both describe the
/// same partitions), and it offers the boundary after each bin to the
/// node's search. The boundary after the last finite bin (threshold
/// `f64::MAX`, or the last cut when the upper bins are empty) is the
/// "finite left, missing right" split.
struct BinScan<'s, 'p> {
    search: &'s mut SplitSearch<'p>,
    f: usize,
    cuts: &'s [f64],
    g_left: f64,
    h_left: f64,
    n_left: usize,
}

impl<'s, 'p> BinScan<'s, 'p> {
    fn new(search: &'s mut SplitSearch<'p>, feat: &'s BinnedFeature, f: usize) -> Self {
        Self {
            search,
            f,
            cuts: &feat.cuts,
            g_left: 0.0,
            h_left: 0.0,
            n_left: 0,
        }
    }

    /// Moves bin `bin` to the left side and offers the boundary after it.
    /// Returns `false` once no later bin can add a boundary: `bin` is the
    /// missing bin, the last of the feature, or every row is now on the
    /// left, so every later bin is empty.
    #[inline]
    fn feed(&mut self, bin: usize, stat: BinStat) -> bool {
        if bin > self.cuts.len() {
            return false; // the missing bin has no boundary after it
        }
        if stat.n == 0 {
            return true; // empty bin: same partition as the previous boundary
        }
        self.g_left += stat.g;
        self.h_left += stat.h;
        self.n_left += stat.n as usize;
        if self.n_left == self.search.n_rows {
            return false; // nothing left to send right (not even missing)
        }
        if self.search.sizes_ok(self.n_left) {
            // Past the last cut everything finite goes left; only missing
            // values sit to the right of this boundary.
            let threshold = self.cuts.get(bin).copied().unwrap_or(f64::MAX);
            self.search
                .offer(self.f, threshold, bin, self.g_left, self.h_left);
        }
        true
    }
}

/// The state of one tree fit: the training data, the node list grown so
/// far and the buffers its split finders reuse.
struct Grower<'a, R> {
    columns: &'a TrainingColumns,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a TreeParams,
    rng: &'a mut R,
    scratch: SplitScratch,
    nodes: Vec<Node>,
}

impl<R: Rng> Grower<'_, R> {
    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Grows the subtree over `rows` (reordered in place) and returns its
    /// root's index. A split node's index is taken before its children's.
    ///
    /// `hist` is the node's flat (all features × all bins) histogram when
    /// its parent derived one by the subtract trick. Histogram nodes large
    /// enough to amortize the O(`total_bins`) allocation and subtraction
    /// use a flat histogram; smaller ones accumulate only the sampled
    /// features, touching only the bins their rows hold (deep trees — e.g.
    /// the random forest's depth-12 defaults — spend most nodes down there).
    fn grow(&mut self, rows: &mut [usize], depth: usize, hist: Option<Vec<BinStat>>) -> usize {
        let g_total: f64 = rows.iter().map(|&r| self.grad[r]).sum();
        let h_total: f64 = rows.iter().map(|&r| self.hess[r]).sum();
        let leaf = Node::Leaf {
            value: -g_total / (h_total + self.params.lambda),
        };
        if depth >= self.params.max_depth || rows.len() < 2 * self.params.min_samples_leaf {
            return self.push(leaf);
        }

        let features = sample_features(self.columns.raw.n_cols(), self.params.colsample, self.rng);
        let hist = match (&self.columns.binned, hist) {
            (Some(binned), None) if binned.flat_pays(rows.len(), features.len()) => {
                Some(accumulate_histogram(binned, self.grad, self.hess, rows))
            }
            (_, hist) => hist,
        };
        let mut search = SplitSearch::new(self.params, rows.len(), g_total, h_total);
        self.find_split(&mut search, rows, &features, hist.as_deref());
        let Some(split) = search.best else {
            return self.push(leaf);
        };

        // NaN fails `value <= threshold` and sits in the largest bin, so
        // missing values go right under both predicates.
        let mid = match &self.columns.binned {
            None => {
                let raw = &self.columns.raw;
                partition(rows, |r| raw.value(r, split.feature) <= split.threshold)
            }
            Some(binned) => {
                let bins = &binned.feats[split.feature].bins;
                partition(rows, |r| usize::from(bins[r]) <= split.bin)
            }
        };
        if mid == 0 || mid == rows.len() {
            // Split finding guarantees both sides are populated; guard
            // against pathological float behaviour anyway.
            return self.push(leaf);
        }

        let node = self.push(Node::Leaf { value: 0.0 }); // placeholder, patched below
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let (left_hist, right_hist) = self.child_histograms(hist, left_rows, right_rows, &features);
        let left = self.grow(left_rows, depth + 1, left_hist);
        let right = self.grow(right_rows, depth + 1, right_hist);
        self.nodes[node] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        node
    }

    /// Offers every candidate boundary of the sampled `features` to
    /// `search`. Exact splits sort the node's rows per feature. Histogram
    /// splits feed one [`BinScan`] per feature: from the flat histogram when
    /// there is one, and otherwise by accumulating the feature on its own in
    /// one pass over the node's rows into the zeroed scratch histogram,
    /// marking the bins they touch, then walking the mask once in ascending
    /// order, each touched bin read and cleared in the same step. Both paths
    /// add each bin's rows in node order, so the per-bin sums, and the
    /// chosen split, agree bitwise.
    fn find_split(
        &mut self,
        search: &mut SplitSearch,
        rows: &[usize],
        features: &[usize],
        hist: Option<&[BinStat]>,
    ) {
        let (grad, hess, scratch) = (self.grad, self.hess, &mut self.scratch);
        match &self.columns.binned {
            None => {
                let columns = &self.columns.raw;
                for &f in features {
                    // Total order with NaN last: missing values form the
                    // final run, so the scan evaluates exactly the "finite
                    // left, missing right" partitions the row partition can
                    // realize.
                    scratch.order.clear();
                    scratch.order.extend_from_slice(rows);
                    scratch.order.sort_unstable_by(|&a, &b| {
                        let (va, vb) = (columns.value(a, f), columns.value(b, f));
                        match (va.is_nan(), vb.is_nan()) {
                            (false, false) => va.partial_cmp(&vb).expect("non-NaN values compare"),
                            (true, true) => std::cmp::Ordering::Equal,
                            (true, false) => std::cmp::Ordering::Greater,
                            (false, true) => std::cmp::Ordering::Less,
                        }
                    });
                    search.scan_sorted(columns, f, &scratch.order, grad, hess);
                }
            }
            Some(binned) => {
                for &f in features {
                    let feat = &binned.feats[f];
                    let mut scan = BinScan::new(search, feat, f);
                    if let Some(hist) = hist {
                        let offset = binned.offsets[f];
                        let slots = &hist[offset..offset + feat.n_bins()];
                        for (bin, &stat) in slots.iter().enumerate() {
                            if !scan.feed(bin, stat) {
                                break;
                            }
                        }
                    } else {
                        let dense = &mut scratch.dense;
                        let mut touched = [0u64; MAX_HISTOGRAM_BINS / 64];
                        for &r in rows {
                            let bin = usize::from(feat.bins[r]);
                            let slot = &mut dense[bin];
                            slot.g += grad[r];
                            slot.h += hess[r];
                            slot.n += 1;
                            touched[bin / 64] |= 1 << (bin % 64);
                        }
                        // Each touched bin is taken, which zeroes it, as
                        // the scan reads it. No touched bin follows a stop
                        // (the missing bin is the last bin, and once every
                        // row is on the left no later bin holds one), so
                        // this one walk leaves the histogram all zero.
                        for (word_index, mut word) in touched.into_iter().enumerate() {
                            while word != 0 {
                                let bin = 64 * word_index + word.trailing_zeros() as usize;
                                word &= word - 1;
                                scan.feed(bin, std::mem::take(&mut dense[bin]));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The children's flat histograms by the subtract trick: only the
    /// smaller child's is accumulated from rows, and the larger's is the
    /// parent's minus it. Worth the O(`total_bins`) subtraction only while
    /// the larger child will itself stay on the flat path.
    fn child_histograms(
        &self,
        hist: Option<Vec<BinStat>>,
        left: &[usize],
        right: &[usize],
        features: &[usize],
    ) -> (Option<Vec<BinStat>>, Option<Vec<BinStat>>) {
        let (Some(mut large), Some(binned)) = (hist, &self.columns.binned) else {
            return (None, None);
        };
        if !binned.flat_pays(left.len().max(right.len()), features.len()) {
            return (None, None);
        }
        let small_is_left = left.len() <= right.len();
        let small_rows = if small_is_left { left } else { right };
        let small = accumulate_histogram(binned, self.grad, self.hess, small_rows);
        subtract_histogram(&mut large, &small);
        if small_is_left {
            (Some(small), Some(large))
        } else {
            (Some(large), Some(small))
        }
    }
}

/// Samples the feature subset considered for one split.
fn sample_features(n_features: usize, colsample: f64, rng: &mut impl Rng) -> Vec<usize> {
    let mut features: Vec<usize> = (0..n_features).collect();
    if colsample < 1.0 {
        features.shuffle(rng);
        let keep = ((n_features as f64 * colsample).ceil() as usize).max(1);
        features.truncate(keep);
    }
    features
}

/// Partitions `rows` so the rows for which `goes_left` holds come first;
/// returns the boundary index.
fn partition(rows: &mut [usize], goes_left: impl Fn(usize) -> bool) -> usize {
    let mut i = 0usize;
    let mut j = rows.len();
    while i < j {
        if goes_left(rows[i]) {
            i += 1;
        } else {
            j -= 1;
            rows.swap(i, j);
        }
    }
    i
}

impl RegressionTree {
    /// Fits a tree to per-example gradients and hessians over the rows in
    /// `rows`. The returned tree predicts the Newton step `-G/(H+λ)` in each
    /// leaf.
    ///
    /// The variant of `columns` picks the split method — build it with the
    /// desired [`SplitMethod`] via [`TrainingColumns::from_csr`] /
    /// [`TrainingColumns::from_dense`].
    pub fn fit(
        columns: &TrainingColumns,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(grad.len(), columns.n_rows());
        assert_eq!(hess.len(), columns.n_rows());
        let mut grower = Grower {
            columns,
            grad,
            hess,
            params,
            rng,
            scratch: SplitScratch::default(),
            nodes: Vec::new(),
        };
        grower.grow(&mut rows.to_vec(), 0, None);
        Self::try_from(NodeList {
            nodes: grower.nodes,
        })
        .expect("a fitted tree has fewer nodes than u32 indexes")
    }

    /// Whether node `n` is a leaf: a split's children never point back
    /// at it.
    #[inline]
    fn is_leaf(&self, n: usize) -> bool {
        self.child[2 * n] as usize == n
    }

    /// One branch-free step of a walk: from node `n` to the child that a
    /// row with value `v` of `n`'s split feature takes (`n` itself at a
    /// leaf). NaN fails `v <= threshold` and goes right.
    #[inline(always)]
    fn step(&self, n: usize, v: f64) -> usize {
        self.child[2 * n + 1 - usize::from(v <= self.threshold[n])] as usize
    }

    /// Predicts the tree output for one dense row: the walk `walk_rows`
    /// takes for each row of a block, as many steps as the tree is deep.
    pub fn predict_dense_row(&self, row: &[f64]) -> f64 {
        let mut n = 0;
        for _ in 0..self.depth {
            n = self.step(n, row[self.feature[n] as usize]);
        }
        self.value[n]
    }

    /// The split nodes' features, one per split node.
    fn split_features(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_nodes())
            .filter(|&n| !self.is_leaf(n))
            .map(|n| self.feature[n] as usize)
    }

    /// Largest feature index referenced by any split node, if the tree
    /// splits at all.
    pub fn max_feature(&self) -> Option<usize> {
        self.split_features().max()
    }

    /// Number of nodes (diagnostics / tests).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Rejects a tree that prediction could not walk over rows of
    /// `n_features` features: no nodes, a split feature `>= n_features`, a
    /// child not strictly after its parent and inside the node list, or a
    /// threshold that is not finite (JSON reads a stored `±inf` as NaN).
    /// Fitting lays every child out after its parent, so fitted trees pass;
    /// on a deserialized one a walk could otherwise index past the end or
    /// stop short of a leaf.
    pub fn check(&self, n_features: usize) -> Result<(), ModelError> {
        let n = self.n_nodes();
        if n == 0 {
            return Err(ModelError::invalid_input("regression tree has no nodes"));
        }
        let splits = || (0..n).filter(|&i| !self.is_leaf(i));
        let bad_child = |&i: &usize| self.child[2 * i..2 * i + 2].contains(&NO_CHILD);
        if let Some(i) = splits().find(bad_child) {
            return Err(ModelError::invalid_input(format!(
                "tree node {i} has a child outside {}..{n}",
                i + 1
            )));
        }
        if let Some(i) = splits().find(|&i| !self.threshold[i].is_finite()) {
            return Err(ModelError::invalid_input(format!(
                "tree node {i} splits at a non-finite threshold"
            )));
        }
        match self.max_feature() {
            Some(f) if f >= n_features => Err(ModelError::invalid_input(format!(
                "tree splits on feature {f} of {n_features}"
            ))),
            _ => Ok(()),
        }
    }
}

/// Trees [`walk_row`] walks side by side: enough independent load chains
/// to overlap, few enough that a shallow tree rarely waits many passes on
/// the group's deepest.
const TREE_GROUP: usize = 16;

/// The leaf value each of `trees` gives one dense `row`, in tree order:
/// the level-synchronous walk of [`walk_rows`] turned sideways. Trees go
/// in groups of [`TREE_GROUP`], and every tree of a group takes one step
/// per pass, so their load chains overlap as the rows of a block do there.
pub(crate) fn walk_row(trees: &[RegressionTree], row: &[f64]) -> Vec<f64> {
    let mut leaves = Vec::with_capacity(trees.len());
    for group in trees.chunks(TREE_GROUP) {
        let mut at = [0; TREE_GROUP];
        let depth = group.iter().map(|t| t.depth).max().unwrap_or(0);
        for _ in 0..depth {
            for (n, tree) in at.iter_mut().zip(group) {
                *n = tree.step(*n, row[tree.feature[*n] as usize]);
            }
        }
        leaves.extend(at.iter().zip(group).map(|(&n, tree)| tree.value[n]));
    }
    leaves
}

/// Rows per block of [`walk_rows`]: small enough that a block's scratch
/// values stay cache-resident while every tree walks it.
pub(crate) const ROW_BLOCK: usize = 64;

/// The matrix [`walk_rows`] reads feature values from.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Sparse rows; a feature a row does not store reads 0.
    Csr(&'a CsrMatrix),
    /// Row-major dense rows.
    Dense(&'a DenseMatrix),
    /// Column-major dense rows (a training run's raw values).
    Columns(&'a DenseColumns),
}

impl Rows<'_> {
    fn n_rows(&self) -> usize {
        match self {
            Self::Csr(x) => x.rows(),
            Self::Dense(x) => x.rows(),
            Self::Columns(x) => x.n_rows(),
        }
    }

    fn n_cols(&self) -> usize {
        match self {
            Self::Csr(x) => x.cols(),
            Self::Dense(x) => x.cols(),
            Self::Columns(x) => x.n_cols(),
        }
    }

    /// Writes row `block.start + i`'s value of `features[s]` to
    /// `scratch[i * w + s]`, `w = features.len() + 2`. `slot_of[f]` is
    /// feature `f`'s slot; a sparse row's value of a feature no node names
    /// goes to the spare slot `features.len() + 1`, which no node reads.
    /// Slot `features.len()` keeps the 0 it holds.
    fn gather(
        &self,
        block: std::ops::Range<usize>,
        features: &[usize],
        slot_of: &[u32],
        scratch: &mut [f64],
    ) {
        let w = features.len() + 2;
        match self {
            Self::Csr(x) => {
                scratch.fill(0.0);
                for (values, r) in scratch.chunks_exact_mut(w).zip(block) {
                    let (idx, vals) = x.row(r);
                    for (&c, &v) in idx.iter().zip(vals) {
                        values[slot_of[c as usize] as usize] = v;
                    }
                }
            }
            Self::Dense(x) => {
                for (values, r) in scratch.chunks_exact_mut(w).zip(block) {
                    let row = x.row(r);
                    for (value, &f) in values.iter_mut().zip(features) {
                        *value = row[f];
                    }
                }
            }
            Self::Columns(x) => {
                for (s, &f) in features.iter().enumerate() {
                    for (i, &v) in x.cols[f][block.clone()].iter().enumerate() {
                        scratch[i * w + s] = v;
                    }
                }
            }
        }
    }
}

/// The one inference kernel of every tree ensemble: calls
/// `leaf(t, start, values)` with the leaf values tree `trees[t]` gives
/// rows `start..start + values.len()` of `rows`, block by block, until
/// every tree has given every row its leaf.
///
/// Rows go in blocks of [`ROW_BLOCK`]. Each row of a block is densified
/// once into a scratch row with one slot per feature the trees' nodes name;
/// a node naming a feature past the matrix reads 0, as a sparse row reads
/// a feature it does not store. Then each tree in turn walks the whole
/// block level by level (see the module doc's "Inference") and hands over
/// the block's leaves in one call. So for one row the leaves come in tree
/// order, and a caller that adds them up adds in the order of a
/// row-at-a-time walk, bit for bit.
pub(crate) fn walk_rows<T: Borrow<RegressionTree>>(
    trees: &[T],
    rows: Rows<'_>,
    mut leaf: impl FnMut(usize, usize, &[f64]),
) {
    let trees: Vec<&RegressionTree> = trees.iter().map(Borrow::borrow).collect();
    // Slots in ascending feature order. Leaves name feature 0, which
    // costs at most one slot. Slot `m` stays 0; slot `m + 1` is spare.
    let n_cols = rows.n_cols();
    let mut named = vec![false; n_cols];
    for &f in trees.iter().flat_map(|t| &t.feature) {
        if let Some(named) = named.get_mut(f as usize) {
            *named = true;
        }
    }
    let features: Vec<usize> = (0..n_cols).filter(|&f| named[f]).collect();
    let m = features.len();
    let mut slot_of = vec![m as u32 + 1; n_cols];
    for (s, &f) in features.iter().enumerate() {
        slot_of[f] = s as u32;
    }
    // Every node's slot, tree after tree.
    let node_slots: Vec<u32> = trees
        .iter()
        .flat_map(|t| &t.feature)
        .map(|&f| slot_of.get(f as usize).copied().unwrap_or(m as u32))
        .collect();

    let w = m + 2;
    let mut scratch = vec![0.0; ROW_BLOCK * w];
    let mut at = [0; ROW_BLOCK];
    let mut leaves = [0.0; ROW_BLOCK];
    for block in row_blocks(rows.n_rows(), ROW_BLOCK) {
        let (start, len) = (block.start, block.len());
        let values = &mut scratch[..len * w];
        rows.gather(block, &features, &slot_of, values);
        let (at, leaves) = (&mut at[..len], &mut leaves[..len]);
        let mut base = 0;
        for (t, tree) in trees.iter().enumerate() {
            // Slices of one length, so indexing one by a node checks all.
            let k = tree.n_nodes();
            let slot = &node_slots[base..base + k];
            base += k;
            let (threshold, child) = (&tree.threshold[..k], &tree.child[..2 * k]);
            at.fill(0);
            for _ in 0..tree.depth {
                for (i, n) in at.iter_mut().enumerate() {
                    let v = values[i * w + slot[*n] as usize];
                    *n = child[2 * *n + 1 - usize::from(v <= threshold[*n])] as usize;
                }
            }
            for (value, &n) in leaves.iter_mut().zip(at.iter()) {
                *value = tree.value[n];
            }
            leaf(t, start, leaves);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fits a plain regression tree to targets by the grad=-y, hess=1
    /// trick with `method`'s split finder.
    fn fit_with(
        method: SplitMethod,
        columns: &DenseColumns,
        y: &[f64],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> RegressionTree {
        let columns = TrainingColumns::from_dense_columns(columns.clone(), method);
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..y.len()).collect();
        RegressionTree::fit(&columns, &grad, &hess, &rows, params, rng)
    }

    /// [`fit_with`] exact splits.
    fn fit_regression(
        columns: &DenseColumns,
        y: &[f64],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> RegressionTree {
        fit_with(SplitMethod::Exact, columns, y, params, rng)
    }

    /// [`fit_with`] histogram splits.
    fn fit_regression_binned(
        columns: &DenseColumns,
        y: &[f64],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> RegressionTree {
        fit_with(SplitMethod::Histogram, columns, y, params, rng)
    }

    fn step_data() -> (DenseColumns, Vec<f64>) {
        // y = 10 if x > 0.5 else 0.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let x = DenseMatrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..40)
            .map(|i| if i as f64 / 39.0 > 0.5 { 10.0 } else { 0.0 })
            .collect();
        (DenseColumns::from_dense(&x), y)
    }

    #[test]
    fn learns_a_step_function() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(1);
        let params = TreeParams {
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = fit_regression(&cols, &y, &params, &mut rng);
        for (i, &target) in y.iter().enumerate() {
            let pred = tree.predict_dense_row(&[i as f64 / 39.0]);
            assert!((pred - target).abs() < 1e-9, "row {i}: {pred} vs {target}");
        }
    }

    #[test]
    fn binned_learns_a_step_function() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(1);
        let params = TreeParams {
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = fit_regression_binned(&cols, &y, &params, &mut rng);
        for (i, &target) in y.iter().enumerate() {
            let pred = tree.predict_dense_row(&[i as f64 / 39.0]);
            assert!((pred - target).abs() < 1e-9, "row {i}: {pred} vs {target}");
        }
    }

    #[test]
    fn binned_handles_more_distinct_values_than_bins() {
        // 2000 distinct values force the quantile (lossy) cut path.
        let rows: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64 / 1999.0]).collect();
        let x = DenseMatrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.37 { 4.0 } else { -4.0 })
            .collect();
        let cols = DenseColumns::from_dense(&x);
        let binned = BinnedColumns::from_columns(&cols, MAX_HISTOGRAM_BINS);
        assert!(binned.feats[0].cuts.len() <= MAX_HISTOGRAM_BINS - 2);
        assert!(binned.feats[0].cuts.len() > 100, "quantile path not taken");
        let mut rng = StdRng::seed_from_u64(2);
        let params = TreeParams {
            lambda: 0.0,
            max_depth: 6,
            ..TreeParams::default()
        };
        let tree = fit_regression_binned(&cols, &y, &params, &mut rng);
        let mae = rows
            .iter()
            .zip(&y)
            .map(|(r, &t)| (tree.predict_dense_row(r) - t).abs())
            .sum::<f64>()
            / y.len() as f64;
        // Quantile cuts land within 1/255 of the true step, so only a
        // sliver of rows can be mislabelled.
        assert!(mae < 0.1, "MAE {mae}");
    }

    #[test]
    fn depth_zero_is_single_leaf_mean() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(2);
        let params = TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = fit_regression(&cols, &y, &params, &mut rng);
        assert_eq!(tree.n_nodes(), 1);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((tree.predict_dense_row(&[0.3]) - mean).abs() < 1e-9);
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let cols = DenseColumns::from_dense(&x);
        let mut rng = StdRng::seed_from_u64(3);
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(
                &cols,
                &[1.0, 2.0, 3.0, 4.0],
                &TreeParams::default(),
                &mut rng,
            );
            assert_eq!(tree.n_nodes(), 1);
        }
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(4);
        let params = TreeParams {
            min_samples_leaf: 40, // cannot split at all
            ..TreeParams::default()
        };
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(&cols, &y, &params, &mut rng);
            assert_eq!(tree.n_nodes(), 1);
        }
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![0.0]]).unwrap();
        let cols = DenseColumns::from_dense(&x);
        let mut rng = StdRng::seed_from_u64(5);
        let params = TreeParams {
            max_depth: 0,
            lambda: 2.0,
            ..TreeParams::default()
        };
        let tree = fit_regression(&cols, &[3.0, 3.0], &params, &mut rng);
        // leaf = sum(y) / (n + lambda) = 6 / 4
        assert!((tree.predict_dense_row(&[0.0]) - 1.5).abs() < 1e-12);
    }

    /// A tree built from its stored node list, as deserialization does.
    fn from_nodes(nodes: Vec<Node>) -> RegressionTree {
        RegressionTree::try_from(NodeList { nodes }).unwrap()
    }

    #[test]
    fn sparse_and_dense_prediction_agree() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(6);
        let tree = fit_regression(&cols, &y, &TreeParams::default(), &mut rng);
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let dense = DenseMatrix::from_rows(&rows).unwrap();
        // Row 0 is all zero, so its CSR row stores nothing.
        let sparse = CsrMatrix::from_dense(&dense);
        let mut by_kernel = vec![[f64::NAN; 3]; 40];
        let sources = [
            Rows::Dense(&dense),
            Rows::Csr(&sparse),
            Rows::Columns(&cols),
        ];
        for (s, rows) in sources.into_iter().enumerate() {
            walk_rows(&[&tree], rows, |_, start, leaves| {
                for (r, &v) in leaves.iter().enumerate() {
                    by_kernel[start + r][s] = v;
                }
            });
        }
        for (r, row) in rows.iter().enumerate() {
            let walked = tree.predict_dense_row(row).to_bits();
            assert!(
                by_kernel[r].iter().all(|v| v.to_bits() == walked),
                "row {r}"
            );
        }
    }

    #[test]
    fn stored_form_round_trips_and_sets_the_walk_depth() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(6);
        let tree = fit_regression(&cols, &y, &TreeParams::default(), &mut rng);
        let json = serde_json::to_string(&tree).unwrap();
        assert!(
            json.starts_with(r#"{"nodes":[{"Split":{"feature":0,"#),
            "{json}"
        );
        let reloaded: RegressionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(reloaded, tree);
        assert_eq!(serde_json::to_string(&reloaded).unwrap(), json);
        // Depth is the longest root-to-leaf path, here through node 2.
        let lopsided = from_nodes(vec![
            Node::Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            Node::Leaf { value: 1.0 },
            Node::Split {
                feature: 0,
                threshold: 0.7,
                left: 3,
                right: 4,
            },
            Node::Leaf { value: 2.0 },
            Node::Leaf { value: 3.0 },
        ]);
        assert_eq!(lopsided.depth, 2);
        let got: Vec<f64> = [0.1, 0.6, 0.9, f64::NAN]
            .iter()
            .map(|&v| lopsided.predict_dense_row(&[v]))
            .collect();
        assert_eq!(got, [1.0, 2.0, 3.0, 3.0]);
        assert_eq!(from_nodes(vec![Node::Leaf { value: 4.0 }]).depth, 0);
    }

    #[test]
    fn two_feature_interaction() {
        // y = 5 only in the quadrant x0>0.5 && x1>0.5; needs depth 2.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (i as f64 / 9.0, j as f64 / 9.0);
                rows.push(vec![a, b]);
                y.push(if a > 0.5 && b > 0.5 { 5.0 } else { 0.0 });
            }
        }
        let cols = DenseColumns::from_dense(&DenseMatrix::from_rows(&rows).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let params = TreeParams {
            max_depth: 3,
            lambda: 0.0,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(&cols, &y, &params, &mut rng);
            assert!((tree.predict_dense_row(&[0.9, 0.9]) - 5.0).abs() < 1e-9);
            assert!(tree.predict_dense_row(&[0.9, 0.1]).abs() < 1e-9);
        }
    }

    #[test]
    fn dense_columns_from_csr_matches() {
        let d = DenseMatrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 0.0]]).unwrap();
        let csr = CsrMatrix::from_dense(&d);
        let cols = DenseColumns::from_csr(&csr);
        assert_eq!(cols.value(0, 1), 2.0);
        assert_eq!(cols.value(1, 0), 3.0);
        assert_eq!(cols.value(0, 0), 0.0);
    }

    #[test]
    fn missing_values_route_right_in_both_split_methods() {
        // Finite x carries no signal; the NaN rows carry all of it. The
        // only useful split is "finite left, missing right".
        let col = vec![1.0, 2.0, 3.0, 4.0, f64::NAN, f64::NAN, f64::NAN];
        let y = vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let cols = DenseColumns {
            n_rows: col.len(),
            cols: vec![col],
        };
        let params = TreeParams {
            lambda: 0.0,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(&cols, &y, &params, &mut rng);
            assert!((tree.predict_dense_row(&[f64::NAN]) - 5.0).abs() < 1e-9);
            assert!(tree.predict_dense_row(&[2.5]).abs() < 1e-9);
        }
    }

    #[test]
    fn positive_infinity_is_served_the_leaf_it_was_trained_in() {
        // A histogram tree bins `+inf` with the missing values, so the
        // "finite left, missing right" split, stored as `f64::MAX`, sends
        // `+inf` right both in training and at prediction.
        let inf = f64::INFINITY;
        let col = vec![1.0, 2.0, 3.0, inf, inf, f64::NAN, f64::NAN, f64::NAN];
        let y = vec![0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let cols = DenseColumns {
            n_rows: col.len(),
            cols: vec![col.clone()],
        };
        let params = TreeParams {
            max_depth: 1,
            lambda: 0.0,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let tree = fit_regression_binned(&cols, &y, &params, &mut rng);
        // The right leaf was fitted on {+inf, +inf, NaN, NaN, NaN}.
        assert_eq!(tree.predict_dense_row(&[inf]), 3.0);
        assert_eq!(tree.predict_dense_row(&[f64::NAN]), 3.0);
        assert_eq!(tree.predict_dense_row(&[3.0]), 0.0);
        // With λ = 0 a leaf's value is the mean target of the rows it was
        // trained on, so serving those rows reproduces every leaf's mean
        // only if prediction routes each row where training did.
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(&cols, &y, &params, &mut rng);
            let preds: Vec<f64> = col.iter().map(|&v| tree.predict_dense_row(&[v])).collect();
            for &p in &preds {
                let served: Vec<f64> = (0..y.len())
                    .filter(|&r| preds[r] == p)
                    .map(|r| y[r])
                    .collect();
                let mean = served.iter().sum::<f64>() / served.len() as f64;
                assert!(
                    (mean - p).abs() < 1e-12,
                    "leaf {p} serves rows of mean {mean}"
                );
            }
        }
    }

    #[test]
    fn exact_splits_next_to_infinity_store_finite_thresholds() {
        // A split between `+inf` and the NaN run would store the threshold
        // `+inf`, which JSON writes as `null` and reads back as NaN: the
        // reloaded split would send every row right.
        let inf = f64::INFINITY;
        let col = vec![1.0, 2.0, 3.0, inf, inf, f64::NAN, f64::NAN, f64::NAN];
        let y = vec![0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0];
        let cols = DenseColumns {
            n_rows: col.len(),
            cols: vec![col],
        };
        let params = TreeParams {
            max_depth: 1,
            lambda: 0.0,
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let exact = fit_regression(&cols, &y, &params, &mut rng);
        let binned = fit_regression_binned(&cols, &y, &params, &mut rng);
        let json = serde_json::to_string(&exact).unwrap();
        assert!(!json.contains("null"), "{json}");
        let reloaded: RegressionTree = serde_json::from_str(&json).unwrap();
        assert!(reloaded.check(1).is_ok());
        for v in [2.0, inf, f64::NAN] {
            let p = exact.predict_dense_row(&[v]);
            assert_eq!(p, reloaded.predict_dense_row(&[v]), "{v}");
            assert_eq!(p, binned.predict_dense_row(&[v]), "{v}");
        }
        assert_eq!(exact.predict_dense_row(&[2.0]), 0.0);
        assert_eq!(exact.predict_dense_row(&[inf]), 3.0);

        // A stored threshold that is not finite fails the load check.
        let at = json.find(r#""threshold":"#).unwrap() + r#""threshold":"#.len();
        let end = at + json[at..].find(',').unwrap();
        let nulled = format!("{}null{}", &json[..at], &json[end..]);
        let tree: RegressionTree = serde_json::from_str(&nulled).unwrap();
        let err = tree.check(1).unwrap_err();
        assert!(err.to_string().contains("non-finite threshold"), "{err}");
    }

    #[test]
    fn max_feature_reports_largest_split_feature() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(9);
        let tree = fit_regression(&cols, &y, &TreeParams::default(), &mut rng);
        assert_eq!(tree.max_feature(), Some(0));
        let leaf = from_nodes(vec![Node::Leaf { value: 1.0 }]);
        assert_eq!(leaf.max_feature(), None);
    }

    #[test]
    fn check_accepts_fitted_trees_and_rejects_unwalkable_ones() {
        let (cols, y) = step_data();
        let mut rng = StdRng::seed_from_u64(9);
        for fit in [fit_regression, fit_regression_binned] {
            let tree = fit(&cols, &y, &TreeParams::default(), &mut rng);
            assert!(tree.n_nodes() > 1);
            assert!(tree.check(1).is_ok());
            // Its split on feature 0 needs at least one feature.
            assert!(tree.check(0).is_err());
        }
        let split = |left, right| {
            from_nodes(vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.5,
                    left,
                    right,
                },
                Node::Leaf { value: 1.0 },
                Node::Leaf { value: 2.0 },
            ])
        };
        assert!(split(1, 2).check(1).is_ok());
        for (left, right) in [
            (0, 2),
            (1, 0),
            (0, 0),
            (1, 3),
            (1 << 32, 2),
            (usize::MAX, 2),
        ] {
            let err = split(left, right).check(1).unwrap_err();
            assert!(
                err.to_string()
                    .contains("tree node 0 has a child outside 1..3"),
                "{err}"
            );
        }
        assert!(from_nodes(Vec::new()).check(1).is_err());
    }

    #[test]
    fn per_feature_histogram_is_all_zero_after_a_scan_stops_early() {
        // Feature 0's scan stops at the missing bin (a NaN and a `+inf`
        // row); feature 1's stops at its last finite bin, which takes
        // every row. Both bins were filled and neither was scanned.
        // Feature 2 has 72 distinct values and NaN rows, so its scan stops
        // at a missing bin in the second mask word.
        let inf = f64::INFINITY;
        let n = 80;
        let cols = DenseColumns {
            n_rows: n,
            cols: vec![
                (0..n)
                    .map(|i| match i {
                        78 => f64::NAN,
                        79 => inf,
                        _ => (i % 4 + 1) as f64,
                    })
                    .collect(),
                (0..n).map(|i| (i % 6 + 1) as f64).collect(),
                (0..n)
                    .map(|i| if i < 72 { i as f64 } else { f64::NAN })
                    .collect(),
            ],
        };
        let columns = TrainingColumns::from_dense_columns(cols, SplitMethod::Histogram);
        let feature_2 = &columns.binned.as_ref().unwrap().feats[2];
        assert_eq!(feature_2.n_bins() - 1, 72, "feature 2's missing bin");
        let grad: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let hess = vec![1.0; n];
        let rows: Vec<usize> = (0..n).collect();
        let params = TreeParams {
            min_samples_leaf: 1,
            ..TreeParams::default()
        };
        let mut grower = Grower {
            columns: &columns,
            grad: &grad,
            hess: &hess,
            params: &params,
            rng: &mut StdRng::seed_from_u64(0),
            scratch: SplitScratch::default(),
            nodes: Vec::new(),
        };
        for f in 0..3 {
            let mut search = SplitSearch::new(&params, n, grad.iter().sum(), n as f64);
            grower.find_split(&mut search, &rows, &[f], None);
            assert!(search.best.is_some(), "feature {f} splits");
            let stale = grower
                .scratch
                .dense
                .iter()
                .position(|s| s.n != 0 || s.g != 0.0 || s.h != 0.0);
            assert_eq!(stale, None, "feature {f} left a bin filled");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On data with missing values, the winning exact split's
        /// advertised gain must match the gain recomputed from the
        /// partition `partition` actually realizes. Before
        /// the NaN-last sort rule, NaNs landed at arbitrary positions in
        /// the scan order and the two could disagree.
        #[test]
        fn exact_split_gain_matches_realized_partition(
            values in proptest::collection::vec(
                proptest::option::weighted(0.75, -10.0f64..10.0), 8..50),
        ) {
            let col: Vec<f64> = values.iter().map(|v| v.unwrap_or(f64::NAN)).collect();
            let n = col.len();
            // Targets correlate with both sign and missingness so that
            // splits (including the finite-vs-missing boundary) pay off.
            let y: Vec<f64> = col
                .iter()
                .map(|v| if v.is_nan() { 3.0 } else if *v > 0.0 { 1.0 } else { -1.0 })
                .collect();
            let cols = DenseColumns { n_rows: n, cols: vec![col] };
            let grad: Vec<f64> = y.iter().map(|v| -v).collect();
            let hess = vec![1.0; n];
            let rows: Vec<usize> = (0..n).collect();
            let params = TreeParams {
                min_samples_leaf: 1,
                lambda: 1.0,
                min_gain: 1e-12,
                ..TreeParams::default()
            };
            let columns = TrainingColumns::from_dense_columns(cols.clone(), SplitMethod::Exact);
            let mut grower = Grower {
                columns: &columns,
                grad: &grad,
                hess: &hess,
                params: &params,
                rng: &mut StdRng::seed_from_u64(0),
                scratch: SplitScratch::default(),
                nodes: Vec::new(),
            };
            let (gt, ht) = (grad.iter().sum(), hess.iter().sum());
            let mut search = SplitSearch::new(&params, n, gt, ht);
            grower.find_split(&mut search, &rows, &[0], None);
            if let Some(split) = search.best {
                let mut part = rows.clone();
                let mid = partition(&mut part, |r| cols.value(r, 0) <= split.threshold);
                prop_assert!(mid > 0 && mid < n, "split must separate rows");
                let sum = |idx: &[usize]| -> (f64, f64) {
                    idx.iter().fold((0.0, 0.0), |(g, h), &r| (g + grad[r], h + hess[r]))
                };
                let (gl, hl) = sum(&part[..mid]);
                let (gr, hr) = sum(&part[mid..]);
                let (gt, ht) = sum(&rows);
                let realized = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - gt * gt / (ht + params.lambda));
                let tol = 1e-9 * split.gain.abs().max(1.0);
                prop_assert!(
                    (realized - split.gain).abs() <= tol,
                    "advertised gain {} vs realized {}",
                    split.gain,
                    realized
                );
            }
        }

        /// The binning invariant behind histogram thresholds: for every
        /// finite value and every cut index, `v <= cuts[b]` iff
        /// `bin(v) <= b`, so a threshold at `cuts[b]` partitions values
        /// exactly like the bin-index partition used during training.
        #[test]
        fn bin_mapping_agrees_with_thresholds(
            values in proptest::collection::vec(-1000.0f64..1000.0, 2..200),
            max_bins in 3usize..40,
        ) {
            let cols = DenseColumns { n_rows: values.len(), cols: vec![values.clone()] };
            let binned = BinnedColumns::from_columns(&cols, max_bins);
            let feat = &binned.feats[0];
            prop_assert!(feat.cuts.windows(2).all(|w| w[0] < w[1]), "cuts strictly increase");
            for (r, &v) in values.iter().enumerate() {
                let bin = feat.bins[r] as usize;
                for (b, &cut) in feat.cuts.iter().enumerate() {
                    prop_assert_eq!(
                        v <= cut,
                        bin <= b,
                        "value {} bin {} cut[{}]={}",
                        v, bin, b, cut
                    );
                }
            }
        }

        /// Histogram and exact training stay close on NaN-free data: with
        /// fewer distinct values than bins the candidate thresholds
        /// coincide, so predictions match to float-accumulation noise.
        #[test]
        fn binned_matches_exact_on_low_cardinality_data(
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 60;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![f64::from(rng.gen_range(0u8..8)), f64::from(rng.gen_range(0u8..4))])
                .collect();
            let y: Vec<f64> = rows.iter().map(|r| r[0] - 0.5 * r[1]).collect();
            let cols = DenseColumns::from_dense(&DenseMatrix::from_rows(&rows).unwrap());
            let params = TreeParams { lambda: 0.0, ..TreeParams::default() };
            let exact = fit_regression(&cols, &y, &params, &mut StdRng::seed_from_u64(seed));
            let binned = fit_regression_binned(&cols, &y, &params, &mut StdRng::seed_from_u64(seed));
            for row in &rows {
                let (a, b) = (exact.predict_dense_row(row), binned.predict_dense_row(row));
                prop_assert!((a - b).abs() < 1e-6, "exact {} vs binned {}", a, b);
            }
        }
    }
}
