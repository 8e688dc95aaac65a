//! The paper's featurization of model outputs (§3/§4): a univariate
//! non-parametric summary of each output dimension of `f`, concretely the
//! class-wise percentiles at 0, 5, 10, …, 100.
//!
//! Two interchangeable sources back the featurization:
//!
//! * an **exact** source — a fully materialized probability matrix, sorted
//!   per class column ([`prediction_statistics`], the original Algorithm
//!   1/2 path, kept as the calibrated oracle);
//! * a **sketched** source — a [`BatchSketch`] built incrementally from
//!   row chunks in `O(bins)` memory, whose per-class quantile sketches are
//!   exactly mergeable across chunks, time windows, and shards, and whose
//!   ECDFs are views of their counts (see [`lvp_stats::sketch`] for the
//!   error contract).
//!
//! Both query the same shared percentile grid
//! ([`lvp_stats::VIGINTILE_GRID`]), so the two feature layouts cannot
//! drift: dimension `class · 21 + i` always holds the `5i`-th percentile
//! of class `class`'s output distribution.

use crate::CoreError;
use lvp_linalg::DenseMatrix;
use lvp_stats::{
    ks_two_sample, EcdfSketch, PercentileScratch, QuantileSketch, TestOutcome, DEFAULT_SKETCH_BINS,
    VIGINTILE_COUNT, VIGINTILE_GRID,
};
use serde::{Deserialize, Serialize};

/// Number of feature dimensions produced for a model with `n_classes`
/// output dimensions.
pub fn feature_dimensionality(n_classes: usize) -> usize {
    n_classes * VIGINTILE_COUNT
}

/// Computes the percentile featurization ζ of a batch of model outputs
/// (`prediction_statistics` in Algorithms 1 & 2) — the exact path.
///
/// For each class column of the `n × m` probability matrix, the 0th, 5th,
/// …, 100th percentiles are collected, yielding `m · 21` features. The
/// features depend only on the *distribution* of the outputs, never on
/// labels — which is what allows applying them to unlabeled serving data.
pub fn prediction_statistics(proba: &DenseMatrix) -> Vec<f64> {
    let mut features = Vec::with_capacity(feature_dimensionality(proba.cols()));
    // One scratch buffer serves every class column: the sort happens in
    // place and no per-class Vec is materialized.
    let mut scratch = PercentileScratch::new();
    for class in 0..proba.cols() {
        scratch.extend_percentiles(proba.column_iter(class), &VIGINTILE_GRID, &mut features);
    }
    features
}

/// Streaming sketch state for one serving batch (or time window): one
/// quantile sketch per class column. Percentile features query the
/// sketches; KS tests read their counts through [`BatchSketch::ecdfs`].
///
/// Built incrementally from row chunks via [`BatchSketch::observe_chunk`]
/// in fixed `O(bins)` memory per class — a million-row batch streams
/// through without ever being resident. [`BatchSketch::merge`] folds
/// another shard's (or window's) state in; because the underlying sketches
/// are commutative monoids (see [`lvp_stats::sketch`]), the merged state
/// is **bit-identical** to the state a single stream over the same rows
/// would have produced, regardless of chunk boundaries, merge order, or
/// thread schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "WindowWire", try_from = "WindowWire")]
pub struct BatchSketch {
    /// Per-class quantile sketches.
    quantiles: Vec<QuantileSketch>,
    /// Rows observed so far.
    rows: u64,
    /// Chunks folded in via [`Self::observe_chunk`].
    chunks: u64,
    /// Sketch states folded in via [`Self::merge`].
    merges: u64,
}

impl BatchSketch {
    /// An empty sketch for `n_classes` probability columns, over the unit
    /// range with [`DEFAULT_SKETCH_BINS`] bins per class.
    pub fn new(n_classes: usize) -> Self {
        let (lo, hi, bins) = UNIT_GRID;
        Self {
            quantiles: (0..n_classes)
                .map(|_| QuantileSketch::new(lo, hi, bins))
                .collect(),
            rows: 0,
            chunks: 0,
            merges: 0,
        }
    }

    /// Builds the sketch of a fully materialized output matrix in one
    /// call.
    pub fn from_outputs(proba: &DenseMatrix) -> Self {
        let mut s = Self::new(proba.cols());
        s.observe_chunk(proba)
            .expect("class count matches by construction");
        s
    }

    /// Folds one chunk of model output rows into the sketch. Chunks may
    /// have any row count (including zero); their class count must match.
    pub fn observe_chunk(&mut self, proba: &DenseMatrix) -> Result<(), CoreError> {
        if proba.cols() != self.quantiles.len() {
            return Err(CoreError::new(format!(
                "output chunk has {} class columns but the sketch tracks {}",
                proba.cols(),
                self.quantiles.len()
            )));
        }
        for (class, q) in self.quantiles.iter_mut().enumerate() {
            q.extend(proba.column_iter(class));
        }
        self.rows += proba.rows() as u64;
        self.chunks += 1;
        Ok(())
    }

    /// Folds another sketch's state into this one (shard or window merge).
    /// Exactly associative and commutative — any merge tree over the same
    /// chunk set yields bit-identical state.
    pub fn merge(&mut self, other: &Self) -> Result<(), CoreError> {
        if other.quantiles.len() != self.quantiles.len() {
            return Err(CoreError::new(format!(
                "cannot merge a {}-class sketch into a {}-class sketch",
                other.quantiles.len(),
                self.quantiles.len()
            )));
        }
        for (q, oq) in self.quantiles.iter_mut().zip(&other.quantiles) {
            q.merge(oq)
                .map_err(|e| CoreError::with_source("merging quantile sketches", e))?;
        }
        self.rows += other.rows;
        self.chunks += other.chunks;
        self.merges += 1;
        Ok(())
    }

    /// The percentile featurization ζ queried from the sketch state: the
    /// same shared grid and layout as [`prediction_statistics`], each
    /// feature within the sketches' value-error bound of the exact oracle.
    pub fn prediction_statistics(&self) -> Vec<f64> {
        let mut features = Vec::with_capacity(feature_dimensionality(self.quantiles.len()));
        for q in &self.quantiles {
            q.extend_percentiles(&VIGINTILE_GRID, &mut features);
        }
        features
    }

    /// Rejects loaded sketch state that does not track `n_classes`
    /// classes with consistent sketches on the unit grid.
    pub(crate) fn check_shape(&self, n_classes: usize) -> Result<(), CoreError> {
        check_unit_grid(
            "quantile",
            n_classes,
            self.quantiles
                .iter()
                .map(|q| (q.check_consistent(), q.grid())),
        )
    }

    /// Per-class ECDFs: the counts view of each quantile sketch (KS / drift
    /// feature support).
    pub fn ecdfs(&self) -> Vec<EcdfSketch> {
        self.quantiles.iter().map(EcdfSketch::from).collect()
    }

    /// Number of probability columns tracked.
    pub fn n_classes(&self) -> usize {
        self.quantiles.len()
    }

    /// Rows observed so far (across all chunks and merges).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Chunks folded in so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Sketch merges folded in so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// The worst per-feature deviation bound versus the exact oracle.
    pub fn value_error_bound(&self) -> f64 {
        self.quantiles
            .iter()
            .map(QuantileSketch::value_error_bound)
            .fold(0.0, f64::max)
    }

    /// Approximate in-memory footprint in bytes — fixed by class count ×
    /// bin count, independent of how many rows streamed through.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .quantiles
                .iter()
                .map(QuantileSketch::approx_bytes)
                .sum::<usize>()
    }
}

/// The v4 wire form of a [`BatchSketch`]: its fields plus `ecdfs`, the
/// counts view of each quantile sketch, written for readers that keep an
/// ECDF sketch per class beside the quantile sketch. A window whose
/// `ecdfs` are not that view is rejected on read.
#[derive(Serialize, Deserialize)]
struct WindowWire {
    quantiles: Vec<QuantileSketch>,
    ecdfs: Vec<EcdfSketch>,
    rows: u64,
    chunks: u64,
    merges: u64,
}

impl From<BatchSketch> for WindowWire {
    fn from(window: BatchSketch) -> Self {
        Self {
            ecdfs: window.ecdfs(),
            quantiles: window.quantiles,
            rows: window.rows,
            chunks: window.chunks,
            merges: window.merges,
        }
    }
}

impl TryFrom<WindowWire> for BatchSketch {
    type Error = CoreError;

    fn try_from(wire: WindowWire) -> Result<Self, CoreError> {
        let window = Self {
            quantiles: wire.quantiles,
            rows: wire.rows,
            chunks: wire.chunks,
            merges: wire.merges,
        };
        let views = window.ecdfs();
        let classes = views.len().max(wire.ecdfs.len());
        match (0..classes).find(|&c| wire.ecdfs.get(c) != views.get(c)) {
            Some(class) => Err(CoreError::new(format!(
                "window ECDF sketch of class {class} is not the counts of its quantile sketch"
            ))),
            None => Ok(window),
        }
    }
}

/// One serving batch's output distribution, backed by either source.
///
/// The predictor, validator, and monitor are written against this enum, so
/// they run identically off a materialized matrix (exact oracle) or
/// streaming sketch state.
pub enum FeatureSource<'a> {
    /// Fully materialized model outputs — the exact path.
    Exact(&'a DenseMatrix),
    /// Incrementally built sketch state — the streaming path.
    Sketched(&'a BatchSketch),
}

impl FeatureSource<'_> {
    /// Number of probability columns the source describes.
    pub fn n_classes(&self) -> usize {
        match self {
            FeatureSource::Exact(proba) => proba.cols(),
            FeatureSource::Sketched(sketch) => sketch.n_classes(),
        }
    }

    /// The percentile featurization ζ of the source.
    pub fn percentile_features(&self) -> Vec<f64> {
        match self {
            FeatureSource::Exact(proba) => prediction_statistics(proba),
            FeatureSource::Sketched(sketch) => sketch.prediction_statistics(),
        }
    }

    /// Rejects a source whose class count differs from the `expected` one
    /// the `fitted` estimator ("predictor", "validator") was trained for.
    pub(crate) fn check_classes(&self, expected: usize, fitted: &str) -> Result<(), CoreError> {
        let (describe, n) = match self {
            FeatureSource::Exact(proba) => ("output matrix has", proba.cols()),
            FeatureSource::Sketched(sketch) => ("batch sketch tracks", sketch.n_classes()),
        };
        if n == expected {
            return Ok(());
        }
        Err(CoreError::new(format!(
            "{describe} {n} class columns but the {fitted} was fitted for {expected} classes"
        )))
    }
}

/// The grid every sketch runs on: the unit probability range with
/// [`DEFAULT_SKETCH_BINS`] bins. Sketches are only comparable and mergeable
/// on one grid, so loaded sketch state must sit on it.
const UNIT_GRID: (f64, f64, usize) = (0.0, 1.0, DEFAULT_SKETCH_BINS);

/// Rejects `what` unless it holds one sketch per class, each consistent
/// and on the [`UNIT_GRID`]. `sketches` yields each sketch's
/// `check_consistent` outcome and grid.
fn check_unit_grid(
    what: &str,
    n_classes: usize,
    sketches: impl ExactSizeIterator<Item = (Result<(), String>, (f64, f64, usize))>,
) -> Result<(), CoreError> {
    if sketches.len() != n_classes {
        return Err(CoreError::new(format!(
            "{what} holds {} sketches but the model has {n_classes} classes",
            sketches.len()
        )));
    }
    for (consistent, grid) in sketches {
        consistent.map_err(|e| CoreError::new(format!("{what} sketch is inconsistent: {e}")))?;
        if grid != UNIT_GRID {
            return Err(CoreError::new(format!(
                "{what} sketch grid {grid:?} is not the unit grid {UNIT_GRID:?}"
            )));
        }
    }
    Ok(())
}

/// The black box's per-class outputs on the reference (held-out test)
/// data: what every output KS test — the validator's KS features, the
/// monitor's drift telemetry, BBSE — compares a serving batch against.
///
/// It always holds the per-class ECDF sketches on the [`UNIT_GRID`], and
/// the exact columns when they are materialized (they are not after a
/// monitor restore: monitor artifacts persist only the sketches). A
/// reference built from columns takes each ECDF as the counts view of the
/// column's quantile sketch, the same inserts a serving window makes.
pub(crate) struct OutputReference {
    columns: Option<Vec<Vec<f64>>>,
    ecdfs: Vec<EcdfSketch>,
}

impl OutputReference {
    /// Retains materialized per-class output columns and sketches them.
    pub(crate) fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        let (lo, hi, bins) = UNIT_GRID;
        let ecdfs = columns
            .iter()
            .map(|col| {
                let mut q = QuantileSketch::new(lo, hi, bins);
                q.extend(col.iter().copied());
                EcdfSketch::from(&q)
            })
            .collect();
        Self {
            columns: Some(columns),
            ecdfs,
        }
    }

    /// Retains a materialized output matrix, column by column.
    pub(crate) fn from_outputs(proba: &DenseMatrix) -> Self {
        Self::from_columns((0..proba.cols()).map(|c| proba.column(c)).collect())
    }

    /// A loaded sketch-only reference (a restored monitor's): `ecdfs` must
    /// hold one unit-grid sketch per class of an `n_classes` model.
    pub(crate) fn new(ecdfs: Vec<EcdfSketch>, n_classes: usize) -> Result<Self, CoreError> {
        check_unit_grid(
            "reference ECDF",
            n_classes,
            ecdfs.iter().map(|e| (e.check_consistent(), e.grid())),
        )?;
        Ok(Self {
            columns: None,
            ecdfs,
        })
    }

    /// The exact per-class columns, when materialized.
    pub(crate) fn columns(&self) -> Option<&[Vec<f64>]> {
        self.columns.as_deref()
    }

    /// The per-class ECDF sketches.
    pub(crate) fn ecdfs(&self) -> &[EcdfSketch] {
        &self.ecdfs
    }

    /// Per-class two-sample KS outcomes of `source` against the reference.
    /// An exact source is tested against the columns, a sketched one
    /// sketch-to-sketch; an exact source against a sketch-only reference
    /// yields no outcomes (no drift evidence). A class-count mismatch is
    /// rejected: truncating the per-class list would shift every
    /// downstream feature index.
    pub(crate) fn ks(&self, source: &FeatureSource<'_>) -> Result<Vec<TestOutcome>, CoreError> {
        source.check_classes(self.ecdfs.len(), "output reference")?;
        match (source, &self.columns) {
            (FeatureSource::Exact(proba), Some(columns)) => Ok(columns
                .iter()
                .enumerate()
                .map(|(class, col)| ks_two_sample(&proba.column(class), col))
                .collect()),
            (FeatureSource::Exact(_), None) => Ok(Vec::new()),
            (FeatureSource::Sketched(sketch), _) => sketch
                .ecdfs()
                .iter()
                .zip(&self.ecdfs)
                .map(|(serving, reference)| {
                    serving
                        .ks_test(reference)
                        .map_err(|e| CoreError::with_source("sketched KS test", e))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensionality_is_classes_times_grid() {
        assert_eq!(feature_dimensionality(2), 42);
        assert_eq!(feature_dimensionality(3), 63);
    }

    #[test]
    fn features_match_dimensionality() {
        let proba = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.9, 0.1]]).unwrap();
        let f = prediction_statistics(&proba);
        assert_eq!(f.len(), feature_dimensionality(2));
    }

    #[test]
    fn constant_outputs_yield_constant_percentiles() {
        let proba = DenseMatrix::from_rows(&vec![vec![0.7, 0.3]; 5]).unwrap();
        let f = prediction_statistics(&proba);
        assert!(f[..VIGINTILE_COUNT]
            .iter()
            .all(|&v| (v - 0.7).abs() < 1e-12));
        assert!(f[VIGINTILE_COUNT..]
            .iter()
            .all(|&v| (v - 0.3).abs() < 1e-12));
    }

    #[test]
    fn per_class_blocks_are_monotone() {
        let proba = DenseMatrix::from_rows(&[
            vec![0.1, 0.9],
            vec![0.5, 0.5],
            vec![0.8, 0.2],
            vec![0.3, 0.7],
        ])
        .unwrap();
        let f = prediction_statistics(&proba);
        for block in f.chunks(VIGINTILE_COUNT) {
            for w in block.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn shifted_output_distribution_changes_features() {
        let confident = DenseMatrix::from_rows(&vec![vec![0.95, 0.05]; 10]).unwrap();
        let uncertain = DenseMatrix::from_rows(&vec![vec![0.55, 0.45]; 10]).unwrap();
        assert_ne!(
            prediction_statistics(&confident),
            prediction_statistics(&uncertain)
        );
    }

    #[test]
    fn empty_batch_yields_neutral_features() {
        let proba = DenseMatrix::zeros(0, 2);
        let f = prediction_statistics(&proba);
        assert_eq!(f.len(), 42);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    /// A deterministic spread-out probability matrix for sketch tests.
    fn spread_outputs(rows: usize) -> DenseMatrix {
        let data: Vec<f64> = (0..rows)
            .flat_map(|i| {
                let p = ((i * 61) % 997) as f64 / 997.0;
                [p, 1.0 - p]
            })
            .collect();
        DenseMatrix::from_vec(rows, 2, data).unwrap()
    }

    #[test]
    fn sketched_features_stay_within_the_error_bound() {
        let proba = spread_outputs(5_000);
        let sketch = BatchSketch::from_outputs(&proba);
        let exact = prediction_statistics(&proba);
        let sketched = sketch.prediction_statistics();
        assert_eq!(exact.len(), sketched.len());
        let bound = sketch.value_error_bound() + 1e-12;
        for (i, (a, b)) in exact.iter().zip(&sketched).enumerate() {
            assert!((a - b).abs() <= bound, "dim {i}: exact {a} sketched {b}");
        }
    }

    #[test]
    fn chunked_observation_is_bit_identical_to_one_shot() {
        let proba = spread_outputs(1_000);
        let whole = BatchSketch::from_outputs(&proba);
        let mut chunked = BatchSketch::new(2);
        let rows: Vec<usize> = (0..proba.rows()).collect();
        for chunk in rows.chunks(137) {
            chunked.observe_chunk(&proba.select_rows(chunk)).unwrap();
        }
        assert_eq!(
            whole.prediction_statistics(),
            chunked.prediction_statistics()
        );
        assert_eq!(whole.rows(), chunked.rows());
    }

    #[test]
    fn shard_merge_is_bit_identical_to_single_stream() {
        let proba = spread_outputs(1_200);
        let rows: Vec<usize> = (0..proba.rows()).collect();
        let mut single = BatchSketch::new(2);
        for chunk in rows.chunks(100) {
            single.observe_chunk(&proba.select_rows(chunk)).unwrap();
        }
        // 4 shards × 3 chunks, merged in shard order.
        let mut merged = BatchSketch::new(2);
        for shard_rows in rows.chunks(300) {
            let mut shard = BatchSketch::new(2);
            for chunk in shard_rows.chunks(100) {
                shard.observe_chunk(&proba.select_rows(chunk)).unwrap();
            }
            merged.merge(&shard).unwrap();
        }
        let a = single.prediction_statistics();
        let b = merged.prediction_statistics();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(single.rows(), merged.rows());
        assert_eq!(merged.merges(), 4);
    }

    #[test]
    fn sketch_rejects_mismatched_class_counts() {
        let mut sketch = BatchSketch::new(2);
        let wide = DenseMatrix::from_vec(3, 3, vec![1.0 / 3.0; 9]).unwrap();
        assert!(sketch.observe_chunk(&wide).is_err());
        let other = BatchSketch::new(3);
        assert!(sketch.merge(&other).is_err());
    }

    #[test]
    fn feature_source_is_uniform_over_both_backends() {
        let proba = spread_outputs(400);
        let sketch = BatchSketch::from_outputs(&proba);
        let exact = FeatureSource::Exact(&proba);
        let sketched = FeatureSource::Sketched(&sketch);
        assert_eq!(exact.n_classes(), 2);
        assert_eq!(sketched.n_classes(), 2);
        let fe = exact.percentile_features();
        let fs = sketched.percentile_features();
        assert_eq!(fe.len(), fs.len());
        let bound = sketch.value_error_bound() + 1e-12;
        for (a, b) in fe.iter().zip(&fs) {
            assert!((a - b).abs() <= bound);
        }
    }

    #[test]
    fn window_json_carries_the_ecdf_view_and_rejects_any_other() {
        let window = BatchSketch::from_outputs(&spread_outputs(300));
        let json = serde_json::to_string(&window).unwrap();
        let keys: Vec<usize> = ["quantiles", "ecdfs", "rows", "chunks", "merges"]
            .iter()
            .map(|k| json.find(&format!(r#""{k}":"#)).unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        let ecdfs_field = |ecdfs: &str| format!(r#""ecdfs":{ecdfs},"#);
        let ecdfs = serde_json::to_string(&window.ecdfs()).unwrap();
        assert!(json.contains(&ecdfs_field(&ecdfs)));
        let back: BatchSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, window);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // Class 1's ECDF swapped for one of 300 other outputs: a consistent
        // sketch on the unit grid, but not the view of its quantile sketch.
        let tied = DenseMatrix::from_rows(&vec![vec![0.5, 0.5]; 300]).unwrap();
        let mut views = window.ecdfs();
        views[1] = BatchSketch::from_outputs(&tied).ecdfs()[1].clone();
        let swapped = serde_json::to_string(&views).unwrap();
        let tampered = json.replacen(&ecdfs_field(&ecdfs), &ecdfs_field(&swapped), 1);
        let err = serde_json::from_str::<BatchSketch>(&tampered).unwrap_err();
        assert!(
            err.to_string().contains("window ECDF sketch of class 1"),
            "{err}"
        );
        let dropped = json.replacen(&ecdfs_field(&ecdfs), &ecdfs_field("[]"), 1);
        let err = serde_json::from_str::<BatchSketch>(&dropped).unwrap_err();
        assert!(
            err.to_string().contains("window ECDF sketch of class 0"),
            "{err}"
        );
    }

    #[test]
    fn footprint_is_fixed_while_rows_stream_through() {
        let mut sketch = BatchSketch::new(2);
        let chunk = spread_outputs(1_000);
        sketch.observe_chunk(&chunk).unwrap();
        let bytes = sketch.approx_bytes();
        for _ in 0..20 {
            sketch.observe_chunk(&chunk).unwrap();
        }
        assert_eq!(sketch.approx_bytes(), bytes);
        assert_eq!(sketch.rows(), 21_000);
    }
}
