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
//!   row chunks in `O(bins)` memory, whose per-class quantile and ECDF
//!   sketches are exactly mergeable across chunks, time windows, and
//!   shards (see [`lvp_stats::sketch`] for the error contract).
//!
//! Both query the same shared percentile grid
//! ([`lvp_stats::VIGINTILE_GRID`]), so the two feature layouts cannot
//! drift: dimension `class · 21 + i` always holds the `5i`-th percentile
//! of class `class`'s output distribution.

use crate::CoreError;
use lvp_linalg::DenseMatrix;
use lvp_stats::{
    ks_two_sample, EcdfSketch, PercentileScratch, QuantileSketch, DEFAULT_SKETCH_BINS,
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
/// quantile sketch and one ECDF sketch per class column.
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
pub struct BatchSketch {
    /// Per-class quantile sketches (percentile features).
    quantiles: Vec<QuantileSketch>,
    /// Per-class compressed ECDFs (KS / drift features).
    ecdfs: Vec<EcdfSketch>,
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
        Self::with_bins(n_classes, DEFAULT_SKETCH_BINS)
    }

    /// An empty sketch with an explicit per-class bin count (featurization
    /// error scales as `1 / bins`; memory as `O(bins)`).
    pub fn with_bins(n_classes: usize, bins: usize) -> Self {
        Self {
            quantiles: (0..n_classes)
                .map(|_| QuantileSketch::new(0.0, 1.0, bins))
                .collect(),
            ecdfs: (0..n_classes)
                .map(|_| EcdfSketch::new(0.0, 1.0, bins))
                .collect(),
            rows: 0,
            chunks: 0,
            merges: 0,
        }
    }

    /// Builds the sketch of a fully materialized output matrix in one
    /// call (used to sketch retained reference outputs).
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
        for class in 0..proba.cols() {
            let q = &mut self.quantiles[class];
            let e = &mut self.ecdfs[class];
            for v in proba.column_iter(class) {
                q.insert(v);
                e.insert(v);
            }
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
        for (e, oe) in self.ecdfs.iter_mut().zip(&other.ecdfs) {
            e.merge(oe)
                .map_err(|err| CoreError::with_source("merging ecdf sketches", err))?;
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

    /// Per-class compressed ECDFs (KS / drift feature support).
    pub fn ecdfs(&self) -> &[EcdfSketch] {
        &self.ecdfs
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
            + self
                .ecdfs
                .iter()
                .map(EcdfSketch::approx_bytes)
                .sum::<usize>()
    }
}

/// One serving batch's output distribution, backed by either source.
///
/// The featurization spine (`featurize_source`) is written against this
/// enum, so the predictor, validator, and monitor run identically off a
/// materialized matrix (exact oracle) or streaming sketch state.
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

/// Reference output distributions the KS features compare a batch against.
pub(crate) enum KsReference<'a> {
    /// KS features disabled.
    None,
    /// Retained per-class test-time output columns — the exact path.
    Exact(&'a [Vec<f64>]),
    /// Compressed per-class ECDFs of the test-time outputs.
    Sketched(&'a [EcdfSketch]),
}

impl KsReference<'_> {
    fn n_classes(&self) -> Option<usize> {
        match self {
            KsReference::None => None,
            KsReference::Exact(cols) => Some(cols.len()),
            KsReference::Sketched(ecdfs) => Some(ecdfs.len()),
        }
    }
}

/// Featurizes one batch of model outputs from either source: percentile
/// statistics plus, when a reference is given, per-class KS statistic and
/// p-value against the retained test-time output distributions.
///
/// The exact/exact combination reproduces the original
/// `ks_two_sample`-on-columns path bit-for-bit; sketched combinations run
/// the KS test on compressed ECDFs (an exact-source batch is sketched on
/// the fly when the reference is sketched, so both sides quantize
/// identically). A class-count mismatch between source and reference is
/// rejected outright — truncating or padding the KS loop would shift every
/// downstream feature index and the meta-model would silently consume
/// garbage.
pub(crate) fn featurize_source(
    source: &FeatureSource<'_>,
    reference: &KsReference<'_>,
) -> Result<Vec<f64>, CoreError> {
    let mut f = source.percentile_features();
    let Some(ref_classes) = reference.n_classes() else {
        return Ok(f);
    };
    if ref_classes != source.n_classes() {
        return Err(CoreError::new(format!(
            "output batch has {} class columns but the validator retained \
             test outputs for {ref_classes} classes",
            source.n_classes()
        )));
    }
    for class in 0..ref_classes {
        let outcome = match (source, reference) {
            (FeatureSource::Exact(proba), KsReference::Exact(cols)) => {
                ks_two_sample(&proba.column(class), &cols[class])
            }
            (FeatureSource::Sketched(sketch), KsReference::Sketched(ecdfs)) => sketch.ecdfs()
                [class]
                .ks_test(&ecdfs[class])
                .map_err(|e| CoreError::with_source("ks over sketched reference", e))?,
            (FeatureSource::Exact(proba), KsReference::Sketched(ecdfs)) => {
                let (lo, hi, bins) = ecdfs[class].grid();
                let mut serving = EcdfSketch::new(lo, hi, bins);
                serving.extend(proba.column_iter(class));
                serving
                    .ks_test(&ecdfs[class])
                    .map_err(|e| CoreError::with_source("ks over sketched reference", e))?
            }
            (FeatureSource::Sketched(sketch), KsReference::Exact(cols)) => {
                let (lo, hi, bins) = sketch.ecdfs()[class].grid();
                let reference = EcdfSketch::from_values(&cols[class], lo, hi, bins);
                sketch.ecdfs()[class]
                    .ks_test(&reference)
                    .map_err(|e| CoreError::with_source("ks over sketched batch", e))?
            }
            (_, KsReference::None) => unreachable!("handled above"),
        };
        f.push(outcome.statistic);
        f.push(outcome.p_value);
    }
    Ok(f)
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
