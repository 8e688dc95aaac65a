//! Mergeable streaming sketches for percentile and ECDF features.
//!
//! The paper's featurization ζ (§4) assumes a fully materialized batch:
//! percentiles come from sorting whole output columns, and the validator's
//! KS features compare against the entire retained test matrix. Neither
//! survives unbounded serving traffic or fleet-level (multi-shard)
//! monitoring. This module supplies the streaming counterparts:
//!
//! * [`QuantileSketch`] — a fixed-grid compactor over a known value range
//!   (model outputs live in `[0, 1]`), refined with exact per-bin min/max,
//!   answering percentile queries with a **proven value-error bound**
//!   ε = (hi − lo) / bins (see below);
//! * [`EcdfSketch`] — the counts view of a quantile sketch (its bin counts
//!   without the extrema), answering KS-distance queries with **exact rank
//!   information at bin edges** (rank error 0 at edges, ≤ one bin's mass
//!   inside a bin).
//!
//! Only the quantile sketch takes in values, so a streaming window keeps
//! one sketch per output column and bins each value once; its ECDF is
//! built from those counts when a KS test needs it.
//!
//! # Why not GK / KLL?
//!
//! Classic GK/KLL quantile sketches carry tighter worst-case space for
//! unbounded ranges, but their `merge` is *not* bit-associative: the
//! compaction schedule depends on how the merge tree was parenthesized, so
//! a fleet-level merge of N shard sketches would not be bit-identical to
//! the single-stream sketch — which is exactly the contract the monitor's
//! sharded path promises (DESIGN.md §5h). The quantile sketch here is
//! instead a **commutative monoid**: its state is bin counts (`u64`
//! addition) and per-bin min/max (order-insensitive), so `merge` is exactly
//! associative *and* commutative — any merge order, any thread schedule, any
//! shard/chunk grouping produces bit-identical state. Model outputs are
//! probabilities, so the fixed `[0, 1]` range loses nothing.
//!
//! # Error contract
//!
//! For a [`QuantileSketch`] over `[lo, hi]` with `b` bins and no
//! out-of-range clamping, every percentile query returns a value within
//! `ε = (hi − lo) / b` of the exact linear-interpolated percentile of the
//! inserted finite values: cumulative bin counts are exact, so the target
//! rank's order statistic lies in the same bin the query interpolates in,
//! and both values lie between that bin's observed min and max (≤ one bin
//! wide apart). A bin holding a single distinct value (`min == max`)
//! answers exactly — all-tied batches featurize with zero error.
//!
//! For an [`EcdfSketch`], the CDF at any bin edge is the exact fraction of
//! inserted values strictly below that edge; the KS distance between two
//! sketches over the same grid is the exact KS distance of the quantized
//! samples, which differs from the exact-sample KS distance by at most the
//! largest per-bin mass fraction of either sample.

use crate::tests::ks_p_value;
use crate::TestOutcome;
use serde::{Deserialize, Serialize};

/// Default bin count for featurization sketches: 512 bins over `[0, 1]`
/// bound every percentile feature's deviation from the exact oracle by
/// `1/512 ≈ 0.002` while keeping a sketch under 13 KiB.
pub const DEFAULT_SKETCH_BINS: usize = 512;

/// Error merging two sketches with incompatible grids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchMergeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl std::fmt::Display for SketchMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sketch merge error: {}", self.message)
    }
}

impl std::error::Error for SketchMergeError {}

fn check_same_grid(
    kind: &str,
    (alo, ahi, abins): (f64, f64, usize),
    (blo, bhi, bbins): (f64, f64, usize),
) -> Result<(), SketchMergeError> {
    if alo.to_bits() != blo.to_bits() || ahi.to_bits() != bhi.to_bits() || abins != bbins {
        return Err(SketchMergeError {
            message: format!(
                "{kind} grids differ: [{alo}, {ahi}] × {abins} bins vs \
                 [{blo}, {bhi}] × {bbins} bins"
            ),
        });
    }
    Ok(())
}

/// Rejects a grid `insert` cannot bin into and a total `n` that is not the
/// sum of the bin `counts` — state no sequence of inserts and merges
/// reaches, which only deserialization can produce.
fn check_grid_and_total(lo: f64, hi: f64, counts: &[u64], n: u64) -> Result<(), String> {
    if !(lo.is_finite() && hi.is_finite() && lo < hi) || counts.is_empty() {
        return Err(format!(
            "grid [{lo}, {hi}] × {} bins is empty",
            counts.len()
        ));
    }
    let sum = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
    if sum != Some(n) {
        return Err(format!("total {n} is not the sum of its bin counts"));
    }
    Ok(())
}

/// Bin index of `v` on the grid `[lo, hi]` with `bins` bins; out-of-range
/// values clamp into the end bins (callers count clamps separately).
fn bin_of(v: f64, lo: f64, hi: f64, bins: usize) -> usize {
    let w = (hi - lo) / bins as f64;
    let idx = ((v - lo) / w).floor();
    if idx < 0.0 {
        0
    } else {
        (idx as usize).min(bins - 1)
    }
}

/// A mergeable fixed-grid quantile sketch with exact per-bin min/max.
///
/// State is `O(bins)` regardless of how many values stream through, and
/// [`QuantileSketch::merge`] is exactly associative and commutative (bin
/// counts add, per-bin extrema combine), so shard-merged state is
/// bit-identical to single-stream state. See the module docs for the
/// value-error bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Lower edge of the value grid.
    lo: f64,
    /// Upper edge of the value grid.
    hi: f64,
    /// Per-bin counts of inserted finite values.
    counts: Vec<u64>,
    /// Smallest value observed per bin (`NaN` for empty bins — never
    /// queried, serialized as `null` and restored verbatim).
    bin_min: Vec<f64>,
    /// Largest value observed per bin.
    bin_max: Vec<f64>,
    /// Total finite values inserted.
    n: u64,
    /// Non-finite values dropped (NaN-poisoned cells from corrupted data).
    dropped: u64,
    /// Finite values outside `[lo, hi]` clamped into the end bins.
    clamped: u64,
}

/// Bit-identical equality: two sketches are equal exactly when every
/// float matches by `to_bits` (the NaN sentinels in empty bins compare
/// equal to themselves, unlike under IEEE `==`). This is the equality the
/// merge-determinism guarantees are stated in, so persisted and shard-
/// merged sketches can be compared directly against live ones.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.counts == other.counts
            && bits_eq(&self.bin_min, &other.bin_min)
            && bits_eq(&self.bin_max, &other.bin_max)
            && self.n == other.n
            && self.dropped == other.dropped
            && self.clamped == other.clamped
    }
}

impl Eq for QuantileSketch {}

impl QuantileSketch {
    /// An empty sketch over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics when the range is not finite and increasing or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "sketch range must be finite and increasing"
        );
        assert!(bins > 0, "sketch needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            bin_min: vec![f64::NAN; bins],
            bin_max: vec![f64::NAN; bins],
            n: 0,
            dropped: 0,
            clamped: 0,
        }
    }

    /// An empty sketch over the probability range `[0, 1]` with
    /// [`DEFAULT_SKETCH_BINS`] bins — the configuration the featurization
    /// path uses for model outputs.
    pub fn unit() -> Self {
        Self::new(0.0, 1.0, DEFAULT_SKETCH_BINS)
    }

    /// Inserts one value. Non-finite values are dropped (counted in
    /// [`Self::dropped`]); finite out-of-range values clamp into the end
    /// bins (counted in [`Self::clamped`], which voids the error bound for
    /// those bins — see [`Self::value_error_bound`]).
    pub fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        if v < self.lo || v > self.hi {
            self.clamped += 1;
        }
        let b = bin_of(v, self.lo, self.hi, self.counts.len());
        self.counts[b] += 1;
        if self.bin_min[b].is_nan() || v < self.bin_min[b] {
            self.bin_min[b] = v;
        }
        if self.bin_max[b].is_nan() || v > self.bin_max[b] {
            self.bin_max[b] = v;
        }
        self.n += 1;
    }

    /// Inserts every value of an iterator.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.insert(v);
        }
    }

    /// Folds `other` into `self`. Exactly associative and commutative:
    /// counts add, extrema combine, so any merge tree over the same
    /// sketches yields bit-identical state.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchMergeError> {
        check_same_grid("quantile sketch", self.grid(), other.grid())?;
        for b in 0..self.counts.len() {
            self.counts[b] += other.counts[b];
            if self.bin_min[b].is_nan() || other.bin_min[b] < self.bin_min[b] {
                self.bin_min[b] = other.bin_min[b].min(self.bin_min[b].min(f64::INFINITY));
            }
            if self.bin_max[b].is_nan() || other.bin_max[b] > self.bin_max[b] {
                self.bin_max[b] = other.bin_max[b].max(self.bin_max[b].max(f64::NEG_INFINITY));
            }
            // Re-normalize the empty-bin sentinel: ±∞ can only appear when
            // both sides were NaN, i.e. the merged bin is still empty.
            if self.counts[b] == 0 {
                self.bin_min[b] = f64::NAN;
                self.bin_max[b] = f64::NAN;
            }
        }
        self.n += other.n;
        self.dropped += other.dropped;
        self.clamped += other.clamped;
        Ok(())
    }

    /// The value at integer order-statistic rank `k` (0-based), estimated
    /// by locating `k`'s bin via exact cumulative counts and linearly
    /// interpolating between that bin's observed min and max.
    fn order_statistic(&self, k: u64) -> f64 {
        debug_assert!(self.n > 0 && k < self.n);
        let mut cum = 0u64;
        for b in 0..self.counts.len() {
            let c = self.counts[b];
            if c > 0 && k < cum + c {
                if c == 1 || self.bin_min[b] == self.bin_max[b] {
                    return self.bin_min[b];
                }
                let within = (k - cum) as f64 / (c - 1) as f64;
                return self.bin_min[b] + (self.bin_max[b] - self.bin_min[b]) * within;
            }
            cum += c;
        }
        // Unreachable for k < n; defensive fallback to the global max.
        self.bin_max
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Percentile query with the same linear-interpolation convention as
    /// [`crate::percentile_sorted`]: `q` is clamped into `[0, 100]`, the
    /// fractional rank is `q/100 · (n−1)`, and neighbouring order
    /// statistics are interpolated. Empty sketches return NaN.
    pub fn query(&self, q: f64) -> f64 {
        match self.n {
            0 => f64::NAN,
            1 => self.order_statistic(0),
            n => {
                let rank =
                    (q.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64).clamp(0.0, (n - 1) as f64);
                let lo = rank.floor() as u64;
                let hi = rank.ceil() as u64;
                if lo == hi {
                    self.order_statistic(lo)
                } else {
                    let w = rank - lo as f64;
                    self.order_statistic(lo) * (1.0 - w) + self.order_statistic(hi) * w
                }
            }
        }
    }

    /// Appends the requested percentiles to `out`, mirroring
    /// [`crate::PercentileScratch::extend_percentiles`] semantics: an
    /// empty sketch yields `0.0` for every requested percentile (the
    /// neutral featurization of an empty batch).
    pub fn extend_percentiles(&self, qs: &[f64], out: &mut Vec<f64>) {
        if self.n == 0 {
            out.extend(std::iter::repeat_n(0.0, qs.len()));
            return;
        }
        out.extend(qs.iter().map(|&q| self.query(q)));
    }

    /// The proven per-query value-error bound ε versus the exact
    /// linear-interpolated percentile: one bin width when nothing was
    /// clamped, otherwise the widest observed bin span (clamped values can
    /// stretch the end bins beyond a grid step).
    pub fn value_error_bound(&self) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        if self.clamped == 0 {
            return width;
        }
        self.bin_min
            .iter()
            .zip(&self.bin_max)
            .filter(|(lo, _)| !lo.is_nan())
            .map(|(lo, hi)| hi - lo)
            .fold(width, f64::max)
    }

    /// Total finite values inserted.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Non-finite values dropped on insert.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finite out-of-range values clamped into the end bins.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of grid bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// The grid as `(lo, hi, bins)`.
    pub fn grid(&self) -> (f64, f64, usize) {
        (self.lo, self.hi, self.counts.len())
    }

    /// Checks that the state (typically deserialized) is one `insert` and
    /// `merge` can reach: a non-empty grid, minima and maxima for every
    /// bin, finite ordered extrema exactly on the non-empty bins (`NaN` on
    /// the empty ones), and a total equal to the bin counts' sum.
    pub fn check_consistent(&self) -> Result<(), String> {
        check_grid_and_total(self.lo, self.hi, &self.counts, self.n)?;
        let bins = self.counts.len();
        if self.bin_min.len() != bins || self.bin_max.len() != bins {
            return Err(format!(
                "{bins} bins but {} minima and {} maxima",
                self.bin_min.len(),
                self.bin_max.len()
            ));
        }
        let extrema = self.bin_min.iter().zip(&self.bin_max);
        for (b, (&c, (&lo, &hi))) in self.counts.iter().zip(extrema).enumerate() {
            let ok = match c {
                0 => lo.is_nan() && hi.is_nan(),
                _ => lo.is_finite() && hi.is_finite() && lo <= hi,
            };
            if !ok {
                return Err(format!("bin {b} holds {c} values but extrema [{lo}, {hi}]"));
            }
        }
        Ok(())
    }

    /// Approximate in-memory footprint in bytes — fixed by the bin count,
    /// independent of how many values streamed through.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.len() * (8 + 8 + 8)
    }
}

/// The counts view of a [`QuantileSketch`]: its grid, bin counts, total
/// and dropped count, without the per-bin extrema.
///
/// That is all a KS-distance query needs: ranks at bin edges, where the
/// counts are exact. The only way to build one is from a quantile sketch
/// ([`From<&QuantileSketch>`]), so the view and its sketch cannot
/// disagree; v3/v4 artifacts persist reference ECDFs in this shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcdfSketch {
    /// Lower edge of the value grid.
    lo: f64,
    /// Upper edge of the value grid.
    hi: f64,
    /// Per-bin counts of inserted finite values.
    counts: Vec<u64>,
    /// Total finite values inserted.
    n: u64,
    /// Non-finite values dropped.
    dropped: u64,
}

impl From<&QuantileSketch> for EcdfSketch {
    fn from(q: &QuantileSketch) -> Self {
        Self {
            lo: q.lo,
            hi: q.hi,
            counts: q.counts.clone(),
            n: q.n,
            dropped: q.dropped,
        }
    }
}

impl EcdfSketch {
    /// Two-sample KS test between the sketched distributions. The
    /// statistic `D = sup |F_a − F_b|` is taken over the quantized
    /// empirical CDFs at bin edges (where both are exact for the quantized
    /// samples); the p-value uses the same asymptotic formula and
    /// small-sample correction as [`crate::ks_two_sample`] with the
    /// sketches' finite counts as sample sizes. Either sketch being empty
    /// yields `D = 0, p = 1` (no evidence), matching
    /// [`crate::ks_two_sample`]'s convention.
    pub fn ks_test(&self, other: &Self) -> Result<TestOutcome, SketchMergeError> {
        check_same_grid("ecdf sketch", self.grid(), other.grid())?;
        if self.n == 0 || other.n == 0 {
            return Ok(TestOutcome {
                statistic: 0.0,
                p_value: 1.0,
            });
        }
        let (mut ca, mut cb, mut d) = (0u64, 0u64, 0.0f64);
        for (&a, &b) in self.counts.iter().zip(&other.counts) {
            ca += a;
            cb += b;
            let fa = ca as f64 / self.n as f64;
            let fb = cb as f64 / other.n as f64;
            d = d.max((fa - fb).abs());
        }
        Ok(TestOutcome {
            statistic: d,
            p_value: ks_p_value(self.n as f64, other.n as f64, d),
        })
    }

    /// The grid as `(lo, hi, bins)`.
    pub fn grid(&self) -> (f64, f64, usize) {
        (self.lo, self.hi, self.counts.len())
    }

    /// Checks that the state (typically deserialized) is one a quantile
    /// sketch can have: a non-empty grid and a total equal to the bin
    /// counts' sum (otherwise CDF values exceed 1 and p-values are wrong).
    pub fn check_consistent(&self) -> Result<(), String> {
        check_grid_and_total(self.lo, self.hi, &self.counts, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ks_two_sample, percentiles, VIGINTILE_GRID};

    fn exact_vs_sketch(values: &[f64]) -> f64 {
        let mut s = QuantileSketch::unit();
        s.extend(values.iter().copied());
        let qs = VIGINTILE_GRID;
        let exact = percentiles(values, &qs);
        let mut sketched = Vec::new();
        s.extend_percentiles(&qs, &mut sketched);
        exact
            .iter()
            .zip(&sketched)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sketches_with_empty_bins_equal_themselves() {
        // Empty bins hold NaN min/max sentinels; under derived (IEEE)
        // equality a sketch would never equal its own clone. Equality is
        // bit-identical instead — the semantics every merge-determinism
        // guarantee is stated in.
        let mut s = QuantileSketch::unit();
        s.insert(0.25);
        assert_eq!(s, s.clone());
        let mut other = QuantileSketch::unit();
        other.insert(0.75);
        assert_ne!(s, other);
    }

    #[test]
    fn quantile_error_within_bin_width_on_uniform_grid() {
        let values: Vec<f64> = (0..10_000).map(|i| (i % 997) as f64 / 997.0).collect();
        let err = exact_vs_sketch(&values);
        assert!(err <= 1.0 / DEFAULT_SKETCH_BINS as f64 + 1e-12, "err={err}");
    }

    #[test]
    fn all_tied_values_are_exact() {
        let values = vec![0.3777; 500];
        assert_eq!(exact_vs_sketch(&values), 0.0);
    }

    #[test]
    fn singleton_and_empty_sketches() {
        let mut s = QuantileSketch::unit();
        assert!(s.query(50.0).is_nan());
        let mut out = Vec::new();
        s.extend_percentiles(&[0.0, 50.0, 100.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.0], "empty batch is neutral");
        s.insert(0.42);
        assert_eq!(s.query(0.0), 0.42);
        assert_eq!(s.query(100.0), 0.42);
    }

    #[test]
    fn nan_values_are_dropped_and_counted() {
        let mut s = QuantileSketch::unit();
        s.extend([0.1, f64::NAN, 0.9, f64::INFINITY]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.query(0.0), 0.1);
        assert_eq!(s.query(100.0), 0.9);
    }

    #[test]
    fn out_of_range_values_clamp_and_widen_the_bound() {
        let mut s = QuantileSketch::unit();
        s.extend([-0.5, 0.5, 0.9999, 1.5]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.clamped(), 2);
        // Extrema are preserved verbatim, so q=0/100 stay exact even for
        // clamped values.
        assert_eq!(s.query(0.0), -0.5);
        assert_eq!(s.query(100.0), 1.5);
        // 0.9999 and the clamped 1.5 share the top bin, stretching its
        // observed span far beyond one grid step — the bound must widen.
        assert!(s.value_error_bound() >= 0.5, "{}", s.value_error_bound());
    }

    #[test]
    fn merge_equals_streaming_bit_identically() {
        let all: Vec<f64> = (0..2000)
            .map(|i| ((i * 37) % 1000) as f64 / 1000.0)
            .collect();
        let mut single = QuantileSketch::unit();
        single.extend(all.iter().copied());
        let mut merged = QuantileSketch::unit();
        for chunk in all.chunks(170) {
            let mut part = QuantileSketch::unit();
            part.extend(chunk.iter().copied());
            merged.merge(&part).unwrap();
        }
        assert_eq!(single, merged);
    }

    #[test]
    fn merge_rejects_mismatched_grids() {
        let mut a = QuantileSketch::new(0.0, 1.0, 64);
        let b = QuantileSketch::new(0.0, 1.0, 128);
        assert!(a.merge(&b).is_err());
        let c = EcdfSketch::from(&QuantileSketch::new(0.0, 1.0, 64));
        let d = EcdfSketch::from(&QuantileSketch::new(0.0, 2.0, 64));
        assert!(c.ks_test(&d).is_err());
    }

    /// An ECDF view of `values` on a `[0, 1]` grid with `bins` bins.
    fn ecdf_of(values: &[f64], bins: usize) -> EcdfSketch {
        let mut q = QuantileSketch::new(0.0, 1.0, bins);
        q.extend(values.iter().copied());
        EcdfSketch::from(&q)
    }

    /// The largest single-bin mass fraction: the rank error of a CDF query
    /// inside a bin, and one sample's term of the KS-distance error bound
    /// versus exact samples.
    fn max_bin_mass(e: &EcdfSketch) -> f64 {
        e.counts.iter().copied().max().unwrap_or(0) as f64 / e.n as f64
    }

    #[test]
    fn ecdf_ks_matches_exact_on_spread_samples() {
        let a: Vec<f64> = (0..800).map(|i| ((i * 13) % 800) as f64 / 800.0).collect();
        let b: Vec<f64> = (0..700)
            .map(|i| (((i * 17) % 700) as f64 / 700.0) * 0.5)
            .collect();
        let exact = ks_two_sample(&a, &b);
        let sa = ecdf_of(&a, DEFAULT_SKETCH_BINS);
        let sb = ecdf_of(&b, DEFAULT_SKETCH_BINS);
        let sketched = sa.ks_test(&sb).unwrap();
        let bound = max_bin_mass(&sa) + max_bin_mass(&sb);
        assert!(
            (exact.statistic - sketched.statistic).abs() <= bound + 1e-12,
            "exact D={} sketched D={} bound={bound}",
            exact.statistic,
            sketched.statistic
        );
        assert!((exact.p_value - sketched.p_value).abs() < 0.05);
    }

    #[test]
    fn ecdf_empty_sketch_yields_no_evidence() {
        let empty = EcdfSketch::from(&QuantileSketch::unit());
        let full = ecdf_of(&[0.2, 0.8], DEFAULT_SKETCH_BINS);
        let out = empty.ks_test(&full).unwrap();
        assert_eq!(out.statistic, 0.0);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn ecdf_cdf_is_exact_at_bin_edges() {
        let values = [0.1, 0.2, 0.3, 0.9];
        let s = ecdf_of(&values, 10);
        // Floor-binning: 0.1 → bin 1, 0.2 → bin 2, 0.3 → bin 2 (float
        // division lands a hair under 3), 0.9 → bin 9. The cumulative
        // fractions at bin edges are exact for the quantized sample.
        assert_eq!(s.counts, [0, 1, 2, 0, 0, 0, 0, 0, 0, 1]);
        let cdf = |b: usize| s.counts[..=b].iter().sum::<u64>() as f64 / s.n as f64;
        assert_eq!((cdf(1), cdf(2), cdf(9)), (0.25, 0.75, 1.0));
        assert_eq!(max_bin_mass(&s), 0.5, "bin 2 holds two of four values");
    }

    #[test]
    fn sketches_round_trip_through_serde() {
        let mut q = QuantileSketch::unit();
        q.extend([0.25, 0.5, f64::NAN, 1.5]);
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantileSketch = serde_json::from_str(&json).unwrap();
        // NaN sentinels in empty bins break bitwise PartialEq; compare the
        // observable behaviour instead.
        assert_eq!(back.count(), q.count());
        assert_eq!(back.dropped(), q.dropped());
        assert_eq!(back.clamped(), q.clamped());
        for q_pct in [0.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(back.query(q_pct).to_bits(), q.query(q_pct).to_bits());
        }

        let e = EcdfSketch::from(&q);
        let json = serde_json::to_string(&e).unwrap();
        let back: EcdfSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn reachable_states_are_consistent_and_tampered_ones_are_not() {
        let mut q = QuantileSketch::unit();
        assert_eq!(q.check_consistent(), Ok(()));
        assert_eq!(EcdfSketch::from(&q).check_consistent(), Ok(()));
        q.extend([0.25, 0.5, f64::NAN, 1.5]);
        q.merge(&QuantileSketch::unit()).unwrap();
        let e = EcdfSketch::from(&q);
        assert_eq!(q.check_consistent(), Ok(()));
        assert_eq!(e.check_consistent(), Ok(()));

        let tampered = |json: &str, from: &str, to: &str| {
            assert!(json.contains(from), "{from} not in {json}");
            json.replacen(from, to, 1)
        };
        let qj = serde_json::to_string(&q).unwrap();
        for (from, to) in [
            (r#""bin_min":[null,"#, r#""bin_min":["#),
            (r#""bin_max":[null,"#, r#""bin_max":[null,null,"#),
            (r#""bin_min":[null,"#, r#""bin_min":[0.5,"#),
            (r#""counts":[0,"#, r#""counts":[1,"#),
            (r#""n":3,"#, r#""n":4,"#),
            (r#""counts":[0,"#, r#""counts":["#),
        ] {
            let bad: QuantileSketch = serde_json::from_str(&tampered(&qj, from, to)).unwrap();
            assert!(bad.check_consistent().is_err(), "{from} -> {to}");
        }
        let ej = serde_json::to_string(&e).unwrap();
        for (from, to) in [(r#""n":3,"#, r#""n":4,"#), (r#""hi":1,"#, r#""hi":0,"#)] {
            let bad: EcdfSketch = serde_json::from_str(&tampered(&ej, from, to)).unwrap();
            assert!(bad.check_consistent().is_err(), "{from} -> {to}");
        }
    }

    #[test]
    fn footprint_is_independent_of_stream_length() {
        let mut s = QuantileSketch::unit();
        let before = s.approx_bytes();
        s.extend((0..100_000).map(|i| (i % 1000) as f64 / 1000.0));
        assert_eq!(s.approx_bytes(), before);
    }
}
