//! Criterion bench: exact sort-based featurization vs streaming sketch
//! featurization across batch sizes.
//!
//! The exact path materializes every output column and sorts it
//! (O(n log n) time, O(n) memory per batch); the sketched path folds rows
//! into fixed-size bin counts (O(n) time, O(bins) memory) and reads the
//! percentile grid off the bins. The interesting quantity is the
//! crossover: at small batches the sort is cheap and the sketch's
//! per-row binning overhead dominates, while at large batches the sort's
//! superlinear cost and allocation traffic hand the win to the sketch —
//! which additionally never holds the batch at all. Crossover numbers
//! live in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use lvp_core::{prediction_statistics, BatchSketch};
use lvp_linalg::DenseMatrix;

/// A deterministic two-class probability batch: row `i` maps to the same
/// `[p, 1 − p]` pair for any batch size, so every size benches the same
/// distribution.
fn outputs(rows: usize) -> DenseMatrix {
    let data: Vec<f64> = (0..rows)
        .flat_map(|i| {
            let p = ((i.wrapping_mul(2_654_435_761)) % 100_003) as f64 / 100_003.0;
            [p, 1.0 - p]
        })
        .collect();
    DenseMatrix::from_vec(rows, 2, data).unwrap()
}

fn bench_featurize_stream(c: &mut Criterion) {
    for rows in [1_000usize, 10_000, 100_000, 1_000_000] {
        let proba = outputs(rows);

        // Sanity: the sketched features track the exact ones within the
        // sketch's proven value-error bound.
        let exact = prediction_statistics(&proba);
        let sketch = BatchSketch::from_outputs(&proba);
        let sketched = sketch.prediction_statistics();
        let bound = sketch.value_error_bound() + 1e-12;
        for (e, s) in exact.iter().zip(&sketched) {
            assert!((e - s).abs() <= bound, "exact {e} vs sketched {s}");
        }

        c.bench_function(&format!("featurize_exact_{rows}_rows"), |b| {
            b.iter(|| prediction_statistics(&proba).len())
        });

        // Whole-batch sketch: one pass over the same matrix, directly
        // comparable to the exact path above.
        c.bench_function(&format!("featurize_streamed_{rows}_rows"), |b| {
            b.iter(|| {
                BatchSketch::from_outputs(&proba)
                    .prediction_statistics()
                    .len()
            })
        });

        // The streaming path as the monitor runs it: fold fixed-size row
        // chunks into a fresh sketch (each chunk is materialized, as it
        // would arrive off the wire), then featurize the bins.
        let all: Vec<usize> = (0..rows).collect();
        c.bench_function(&format!("featurize_streamed_chunked_{rows}_rows"), |b| {
            b.iter(|| {
                let mut s = BatchSketch::new(2);
                for chunk in all.chunks(8_192) {
                    s.observe_chunk(&proba.select_rows(chunk)).unwrap();
                }
                s.prediction_statistics().len()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_featurize_stream
}
criterion_main!(benches);
