//! Streaming-sketch acceptance tests: a million-row batch flows through
//! `observe_chunk` in fixed memory, a 4-shard merged fleet report is
//! bit-identical to the single-stream report at any thread count, and
//! sketched features track the exact ones on every corrupted copy.

use lvp_core::{
    prediction_statistics, BatchMonitor, BatchSketch, MonitorPolicy, PerformancePredictor,
    PredictorConfig,
};
use lvp_corruptions::{extended_tabular_suite, standard_tabular_suite};
use lvp_dataframe::{toy_frame, CellValue, ColumnType, DataFrameBuilder, Field, Schema};
use lvp_linalg::DenseMatrix;
use lvp_models::{train_model, BlackBoxModel, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;

/// A deterministic pseudo-random probability chunk: row `base + i` maps to
/// the same `[p, 1 − p]` pair regardless of how rows are grouped into
/// chunks or shards.
fn output_chunk(base: usize, rows: usize) -> DenseMatrix {
    let data: Vec<f64> = (base..base + rows)
        .flat_map(|i| {
            let p = ((i.wrapping_mul(2_654_435_761)) % 100_003) as f64 / 100_003.0;
            [p, 1.0 - p]
        })
        .collect();
    DenseMatrix::from_vec(rows, 2, data).unwrap()
}

#[test]
fn million_rows_stream_through_in_fixed_memory() {
    const CHUNK: usize = 10_000;
    const CHUNKS: usize = 100; // 1M rows total
    let mut sketch = BatchSketch::new(2);
    sketch.observe_chunk(&output_chunk(0, CHUNK)).unwrap();
    // Footprint after one chunk is the footprint forever: the sketch never
    // allocates per row, so the whole million-row batch costs O(bins).
    let footprint = sketch.approx_bytes();
    for c in 1..CHUNKS {
        sketch
            .observe_chunk(&output_chunk(c * CHUNK, CHUNK))
            .unwrap();
        assert_eq!(sketch.approx_bytes(), footprint, "chunk {c}");
    }
    assert_eq!(sketch.rows(), (CHUNK * CHUNKS) as u64);
    assert!(
        footprint < 64 * 1024,
        "a 2-class sketch must stay under 64 KiB, got {footprint}"
    );
    // The accumulated state featurizes like any batch.
    let features = sketch.prediction_statistics();
    assert_eq!(features.len(), 42);
    assert!(features.iter().all(|v| v.is_finite()));
    // Near-uniform inputs ⇒ the median of class 0 sits near 0.5.
    assert!((features[10] - 0.5).abs() < 0.05, "median {}", features[10]);
}

fn fitted_monitor() -> (BatchMonitor, lvp_dataframe::DataFrame) {
    let df = toy_frame(300);
    let mut rng = StdRng::seed_from_u64(71);
    let (train, rest) = df.split_frac(0.4, &mut rng);
    let (test, serving) = rest.split_frac(0.5, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp_models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());
    let predictor =
        PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng).unwrap();
    let mut monitor = BatchMonitor::new(
        predictor,
        MonitorPolicy {
            threshold: 0.2,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();
    monitor.retain_reference_outputs(&test).unwrap();
    (monitor, serving)
}

#[test]
fn four_shards_merge_bit_identically_to_a_single_stream_at_any_thread_count() {
    let (mut monitor, serving) = fitted_monitor();
    let proba = monitor.predictor().model_outputs(&serving).unwrap();
    let rows: Vec<usize> = (0..proba.rows()).collect();

    // The single-stream reference: every row through one window in order.
    for chunk in rows.chunks(7) {
        monitor
            .observe_output_chunk(&proba.select_rows(chunk))
            .unwrap();
    }
    let single = monitor.finish_window().unwrap();

    // 4 shards, each sketching its quarter concurrently, at 1, 2 and 8
    // threads. Shard results are merged in shard order, but since the
    // merge is a commutative monoid, the schedule cannot matter anyway.
    let shard_rows: Vec<&[usize]> = rows.chunks(rows.len().div_ceil(4)).collect();
    assert_eq!(shard_rows.len(), 4);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let shards: Vec<BatchSketch> = pool.install(|| {
            (0..shard_rows.len())
                .into_par_iter()
                .map(|i| {
                    let mut s = BatchSketch::new(2);
                    // Different chunking per shard than the reference
                    // stream used — chunk boundaries must be invisible.
                    for chunk in shard_rows[i].chunks(3) {
                        s.observe_chunk(&proba.select_rows(chunk)).unwrap();
                    }
                    s
                })
                .collect()
        });
        let merged = monitor.merge_shard_sketches(&shards).unwrap();
        assert_eq!(
            single.estimate.to_bits(),
            merged.estimate.to_bits(),
            "{threads} threads"
        );
        assert_eq!(
            single.telemetry.per_class_ks, merged.telemetry.per_class_ks,
            "{threads} threads"
        );
    }
}

#[test]
fn merge_order_of_shards_is_irrelevant_bit_for_bit() {
    let (mut monitor, serving) = fitted_monitor();
    let proba = monitor.predictor().model_outputs(&serving).unwrap();
    let rows: Vec<usize> = (0..proba.rows()).collect();
    let mut shards: Vec<BatchSketch> = rows
        .chunks(rows.len().div_ceil(4))
        .map(|r| BatchSketch::from_outputs(&proba.select_rows(r)))
        .collect();
    let forward = monitor.merge_shard_sketches(&shards).unwrap();
    shards.reverse();
    let backward = monitor.merge_shard_sketches(&shards).unwrap();
    assert_eq!(forward.estimate.to_bits(), backward.estimate.to_bits());
    assert_eq!(
        forward.telemetry.per_class_ks,
        backward.telemetry.per_class_ks
    );
}

/// Builds a small mixed numeric/categorical frame from generated cells.
fn build_frame(nums: &[f64], cats: &[u8]) -> lvp_dataframe::DataFrame {
    let n = nums.len().min(cats.len());
    let schema = Schema::new(vec![
        Field::new("x", ColumnType::Numeric),
        Field::new("c", ColumnType::Categorical),
    ])
    .unwrap();
    let mut b = DataFrameBuilder::new(schema, vec!["n".into(), "y".into()]);
    for i in 0..n {
        b.push_row(
            vec![
                CellValue::Num(nums[i]),
                CellValue::Cat(format!("c{}", cats[i] % 5)),
            ],
            (i % 2) as u32,
        )
        .unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every corrupted CoW copy, featurizing the model's outputs
    /// through the streaming sketch stays within the sketches' proven
    /// value-error bound of the exact sort-based featurization — so a
    /// monitor running off sketches sees the same drift signal the
    /// materialized path would, for any corruption the generators produce.
    #[test]
    fn sketched_features_track_exact_features_on_corrupted_copies(
        nums in prop::collection::vec(-1000f64..1000.0, 8..60),
        cats in prop::collection::vec(0u8..255, 8..60),
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let mut gens = standard_tabular_suite(df.schema());
        gens.extend(extended_tabular_suite(df.schema()));
        for gen in gens {
            let corrupted = gen.corrupt(&df.clone(), &mut StdRng::seed_from_u64(seed));
            let proba = model.predict_proba(&corrupted);
            let exact = prediction_statistics(&proba);
            let sketch = BatchSketch::from_outputs(&proba);
            let sketched = sketch.prediction_statistics();
            prop_assert_eq!(exact.len(), sketched.len(), "{}", gen.name());
            let bound = sketch.value_error_bound() + 1e-12;
            for (i, (e, s)) in exact.iter().zip(&sketched).enumerate() {
                prop_assert!(
                    (e - s).abs() <= bound,
                    "{} dim {}: exact {} sketched {} bound {}",
                    gen.name(), i, e, s, bound
                );
            }
        }
    }
}
