//! Determinism: every pipeline stage must be reproducible under a fixed
//! seed — a requirement for debuggable experiments.

use lvp_core::{
    generate_batches_resilient, Metric, PerformancePredictor, PredictorConfig, TrainingExample,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_models::{train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn datasets_are_deterministic() {
    for kind in lvp::datasets::DatasetKind::ALL {
        let a = lvp::datasets::generate(kind, 80, &mut StdRng::seed_from_u64(5));
        let b = lvp::datasets::generate(kind, 80, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b, "{}", kind.name());
    }
}

#[test]
fn corruption_is_deterministic() {
    let df = lvp::datasets::income(100, &mut StdRng::seed_from_u64(1));
    for gen in standard_tabular_suite(df.schema()) {
        let a = gen.corrupt(&df, &mut StdRng::seed_from_u64(9));
        let b = gen.corrupt(&df, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b, "{}", gen.name());
    }
}

#[test]
fn model_training_is_deterministic() {
    let df = lvp::datasets::heart(300, &mut StdRng::seed_from_u64(2));
    let m1 = train_model_quick(ModelKind::Lr, &df, &mut StdRng::seed_from_u64(3)).unwrap();
    let m2 = train_model_quick(ModelKind::Lr, &df, &mut StdRng::seed_from_u64(3)).unwrap();
    let p1 = m1.predict_proba(&df);
    let p2 = m2.predict_proba(&df);
    assert_eq!(p1, p2);
}

#[test]
fn predictor_estimates_are_deterministic() {
    let df = lvp::datasets::income(400, &mut StdRng::seed_from_u64(4));
    let (source, serving) = df.split_frac(0.5, &mut StdRng::seed_from_u64(5));
    let (train, test) = source.split_frac(0.7, &mut StdRng::seed_from_u64(6));

    let estimate = |seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let predictor =
            PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng)
                .unwrap();
        predictor.predict(&serving).unwrap()
    };

    assert_eq!(estimate(11), estimate(11));
}

/// Fixture for the batch-engine determinism tests: a trained model, the
/// test frame and the generator suite.
fn engine_fixture() -> (Arc<dyn BlackBoxModel>, lvp_dataframe::DataFrame) {
    let df = lvp::datasets::income(300, &mut StdRng::seed_from_u64(21));
    let (train, test) = df.split_frac(0.6, &mut StdRng::seed_from_u64(22));
    let model: Arc<dyn BlackBoxModel> = Arc::from(
        train_model_quick(ModelKind::Lr, &train, &mut StdRng::seed_from_u64(23)).unwrap(),
    );
    (model, test)
}

fn generate(
    model: &dyn BlackBoxModel,
    test: &lvp_dataframe::DataFrame,
    master_seed: u64,
    parallel: bool,
) -> Vec<TrainingExample> {
    let gens = standard_tabular_suite(test.schema());
    generate_batches_resilient(
        model,
        test,
        &gens,
        8,
        4,
        Metric::Accuracy,
        master_seed,
        parallel,
        1.0,
        None,
        TrainingExample::from_batch,
    )
    .expect("accuracy metric fits any class count")
    .results
}

#[test]
fn parallel_generation_is_bit_identical_to_sequential() {
    let (model, test) = engine_fixture();
    let sequential = generate(model.as_ref(), &test, 77, false);
    let parallel = generate(model.as_ref(), &test, 77, true);
    assert_eq!(sequential, parallel);
    // And a different master seed genuinely changes the stream.
    assert_ne!(sequential, generate(model.as_ref(), &test, 78, false));
}

#[test]
fn generation_is_identical_across_thread_counts() {
    let (model, test) = engine_fixture();
    let run_with = |threads: usize| -> Vec<TrainingExample> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| generate(model.as_ref(), &test, 55, true))
    };
    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four);
}

/// The tree-backed pipeline end to end — histogram-trained GBDT black box,
/// Algorithm 1 generation, histogram-trained meta-forest, blocked tree
/// inference throughout — must be bit-identical across thread counts.
#[test]
fn xgb_predictor_pipeline_is_bit_identical_across_thread_counts() {
    let df = lvp::datasets::income(400, &mut StdRng::seed_from_u64(31));
    let (source, serving) = df.split_frac(0.5, &mut StdRng::seed_from_u64(32));
    let (train, test) = source.split_frac(0.7, &mut StdRng::seed_from_u64(33));

    let run_with = |threads: usize| -> u64 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut rng = StdRng::seed_from_u64(34);
                let model: Arc<dyn BlackBoxModel> =
                    Arc::from(train_model_quick(ModelKind::Xgb, &train, &mut rng).unwrap());
                let gens = standard_tabular_suite(test.schema());
                let predictor = PerformancePredictor::fit(
                    model,
                    &test,
                    &gens,
                    &PredictorConfig::fast(),
                    &mut rng,
                )
                .unwrap();
                predictor.predict(&serving).unwrap().to_bits()
            })
    };

    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four);
    assert_eq!(four, run_with(4));
}

/// Attaching telemetry must be a pure observer: the instrumented fit path
/// (engine phase timers, model call counters) never touches an RNG, so the
/// fitted predictor's estimates are bit-identical with and without a
/// registry attached.
#[test]
fn telemetry_does_not_perturb_predictor_estimates() {
    let df = lvp::datasets::income(350, &mut StdRng::seed_from_u64(61));
    let (source, serving) = df.split_frac(0.5, &mut StdRng::seed_from_u64(62));
    let (train, test) = source.split_frac(0.7, &mut StdRng::seed_from_u64(63));

    let estimate = |instrument: bool| -> f64 {
        let registry = lvp_telemetry::Registry::new();
        let mut model =
            train_model_quick(ModelKind::Lr, &train, &mut StdRng::seed_from_u64(64)).unwrap();
        if instrument {
            model.attach_telemetry(&registry);
        }
        let model: Arc<dyn BlackBoxModel> = Arc::from(model);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit_instrumented(
            model,
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut StdRng::seed_from_u64(65),
            instrument.then_some(&registry),
        )
        .unwrap();
        predictor.predict(&serving).unwrap()
    };

    assert_eq!(estimate(false), estimate(true));
}

/// Repeated generation runs against one model instance — sequential,
/// parallel, and at 1 and 4 threads — must reproduce the first run bit for
/// bit: the black box carries no state from one call to the next.
#[test]
fn repeated_generation_with_one_model_is_deterministic() {
    let (model, test) = engine_fixture();
    let reference = generate(model.as_ref(), &test, 91, false);
    assert_eq!(reference, generate(model.as_ref(), &test, 91, true));
    let run_with = |threads: usize| -> Vec<TrainingExample> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| generate(model.as_ref(), &test, 91, true))
    };
    assert_eq!(reference, run_with(1));
    assert_eq!(reference, run_with(4));
}

/// The calibrated interval pipeline — the deterministic calibration split,
/// the auxiliary forest, the per-tree quantiles, the conformal half-width —
/// must be bit-identical across reruns and thread counts, exactly like the
/// point path it wraps.
#[test]
fn interval_predictions_are_bit_identical_across_thread_counts() {
    let df = lvp::datasets::income(400, &mut StdRng::seed_from_u64(4));
    let (source, serving) = df.split_frac(0.5, &mut StdRng::seed_from_u64(5));
    let (train, test) = source.split_frac(0.7, &mut StdRng::seed_from_u64(6));

    let run_with = |threads: usize| -> (u64, u64, u64, Vec<u64>) {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut rng = StdRng::seed_from_u64(11);
                let model: Arc<dyn BlackBoxModel> =
                    Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
                let gens = standard_tabular_suite(test.schema());
                let predictor = PerformancePredictor::fit(
                    model,
                    &test,
                    &gens,
                    &PredictorConfig::fast(),
                    &mut rng,
                )
                .unwrap();
                let interval = predictor.predict_interval(&serving).unwrap();
                let residuals = predictor
                    .calibration_residuals()
                    .expect("default config calibrates")
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                (
                    interval.lo.to_bits(),
                    interval.point.to_bits(),
                    interval.hi.to_bits(),
                    residuals,
                )
            })
    };

    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four);
    // And a rerun at the same thread count reproduces the same bits.
    assert_eq!(four, run_with(4));
}

/// Pins the black box's own outputs: `checksum64` digests of the
/// `predict_proba` bits of an lr and an xgb `PipelineModel`, on a seeded
/// income frame and on a copy-on-write corrupted copy of it. Any change to
/// featurization or inference that moves a single probability bit fails
/// here, independent of the downstream meta-model.
#[test]
fn pipeline_outputs_are_pinned_golden() {
    let df = lvp::datasets::income(300, &mut StdRng::seed_from_u64(71));
    let mut corrupted = df.clone();
    let mut rng = StdRng::seed_from_u64(72);
    for gen in &standard_tabular_suite(df.schema())[..2] {
        corrupted = gen.corrupt(&corrupted, &mut rng);
    }
    assert!(
        (0..df.n_cols()).any(|i| corrupted.shares_column_storage(&df, i)),
        "the corrupted copy shares its untouched columns"
    );
    let digest = |model: &dyn BlackBoxModel, frame: &lvp_dataframe::DataFrame| -> u64 {
        let bytes: Vec<u8> = model
            .predict_proba(frame)
            .data()
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        lvp_core::checksum64(&bytes)
    };
    let mut digests = Vec::new();
    for kind in [ModelKind::Lr, ModelKind::Xgb] {
        let model = train_model_quick(kind, &df, &mut StdRng::seed_from_u64(73)).unwrap();
        digests.push(digest(model.as_ref(), &df));
        digests.push(digest(model.as_ref(), &corrupted));
    }
    assert_eq!(
        digests,
        [
            0xdf80_b519_2aff_321a, // lr, clean
            0x5471_db82_8d7b_34ab, // lr, corrupted
            0x3260_695a_4974_c8ef, // xgb, clean
            0x3fb6_8c31_baaf_06a8, // xgb, corrupted
        ]
    );
}

/// Pins the cross-validated training path, which the quick-mode golden
/// above never reaches: `checksum64` digests of the `predict_proba` bits of
/// an lr, a dnn and an xgb pipeline built by `train_model` (5-fold grid
/// search over each family's default grid), each followed by the next draw
/// of the training RNG, plus the predictions, chosen tree count and next
/// draw of a two-config `RandomForestRegressor::fit_cv`. A change to the
/// fold draw, the per-candidate seeds, the fold scoring or the refit fails
/// here. Every fit above uses histogram splits, so a forest, a GBDT
/// classifier and a GBDT regressor trained with `SplitMethod::Exact` on a
/// copy of the forest's data with missing values are pinned too: the exact
/// oracle's trees must not move either.
#[test]
fn cross_validated_training_is_pinned_golden() {
    use lvp_models::forest::{ForestConfig, RandomForestRegressor};
    use lvp_models::gbdt::{GbdtClassifier, GbdtConfig, GbdtRegressor};
    use lvp_models::tree::SplitMethod;
    use lvp_models::{train_model, Classifier};
    use rand::Rng;

    let floats = |values: &[f64]| -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        lvp_core::checksum64(&bytes)
    };
    let df = lvp::datasets::income(240, &mut StdRng::seed_from_u64(81));
    let mut pinned = Vec::new();
    for kind in ModelKind::TABULAR {
        let mut rng = StdRng::seed_from_u64(82);
        let model = train_model(kind, &df, &mut rng).unwrap();
        pinned.push(floats(model.predict_proba(&df).data()));
        pinned.push(rng.gen::<u64>());
    }

    let mut rng = StdRng::seed_from_u64(83);
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1] * r[2]).collect();
    let x = lvp::linalg::DenseMatrix::from_rows(&rows).unwrap();
    let grid: Vec<ForestConfig> = [4, 12]
        .into_iter()
        .map(|n_trees| ForestConfig {
            n_trees,
            max_depth: 4,
            ..ForestConfig::default()
        })
        .collect();
    let (forest, cfg) = RandomForestRegressor::fit_cv(&x, &targets, &grid, 5, &mut rng).unwrap();
    pinned.push(floats(&forest.predict(&x)));
    pinned.push(cfg.n_trees as u64);
    pinned.push(rng.gen::<u64>());

    // Every 11th value missing: the exact finder's NaN-last scan and the
    // partition's NaN-goes-right rule both take part.
    let nan_rows: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let masked = |(j, &v): (usize, &f64)| if (4 * i + j) % 11 == 0 { f64::NAN } else { v };
            r.iter().enumerate().map(masked).collect()
        })
        .collect();
    let x_nan = lvp::linalg::DenseMatrix::from_rows(&nan_rows).unwrap();
    let exact_forest = ForestConfig {
        n_trees: 6,
        max_depth: 5,
        split_method: SplitMethod::Exact,
    };
    let forest = RandomForestRegressor::fit(&x_nan, &targets, &exact_forest, &mut rng).unwrap();
    pinned.push(floats(&forest.predict(&x_nan)));
    let exact_gbdt = GbdtConfig {
        n_rounds: 8,
        split_method: SplitMethod::Exact,
        ..GbdtConfig::default()
    };
    let labels: Vec<u32> = targets.iter().map(|&t| u32::from(t > 0.0)).collect();
    let csr = lvp::linalg::CsrMatrix::from_dense(&x_nan);
    let gbdt = GbdtClassifier::fit(&csr, &labels, 2, &exact_gbdt, &mut rng).unwrap();
    pinned.push(floats(gbdt.predict_proba(&csr).data()));
    let gbdt = GbdtRegressor::fit(&x_nan, &targets, &exact_gbdt, &mut rng).unwrap();
    pinned.push(floats(&gbdt.predict(&x_nan)));
    pinned.push(rng.gen::<u64>());

    assert_eq!(
        pinned,
        [
            0xdc36_62a9_7ca7_65aa, // lr, predictions
            0xce12_6262_1ee7_481e, // lr, next draw
            0x8673_e4a8_db70_b8cb, // dnn, predictions
            0xc338_0b5e_16bf_7717, // dnn, next draw
            0x86e6_a6b4_7c40_45c7, // xgb, predictions
            0x23e0_21e2_e166_824e, // xgb, next draw
            0xa86d_0c12_91c8_951f, // forest, predictions
            12,                    // forest, chosen tree count
            0xf1e4_f4a5_923b_7aa5, // forest, next draw
            0x0992_4861_b37e_fe1b, // exact forest, predictions
            0xbe67_3487_efb0_415a, // exact gbdt classifier, predictions
            0x5218_4c13_62aa_e7c2, // exact gbdt regressor, predictions
            0xfec5_39a6_d1bb_8d8c, // exact fits, next draw
        ]
    );
}

/// Pins every error generator's corrupted copies and RNG consumption: for
/// each generator of the standard, unknown, extended, image and text suites
/// (plus the model-entropy missing values with and without a model,
/// categorical encoding errors and a mixture), a `checksum64` over the
/// `frame_content_key` of the copy and the next `u64` the RNG yields, for a
/// few seeds, on a small frame and on a copy of it with every fourth cell
/// missing (the per-row coin is also tossed for missing cells).
#[test]
fn every_generator_is_pinned_golden() {
    use lvp_corruptions::{
        extended_tabular_suite, image_suite, text_suite, unknown_tabular_suite, EncodingErrors,
        EntropyMissingValues, ErrorGen, Mixture,
    };
    use lvp_dataframe::DataFrame;
    use lvp_models::resilience::frame_content_key;
    use rand::Rng;

    let with_holes = |df: &DataFrame| -> DataFrame {
        let mut holed = df.clone();
        for col in 0..df.n_cols() {
            for row in (col % 4..df.n_rows()).step_by(4) {
                holed.column_mut(col).set_null(row);
            }
        }
        holed
    };
    let pin = |gen: &dyn ErrorGen, df: &DataFrame, model: Option<&dyn BlackBoxModel>| -> u64 {
        let mut bytes = Vec::new();
        for frame in [df.clone(), with_holes(df)] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = gen.corrupt_with_model(&frame, model, &mut rng);
                bytes.extend(frame_content_key(&out).to_le_bytes());
                bytes.extend(rng.gen::<u64>().to_le_bytes());
            }
        }
        lvp_core::checksum64(&bytes)
    };

    let income = lvp::datasets::income(80, &mut StdRng::seed_from_u64(91));
    let tweets = lvp::datasets::tweets(40, &mut StdRng::seed_from_u64(92));
    let digits = lvp::datasets::digits(12, &mut StdRng::seed_from_u64(93));
    let model = train_model_quick(ModelKind::Lr, &income, &mut StdRng::seed_from_u64(94)).unwrap();
    let schema = income.schema();

    let mut pinned: Vec<(String, u64)> = Vec::new();
    let mut tabular = standard_tabular_suite(schema);
    tabular.extend(unknown_tabular_suite(schema));
    tabular.extend(extended_tabular_suite(schema));
    tabular.push(Box::new(EncodingErrors::all_categorical(schema)));
    tabular.push(Box::new(Mixture::from_boxes(standard_tabular_suite(
        schema,
    ))));
    for gen in &tabular {
        pinned.push((gen.name().to_string(), pin(gen.as_ref(), &income, None)));
    }
    let entropy = EntropyMissingValues::all_tabular(schema);
    pinned.push(("entropy".into(), pin(&entropy, &income, None)));
    pinned.push((
        "entropy+model".into(),
        pin(&entropy, &income, Some(model.as_ref())),
    ));
    for gen in text_suite(tweets.schema()) {
        pinned.push((gen.name().to_string(), pin(gen.as_ref(), &tweets, None)));
    }
    for gen in image_suite(digits.schema()) {
        pinned.push((gen.name().to_string(), pin(gen.as_ref(), &digits, None)));
    }
    let expected = [
        ("missing_values", 0x5b75_cd9c_0b82_852a),
        ("outliers", 0x9126_80a1_6645_258c),
        ("swapped_columns", 0xb834_9ec5_9629_6a6f),
        ("scaling", 0x8a67_1e68_fdec_85f5),
        ("typos", 0xa12e_ec4a_f083_ad3d),
        ("smearing", 0x0b16_8fe2_bd62_c8bf),
        ("flipped_sign", 0xa595_c261_fa20_28d0),
        ("selection_bias", 0x37a6_c94b_cf36_aeff),
        ("category_flip", 0xdd0d_5fb5_7c72_bfd8),
        ("constant_fill", 0x49a9_64c5_5bfc_fc92),
        ("duplicate_rows", 0xec33_8ce9_3832_1a34),
        ("encoding_errors", 0xe54f_e067_e36d_283c),
        (
            "mixture(missing_values+outliers+swapped_columns+scaling)",
            0xae2a_f193_658f_334f,
        ),
        ("entropy", 0x8845_592a_8583_caee),
        ("entropy+model", 0x10b6_17ac_d6a7_e858),
        ("adversarial_leetspeak", 0xaa13_f0f1_ca2c_4cc6),
        ("encoding_errors", 0x5eb8_7205_f808_6dda),
        ("image_noise", 0xa128_37c5_b957_0e48),
        ("image_rotation", 0x42e1_a532_6422_9254),
    ];
    let got: Vec<(&str, u64)> = pinned.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    assert_eq!(got, expected);
}

/// Pins histogram-split training at the sizes where the split finder's
/// accumulation changes shape: a `checksum64` of a depth-12 forest's
/// per-tree predictions, of the per-tree predictions and chosen tree count
/// of a `fit_cv` over `default_forest_grid()`, and of a depth-3 GBDT
/// regressor's predictions, each followed by the next draw of the RNG. The
/// 800-row data has two columns of more than 254 distinct values (one with
/// NaN, one with `+inf` and a point mass at zero) and four tie-heavy
/// columns, so roots and their large children take the flat all-features
/// histogram, mid-size nodes accumulate one feature at a time, and deep
/// nodes hold far fewer rows than a 256-bin feature has bins.
#[test]
fn histogram_trees_are_pinned_golden() {
    use lvp_models::forest::{default_forest_grid, ForestConfig, RandomForestRegressor};
    use lvp_models::gbdt::{GbdtConfig, GbdtRegressor};
    use rand::Rng;

    let floats = |values: &[f64]| -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        lvp_core::checksum64(&bytes)
    };
    let mut rng = StdRng::seed_from_u64(101);
    let rows: Vec<Vec<f64>> = (0..800)
        .map(|i| {
            let wide = if i % 13 == 0 {
                f64::NAN
            } else {
                rng.gen_range(-3.0..3.0)
            };
            let massed = if i % 17 == 0 {
                f64::INFINITY
            } else if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            };
            vec![
                wide,
                f64::from(rng.gen_range(0u8..6)),
                massed,
                f64::from(i / 40),
                (rng.gen_range(0.0..4.0) * 10.0f64).round() / 10.0,
                f64::from(rng.gen_range(0u8..12)) - 5.0,
            ]
        })
        .collect();
    let targets: Vec<f64> = rows
        .iter()
        .map(|r| {
            let wide = if r[0].is_nan() { 2.0 } else { r[0].sin() };
            let massed = if r[2] == f64::INFINITY { -1.5 } else { r[2] };
            wide + massed * r[1] + 0.1 * r[3] - 0.3 * r[4] * r[5].signum()
        })
        .collect();
    let x = lvp::linalg::DenseMatrix::from_rows(&rows).unwrap();

    let mut pinned = Vec::new();
    let deep = ForestConfig {
        n_trees: 20,
        ..ForestConfig::default()
    };
    assert_eq!(deep.max_depth, 12);
    let forest = RandomForestRegressor::fit(&x, &targets, &deep, &mut rng).unwrap();
    pinned.push(floats(forest.predict_per_tree(&x).data()));
    pinned.push(rng.gen::<u64>());

    let (forest, cfg) =
        RandomForestRegressor::fit_cv(&x, &targets, &default_forest_grid(), 5, &mut rng).unwrap();
    pinned.push(floats(forest.predict_per_tree(&x).data()));
    pinned.push(cfg.n_trees as u64);
    pinned.push(rng.gen::<u64>());

    let gbdt = GbdtRegressor::fit(&x, &targets, &GbdtConfig::default(), &mut rng).unwrap();
    pinned.push(floats(&gbdt.predict(&x)));
    pinned.push(rng.gen::<u64>());

    // The meta-model's shape: 430 rows of 2 classes × 21 sorted
    // percentile-like columns, each with more distinct values than a
    // feature has bins, plus NaN and `+inf` cells. 430 × 42 row-features
    // stay below twice the ~10,700 histogram slots, so no node takes the
    // flat histogram: every split search runs the touched-bin path.
    let mut rng = StdRng::seed_from_u64(427);
    let rows: Vec<Vec<f64>> = (0..430usize)
        .map(|i| {
            let mut row = Vec::with_capacity(42);
            for _ in 0..2 {
                let centre = rng.gen_range(0.25..0.75);
                let spread = rng.gen_range(0.05..0.5);
                let start = row.len();
                row.extend((0..21).map(|_| centre + spread * (rng.gen::<f64>() - 0.5)));
                row[start..].sort_by(f64::total_cmp);
            }
            for (c, v) in row.iter_mut().enumerate() {
                if (i + 3 * c) % 61 == 0 {
                    *v = f64::NAN;
                } else if (i + 5 * c) % 73 == 0 {
                    *v = f64::INFINITY;
                }
            }
            row
        })
        .collect();
    for c in 0..42 {
        let mut column: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        column.sort_by(f64::total_cmp);
        column.dedup_by(|a, b| a.total_cmp(b).is_eq());
        assert!(column.len() > 254, "column {c}: {} distinct", column.len());
    }
    let targets: Vec<f64> = rows
        .iter()
        .map(|r| {
            let finite = |v: f64| if v.is_finite() { v } else { 0.5 };
            let low: f64 = r[..21].iter().map(|&v| finite(v)).sum::<f64>() / 21.0;
            low - 0.5 * finite(r[31]) + rng.gen_range(-0.05..0.05)
        })
        .collect();
    let x = lvp::linalg::DenseMatrix::from_rows(&rows).unwrap();
    let (forest, cfg) =
        RandomForestRegressor::fit_cv(&x, &targets, &default_forest_grid(), 5, &mut rng).unwrap();
    pinned.push(floats(forest.predict_per_tree(&x).data()));
    pinned.push(cfg.n_trees as u64);
    pinned.push(rng.gen::<u64>());

    assert_eq!(
        pinned,
        [
            0x44aa_d90d_bd89_c0ba, // depth-12 forest, per-tree predictions
            0x2b6a_0b82_de72_21b5, // depth-12 forest, next draw
            0x5265_567d_721a_82a3, // fit_cv forest, per-tree predictions
            100,                   // fit_cv forest, chosen tree count
            0x838f_0df6_5b15_0c55, // fit_cv forest, next draw
            0x39b1_e458_6434_5290, // gbdt, predictions
            0xef05_151b_211e_7d43, // gbdt, next draw
            0x90f4_5ce5_7811_4da5, // touched-bin fit_cv forest, per-tree predictions
            100,                   // touched-bin fit_cv forest, chosen tree count
            0x6c4c_7d07_1123_e5d4, // touched-bin fit_cv forest, next draw
        ]
    );
}
