//! Quality ablations for the design choices called out in DESIGN.md §7:
//!
//! 1. featurization granularity — the paper's 21-point percentile grid vs
//!    deciles vs a fixed-bin histogram of the max-class probability,
//! 2. meta-model — random forest (paper) vs gradient-boosted regressor vs
//!    a trivial mean predictor,
//! 3. validator features — percentiles+KS (paper) vs percentiles only,
//! 4. training-copy budget — how MAE decays with runs-per-generator,
//! 5. conformal calibration — empirical coverage and mean width of the 90%
//!    interval vs the calibration hold-out stride.
//!
//! `cargo run --release -p lvp-bench --bin ablations [-- --scale small]`

use lvp_bench::{
    estimate_and_accuracy, prepare_split, serving_errors, train_for, write_results, ExperimentEnv,
    ResultRow, Summary,
};
use lvp_core::{
    generate_batches_resilient, prediction_statistics, Metric, PerformancePredictor,
    PerformanceValidator, PredictorConfig, TrainingExample, ValidatorConfig,
};
use lvp_corruptions::{standard_tabular_suite, ErrorGen, Mixture};
use lvp_dataframe::DataFrame;
use lvp_datasets::DatasetKind;
use lvp_linalg::DenseMatrix;
use lvp_models::gbdt::{GbdtConfig, GbdtRegressor};
use lvp_models::{model_accuracy, BlackBoxModel, ModelKind, Regressor};
use lvp_stats::{f1_score, mean_absolute_error, percentiles};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Decile featurization (11 points per class instead of 21).
fn decile_features(proba: &DenseMatrix) -> Vec<f64> {
    let grid: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    let mut out = Vec::new();
    for c in 0..proba.cols() {
        out.extend(percentiles(&proba.column(c), &grid));
    }
    out
}

/// Histogram of the max-class probability in 10 fixed bins.
fn histogram_features(proba: &DenseMatrix) -> Vec<f64> {
    let mut bins = vec![0.0; 10];
    let n = proba.rows().max(1) as f64;
    for row in proba.row_iter() {
        let p_max = row.iter().copied().fold(0.0f64, f64::max);
        let bin = ((p_max * 10.0) as usize).min(9);
        bins[bin] += 1.0 / n;
    }
    bins
}

struct EvalData {
    model: Arc<dyn BlackBoxModel>,
    test: DataFrame,
    serving: DataFrame,
}

fn setup(env: &ExperimentEnv) -> EvalData {
    let mut rng = env.rng("ablations/setup");
    let split = prepare_split(DatasetKind::Income, env.scale, &mut rng);
    let model = train_for(ModelKind::Xgb, &split.train, env.scale, &mut rng);
    EvalData {
        model,
        test: split.test,
        serving: split.serving,
    }
}

/// MAE of a feature-variant predictor over mixture-corrupted batches: the
/// meta-forest trains on Algorithm 1's batches, featurized by `featurize`.
fn featurization_mae(
    data: &EvalData,
    env: &ExperimentEnv,
    featurize: &(dyn Fn(&DenseMatrix) -> Vec<f64> + Sync),
    rng: &mut StdRng,
) -> f64 {
    let gens = standard_tabular_suite(data.test.schema());
    let (x_rows, y): (Vec<Vec<f64>>, Vec<f64>) = generate_batches_resilient(
        data.model.as_ref(),
        &data.test,
        &gens,
        env.scale.runs_per_generator(),
        5,
        Metric::Accuracy,
        rng.gen(),
        true,
        1.0,
        None,
        |b| (featurize(&b.proba), b.score),
    )
    .expect("accuracy metric fits any class count")
    .results
    .into_iter()
    .unzip();
    let x = DenseMatrix::from_rows(&x_rows).expect("uniform feature rows");
    let (forest, _) = lvp_models::forest::RandomForestRegressor::fit_cv(
        &x,
        &y,
        &[lvp_models::forest::ForestConfig::default()],
        3,
        rng,
    )
    .expect("forest fit");

    let mixture = Mixture::from_boxes(standard_tabular_suite(data.serving.schema()));
    let mut est = Vec::new();
    let mut truth = Vec::new();
    for _ in 0..env.scale.serving_batches() {
        let batch = data.serving.sample_n(env.scale.serving_batch_rows(), rng);
        let corrupted = mixture.corrupt(&batch, rng);
        let proba = data.model.predict_proba(&corrupted);
        let f = DenseMatrix::from_rows(&[featurize(&proba)]).expect("single row");
        est.push(forest.predict(&f)[0].clamp(0.0, 1.0));
        truth.push(model_accuracy(data.model.as_ref(), &corrupted));
    }
    mean_absolute_error(&est, &truth)
}

fn main() {
    let env = ExperimentEnv::from_args();
    let data = setup(&env);
    let mut rows = Vec::new();

    // --- Ablation 1: featurization granularity -------------------------
    println!("## ablation 1: featurization (income/xgb, mixture serving)");
    let mut rng = env.rng("ablations/features");
    for (name, f) in [
        (
            "vigintiles (paper)",
            &prediction_statistics as &(dyn Fn(&DenseMatrix) -> Vec<f64> + Sync),
        ),
        ("deciles", &(|p: &DenseMatrix| decile_features(p)) as _),
        ("histogram", &(|p: &DenseMatrix| histogram_features(p)) as _),
    ] {
        let mae = featurization_mae(&data, &env, f, &mut rng);
        println!("{name:<22} MAE {mae:.4}");
        rows.push(ResultRow::new("ablation-features", "income", "xgb", name).with("mae", mae));
    }

    // --- Ablation 2: meta-model ----------------------------------------
    println!("\n## ablation 2: meta-model");
    let mut rng = env.rng("ablations/meta");
    let gens = standard_tabular_suite(data.test.schema());
    let examples = generate_batches_resilient(
        data.model.as_ref(),
        &data.test,
        &gens,
        env.scale.runs_per_generator(),
        5,
        Metric::Accuracy,
        rng.gen(),
        true,
        1.0,
        None,
        TrainingExample::from_batch,
    )
    .expect("accuracy metric fits any class count")
    .results;
    let x = DenseMatrix::from_rows(
        &examples
            .iter()
            .map(|e| e.features.clone())
            .collect::<Vec<_>>(),
    )
    .expect("uniform rows");
    let y: Vec<f64> = examples.iter().map(|e| e.score).collect();
    let mean_score = y.iter().sum::<f64>() / y.len() as f64;

    let forest = lvp_models::forest::RandomForestRegressor::fit(
        &x,
        &y,
        &lvp_models::forest::ForestConfig::default(),
        &mut rng,
    )
    .expect("forest fit");
    let gbr = GbdtRegressor::fit(
        &x,
        &y,
        &GbdtConfig {
            n_rounds: 60,
            learning_rate: 0.15,
            ..GbdtConfig::default()
        },
        &mut rng,
    )
    .expect("gbdt fit");

    let mixture = Mixture::from_boxes(standard_tabular_suite(data.serving.schema()));
    let mut truth = Vec::new();
    let mut forest_est = Vec::new();
    let mut gbr_est = Vec::new();
    let mut mean_est = Vec::new();
    for _ in 0..env.scale.serving_batches() {
        let batch = data
            .serving
            .sample_n(env.scale.serving_batch_rows(), &mut rng);
        let corrupted = mixture.corrupt(&batch, &mut rng);
        let proba = data.model.predict_proba(&corrupted);
        let f = DenseMatrix::from_rows(&[prediction_statistics(&proba)]).expect("row");
        forest_est.push(forest.predict(&f)[0].clamp(0.0, 1.0));
        gbr_est.push(gbr.predict(&f)[0].clamp(0.0, 1.0));
        mean_est.push(mean_score);
        truth.push(model_accuracy(data.model.as_ref(), &corrupted));
    }
    for (name, est) in [
        ("random forest (paper)", &forest_est),
        ("gbdt regressor", &gbr_est),
        ("constant mean", &mean_est),
    ] {
        let mae = mean_absolute_error(est, &truth);
        println!("{name:<22} MAE {mae:.4}");
        rows.push(ResultRow::new("ablation-meta", "income", "xgb", name).with("mae", mae));
    }

    // --- Ablation 3: validator features ---------------------------------
    println!("\n## ablation 3: validator features (t = 5%)");
    let mut rng = env.rng("ablations/validator");
    for (name, use_ks) in [
        ("percentiles + KS (paper)", true),
        ("percentiles only", false),
    ] {
        let cfg = ValidatorConfig {
            use_ks_features: use_ks,
            ..env.scale.validator_config(0.05)
        };
        let validator = PerformanceValidator::fit(
            Arc::clone(&data.model),
            &data.test,
            &standard_tabular_suite(data.test.schema()),
            &cfg,
            &mut rng,
        )
        .expect("validator fit");
        let mixture = Mixture::from_boxes(standard_tabular_suite(data.serving.schema()));
        let cutoff = 0.95 * validator.test_score();
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for i in 0..env.scale.serving_batches() {
            let batch = data
                .serving
                .sample_n(env.scale.serving_batch_rows(), &mut rng);
            let batch = if i % 3 == 0 {
                batch
            } else {
                mixture.corrupt(&batch, &mut rng)
            };
            truth.push(model_accuracy(data.model.as_ref(), &batch) < cutoff);
            pred.push(
                !validator
                    .validate(&batch)
                    .expect("non-empty")
                    .within_threshold,
            );
        }
        let f1 = f1_score(&pred, &truth);
        println!("{name:<26} F1 {f1:.3}");
        rows.push(ResultRow::new("ablation-validator", "income", "xgb", name).with("f1", f1));
    }

    // --- Ablation 4: training-copy budget --------------------------------
    println!("\n## ablation 4: corrupted copies per generator");
    let mut rng = env.rng("ablations/budget");
    for runs in [5usize, 15, 40, 100] {
        let cfg = PredictorConfig {
            runs_per_generator: runs,
            clean_copies: 5,
            forest_grid: vec![lvp_models::forest::ForestConfig::default()],
            ..PredictorConfig::default()
        };
        let predictor = PerformancePredictor::fit(
            Arc::clone(&data.model),
            &data.test,
            &standard_tabular_suite(data.test.schema()),
            &cfg,
            &mut rng,
        )
        .expect("predictor fit");
        let mixture = Mixture::from_boxes(standard_tabular_suite(data.serving.schema()));
        let abs_errors = serving_errors(
            &predictor,
            &data.serving,
            &mixture,
            None,
            env.scale,
            &mut rng,
        );
        let s = Summary::of(&abs_errors);
        println!("runs={runs:<4} MAE {:.4} (median {:.4})", s.mean, s.median);
        rows.push(
            s.into_row(
                ResultRow::new("ablation-budget", "income", "xgb", format!("runs={runs}"))
                    .with("runs", runs as f64),
            ),
        );
    }

    // --- Ablation 5: conformal calibration budget ------------------------
    // Clean and mixture-corrupted serving batches (1:2, like ablation 3);
    // the interval targets 90% coverage of the true score at every stride.
    println!("\n## ablation 5: conformal calibration (90% target coverage)");
    let mut rng = env.rng("ablations/interval");
    for (name, stride) in [
        ("quantiles only", 0usize),
        ("stride 4 (hold out 1/4)", 4),
        ("stride 3 (hold out 1/3)", 3),
        ("stride 2 (equal split)", 2),
    ] {
        let cfg = PredictorConfig {
            runs_per_generator: env.scale.runs_per_generator(),
            clean_copies: 5,
            calibration_stride: stride,
            forest_grid: vec![lvp_models::forest::ForestConfig::default()],
            ..PredictorConfig::default()
        };
        let predictor = PerformancePredictor::fit(
            Arc::clone(&data.model),
            &data.test,
            &standard_tabular_suite(data.test.schema()),
            &cfg,
            &mut rng,
        )
        .expect("predictor fit");
        let n_cal = predictor.calibration_residuals().map_or(0, <[f64]>::len);
        let mixture = Mixture::from_boxes(standard_tabular_suite(data.serving.schema()));
        let batches = env.scale.serving_batches();
        let mut covered = 0usize;
        let mut widths = Vec::new();
        for i in 0..batches {
            let batch = data
                .serving
                .sample_n(env.scale.serving_batch_rows(), &mut rng);
            let batch = if i % 3 == 0 {
                batch
            } else {
                mixture.corrupt(&batch, &mut rng)
            };
            let (interval, truth) = estimate_and_accuracy(&predictor, &batch);
            covered += usize::from(interval.contains(truth));
            widths.push(interval.width());
        }
        let coverage = covered as f64 / batches as f64;
        let width = widths.iter().sum::<f64>() / widths.len() as f64;
        println!("{name:<26} n_cal {n_cal:>3}  coverage {coverage:.3}  mean width {width:.3}");
        rows.push(
            ResultRow::new("ablation-interval", "income", "xgb", name)
                .with("stride", stride as f64)
                .with("n_calibration", n_cal as f64)
                .with("coverage", coverage)
                .with("mean_width", width),
        );
    }

    write_results("ablations", &rows);
}
