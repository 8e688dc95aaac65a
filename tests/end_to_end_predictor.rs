//! End-to-end integration tests for the performance prediction workflow
//! (Algorithm 1 + 2) across model families and datasets.

use lvp_core::{Metric, PerformancePredictor, PredictorConfig};
use lvp_corruptions::{standard_tabular_suite, ErrorGen, Mixture};
use lvp_models::{model_accuracy, train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn quick_predictor_config() -> PredictorConfig {
    PredictorConfig {
        runs_per_generator: 20,
        clean_copies: 5,
        forest_grid: vec![lvp_models::forest::ForestConfig {
            n_trees: 25,
            ..lvp_models::forest::ForestConfig::default()
        }],
        ..PredictorConfig::default()
    }
}

/// Trains a model + predictor and measures the predictor's MAE over
/// mixture-corrupted serving batches.
fn predictor_mae(kind: ModelKind, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let df = lvp::datasets::income(1_200, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(kind, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &quick_predictor_config(),
        &mut rng,
    )
    .unwrap();

    let mixture = Mixture::from_boxes(standard_tabular_suite(serving.schema()));
    let mut errors = Vec::new();
    for _ in 0..8 {
        let batch = mixture.corrupt(&serving.sample_n(250, &mut rng), &mut rng);
        let est = predictor.predict(&batch).unwrap();
        let truth = model_accuracy(model.as_ref(), &batch);
        errors.push((est - truth).abs());
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}

#[test]
fn lr_predictor_tracks_true_accuracy() {
    let mae = predictor_mae(ModelKind::Lr, 1);
    assert!(mae < 0.12, "lr predictor MAE {mae}");
}

#[test]
fn xgb_predictor_tracks_true_accuracy() {
    let mae = predictor_mae(ModelKind::Xgb, 2);
    assert!(mae < 0.12, "xgb predictor MAE {mae}");
}

#[test]
fn dnn_predictor_tracks_true_accuracy() {
    let mae = predictor_mae(ModelKind::Dnn, 3);
    assert!(mae < 0.12, "dnn predictor MAE {mae}");
}

#[test]
fn predictor_supports_auc_metric() {
    let mut rng = StdRng::seed_from_u64(4);
    let df = lvp::datasets::heart(800, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());
    let config = PredictorConfig {
        metric: Metric::Auc,
        ..quick_predictor_config()
    };
    let predictor =
        PerformancePredictor::fit(Arc::clone(&model), &test, &gens, &config, &mut rng).unwrap();
    let est = predictor.predict(&serving).unwrap();
    let truth = Metric::Auc
        .score(&model.predict_proba(&serving), serving.labels())
        .expect("lr on heart is binary");
    assert!(
        (est - truth).abs() < 0.15,
        "AUC estimate {est} vs true {truth}"
    );
}

#[test]
fn predictor_works_on_text_data() {
    let mut rng = StdRng::seed_from_u64(5);
    let df = lvp::datasets::tweets(900, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
    let gens = lvp::corruptions::text_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &quick_predictor_config(),
        &mut rng,
    )
    .unwrap();
    // An adversarial wave must lower the estimate relative to clean data.
    let attack = lvp_corruptions::AdversarialLeetspeak::all_text(serving.schema());
    let mut attacked = serving.clone();
    for _ in 0..3 {
        attacked = attack.corrupt(&attacked, &mut rng);
    }
    let clean_est = predictor.predict(&serving).unwrap();
    let attacked_est = predictor.predict(&attacked).unwrap();
    let attacked_truth = model_accuracy(model.as_ref(), &attacked);
    assert!(
        attacked_est <= clean_est + 0.02,
        "attack estimate {attacked_est} vs clean {clean_est}"
    );
    assert!(
        (attacked_est - attacked_truth).abs() < 0.2,
        "estimate {attacked_est} vs truth {attacked_truth}"
    );
}

#[test]
fn predictor_works_with_entropy_based_missing_values() {
    let mut rng = StdRng::seed_from_u64(6);
    let df = lvp::datasets::income(800, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Xgb, &train, &mut rng).unwrap());
    let gens: Vec<Box<dyn ErrorGen>> = vec![Box::new(
        lvp_corruptions::EntropyMissingValues::all_tabular(test.schema()),
    )];
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &quick_predictor_config(),
        &mut rng,
    )
    .unwrap();
    let est = predictor.predict(&serving).unwrap();
    assert!((0.0..=1.0).contains(&est));
}
