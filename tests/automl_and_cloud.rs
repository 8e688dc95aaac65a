//! Integration tests for the AutoML searchers and the simulated cloud
//! service (§6.3).

use lvp_core::{PerformancePredictor, PerformanceValidator, PredictorConfig, ValidatorConfig};
use lvp_corruptions::standard_tabular_suite;
use lvp_models::automl::{auto_sklearn_like, tpot_like};
use lvp_models::cloud::CloudModelService;
use lvp_models::{model_accuracy, BlackBoxModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn automl_models_validate_like_any_black_box() {
    let mut rng = StdRng::seed_from_u64(1);
    let df = lvp::datasets::income(900, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);

    let model: Arc<dyn BlackBoxModel> = Arc::from(auto_sklearn_like(&train, 4, &mut rng).unwrap());
    assert!(model_accuracy(model.as_ref(), &test) > 0.6);

    let gens = standard_tabular_suite(test.schema());
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &ValidatorConfig::fast(0.10),
        &mut rng,
    )
    .unwrap();
    assert!(validator.validate(&serving).unwrap().within_threshold);

    // Catastrophic corruption: null out every categorical column.
    let mut broken = serving.clone();
    for col in broken.schema().categorical_columns() {
        for row in 0..broken.n_rows() {
            broken.column_mut(col).set_null(row);
        }
    }
    let truth = model_accuracy(model.as_ref(), &broken);
    if truth < 0.85 * validator.test_score() {
        assert!(!validator.validate(&broken).unwrap().within_threshold);
    }
}

#[test]
fn tpot_like_model_supports_performance_prediction() {
    let mut rng = StdRng::seed_from_u64(2);
    let df = lvp::datasets::bank(800, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> = Arc::from(tpot_like(&train, 1, 3, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let est = predictor.predict(&serving).unwrap();
    let truth = model_accuracy(model.as_ref(), &serving);
    assert!((est - truth).abs() < 0.2, "estimate {est} vs truth {truth}");
}

#[test]
fn cloud_service_end_to_end_with_predictor() {
    let mut rng = StdRng::seed_from_u64(3);
    let df = lvp::datasets::income(800, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);

    let service = CloudModelService::new();
    let handle = service.train_and_deploy(&train, 7).unwrap();
    let remote: Arc<dyn BlackBoxModel> = Arc::new(service.remote_model(handle).unwrap());

    let before = service.requests_served();
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&remote),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    // Fitting the predictor must have hit the remote endpoint many times
    // (one request per corrupted copy that changed a row, plus the
    // reference scores).
    assert!(service.requests_served() > before + 50);

    let est = predictor.predict(&serving).unwrap();
    let truth = model_accuracy(remote.as_ref(), &serving);
    assert!((est - truth).abs() < 0.2, "estimate {est} vs truth {truth}");
}
