//! Integration tests for the deployment-side extensions: batch monitoring,
//! predictor persistence and the extended corruption suite.

use lvp_core::{
    BatchMonitor, MonitorPolicy, PerformancePredictor, PredictorArtifact, PredictorConfig,
};
use lvp_corruptions::{
    extended_tabular_suite, standard_tabular_suite, CategoryFlip, DuplicateRows, ErrorGen,
    SelectionBias,
};
use lvp_models::{model_accuracy, train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(
    seed: u64,
) -> (
    Arc<dyn BlackBoxModel>,
    lvp_dataframe::DataFrame,
    lvp_dataframe::DataFrame,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let df = lvp::datasets::income(900, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Xgb, &train, &mut rng).unwrap());
    let _ = train;
    (model, test, serving)
}

#[test]
fn monitor_pages_only_on_sustained_breakage() {
    let (model, test, serving) = setup(1);
    let mut rng = StdRng::seed_from_u64(2);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let mut monitor = BatchMonitor::new(
        predictor,
        MonitorPolicy {
            threshold: 0.15,
            consecutive_violations: 2,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();

    // Healthy days.
    for _ in 0..4 {
        let r = monitor.observe(&serving.sample_n(250, &mut rng)).unwrap();
        assert!(!r.alarm);
    }
    // Catastrophic breakage: all categoricals nulled for 3 days.
    let mut broken = serving.clone();
    for col in broken.schema().categorical_columns() {
        for row in 0..broken.n_rows() {
            broken.column_mut(col).set_null(row);
        }
    }
    let mut alarms = 0;
    for _ in 0..3 {
        let r = monitor.observe(&broken.sample_n(250, &mut rng)).unwrap();
        if r.alarm {
            alarms += 1;
        }
    }
    // The model may or may not degrade by >15% under this corruption; only
    // assert the debouncing shape: the first broken batch never alarms.
    assert!(!monitor.history()[4].alarm);
    if model_accuracy(model.as_ref(), &broken) < 0.8 * monitor.predictor().test_score() {
        assert!(alarms >= 1, "sustained breakage must eventually alarm");
    }
}

#[test]
fn artifact_survives_json_round_trip() {
    let (model, test, serving) = setup(3);
    let mut rng = StdRng::seed_from_u64(4);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let before = predictor.predict(&serving).unwrap();

    let json = serde_json::to_string(&predictor.to_artifact()).unwrap();
    let artifact: PredictorArtifact = serde_json::from_str(&json).unwrap();
    let restored = PerformancePredictor::from_artifact(artifact, model).unwrap();
    assert_eq!(restored.predict(&serving).unwrap(), before);
}

#[test]
fn predictor_handles_extended_error_suite() {
    let (model, test, serving) = setup(5);
    let mut rng = StdRng::seed_from_u64(6);
    let gens = extended_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    // Selection bias changes batch composition, duplicate rows change batch
    // size — the predictor must keep producing sane estimates.
    for gen in [
        Box::new(SelectionBias::all_numeric(serving.schema())) as Box<dyn ErrorGen>,
        Box::new(DuplicateRows) as Box<dyn ErrorGen>,
        Box::new(CategoryFlip::all_categorical(serving.schema())) as Box<dyn ErrorGen>,
    ] {
        let corrupted = gen.corrupt(&serving.sample_n(300, &mut rng), &mut rng);
        let est = predictor.predict(&corrupted).unwrap();
        assert!((0.0..=1.0).contains(&est), "{}: {est}", gen.name());
    }
}
