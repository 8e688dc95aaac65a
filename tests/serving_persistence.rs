//! Serving-stack persistence: serialize → drop → restore round trips for
//! predictor, validator and monitor, plus the input contract every serving
//! entry point enforces (schema fingerprint + class count).

use lvp::prelude::*;
use lvp_core::{
    from_json, to_json, BatchMonitor, FeatureSource, MonitorArtifact, MonitorPolicy,
    PredictorArtifact, ValidatorArtifact, ARTIFACT_VERSION,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::{toy_frame, CellValue, ColumnType, DataFrame, DataFrameBuilder, Field};
use lvp_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(seed: u64) -> (Arc<dyn BlackBoxModel>, DataFrame, DataFrame) {
    let df = toy_frame(300);
    let mut rng = StdRng::seed_from_u64(seed);
    let (train, rest) = df.split_frac(0.4, &mut rng);
    let (test, serving) = rest.split_frac(0.5, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    (model, test, serving)
}

/// A frame with the same column types as `toy_frame` but a renamed column,
/// so only the schema fingerprint can tell it apart.
fn renamed_schema_frame(n: usize) -> DataFrame {
    let schema = Schema::new(vec![
        Field::new("x_drifted", ColumnType::Numeric),
        Field::new("c", ColumnType::Categorical),
    ])
    .unwrap();
    let mut b = DataFrameBuilder::new(schema, vec!["no".into(), "yes".into()]);
    for i in 0..n as u32 {
        b.push_row(
            vec![
                CellValue::Num(f64::from(i)),
                CellValue::Cat(if i % 2 == 0 { "even" } else { "odd" }.into()),
            ],
            i % 2,
        )
        .unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn full_stack_round_trip_is_bit_identical() {
    let (model, test, serving) = setup(51);
    let mut rng = StdRng::seed_from_u64(52);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &ValidatorConfig::fast(0.1),
        &mut rng,
    )
    .unwrap();
    let mut monitor = BatchMonitor::new(
        PerformancePredictor::from_artifact(predictor.to_artifact(), Arc::clone(&model)).unwrap(),
        MonitorPolicy::default(),
    )
    .unwrap();

    // Pre-crash traffic.
    let mut stream_rng = StdRng::seed_from_u64(53);
    let batches: Vec<DataFrame> = (0..4)
        .map(|_| serving.sample_n(80, &mut stream_rng))
        .collect();
    monitor.observe(&batches[0]).unwrap();
    monitor.observe(&batches[1]).unwrap();

    // Serialize, "crash", restore in a fresh stack.
    let predictor_json = to_json(&predictor.to_artifact()).unwrap();
    let validator_json = to_json(&validator.to_artifact()).unwrap();
    let monitor_json = to_json(&monitor.to_artifact()).unwrap();

    let pa: PredictorArtifact = from_json(&predictor_json).unwrap();
    let va: ValidatorArtifact = from_json(&validator_json).unwrap();
    let ma: MonitorArtifact = from_json(&monitor_json).unwrap();
    assert_eq!(pa.version, ARTIFACT_VERSION);
    assert_eq!(va.version, ARTIFACT_VERSION);
    assert_eq!(ma.version, ARTIFACT_VERSION);

    let restored_predictor = PerformancePredictor::from_artifact(pa, Arc::clone(&model)).unwrap();
    let restored_validator = PerformanceValidator::from_artifact(va, Arc::clone(&model)).unwrap();
    let mut restored_monitor = BatchMonitor::from_artifact(
        ma,
        PerformancePredictor::from_artifact(restored_predictor.to_artifact(), Arc::clone(&model))
            .unwrap(),
    )
    .unwrap();

    for batch in &batches[2..] {
        // Bit-identical estimates and verdicts.
        let live = predictor.predict(batch).unwrap();
        let restored = restored_predictor.predict(batch).unwrap();
        assert_eq!(live.to_bits(), restored.to_bits());
        assert_eq!(
            validator.validate(batch).unwrap(),
            restored_validator.validate(batch).unwrap()
        );
        // Identical monitor reports — batch numbering, EWMA value and
        // debounce state all carried across the restart.
        assert_eq!(
            monitor.observe(batch).unwrap(),
            restored_monitor.observe(batch).unwrap()
        );
    }
    assert_eq!(monitor.alarming(), restored_monitor.alarming());
    assert_eq!(monitor.batches_seen(), restored_monitor.batches_seen());
}

#[test]
fn serving_entry_points_reject_wrong_schema() {
    let (model, test, serving) = setup(61);
    let mut rng = StdRng::seed_from_u64(62);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &ValidatorConfig::fast(0.1),
        &mut rng,
    )
    .unwrap();
    let mut monitor = BatchMonitor::new(
        PerformancePredictor::from_artifact(predictor.to_artifact(), Arc::clone(&model)).unwrap(),
        MonitorPolicy::default(),
    )
    .unwrap();

    let drifted = renamed_schema_frame(50);
    assert!(predictor.predict(&drifted).is_err());
    assert!(validator.validate(&drifted).is_err());
    assert!(monitor.observe(&drifted).is_err());
    // A rejected batch must not corrupt monitor state.
    assert_eq!(monitor.batches_seen(), 0);
    assert!(monitor.history().is_empty());

    // The matching frame still flows through all three.
    assert!(predictor.predict(&serving).is_ok());
    assert!(validator.validate(&serving).is_ok());
    assert!(monitor.observe(&serving).is_ok());
}

#[test]
fn serving_entry_points_reject_wrong_class_count() {
    let (model, test, _) = setup(71);
    let mut rng = StdRng::seed_from_u64(72);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &ValidatorConfig::fast(0.1),
        &mut rng,
    )
    .unwrap();

    // The fitted model is binary; hand the raw-output entry points a
    // three-class matrix. Must be Err (never a panic, never a silently
    // truncated featurization) in debug and release builds alike.
    let wide = DenseMatrix::from_vec(6, 3, vec![1.0 / 3.0; 18]).unwrap();
    let wide = FeatureSource::Exact(&wide);
    assert!(predictor.predict_source(&wide).is_err());
    assert!(validator.validate_source(&wide).is_err());
    assert!(validator.featurize(&wide).is_err());
}

#[test]
fn restored_monitor_alarms_on_schedule_across_restart() {
    let (model, test, _) = setup(81);
    let mut rng = StdRng::seed_from_u64(82);
    let gens = standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &gens,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let policy = MonitorPolicy {
        threshold: 0.2,
        consecutive_violations: 3,
        ewma_alpha: 1.0,
        ..MonitorPolicy::default()
    };
    let mut monitor = BatchMonitor::new(predictor, policy).unwrap();
    monitor.observe_estimate(0.0);
    monitor.observe_estimate(0.0);
    assert!(!monitor.alarming());

    // Crash between the second and third violation.
    let artifact = monitor.to_artifact();
    let predictor2 =
        PerformancePredictor::from_artifact(monitor.predictor().to_artifact(), Arc::clone(&model))
            .unwrap();
    let mut restored = BatchMonitor::from_artifact(artifact, predictor2).unwrap();

    // Without persisted debounce state this third violation would only be
    // streak #1; with it, the alarm fires exactly on schedule.
    let report = restored.observe_estimate(0.0);
    assert!(report.alarm);
    assert_eq!(report.batch_index, 2);
}
