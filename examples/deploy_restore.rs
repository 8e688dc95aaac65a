//! Deploy, crash, restore: the full serving-stack persistence round trip.
//!
//! The paper deploys the performance predictor *alongside* the model
//! (Figure 1b) so serving systems can raise alarms. Serving processes are
//! long-lived and restart: this example trains the whole stack —
//! predictor, validator and a debounced monitor — serializes each to a
//! JSON artifact, drops the live objects, restores everything in a
//! "fresh process", and asserts the restored stack is *bit-identical* to
//! the original: same estimates, same verdicts, same alarm state. It also
//! demonstrates the input contract: a serving frame with a renamed column
//! is rejected with an error instead of being silently mis-featurized.
//!
//! Run with `cargo run --release --example deploy_restore`.

use lvp::prelude::*;
use lvp_core::{
    load_json, save_json, BatchMonitor, MonitorArtifact, MonitorPolicy, PredictorArtifact,
    ValidatorArtifact,
};
use lvp_dataframe::{CellValue, DataFrameBuilder, Field};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // --- Training side -------------------------------------------------
    println!("training model + predictor + validator...");
    let df = lvp::datasets::heart(2_000, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Xgb, &train, &mut rng).unwrap());
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &ValidatorConfig::fast(0.08),
        &mut rng,
    )
    .unwrap();
    let mut monitor = BatchMonitor::new(
        PerformancePredictor::from_artifact(predictor.to_artifact(), Arc::clone(&model)).unwrap(),
        MonitorPolicy {
            threshold: 0.15,
            consecutive_violations: 2,
            ewma_alpha: 0.6,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();

    // Serve a few batches before the "crash" so the monitor has real
    // EWMA/debounce state worth preserving.
    let mut stream_rng = StdRng::seed_from_u64(100);
    for _ in 0..3 {
        monitor
            .observe(&serving.sample_n(200, &mut stream_rng))
            .unwrap();
    }

    // --- Persist the whole stack ---------------------------------------
    let dir = std::env::temp_dir().join("lvp_deploy_restore");
    std::fs::create_dir_all(&dir).unwrap();
    let predictor_path = dir.join("predictor.json");
    let validator_path = dir.join("validator.json");
    let monitor_path = dir.join("monitor.json");
    save_json(&predictor.to_artifact(), &predictor_path).unwrap();
    save_json(&validator.to_artifact(), &validator_path).unwrap();
    save_json(&monitor.to_artifact(), &monitor_path).unwrap();
    for path in [&predictor_path, &validator_path, &monitor_path] {
        println!(
            "wrote {} ({} bytes)",
            path.display(),
            std::fs::metadata(path).unwrap().len()
        );
    }

    // Reference outputs from the uninterrupted stack.
    let batch = serving.sample_n(200, &mut StdRng::seed_from_u64(101));
    let live_estimate = predictor.predict(&batch).unwrap();
    let live_verdict = validator.validate(&batch).unwrap();
    let live_report = monitor.observe(&batch).unwrap();

    // --- Crash: drop every live object ----------------------------------
    drop(predictor);
    drop(validator);
    drop(monitor);

    // --- Serving side, fresh process -------------------------------------
    println!("\nrestoring from artifacts...");
    let predictor_artifact: PredictorArtifact = load_json(&predictor_path).unwrap();
    let validator_artifact: ValidatorArtifact = load_json(&validator_path).unwrap();
    let monitor_artifact: MonitorArtifact = load_json(&monitor_path).unwrap();
    let restored_predictor =
        PerformancePredictor::from_artifact(predictor_artifact, Arc::clone(&model)).unwrap();
    let restored_validator =
        PerformanceValidator::from_artifact(validator_artifact, Arc::clone(&model)).unwrap();
    let monitor_predictor =
        PerformancePredictor::from_artifact(restored_predictor.to_artifact(), Arc::clone(&model))
            .unwrap();
    let mut restored_monitor =
        BatchMonitor::from_artifact(monitor_artifact, monitor_predictor).unwrap();

    // The same serving batch must produce bit-identical results. The
    // restored monitor replays the post-crash batch and must agree with
    // the uninterrupted monitor's report, debounce streak included.
    let estimate = restored_predictor.predict(&batch).unwrap();
    let verdict = restored_validator.validate(&batch).unwrap();
    assert_eq!(estimate.to_bits(), live_estimate.to_bits());
    assert_eq!(verdict, live_verdict);
    let report = restored_monitor.observe(&batch).unwrap();
    assert_eq!(report, live_report);
    println!("estimate after restore:   {estimate:.6} (bit-identical)");
    println!(
        "verdict after restore:    within_threshold={} confidence={:.4} (identical)",
        verdict.within_threshold, verdict.confidence
    );
    println!(
        "monitor after restore:    batch #{} smoothed={:.4} alarm={} (identical)",
        report.batch_index, report.smoothed, report.alarm
    );

    // --- The input contract ---------------------------------------------
    // A serving frame whose schema drifted (a renamed column here) is
    // rejected before featurization, in release builds too.
    let mut renamed_fields: Vec<Field> = serving.schema().fields().to_vec();
    renamed_fields[0].name = format!("{}_v2", renamed_fields[0].name);
    let mut builder = DataFrameBuilder::new(
        Schema::new(renamed_fields).unwrap(),
        serving.label_names().to_vec(),
    );
    for row in 0..50 {
        let cells: Vec<CellValue> = (0..serving.n_cols())
            .map(|c| serving.cell(row, c))
            .collect();
        builder.push_row(cells, serving.labels()[row]).unwrap();
    }
    let drifted = builder.finish().unwrap();
    let err = restored_predictor.predict(&drifted).unwrap_err();
    println!("\ndrifted frame rejected:   {err}");
    assert!(restored_validator.validate(&drifted).is_err());
    assert!(restored_monitor.observe(&drifted).is_err());

    for path in [&predictor_path, &validator_path, &monitor_path] {
        std::fs::remove_file(path).ok();
    }
    println!("\ndeploy-restore round trip OK");
}
