//! Continuous monitoring with debounced alarms and predictor persistence.
//!
//! Extends the paper's deployment story (Figure 1b): the predictor is
//! trained once, serialized as an artifact, and shipped to a serving
//! system where a [`BatchMonitor`] watches the live batch stream. A
//! transient glitch in one batch does not page anyone; a sustained
//! preprocessing bug does.
//!
//! Run with `cargo run --release --example continuous_monitoring`.
//!
//! [`BatchMonitor`]: lvp_core::BatchMonitor

use lvp::prelude::*;
use lvp_core::{BatchMonitor, MonitorPolicy, PerformancePredictor};
use lvp_corruptions::Scaling;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(321);

    // --- Training side -------------------------------------------------
    println!("training model + predictor...");
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

    // Serialize the artifact — this is what gets shipped to the serving
    // fleet (the model itself stays wherever it is hosted).
    let json = serde_json::to_string(&predictor.to_artifact()).unwrap();
    println!(
        "serialized predictor artifact: {} bytes of JSON",
        json.len()
    );

    // --- Serving side ----------------------------------------------------
    let artifact: lvp_core::PredictorArtifact = serde_json::from_str(&json).unwrap();
    let restored = PerformancePredictor::from_artifact(artifact, Arc::clone(&model)).unwrap();
    let mut monitor = BatchMonitor::new(
        restored,
        MonitorPolicy {
            threshold: 0.08,
            consecutive_violations: 2,
            ewma_alpha: 0.6,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();

    // A two-week batch stream: days 6-9 ship a unit bug in blood pressure.
    let ap_hi = serving.schema().index_of("ap_hi").expect("column exists");
    let bug = Scaling::for_columns(vec![ap_hi]);
    println!(
        "\n{:<5} {:>10} {:>10} {:>6} {:>8} {:>8}",
        "day", "estimate", "smoothed", "raw", "smooth", "alarm"
    );
    for day in 1..=14 {
        let batch = serving.sample_n(250, &mut rng);
        let batch = if (6..=9).contains(&day) {
            bug.corrupt(&batch, &mut rng)
        } else {
            batch
        };
        let report = monitor.observe(&batch).unwrap();
        println!(
            "{:<5} {:>10.3} {:>10.3} {:>6} {:>8} {:>8}",
            day,
            report.estimate,
            report.smoothed,
            report.raw_violation,
            report.smoothed_violation,
            if report.alarm { "PAGE!" } else { "-" }
        );
    }
    let alarms = monitor.history().iter().filter(|r| r.alarm).count();
    println!(
        "\n{alarms} alarming batches out of {}",
        monitor.history().len()
    );
}
