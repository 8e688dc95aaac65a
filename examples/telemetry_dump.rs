//! End-to-end telemetry dump for the serving stack.
//!
//! Instruments every layer — the black box model (call counts, latency),
//! the Algorithm 1 generation engine (per-phase timings), and the batch
//! monitor (scores, streaks, alarms, per-class drift) — into one registry, then exports the snapshot as JSON and as a
//! text table. Asserts that the JSON round-trips exactly, which CI relies
//! on.
//!
//! Run with `cargo run --release --example telemetry_dump`.

use lvp::prelude::*;
use lvp_core::{BatchMonitor, MonitorPolicy, PerformancePredictor};
use lvp_telemetry::{Registry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let registry = Registry::new();
    let mut rng = StdRng::seed_from_u64(7_654);

    // --- Training side, instrumented ------------------------------------
    println!("training model + predictor (instrumented)...");
    let df = lvp::datasets::income(1_500, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let mut model = lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap();
    model.attach_telemetry(&registry);
    let model: Arc<dyn BlackBoxModel> = Arc::from(model);
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit_instrumented(
        model,
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
        Some(&registry),
    )
    .unwrap();

    // --- Serving side, instrumented --------------------------------------
    let mut monitor = BatchMonitor::new(
        predictor,
        MonitorPolicy {
            threshold: 0.1,
            consecutive_violations: 2,
            ewma_alpha: 0.6,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();
    monitor.attach_telemetry(&registry);
    monitor.retain_reference_outputs(&test).unwrap();

    println!("\nobserving 8 serving batches:");
    for day in 1..=8 {
        let batch = serving.sample_n(200, &mut rng);
        let report = monitor.observe(&batch).unwrap();
        let worst_drift = report
            .telemetry
            .per_class_ks
            .iter()
            .map(|d| d.p_value)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  day {day}: estimate={:.3} smoothed={:.3} streak={} min drift p={:.3}",
            report.estimate, report.smoothed, report.telemetry.violation_streak, worst_drift
        );
    }

    // --- Export -----------------------------------------------------------
    let snapshot = registry.snapshot();
    println!("\n=== telemetry snapshot ===\n{}", snapshot.render_text());

    let json = snapshot.to_json().expect("snapshot serializes");
    println!("JSON export: {} bytes", json.len());
    let restored = TelemetrySnapshot::from_json(&json).expect("snapshot parses back");
    assert_eq!(restored, snapshot, "JSON round trip must be lossless");
    assert_eq!(
        restored.to_json().unwrap(),
        json,
        "re-serialization must be byte-identical"
    );

    // The deterministic view is the contract replayed runs are compared on.
    let det = snapshot.deterministic();
    assert!(det.volatile.is_empty());
    assert_eq!(
        TelemetrySnapshot::from_json(&det.to_json().unwrap()).unwrap(),
        det
    );
    println!(
        "deterministic view: {} counters, {} gauges, {} histograms",
        det.counters.len(),
        det.gauges.len(),
        det.histograms.len()
    );
    println!("round-trip OK");
}
