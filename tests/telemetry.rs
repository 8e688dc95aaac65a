//! Telemetry subsystem integration: deterministic snapshots, histogram
//! accounting, and JSON round trips — through the real serving stack.

use lvp_core::{
    generate_batches_resilient, BatchMonitor, Metric, MonitorPolicy, PerformancePredictor,
    PredictorConfig, TrainingExample,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_models::{train_model_quick, BlackBoxModel, ModelKind};
use lvp_telemetry::{Registry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs one fully instrumented serving-stack pass — train a model, attach
/// it to a fresh registry, fit a predictor through the instrumented engine,
/// monitor a few serving batches — and returns the registry.
fn instrumented_run(threads: usize) -> Registry {
    let registry = Registry::new();
    let df = lvp::datasets::income(300, &mut StdRng::seed_from_u64(41));
    let (source, serving) = df.split_frac(0.6, &mut StdRng::seed_from_u64(42));
    let (train, test) = source.split_frac(0.6, &mut StdRng::seed_from_u64(43));
    let mut model = train_model_quick(ModelKind::Lr, &train, &mut StdRng::seed_from_u64(44))
        .expect("training on seeded data succeeds");
    model.attach_telemetry(&registry);
    let model: Arc<dyn BlackBoxModel> = Arc::from(model);
    let gens = standard_tabular_suite(test.schema());

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let predictor = PerformancePredictor::fit_instrumented(
            model,
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut StdRng::seed_from_u64(45),
            Some(&registry),
        )
        .unwrap();
        let mut monitor = BatchMonitor::new(
            predictor,
            MonitorPolicy {
                threshold: 0.2,
                ..MonitorPolicy::default()
            },
        )
        .unwrap();
        monitor.retain_reference_outputs(&test).unwrap();
        monitor.attach_telemetry(&registry);
        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..4 {
            monitor.observe(&serving.sample_n(60, &mut rng)).unwrap();
        }
    });
    registry
}

#[test]
fn deterministic_snapshot_is_bit_identical_across_runs_and_thread_counts() {
    let a = instrumented_run(1).snapshot();
    let b = instrumented_run(1).snapshot();
    let c = instrumented_run(4).snapshot();
    // The deterministic view — volatile metrics dropped, histograms reduced
    // to their observation counts — must serialize to byte-identical JSON
    // for the same seeded workload, at any thread count.
    let json_a = a.deterministic().to_json().unwrap();
    let json_b = b.deterministic().to_json().unwrap();
    let json_c = c.deterministic().to_json().unwrap();
    assert_eq!(json_a, json_b, "same seed, same threads");
    assert_eq!(json_a, json_c, "same seed, different thread count");
    // Sanity: the run actually produced metrics at every layer.
    let det = a.deterministic();
    assert!(det.counters["engine.batches_generated"] > 0);
    assert!(det.counters["model.predict.calls"] > 0);
    assert_eq!(det.counters["monitor.batches_observed"], 4);
    assert!(det.gauges.contains_key("monitor.smoothed_score"));
    assert!(det.histograms["engine.score_phase"].count > 0);
}

#[test]
fn histogram_bucket_totals_equal_observation_counts() {
    let snap = instrumented_run(2).snapshot();
    assert!(!snap.histograms.is_empty());
    for (name, h) in &snap.histograms {
        assert_eq!(h.bucket_total(), h.count, "{name}");
    }
    // Engine phases record once per generated batch.
    let batches = snap.counters["engine.batches_generated"];
    for phase in [
        "engine.generate_phase",
        "engine.score_phase",
        "engine.featurize_phase",
    ] {
        assert_eq!(snap.histograms[phase].count, batches, "{phase}");
    }
}

#[test]
fn raw_snapshot_json_round_trips_exactly() {
    let snap = instrumented_run(2).snapshot();
    // The raw snapshot (volatile metrics and wall-clock buckets included)
    // must survive serde unchanged — bit-exact floats included.
    let json = snap.to_json().unwrap();
    let back = TelemetrySnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.to_json().unwrap(), json);
    // Wall-clock histogram buckets are present raw, absent
    // deterministically; the observation count survives in both.
    let raw = &snap.histograms["engine.score_phase"];
    assert_eq!(raw.bucket_total(), raw.count);
    assert!(raw.count > 0);
    let det = &snap.deterministic().histograms["engine.score_phase"];
    assert!(det.buckets.is_empty());
    assert_eq!(det.count, raw.count);
}

#[test]
fn generation_output_is_identical_with_and_without_telemetry() {
    let df = lvp::datasets::income(250, &mut StdRng::seed_from_u64(51));
    let (train, test) = df.split_frac(0.6, &mut StdRng::seed_from_u64(52));
    let model = train_model_quick(ModelKind::Lr, &train, &mut StdRng::seed_from_u64(53)).unwrap();
    let gens = standard_tabular_suite(test.schema());
    let registry = Registry::new();
    let run = |telemetry: Option<&Registry>| {
        generate_batches_resilient(
            model.as_ref(),
            &test,
            &gens,
            6,
            3,
            Metric::Accuracy,
            17,
            true,
            1.0,
            telemetry,
            TrainingExample::from_batch,
        )
        .unwrap()
        .results
    };
    assert_eq!(run(None), run(Some(&registry)));
}
