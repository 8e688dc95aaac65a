//! Chaos run: the full predictor-train + monitoring pipeline against a
//! *flaky* cloud endpoint.
//!
//! A seeded [`FaultPlan`] makes the simulated cloud service inject
//! transient failures, quota rejections, corrupted probability rows,
//! truncated responses and virtual latency on a deterministic per-request
//! schedule. A [`ResilientModel`] wrapper retries with seeded-jitter
//! backoff behind a circuit breaker, and the [`BatchMonitor`] degrades —
//! instead of aborting — on batches whose serving fails terminally
//! (poisoned request keys).
//!
//! Everything is keyed on request *content*, never on wall-clock time or
//! arrival order, so the entire run is reproducible: this example executes
//! the pipeline twice and asserts the deterministic telemetry views are
//! byte-identical. CI additionally diffs the full stdout across
//! `RAYON_NUM_THREADS=1` and `=4`.
//!
//! Run with `cargo run --release --example chaos_remote`.

use lvp::prelude::*;
use lvp_models::cloud::{CloudModelService, FaultPlan, FaultStats};
use lvp_models::BreakerConfig;
use lvp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SERVING_BATCHES: usize = 50;

struct RunSummary {
    deterministic_json: String,
    degraded: usize,
    alarms: usize,
    fault_stats: FaultStats,
    requests: u64,
    virtual_nanos: u64,
    estimates: Vec<String>,
}

fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0xC4A0_5EED);
    // ≥ 20% of requests fail with retryable transport errors, plus
    // corrupted / truncated response bodies that the validators catch.
    plan.transient = 0.15;
    plan.rate_limited = 0.10;
    plan.corrupted = 0.10;
    plan.truncated = 0.05;
    plan.slow = 0.05;
    // A sliver of request keys fails on *every* attempt — these become
    // skipped generation tasks and degraded monitor reports.
    plan.poisoned = 0.05;
    plan.base_latency_nanos = 1_000_000; // 1 virtual ms per request
    plan.slow_latency_nanos = 20_000_000; // +20 virtual ms when slow
    plan.max_faults_per_key = 3; // retry loops always converge
    plan
}

fn run_pipeline() -> RunSummary {
    let registry = Registry::new();
    let mut rng = StdRng::seed_from_u64(2_026);

    // --- Cloud-hosted model with a fault plan installed -------------------
    let df = lvp::datasets::income(1_500, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);

    let service = CloudModelService::new();
    let handle = service.train_and_deploy(&train, 42).unwrap();
    let clock = VirtualClock::new();
    service.install_fault_plan(fault_plan(), clock.clone());

    // --- Resilient client wrapper ----------------------------------------
    let remote = service.remote_model(handle).unwrap();
    let mut resilient = ResilientModel::new(
        Arc::new(remote),
        ResilienceConfig {
            max_attempts: 6,
            breaker: BreakerConfig {
                // Terminal failures here are isolated poisoned keys, not a
                // down endpoint; a high threshold keeps the breaker closed
                // (the state machine itself is exercised in unit tests).
                failure_threshold: 1_000,
                ..BreakerConfig::default()
            },
        },
        clock.clone(),
    );
    resilient.attach_telemetry(&registry);
    let model: Arc<dyn BlackBoxModel> = Arc::new(resilient);

    // --- Algorithm 1 against the flaky endpoint ---------------------------
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit_instrumented(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig {
            // Poisoned keys make some generation tasks fail terminally;
            // the fit succeeds as long as 80% of the batches survive.
            min_batch_survival: 0.8,
            ..PredictorConfig::fast()
        },
        &mut rng,
        Some(&registry),
    )
    .expect("fit completes despite injected faults");

    // --- 50-batch monitoring run with graceful degradation ----------------
    let mut monitor = BatchMonitor::new(
        predictor,
        MonitorPolicy {
            threshold: 0.2,
            consecutive_violations: 2,
            ewma_alpha: 0.5,
            ..MonitorPolicy::default()
        },
    )
    .unwrap();
    monitor.attach_telemetry(&registry);
    monitor.retain_reference_outputs(&test).unwrap();

    let mut estimates = Vec::new();
    for _ in 0..SERVING_BATCHES {
        let batch = serving.sample_n(150, &mut rng);
        let report = monitor.observe(&batch).expect("degrades, never aborts");
        if report.degraded {
            // Degraded: estimate withheld, EWMA/streak untouched.
            assert!(report.estimate.is_nan());
            assert!(report.degrade_reason.is_some());
            estimates.push(format!("degraded({})", report.batch_index));
        } else {
            estimates.push(format!("{:.3}", report.estimate));
        }
    }
    let history = monitor.history();
    let degraded = history.iter().filter(|r| r.degraded).count();
    let alarms = history.iter().filter(|r| r.alarm).count();

    RunSummary {
        deterministic_json: registry.snapshot().deterministic().to_json().unwrap(),
        degraded,
        alarms,
        fault_stats: service.fault_stats(),
        requests: service.requests_served(),
        virtual_nanos: clock.now_nanos(),
        estimates,
    }
}

fn main() {
    println!("running the chaos pipeline (run 1 of 2)...");
    let first = run_pipeline();

    let stats = first.fault_stats;
    println!(
        "cloud requests: {} ({} injected faults: {} transient, {} rate-limited, \
         {} corrupted, {} truncated; {} slow, {} clean)",
        first.requests,
        stats.total_faults(),
        stats.transient,
        stats.rate_limited,
        stats.corrupted,
        stats.truncated,
        stats.slow,
        stats.clean
    );
    println!(
        "virtual time elapsed: {} ms (latency + backoff, no wall clock)",
        first.virtual_nanos / 1_000_000
    );
    println!(
        "monitoring: {} batches observed, {} degraded, {} alarming",
        SERVING_BATCHES, first.degraded, first.alarms
    );
    println!("estimates: [{}]", first.estimates.join(", "));

    // The injected fault load is substantial, and the pipeline still
    // completed: retried calls succeeded, poisoned batches degraded.
    assert!(
        stats.total_faults() as f64 >= 0.2 * first.requests as f64,
        "fault plan must stress at least 20% of requests"
    );
    assert!(
        first.degraded > 0,
        "poisoned keys must surface as degraded reports"
    );
    assert!(
        first.degraded < SERVING_BATCHES / 2,
        "most batches must survive"
    );

    println!("\nrunning the chaos pipeline (run 2 of 2)...");
    let second = run_pipeline();
    assert_eq!(
        first.deterministic_json, second.deterministic_json,
        "same seed must yield a byte-identical deterministic telemetry view"
    );
    assert_eq!(first.estimates, second.estimates);
    assert_eq!(first.fault_stats, second.fault_stats);
    assert_eq!(first.virtual_nanos, second.virtual_nanos);
    println!(
        "deterministic telemetry views are byte-identical across runs \
         ({} bytes)",
        first.deterministic_json.len()
    );
    println!("chaos run OK");
}
