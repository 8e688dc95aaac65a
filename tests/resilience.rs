//! End-to-end resilience: the predictor-train + monitoring pipeline must
//! survive a heavily fault-injected remote serving path, degrade (never
//! abort) on terminal failures, and stay bit-reproducible regardless of
//! how the work is scheduled across threads.

use lvp::prelude::*;
use lvp_core::BatchReport;
use lvp_models::cloud::{CloudModelService, FaultPlan, FaultStats};
use lvp_models::BreakerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// ≥ 20% retryable transport faults plus corrupted/truncated payloads,
/// and a slice of poisoned keys that fail on every attempt.
fn chaos_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0x00FA_11ED);
    plan.transient = 0.15;
    plan.rate_limited = 0.10;
    plan.corrupted = 0.10;
    plan.truncated = 0.05;
    plan.poisoned = 0.05;
    plan.max_faults_per_key = 3;
    plan
}

/// Runs train + 50-batch monitoring against a flaky cloud endpoint and
/// returns the monitor history plus the service's fault ledger.
fn run_chaos_pipeline(parallel: bool) -> (Vec<BatchReport>, FaultStats) {
    let mut rng = StdRng::seed_from_u64(77);
    let df = lvp::datasets::income(900, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);

    let service = CloudModelService::new();
    let handle = service.train_and_deploy(&train, 42).unwrap();
    let clock = VirtualClock::new();
    service.install_fault_plan(chaos_plan(), clock.clone());

    let resilient = ResilientModel::new(
        Arc::new(service.remote_model(handle).unwrap()),
        ResilienceConfig {
            max_attempts: 6,
            breaker: BreakerConfig {
                failure_threshold: 1_000,
                ..BreakerConfig::default()
            },
        },
        clock,
    );
    let model: Arc<dyn BlackBoxModel> = Arc::new(resilient);

    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        model,
        &test,
        &errors,
        &PredictorConfig {
            min_batch_survival: 0.8,
            parallel,
            ..PredictorConfig::fast()
        },
        &mut rng,
    )
    .expect("fit completes despite ≥20% injected faults");

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
    monitor.retain_reference_outputs(&test).unwrap();

    for _ in 0..50 {
        let batch = serving.sample_n(80, &mut rng);
        monitor
            .observe(&batch)
            .expect("serving failures degrade the batch, never abort the run");
    }
    (monitor.history().to_vec(), service.fault_stats())
}

#[test]
fn pipeline_survives_heavy_fault_injection() {
    let (history, stats) = run_chaos_pipeline(true);

    assert_eq!(history.len(), 50);
    let total = stats.total_faults() + stats.clean + stats.slow;
    assert!(
        stats.total_faults() as f64 >= 0.2 * total as f64,
        "the plan must actually stress the pipeline: {stats:?}"
    );

    // Degraded reports withhold the estimate and record why, and the
    // smoothed estimate carries the last healthy value forward.
    let degraded: Vec<&BatchReport> = history.iter().filter(|r| r.degraded).collect();
    assert!(
        !degraded.is_empty(),
        "poisoned keys must surface as degraded reports"
    );
    assert!(degraded.len() < 25, "most batches must survive");
    for report in &degraded {
        assert!(report.estimate.is_nan());
        assert!(report.smoothed.is_finite());
        assert!(report.degrade_reason.is_some());
        assert!(!report.alarm, "infrastructure faults are not model alarms");
    }

    // EWMA and the violation streak ignore degraded batches entirely: each
    // degraded report repeats its predecessor's smoothed state verbatim.
    for pair in history.windows(2) {
        if pair[1].degraded {
            assert_eq!(
                pair[1].smoothed.to_bits(),
                pair[0].smoothed.to_bits(),
                "EWMA must not move on a degraded batch"
            );
        }
    }

    // Healthy batches still produce calibrated estimates.
    for report in history.iter().filter(|r| !r.degraded) {
        assert!(report.estimate.is_finite());
        assert!((0.0..=1.0).contains(&report.estimate));
        assert!(report.degrade_reason.is_none());
    }
}

#[test]
fn chaos_pipeline_is_reproducible_across_schedules() {
    let (parallel, stats_par) = run_chaos_pipeline(true);
    let (sequential, stats_seq) = run_chaos_pipeline(false);

    // The fault schedule keys on request *content*, so the thread
    // interleaving changes neither which batches degrade nor any estimate.
    assert_eq!(parallel.len(), sequential.len());
    for (a, b) in parallel.iter().zip(&sequential) {
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.degrade_reason, b.degrade_reason);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.smoothed.to_bits(), b.smoothed.to_bits());
        assert_eq!(a.alarm, b.alarm);
    }
    assert_eq!(stats_par, stats_seq);
}
