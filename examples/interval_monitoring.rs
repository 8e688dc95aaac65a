//! Calibrated interval monitoring: alarms without a hand-tuned threshold.
//!
//! The point-estimate monitor needs a tuned cutoff ("alarm on an 8% drop")
//! wide enough to absorb the predictor's own calibration noise. Under the
//! interval alarm policy the predictor brackets every serving batch with a
//! calibrated 90% [`ScoreInterval`] and the monitor simply asks whether
//! the retained test score still sits inside it — drift is whatever the
//! interval can no longer explain.
//!
//! CI runs this example twice (`RAYON_NUM_THREADS=1` and `4`) and diffs
//! the stdout byte-for-byte: every interval below is deterministic at any
//! thread count.
//!
//! Run with `cargo run --release --example interval_monitoring`.
//!
//! [`ScoreInterval`]: lvp_core::ScoreInterval

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
    println!(
        "test score {:.3}; conformal calibration on {} held-out residuals",
        predictor.test_score(),
        predictor.calibration_residuals().map_or(0, <[f64]>::len)
    );

    // --- Serving side --------------------------------------------------
    // No threshold to tune: the default policy switched to interval mode.
    let test_score = predictor.test_score();
    let mut monitor =
        BatchMonitor::new(predictor, MonitorPolicy::default().with_interval_alarm()).unwrap();

    // A two-week batch stream: days 6-9 ship a unit conversion bug that
    // rescales every numeric vital (a broken ETL stage, not one column).
    let bug = Scaling::for_columns(serving.schema().numeric_columns());
    println!(
        "\n{:<5} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>8}",
        "day", "lo", "point", "hi", "width", "raw", "smooth", "alarm"
    );
    for day in 1..=14 {
        let batch = serving.sample_n(250, &mut rng);
        let batch = if (6..=9).contains(&day) {
            bug.corrupt(&batch, &mut rng)
        } else {
            batch
        };
        let report = monitor.observe(&batch).unwrap();
        let iv = report.interval.expect("interval policy reports carry one");
        println!(
            "{:<5} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>6} {:>8} {:>8}",
            day,
            iv.lo,
            iv.point,
            iv.hi,
            iv.width(),
            report.raw_violation,
            report.smoothed_violation,
            if report.alarm { "PAGE!" } else { "-" }
        );
    }
    let alarms = monitor.history().iter().filter(|r| r.alarm).count();
    let violations = monitor
        .history()
        .iter()
        .filter_map(|r| r.interval)
        .filter(|iv| !iv.contains(test_score))
        .count();
    println!(
        "\n{alarms} alarming batches, {violations} coverage violations out of {}",
        monitor.history().len()
    );

    // --- v4 artifact round trip ----------------------------------------
    // The conformal calibration state ships inside the version-4 artifacts,
    // so a restored monitor reproduces the same intervals bit-for-bit.
    let predictor_json = serde_json::to_string(&monitor.predictor().to_artifact()).unwrap();
    let monitor_json = serde_json::to_string(&monitor.to_artifact()).unwrap();
    let restored_predictor = PerformancePredictor::from_artifact(
        serde_json::from_str(&predictor_json).unwrap(),
        Arc::clone(&model),
    )
    .unwrap();
    let mut restored = BatchMonitor::from_artifact(
        serde_json::from_str(&monitor_json).unwrap(),
        restored_predictor,
    )
    .unwrap();
    let day15 = serving.sample_n(250, &mut rng);
    let live = monitor.observe(&day15).unwrap();
    let back = restored.observe(&day15).unwrap();
    println!(
        "day 15 after restore: intervals bit-identical across the restart: {}",
        serde_json::to_string(&live).unwrap() == serde_json::to_string(&back).unwrap()
    );
}
