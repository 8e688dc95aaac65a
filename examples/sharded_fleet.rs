//! Sharded fleet monitoring: four serving shards sketch their traffic
//! independently and a central monitor folds the shard sketches into one
//! fleet-level report.
//!
//! Each shard streams its rows through a fixed-memory [`BatchSketch`]
//! (never materializing the batch), and because the sketch merge is an
//! exact commutative monoid, the merged fleet report is **bit-identical**
//! to the report a single monitor streaming every row in order would have
//! produced — at any thread count, for any chunking. This example asserts
//! exactly that, prints the per-window verdicts, runs the whole pipeline
//! twice and asserts the outputs are byte-identical. CI additionally diffs
//! the full stdout across `RAYON_NUM_THREADS=1` and `=4`.
//!
//! Run with `cargo run --release --example sharded_fleet`.

use lvp::prelude::*;
use lvp_core::BatchSketch;
use lvp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;

const SHARDS: usize = 4;
const WINDOWS: usize = 8;
const CHUNK_ROWS: usize = 23;

fn run_pipeline() -> (Vec<String>, String) {
    let registry = Registry::new();
    let mut rng = StdRng::seed_from_u64(7_020);

    // --- Train the model and its performance predictor --------------------
    let df = lvp::datasets::income(2_000, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();

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
    monitor.attach_telemetry_prefixed(&registry, "");
    monitor.retain_reference_outputs(&test).unwrap();

    // --- Fleet loop: sketch per shard, merge centrally --------------------
    let mut lines = Vec::new();
    for window in 0..WINDOWS {
        // One window of fleet traffic. Later windows drift: an upstream
        // units bug scales the numeric columns of an increasing fraction
        // of rows by 100× — the kind of error the predictor trained on.
        let mut traffic = serving.sample_n(400, &mut rng);
        let broken_rows = traffic.n_rows() * window / WINDOWS;
        for col in 0..3 {
            let values = traffic.column_mut(col).as_numeric_mut().unwrap();
            for v in values.iter_mut().take(broken_rows).flatten() {
                *v *= 100.0;
            }
        }
        let outputs = model.predict_proba(&traffic);

        // Each shard sketches its quarter of the traffic concurrently, in
        // chunks, without ever holding the batch.
        let rows: Vec<usize> = (0..outputs.rows()).collect();
        let shard_rows: Vec<&[usize]> = rows.chunks(rows.len().div_ceil(SHARDS)).collect();
        let shards: Vec<BatchSketch> = (0..shard_rows.len())
            .into_par_iter()
            .map(|s| {
                let mut sketch = BatchSketch::new(outputs.cols());
                for chunk in shard_rows[s].chunks(CHUNK_ROWS) {
                    sketch
                        .observe_chunk(&outputs.select_rows(chunk))
                        .expect("shard chunk matches the model's class count");
                }
                sketch
            })
            .collect();

        // Reference: one stream over the same rows, in order.
        for chunk in rows.chunks(CHUNK_ROWS) {
            monitor
                .observe_output_chunk(&outputs.select_rows(chunk))
                .unwrap();
        }
        let single = monitor.finish_window().unwrap();

        // Fleet-level report folded from the shard sketches.
        let merged = monitor.merge_shard_sketches(&shards).unwrap();
        assert_eq!(
            single.estimate.to_bits(),
            merged.estimate.to_bits(),
            "merged shards must report bit-identically to the single stream"
        );
        assert_eq!(single.telemetry.per_class_ks, merged.telemetry.per_class_ks);

        let worst_drift = merged
            .telemetry
            .per_class_ks
            .iter()
            .map(|d| d.statistic)
            .fold(0.0f64, f64::max);
        lines.push(format!(
            "window {window}: estimate {:.3} (smoothed {:.3}), max KS drift {:.3}, \
             alarm: {}",
            merged.estimate, merged.smoothed, worst_drift, merged.alarm
        ));
    }

    let alarms = monitor.history().iter().filter(|r| r.alarm).count();
    assert!(
        alarms > 0,
        "the heavily drifted late windows must raise an alarm"
    );
    lines.push(format!(
        "fleet: {SHARDS} shards, {WINDOWS} windows, {} reports scored, {alarms} alarming",
        monitor.batches_seen()
    ));

    let telemetry = registry.snapshot().deterministic().to_json().unwrap();
    (lines, telemetry)
}

fn main() {
    println!("monitoring a {SHARDS}-shard fleet (run 1 of 2)...");
    let (lines, telemetry) = run_pipeline();
    for line in &lines {
        println!("{line}");
    }

    println!("\nmonitoring a {SHARDS}-shard fleet (run 2 of 2)...");
    let (lines2, telemetry2) = run_pipeline();
    assert_eq!(lines, lines2, "reports must be byte-identical across runs");
    assert_eq!(
        telemetry, telemetry2,
        "deterministic telemetry views must be byte-identical across runs"
    );
    println!(
        "fleet reports and telemetry are byte-identical across runs \
         ({} bytes of telemetry)",
        telemetry.len()
    );
    println!("sharded fleet run OK");
}
