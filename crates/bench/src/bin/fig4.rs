//! Figure 4: sensitivity of the performance predictor to the size of the
//! held-out sample |D_test| it is trained from.
//!
//! Repeats the §6.1.1 experiments (missing values on income, outliers on
//! heart) for |D_test| ∈ {10, 50, 100, 250, 500, 750, 1000, 1500} and
//! reports MAE plus the 10th/90th percentile of the absolute error for
//! lr / dnn / xgb.
//!
//! `cargo run --release -p lvp-bench --bin fig4 [-- --scale small]`

use lvp_bench::{serving_errors, train_for, write_results, ExperimentEnv, ResultRow, Summary};
use lvp_core::PerformancePredictor;
use lvp_corruptions::{ErrorGen, MissingValues, Outliers};
use lvp_datasets::DatasetKind;
use lvp_models::ModelKind;
use std::sync::Arc;

const TEST_SIZES: [usize; 8] = [10, 50, 100, 250, 500, 750, 1000, 1500];

fn main() {
    let env = ExperimentEnv::from_args();
    let mut rows = Vec::new();

    let conditions: [(DatasetKind, &str); 2] = [
        (DatasetKind::Income, "missing_values"),
        (DatasetKind::Heart, "outliers"),
    ];

    println!(
        "{:<22} {:<6} {:>8} {:>8} {:>8} {:>8}",
        "condition", "model", "|Dtest|", "p10", "MAE", "p90"
    );

    for (dataset, error_name) in conditions {
        for model_kind in ModelKind::TABULAR {
            let stream = format!(
                "fig4/{}/{}/{}",
                dataset.name(),
                error_name,
                model_kind.name()
            );
            let mut rng = env.rng(&stream);
            // The sweep needs a test pool of at least 1500 rows regardless
            // of scale, so fig4 builds its own split instead of using the
            // default proportions.
            let scale = env.scale;
            let n = scale.dataset_size(dataset).max(5_000);
            let df = lvp_datasets::generate(dataset, n, &mut rng).balance_classes(&mut rng);
            let (source, rest) = df.split_frac(0.3, &mut rng);
            let (test_pool, serving) = rest.split_frac(0.5, &mut rng);
            let split = lvp_bench::SplitSpec {
                train: source,
                test: test_pool,
                serving,
            };
            let model = train_for(model_kind, &split.train, scale, &mut rng);

            for &size in &TEST_SIZES {
                let test_sample = split.test.sample_n(size, &mut rng);
                if test_sample.n_rows() < 4 {
                    continue;
                }
                let gen: Box<dyn ErrorGen> = match error_name {
                    "missing_values" => {
                        Box::new(MissingValues::all_categorical(test_sample.schema()))
                    }
                    _ => Box::new(Outliers::all_numeric(test_sample.schema())),
                };
                let predictor = match PerformancePredictor::fit(
                    Arc::clone(&model),
                    &test_sample,
                    &[gen],
                    &scale.predictor_config(),
                    &mut rng,
                ) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("skipping |Dtest|={size}: {e}");
                        continue;
                    }
                };

                let serve_gen: Box<dyn ErrorGen> = match error_name {
                    "missing_values" => {
                        Box::new(MissingValues::all_categorical(split.serving.schema()))
                    }
                    _ => Box::new(Outliers::all_numeric(split.serving.schema())),
                };
                let abs_errors = serving_errors(
                    &predictor,
                    &split.serving,
                    serve_gen.as_ref(),
                    None,
                    scale,
                    &mut rng,
                );
                let summary = Summary::of(&abs_errors);
                let condition = format!("{} in {}", error_name, dataset.name());
                println!(
                    "{:<22} {:<6} {:>8} {:>8.4} {:>8.4} {:>8.4}",
                    condition,
                    model_kind.name(),
                    size,
                    summary.p10,
                    summary.mean,
                    summary.p90
                );
                rows.push(
                    summary.into_row(
                        ResultRow::new("fig4", dataset.name(), model_kind.name(), condition)
                            .with("test_size", size as f64),
                    ),
                );
            }
        }
    }
    write_results("fig4", &rows);
}
