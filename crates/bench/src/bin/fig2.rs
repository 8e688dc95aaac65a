//! Figure 2: estimation of the prediction quality in the presence of known
//! types (but unknown magnitudes) of errors in the serving data.
//!
//! Per (dataset, model, error type): train the black box model and a
//! performance predictor specialized to that error type, then apply the
//! error generator at random magnitudes to unseen serving batches and
//! report the distribution of the absolute error |estimated − true
//! accuracy| (the quantity behind the paper's box plots).
//!
//! `cargo run --release -p lvp-bench --bin fig2 [-- --scale small]`

use lvp_bench::{
    prepare_split, serving_errors, train_for, write_results, ExperimentEnv, ResultRow, Summary,
};
use lvp_core::PerformancePredictor;
use lvp_corruptions::{
    AdversarialLeetspeak, ErrorGen, ImageNoise, ImageRotation, MissingValues, Outliers, Scaling,
    SwappedColumns,
};
use lvp_datasets::DatasetKind;
use lvp_models::{model_accuracy, ModelKind};
use std::sync::Arc;

fn errors_for(kind: DatasetKind, schema: &lvp_dataframe::Schema) -> Vec<Box<dyn ErrorGen>> {
    match kind {
        DatasetKind::Income | DatasetKind::Heart | DatasetKind::Bank => vec![
            Box::new(MissingValues::all_categorical(schema)),
            Box::new(Outliers::all_numeric(schema)),
            Box::new(SwappedColumns::all_pairs(schema)),
            Box::new(Scaling::all_numeric(schema)),
        ],
        DatasetKind::Tweets => vec![Box::new(AdversarialLeetspeak::all_text(schema))],
        DatasetKind::Digits | DatasetKind::Fashion => vec![
            Box::new(ImageNoise::all_images(schema)),
            Box::new(ImageRotation::all_images(schema)),
        ],
    }
}

fn main() {
    let env = ExperimentEnv::from_args();
    let mut rows = Vec::new();

    let cells: Vec<(DatasetKind, Vec<ModelKind>)> = vec![
        (DatasetKind::Income, ModelKind::TABULAR.to_vec()),
        (DatasetKind::Heart, ModelKind::TABULAR.to_vec()),
        (DatasetKind::Bank, ModelKind::TABULAR.to_vec()),
        (DatasetKind::Tweets, ModelKind::TABULAR.to_vec()),
        (DatasetKind::Digits, vec![ModelKind::Conv]),
        (DatasetKind::Fashion, vec![ModelKind::Conv]),
    ];

    println!(
        "{:<10} {:<6} {:<24} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "model", "error", "median", "p25", "p75", "max"
    );

    for (dataset, models) in cells {
        for model_kind in models {
            let stream = format!("fig2/{}/{}", dataset.name(), model_kind.name());
            let mut rng = env.rng(&stream);
            let split = prepare_split(dataset, env.scale, &mut rng);
            let model = train_for(model_kind, &split.train, env.scale, &mut rng);
            let test_acc = model_accuracy(model.as_ref(), &split.test);

            for error in errors_for(dataset, split.test.schema()) {
                let predictor = PerformancePredictor::fit(
                    Arc::clone(&model),
                    &split.test,
                    &[clone_gen(dataset, error.name(), split.test.schema())],
                    &env.scale.predictor_config(),
                    &mut rng,
                )
                .expect("predictor fit succeeds");

                let abs_errors = serving_errors(
                    &predictor,
                    &split.serving,
                    error.as_ref(),
                    Some(model.as_ref()),
                    env.scale,
                    &mut rng,
                );
                let summary = Summary::of(&abs_errors);
                println!(
                    "{:<10} {:<6} {:<24} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                    dataset.name(),
                    model_kind.name(),
                    error.name(),
                    summary.median,
                    summary.p25,
                    summary.p75,
                    summary.max
                );
                rows.push(
                    summary.into_row(
                        ResultRow::new("fig2", dataset.name(), model_kind.name(), error.name())
                            .with("test_accuracy", test_acc),
                    ),
                );
            }
        }
    }
    write_results("fig2", &rows);
}

/// Rebuilds a generator by name so predictor training and serving use
/// independent instances (same semantics, fresh column sampling).
fn clone_gen(kind: DatasetKind, name: &str, schema: &lvp_dataframe::Schema) -> Box<dyn ErrorGen> {
    errors_for(kind, schema)
        .into_iter()
        .find(|g| g.name() == name)
        .expect("generator exists for this dataset")
}
