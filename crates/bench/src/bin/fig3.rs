//! Figure 3: performance prediction quality for linear and non-linear
//! models under increasing amounts of *unknown* error types.
//!
//! The predictor trains on an error distribution where each error type is
//! only present in a `fraction` of its training copies (fraction 0 means
//! the predictor never saw the error type at all); the serving data is
//! corrupted with the full set of error types including the
//! model-entropy-based missing values. Reported: median / 5th / 95th
//! percentile of the absolute error, split into the linear model (`lr`)
//! and the non-linear models (`dnn`, `xgb`).
//!
//! `cargo run --release -p lvp-bench --bin fig3 [-- --scale small]`

use lvp_bench::{
    prepare_split, serving_errors, train_for, write_results, ExperimentEnv, ResultRow, Summary,
};
use lvp_core::{PerformancePredictor, PredictorConfig};
use lvp_corruptions::{
    CleanCopy, EntropyMissingValues, ErrorGen, MissingValues, Mixture, Outliers, Scaling,
    SwappedColumns,
};
use lvp_datasets::DatasetKind;
use lvp_models::{BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The five §6.1.2 error types (standard suite + entropy-based missing).
fn full_suite(schema: &lvp_dataframe::Schema) -> Vec<Box<dyn ErrorGen>> {
    vec![
        Box::new(MissingValues::all_categorical(schema)),
        Box::new(Outliers::all_numeric(schema)),
        Box::new(SwappedColumns::all_pairs(schema)),
        Box::new(Scaling::all_numeric(schema)),
        Box::new(EntropyMissingValues::all_tabular(schema)),
    ]
}

/// A generator that applies `inner` with probability `fraction` and leaves
/// the data clean otherwise — the partial-exposure training distribution.
struct Partial {
    inner: Box<dyn ErrorGen>,
    fraction: f64,
    name: String,
}

impl ErrorGen for Partial {
    fn name(&self) -> &str {
        &self.name
    }

    fn corrupt(&self, df: &lvp_dataframe::DataFrame, rng: &mut StdRng) -> lvp_dataframe::DataFrame {
        self.corrupt_with_model(df, None, rng)
    }

    fn corrupt_with_model(
        &self,
        df: &lvp_dataframe::DataFrame,
        model: Option<&dyn BlackBoxModel>,
        rng: &mut StdRng,
    ) -> lvp_dataframe::DataFrame {
        if rng.gen::<f64>() < self.fraction {
            self.inner.corrupt_with_model(df, model, rng)
        } else {
            CleanCopy.corrupt(df, rng)
        }
    }
}

fn main() {
    let env = ExperimentEnv::from_args();
    let mut rows = Vec::new();
    let mut linear_by_fraction: Vec<Vec<f64>> = vec![Vec::new(); FRACTIONS.len()];
    let mut nonlinear_by_fraction: Vec<Vec<f64>> = vec![Vec::new(); FRACTIONS.len()];

    for dataset in [DatasetKind::Income, DatasetKind::Heart] {
        for model_kind in ModelKind::TABULAR {
            let stream = format!("fig3/{}/{}", dataset.name(), model_kind.name());
            let mut rng = env.rng(&stream);
            let split = prepare_split(dataset, env.scale, &mut rng);
            let model = train_for(model_kind, &split.train, env.scale, &mut rng);

            for (fi, &fraction) in FRACTIONS.iter().enumerate() {
                // Training exposure: each error type seen only in a
                // `fraction` of its copies. The fraction axis in the figure
                // is "fraction of unknown errors" = 1 - exposure.
                let training_gens: Vec<Box<dyn ErrorGen>> = full_suite(split.test.schema())
                    .into_iter()
                    .map(|inner| {
                        let name = format!("partial({})", inner.name());
                        Box::new(Partial {
                            inner,
                            fraction,
                            name,
                        }) as Box<dyn ErrorGen>
                    })
                    .collect();
                let config = PredictorConfig {
                    ..env.scale.predictor_config()
                };
                let predictor = PerformancePredictor::fit(
                    Arc::clone(&model),
                    &split.test,
                    &training_gens,
                    &config,
                    &mut rng,
                )
                .expect("predictor fit succeeds");

                // Serving: the full mixture, always applied.
                let serve_mix = Mixture::from_boxes(full_suite(split.serving.schema()));
                let abs_errors = serving_errors(
                    &predictor,
                    &split.serving,
                    &serve_mix,
                    Some(model.as_ref()),
                    env.scale,
                    &mut rng,
                );
                if model_kind == ModelKind::Lr {
                    linear_by_fraction[fi].extend_from_slice(&abs_errors);
                } else {
                    nonlinear_by_fraction[fi].extend_from_slice(&abs_errors);
                }
            }
        }
    }

    println!(
        "{:<10} {:<22} {:>8} {:>8} {:>8}",
        "family", "frac unknown errors", "p05", "median", "p95"
    );
    for (fi, &fraction) in FRACTIONS.iter().enumerate() {
        let unknown = 1.0 - fraction;
        for (family, samples) in [
            ("linear", &linear_by_fraction[fi]),
            ("nonlinear", &nonlinear_by_fraction[fi]),
        ] {
            let summary = Summary::of(samples);
            println!(
                "{:<10} {:<22.2} {:>8.4} {:>8.4} {:>8.4}",
                family, unknown, summary.p05, summary.median, summary.p95
            );
            rows.push(
                summary.into_row(
                    ResultRow::new(
                        "fig3",
                        "income+heart",
                        family,
                        format!("unknown={unknown:.2}"),
                    )
                    .with("fraction_unknown", unknown),
                ),
            );
        }
    }
    write_results("fig3", &rows);
}
