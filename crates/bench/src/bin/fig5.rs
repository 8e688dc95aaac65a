//! Figure 5: F1 scores for performance validation under mixtures of
//! shifts and errors, PPM vs BBSE / BBSEh / REL at t ∈ {3%, 5%, 10%}.
//!
//! Default protocol (§6.2.2): the validator trains on random mixtures of
//! the four *known* error types (missing values, outliers, swapped
//! columns, scaling) and is evaluated on mixtures of three *unknown* error
//! types (typos, smearing, flipped signs). Pass `--known` for the §6.2.1
//! variant where serving uses the same (known) mixture family.
//!
//! `cargo run --release -p lvp-bench --bin fig5 [-- [--scale small] [--known]]`

use lvp_bench::validation::{validation_f1, THRESHOLDS};
use lvp_bench::{prepare_split, train_for, write_results, ExperimentEnv, ResultRow};
use lvp_corruptions::{standard_tabular_suite, unknown_tabular_suite, Mixture};
use lvp_datasets::DatasetKind;
use lvp_models::ModelKind;

fn main() {
    let (env, switches) = ExperimentEnv::from_args_with(&["--known"]);
    let known_mode = !switches.is_empty();
    let mut rows = Vec::new();
    let serve_family = if known_mode { "known" } else { "unknown" };
    println!("# serving-error family: {serve_family}");
    println!(
        "{:<8} {:<6} {:>5} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "model", "t", "PPM", "BBSE", "BBSEh", "REL"
    );

    for dataset in [DatasetKind::Income, DatasetKind::Heart, DatasetKind::Bank] {
        for model_kind in ModelKind::TABULAR {
            let stream = format!(
                "fig5/{}/{}/{}",
                dataset.name(),
                model_kind.name(),
                serve_family
            );
            let mut rng = env.rng(&stream);
            let split = prepare_split(dataset, env.scale, &mut rng);
            let model = train_for(model_kind, &split.train, env.scale, &mut rng);

            for threshold in THRESHOLDS {
                let train_gens = standard_tabular_suite(split.test.schema());
                let serve_mix = if known_mode {
                    Mixture::from_boxes(standard_tabular_suite(split.serving.schema()))
                } else {
                    Mixture::from_boxes(unknown_tabular_suite(split.serving.schema()))
                };
                let scores = validation_f1(
                    model.clone(),
                    &split.test,
                    &split.serving,
                    &train_gens,
                    &serve_mix,
                    threshold,
                    env.scale,
                    &mut rng,
                );
                println!(
                    "{:<8} {:<6} {:>5.2} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                    dataset.name(),
                    model_kind.name(),
                    threshold,
                    scores["PPM"],
                    scores["BBSE"],
                    scores["BBSEh"],
                    scores["REL"]
                );
                let mut row = ResultRow::new(
                    if known_mode { "fig5-known" } else { "fig5" },
                    dataset.name(),
                    model_kind.name(),
                    format!("t={threshold}"),
                )
                .with("threshold", threshold);
                for (method, f1) in &scores {
                    row = row.with(method, *f1);
                }
                rows.push(row);
            }
        }
    }
    write_results(if known_mode { "fig5_known" } else { "fig5" }, &rows);
}
