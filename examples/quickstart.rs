//! Quickstart: learn a performance predictor for a black box model and use
//! it to estimate accuracy on unseen, unlabeled serving data.
//!
//! Run with `cargo run --release --example quickstart`.

use lvp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. Source data: the income dataset. In production this would be the
    //    data your team collected and labeled.
    println!("generating income data and training a black box model...");
    let df = lvp::datasets::income(2_400, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);

    // 2. A black box model: we can only call predict_proba on it.
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    let test_accuracy = lvp::models::model_accuracy(model.as_ref(), &test);
    println!("model test accuracy: {test_accuracy:.3}");

    // 3. Declare the error types we might see in production. We specify
    //    *types*, never magnitudes — the predictor learns those itself.
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());

    // 4. Algorithm 1: learn the performance predictor from synthetically
    //    corrupted copies of the held-out test data.
    println!("fitting performance predictor (Algorithm 1)...");
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();

    // 5. Algorithm 2: estimate the score on unseen serving batches — first
    //    clean, then increasingly corrupted. We print the true accuracy
    //    next to the estimate only because this demo has labels; the
    //    predictor never sees them.
    println!(
        "\n{:<28} {:>10} {:>10} {:>8}",
        "serving batch", "estimated", "true", "|err|"
    );
    let clean_est = predictor.predict(&serving).unwrap();
    let clean_true = lvp::models::model_accuracy(model.as_ref(), &serving);
    println!(
        "{:<28} {:>10.3} {:>10.3} {:>8.3}",
        "clean",
        clean_est,
        clean_true,
        (clean_est - clean_true).abs()
    );

    for gen in &errors {
        let corrupted = gen.corrupt(&serving, &mut rng);
        let est = predictor.predict(&corrupted).unwrap();
        let truth = lvp::models::model_accuracy(model.as_ref(), &corrupted);
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>8.3}",
            gen.name(),
            est,
            truth,
            (est - truth).abs()
        );
    }

    // 6. No tuned alarm threshold needed: the predictor brackets its own
    //    estimate with a calibrated 90% interval, and the natural alarm
    //    question is whether the retained test score escaped it.
    let interval = predictor.predict_interval(&serving).unwrap();
    println!(
        "\n90% interval on clean data: [{:.3}, {:.3}] (point {:.3})",
        interval.lo, interval.hi, interval.point
    );
    println!(
        "test score {:.3} inside the serving interval: {}",
        predictor.test_score(),
        interval.contains(predictor.test_score())
    );
}
