//! The paper's motivating scenario (§1): an engineering team consumes
//! predictions from an outsourced model and must decide, batch by batch,
//! whether to trust them — without access to ground-truth labels.
//!
//! A bank marketing model scores daily batches of customers. On day 4 an
//! engineer "accidentally" ships a preprocessing bug that records call
//! durations in milliseconds instead of seconds (a scaling error), and on
//! day 6 a broken join starts nulling out the `poutcome` and `duration`
//! columns. The deployed performance validator must flag the broken days.
//!
//! Run with `cargo run --release --example deposit_campaign_monitoring`.

use lvp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    println!("training the deposit-subscription model...");
    let df = lvp::datasets::bank(3_000, &mut rng);
    let (source, serving_pool) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Xgb, &train, &mut rng).unwrap());
    println!(
        "held-out test accuracy: {:.3}",
        lvp::models::model_accuracy(model.as_ref(), &test)
    );

    // The team expects missing values and unit bugs; it encodes that
    // knowledge as error generators and trains a validator with a 5%
    // acceptable quality loss.
    println!("fitting performance validator (t = 5%)...");
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &ValidatorConfig::fast(0.05),
        &mut rng,
    )
    .unwrap();

    // Day-by-day serving: days 4-5 ship the scaling bug, days 6-7 the
    // missing-value bug.
    let duration_col = test.schema().index_of("duration").expect("column exists");
    let poutcome_col = test.schema().index_of("poutcome").expect("column exists");

    // Unlike the *training-time* generators, which draw a random affected
    // fraction per run, a shipped preprocessing bug is systematic: it hits
    // every row of every batch until someone reverts it.
    let scaling_bug = |batch: &lvp_dataframe::DataFrame| {
        let mut broken = batch.clone();
        let values = broken
            .column_mut(duration_col)
            .as_numeric_mut()
            .expect("duration is numeric");
        for v in values.iter_mut().flatten() {
            *v *= 1_000.0; // milliseconds instead of seconds
        }
        broken
    };
    let missing_bug = |batch: &lvp_dataframe::DataFrame| {
        let mut broken = batch.clone();
        for col in [poutcome_col, duration_col] {
            for row in 0..broken.n_rows() {
                broken.column_mut(col).set_null(row); // broken join
            }
        }
        broken
    };

    println!(
        "\n{:<6} {:>12} {:>12} {:>10} {:>9}",
        "day", "true acc", "confidence", "verdict", "actual"
    );
    for day in 1..=8 {
        let batch = serving_pool.sample_n(500, &mut rng);
        let batch = match day {
            4 | 5 => scaling_bug(&batch),
            6 | 7 => missing_bug(&batch),
            _ => batch,
        };
        let outcome = validator.validate(&batch).unwrap();
        let true_acc = lvp::models::model_accuracy(model.as_ref(), &batch);
        let actually_ok = true_acc >= (1.0 - 0.05) * validator.test_score();
        println!(
            "{:<6} {:>12.3} {:>12.3} {:>10} {:>9}",
            day,
            true_acc,
            outcome.confidence,
            if outcome.within_threshold {
                "TRUST"
            } else {
                "ALARM"
            },
            if actually_ok { "ok" } else { "broken" },
        );
    }
    println!("\n(the validator sees no labels — 'true acc' is shown only for the demo)");
}
