//! Adversarial-text scenario (§6.1.1, tweets dataset): attackers re-spell
//! trolling tweets in leetspeak to evade a deployed classifier. The
//! performance predictor — trained on synthetic leetspeak corruption —
//! estimates how far the classifier's accuracy degrades on each incoming
//! batch.
//!
//! Run with `cargo run --release --example troll_detection`.

use lvp::prelude::*;
use lvp_corruptions::AdversarialLeetspeak;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(1234);

    println!("training the troll-detection model on tweets...");
    let df = lvp::datasets::tweets(2_000, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    println!(
        "held-out test accuracy: {:.3}",
        lvp::models::model_accuracy(model.as_ref(), &test)
    );

    println!("fitting performance predictor against adversarial text...");
    let errors = lvp::corruptions::text_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();

    // Simulate attack waves of increasing intensity by converting a growing
    // share of serving tweets to leetspeak.
    let attack = AdversarialLeetspeak::all_text(serving.schema());
    println!(
        "\n{:<22} {:>10} {:>10} {:>8}",
        "batch", "estimated", "true", "|err|"
    );
    let est = predictor.predict(&serving).unwrap();
    let truth = lvp::models::model_accuracy(model.as_ref(), &serving);
    println!(
        "{:<22} {:>10.3} {:>10.3} {:>8.3}",
        "no attack",
        est,
        truth,
        (est - truth).abs()
    );
    for wave in 1..=4 {
        let mut batch = serving.clone();
        // Layer the attack: each wave re-corrupts, increasing coverage.
        for _ in 0..wave {
            batch = attack.corrupt(&batch, &mut rng);
        }
        let est = predictor.predict(&batch).unwrap();
        let truth = lvp::models::model_accuracy(model.as_ref(), &batch);
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>8.3}",
            format!("attack wave {wave}"),
            est,
            truth,
            (est - truth).abs()
        );
    }
}
