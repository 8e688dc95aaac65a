//! Image-pipeline scenario (§6.1.1, Figure 2(d)): a convolutional network
//! classifies handwritten digits; a camera fault adds sensor noise and a
//! mis-mounted scanner rotates inputs. The validator decides per batch
//! whether the convnet's predictions are still reliable.
//!
//! Run with `cargo run --release --example image_pipeline`.

use lvp::prelude::*;
use lvp_corruptions::{ImageNoise, ImageRotation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);

    println!("training the convnet on digits (3 vs 5)...");
    let df = lvp::datasets::digits(1_200, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Conv, &train, &mut rng).unwrap());
    println!(
        "held-out test accuracy: {:.3}",
        lvp::models::model_accuracy(model.as_ref(), &test)
    );

    println!("fitting performance validator for noise + rotation (t = 10%)...");
    let errors = lvp::corruptions::image_suite(test.schema());
    let validator = PerformanceValidator::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &ValidatorConfig::fast(0.10),
        &mut rng,
    )
    .unwrap();

    let noise = ImageNoise::all_images(serving.schema());
    let rotation = ImageRotation::all_images(serving.schema());

    println!(
        "\n{:<18} {:>10} {:>12} {:>10}",
        "batch", "true acc", "confidence", "verdict"
    );
    let cases: Vec<(&str, lvp_dataframe::DataFrame)> = vec![
        ("clean", serving.clone()),
        ("sensor noise", noise.corrupt(&serving, &mut rng)),
        ("rotated scans", rotation.corrupt(&serving, &mut rng)),
        (
            "noise + rotation",
            rotation.corrupt(&noise.corrupt(&serving, &mut rng), &mut rng),
        ),
    ];
    for (name, batch) in cases {
        let outcome = validator.validate(&batch).unwrap();
        let truth = lvp::models::model_accuracy(model.as_ref(), &batch);
        println!(
            "{:<18} {:>10.3} {:>12.3} {:>10}",
            name,
            truth,
            outcome.confidence,
            if outcome.within_threshold {
                "TRUST"
            } else {
                "ALARM"
            },
        );
    }
}
