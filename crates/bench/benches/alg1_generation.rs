//! Criterion bench: the Algorithm 1 data-generation loop, sequential vs
//! parallel.
//!
//! The generation loop dominates predictor fitting cost (hundreds of
//! corrupt → predict → featurize rounds), so it is the target of the
//! deterministic batch engine. Both variants produce bit-identical output;
//! this bench records the wall-clock gap. Before/after numbers live in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use lvp_core::{generate_batches_resilient, Metric, TrainingExample};
use lvp_corruptions::standard_tabular_suite;
use lvp_models::{train_model_quick, BlackBoxModel, ModelKind};
use lvp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_alg1_generation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let df = lvp_datasets::income(600, &mut rng);
    let (train, test) = df.split_frac(0.6, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());

    let run = |parallel: bool| {
        generate_batches_resilient(
            model.as_ref(),
            &test,
            &gens,
            25,
            5,
            Metric::Accuracy,
            42,
            parallel,
            1.0,
            None,
            TrainingExample::from_batch,
        )
        .expect("accuracy metric fits any class count")
        .results
    };
    let registry = Registry::new();
    let run_instrumented = |parallel: bool| {
        generate_batches_resilient(
            model.as_ref(),
            &test,
            &gens,
            25,
            5,
            Metric::Accuracy,
            42,
            parallel,
            1.0,
            Some(&registry),
            TrainingExample::from_batch,
        )
        .expect("accuracy metric fits any class count")
        .results
    };

    // Sanity: all paths must agree before we time them.
    assert_eq!(run(false), run(true));
    assert_eq!(run(false), run_instrumented(false));

    c.bench_function("alg1_generation_sequential_4gens_x25", |b| {
        b.iter(|| run(false))
    });
    c.bench_function("alg1_generation_parallel_4gens_x25", |b| {
        b.iter(|| run(true))
    });
    // Instrumented variants quantify the telemetry overhead (phase timers,
    // counter increments, cache-stat publishing) against the bare loop.
    c.bench_function("alg1_generation_sequential_instrumented", |b| {
        b.iter(|| run_instrumented(false))
    });
    c.bench_function("alg1_generation_parallel_instrumented", |b| {
        b.iter(|| run_instrumented(true))
    });

    // Tree-backed black box: the same loop but every corrupted copy is
    // scored through the GBDT's blocked tree traversal instead of the
    // logistic regression's matmul.
    let xgb: Arc<dyn BlackBoxModel> = Arc::from(
        train_model_quick(ModelKind::Xgb, &train, &mut StdRng::seed_from_u64(7)).unwrap(),
    );
    let run_xgb = |parallel: bool| {
        generate_batches_resilient(
            xgb.as_ref(),
            &test,
            &gens,
            25,
            5,
            Metric::Accuracy,
            42,
            parallel,
            1.0,
            None,
            TrainingExample::from_batch,
        )
        .expect("accuracy metric fits any class count")
        .results
    };
    assert_eq!(run_xgb(false), run_xgb(true));
    c.bench_function("alg1_generation_sequential_xgb_4gens_x25", |b| {
        b.iter(|| run_xgb(false))
    });
    c.bench_function("alg1_generation_parallel_xgb_4gens_x25", |b| {
        b.iter(|| run_xgb(true))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alg1_generation
}
criterion_main!(benches);
