//! Criterion bench: fit and serving-time cost of the performance
//! predictor. Serving-time prediction must be cheap enough to run on every
//! batch in an online deployment (§6.1.3's motivation).

use criterion::{criterion_group, criterion_main, Criterion};
use lvp_core::{FeatureSource, PerformancePredictor, PredictorConfig};
use lvp_corruptions::standard_tabular_suite;
use lvp_models::tree::SplitMethod;
use lvp_models::{train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_predictor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let df = lvp_datasets::income(600, &mut rng);
    let (train, test) = df.split_frac(0.6, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());

    let mut cfg = PredictorConfig::fast();
    cfg.runs_per_generator = 10;
    cfg.clean_copies = 2;
    let gens = standard_tabular_suite(test.schema());

    c.bench_function("predictor_fit_income_240_test_rows", |b| {
        b.iter(|| {
            let mut fit_rng = StdRng::seed_from_u64(2);
            PerformancePredictor::fit(Arc::clone(&model), &test, &gens, &cfg, &mut fit_rng).unwrap()
        })
    });

    // Same fit with the exact split finder as the meta-forest oracle — the
    // histogram-vs-exact gap on the hot predictor-fit path.
    let mut cfg_exact = cfg.clone();
    for forest_cfg in &mut cfg_exact.forest_grid {
        forest_cfg.split_method = SplitMethod::Exact;
    }
    c.bench_function("predictor_fit_income_240_test_rows_exact_splits", |b| {
        b.iter(|| {
            let mut fit_rng = StdRng::seed_from_u64(2);
            PerformancePredictor::fit(Arc::clone(&model), &test, &gens, &cfg_exact, &mut fit_rng)
                .unwrap()
        })
    });

    let mut fit_rng = StdRng::seed_from_u64(3);
    let predictor =
        PerformancePredictor::fit(Arc::clone(&model), &test, &gens, &cfg, &mut fit_rng).unwrap();
    c.bench_function("predictor_predict_serving_240_rows", |b| {
        b.iter(|| predictor.predict(&test).unwrap())
    });
    let proba = model.predict_proba(&test);
    c.bench_function("predictor_predict_source_outputs", |b| {
        b.iter(|| {
            predictor
                .predict_source(&FeatureSource::Exact(&proba))
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_predictor
}
criterion_main!(benches);
