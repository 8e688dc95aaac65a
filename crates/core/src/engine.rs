//! Deterministic parallel batch engine for the Algorithm 1/2 generation
//! loops.
//!
//! Algorithm 1 applies every error generator `runs_per_generator` times to
//! (subsamples of) the held-out test data; each run is independent of all
//! others, so the loop is embarrassingly parallel. The catch is
//! reproducibility: threading one mutable RNG through a parallel loop makes
//! the output depend on the interleaving. This module instead derives a
//! *per-run* RNG from `(master_seed, generator_idx, run_idx)` so every run
//! is self-contained, and collects results in task order. The parallel
//! output is therefore bit-identical to the sequential output at any thread
//! count (asserted by `tests/determinism.rs`).
//!
//! The clean-copy stream (`p_err = 0`) is addressed as a virtual generator
//! at index `generators.len()`.
//!
//! Row reuse: when the model's rows are independent
//! ([`BlackBoxModel::rows_are_independent`]), the engine scores the test
//! data once, and each task sends the black box only the rows its
//! corruption changed; the outputs of every other row are the reference
//! outputs gathered by index. Clean copies make no model call at all.

use crate::{CoreError, Metric};
use lvp_corruptions::ErrorGen;
use lvp_dataframe::{derive_seed, DataFrame};
use lvp_linalg::DenseMatrix;
use lvp_models::BlackBoxModel;
use lvp_telemetry::{Counter, Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

/// Lower bound for the random subsample size used when corrupting the test
/// data (Algorithm 1 corrupts random-size subsamples so the regressor sees
/// the batch-size regime it will face at serving time).
///
/// For reasonable test sets this is `max(n/3, 10)`; for tiny frames that
/// clamp would collapse to `lo == n` (no size variation at all), so below
/// 10 rows it falls back to half the frame.
pub fn subsample_lower_bound(n_rows: usize) -> usize {
    let lo = (n_rows / 3).max(10).min(n_rows);
    if lo >= n_rows {
        // Tiny frame: the standard clamp leaves no room for variation.
        (n_rows / 2).max(1)
    } else {
        lo
    }
}

/// Scores `batch`, a copy of `base`, which holds the test rows `rows`.
///
/// With `reference` (the model's outputs on the whole test data) and a
/// copy row-aligned with its base (see [`DataFrame::changed_rows`]), only
/// the changed rows go to the model, and their outputs are scattered into
/// the reference outputs of `rows`. Any other copy is scored whole.
fn score_batch(
    model: &dyn BlackBoxModel,
    reference: Option<&DenseMatrix>,
    rows: &[usize],
    base: &DataFrame,
    batch: &DataFrame,
) -> Result<DenseMatrix, lvp_models::ModelError> {
    let reusable = reference.and_then(|proba| Some((proba, batch.changed_rows(base)?)));
    let Some((reference, changed)) = reusable.filter(|(_, c)| c.len() < batch.n_rows()) else {
        return model.try_predict_proba(batch);
    };
    let mut proba = reference.select_rows(rows);
    if !changed.is_empty() {
        let fresh = model.try_predict_proba(&batch.select_rows(&changed))?;
        for (k, &r) in changed.iter().enumerate() {
            proba.row_mut(r).copy_from_slice(fresh.row(k));
        }
    }
    Ok(proba)
}

/// One corrupted (or clean) batch produced by the generation loop, handed
/// to the caller's featurization closure.
pub struct GeneratedBatch<'a> {
    /// The black box model's outputs on the batch.
    pub proba: DenseMatrix,
    /// The model's true score on the batch under the configured metric.
    pub score: f64,
    /// Name of the generator that produced the batch (`"clean"` for the
    /// clean-copy stream).
    pub generator: &'a str,
}

/// A generation task whose batch could not be scored (the serving model
/// failed terminally), recorded instead of aborting the whole loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedBatch {
    /// Name of the generator whose run was skipped (`"clean"` for the
    /// clean-copy stream).
    pub generator: String,
    /// Run index within the generator's stream.
    pub run: usize,
    /// The terminal serving failure.
    pub error: lvp_models::ModelError,
}

/// Result of a fault-tolerant generation loop: the featurized batches that
/// survived plus a record of every skipped task, both in deterministic
/// task order.
#[derive(Debug)]
pub struct GenerationOutcome<T> {
    /// Featurized batches whose scoring succeeded, in task order.
    pub results: Vec<T>,
    /// Tasks whose scoring failed terminally, in task order.
    pub skipped: Vec<SkippedBatch>,
}

/// Pre-resolved registry handles for the generation loop. Resolved once
/// before the fan-out; each task touches only atomics.
struct EngineMetrics {
    /// `engine.batches_generated` — total batches (corrupt + clean).
    batches: Counter,
    /// `engine.batches_clean` — clean-copy batches only.
    clean: Counter,
    /// `engine.seeds_used` — per-run RNG seeds derived (== tasks run).
    seeds: Counter,
    /// `engine.batches_skipped` — tasks dropped because scoring failed
    /// terminally.
    skipped: Counter,
    /// `engine.generate_phase` — subsample + corrupt wall time per batch.
    generate: Histogram,
    /// `engine.score_phase` — model inference + metric wall time per batch.
    score: Histogram,
    /// `engine.featurize_phase` — featurize-closure wall time per batch.
    featurize: Histogram,
}

impl EngineMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            batches: registry.counter("engine.batches_generated"),
            clean: registry.counter("engine.batches_clean"),
            seeds: registry.counter("engine.seeds_used"),
            skipped: registry.counter("engine.batches_skipped"),
            generate: registry.histogram("engine.generate_phase"),
            score: registry.histogram("engine.score_phase"),
            featurize: registry.histogram("engine.featurize_phase"),
        }
    }
}

/// Runs the data-generation loop of Algorithm 1 (lines 3–12) and maps each
/// generated batch through `featurize`.
///
/// Results are ordered generator-major (all runs of generator 0, then all
/// runs of generator 1, …, then the clean copies), identically for the
/// sequential and parallel paths: each task seeds its own [`StdRng`] from
/// [`derive_seed`]`(master_seed, generator, run)` and the parallel collect
/// preserves task order.
///
/// Fails fast with a [`CoreError`] when `test` is empty or `metric` cannot
/// score the model's output shape (e.g. [`Metric::Auc`] with a non-binary
/// model), before any batch is generated.
///
/// When [`BlackBoxModel::rows_are_independent`] holds, the model scores
/// `test` once and each task scores only the rows its corruption changed
/// (module docs); the outputs are bit-identical to scoring every batch
/// whole. If that reference call fails, every task scores its whole batch,
/// so which tasks are skipped does not change.
///
/// A task whose scoring fails terminally (the serving model's
/// [`BlackBoxModel::try_predict_proba`] returns an error even after its own
/// retries) is *skipped and recorded* instead of panicking, and the loop
/// succeeds as long as at least `min_survival` of its tasks produce a
/// usable batch. `min_survival` is a fraction in `[0, 1]`; `1.0` demands
/// every task succeed (the first failure aborts with a [`CoreError`] whose
/// source chain carries the typed [`lvp_models::ModelError`]). Skip
/// decisions inherit the engine's determinism: with a content-keyed fault
/// schedule (see `lvp-models`' `FaultPlan`) the same seed skips the same
/// tasks at any thread count, and both `results` and `skipped` are
/// collected in task order.
///
/// When `telemetry` is `Some`, the engine records per-phase wall-clock
/// histograms (`engine.generate_phase`, `engine.score_phase`,
/// `engine.featurize_phase`) and batch/seed counters. Counter and
/// histogram-count totals are identical at any thread count (atomic adds
/// commute); histogram *buckets* hold wall-clock data and are excluded
/// from deterministic snapshot views. Telemetry never touches an RNG, so the generated batches
/// are bit-identical with and without it.
#[allow(clippy::too_many_arguments)]
pub fn generate_batches_resilient<T, F>(
    model: &dyn BlackBoxModel,
    test: &DataFrame,
    generators: &[Box<dyn ErrorGen>],
    runs_per_generator: usize,
    clean_copies: usize,
    metric: Metric,
    master_seed: u64,
    parallel: bool,
    min_survival: f64,
    telemetry: Option<&Registry>,
    featurize: F,
) -> Result<GenerationOutcome<T>, CoreError>
where
    T: Send,
    F: Fn(GeneratedBatch<'_>) -> T + Sync,
{
    if !(0.0..=1.0).contains(&min_survival) {
        return Err(CoreError::new(format!(
            "min_survival must lie in [0, 1], got {min_survival}"
        )));
    }
    if test.n_rows() == 0 {
        return Err(CoreError::new("held-out test data is empty"));
    }
    metric.validate_n_classes(model.n_classes())?;
    let clean_stream = generators.len();
    let tasks: Vec<(usize, usize)> = (0..generators.len())
        .flat_map(|g| (0..runs_per_generator).map(move |r| (g, r)))
        .chain((0..clean_copies).map(|r| (clean_stream, r)))
        .collect();
    let metrics = telemetry.map(EngineMetrics::resolve);
    let metrics = metrics.as_ref();
    let reference = if model.rows_are_independent() {
        model.try_predict_proba(test).ok()
    } else {
        None
    };

    let run_one = |(g, r): (usize, usize)| -> Result<T, SkippedBatch> {
        let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, g as u64, r as u64));
        if let Some(m) = metrics {
            m.seeds.inc();
        }
        let started = Instant::now();
        // Corrupted copies are random-size subsamples so the learned
        // regressor sees the batch-size regime it will face at serving time
        // (percentile features are order statistics and therefore
        // batch-size sensitive). Clean copies teach the meta-model the
        // error-free regime; their size varies too.
        let n = test.n_rows();
        let lo = if g < clean_stream {
            subsample_lower_bound(n)
        } else {
            (n / 2).max(1)
        };
        let rows = test.sample_indices(rng.gen_range(lo..=n), &mut rng);
        let base = test.select_rows(&rows);
        let (batch_frame, generator_name) = if g < clean_stream {
            let corrupted = generators[g].corrupt_with_model(&base, Some(model), &mut rng);
            (corrupted, generators[g].name())
        } else {
            (base.clone(), "clean")
        };
        let generated = Instant::now();
        let proba = match score_batch(model, reference.as_ref(), &rows, &base, &batch_frame) {
            Ok(proba) => proba,
            Err(error) => {
                if let Some(m) = metrics {
                    m.skipped.inc();
                }
                return Err(SkippedBatch {
                    generator: generator_name.to_string(),
                    run: r,
                    error,
                });
            }
        };
        let batch = GeneratedBatch {
            score: metric
                .score(&proba, batch_frame.labels())
                .expect("metric validated against the model's class count above"),
            proba,
            generator: generator_name,
        };
        if let Some(m) = metrics {
            m.generate.record(generated - started);
            m.score.record(generated.elapsed());
            if g >= clean_stream {
                m.clean.inc();
            }
            m.batches.inc();
            let featurize_started = Instant::now();
            let out = featurize(batch);
            m.featurize.record(featurize_started.elapsed());
            Ok(out)
        } else {
            Ok(featurize(batch))
        }
    };

    let collected: Vec<Result<T, SkippedBatch>> = if parallel {
        tasks.into_par_iter().map(run_one).collect()
    } else {
        tasks.into_iter().map(run_one).collect()
    };
    let total = collected.len();
    let mut results = Vec::with_capacity(total);
    let mut skipped = Vec::new();
    for item in collected {
        match item {
            Ok(t) => results.push(t),
            Err(s) => skipped.push(s),
        }
    }
    let survival = if total == 0 {
        1.0
    } else {
        results.len() as f64 / total as f64
    };
    if survival < min_survival {
        let first = skipped
            .first()
            .expect("survival below 1.0 implies at least one skip");
        return Err(CoreError::with_source(
            format!(
                "batch generation kept only {}/{} tasks (minimum survival {min_survival}); \
                 first skip: generator '{}' run {}: {}",
                results.len(),
                total,
                first.generator,
                first.run,
                first.error.message
            ),
            first.error.clone(),
        ));
    }
    Ok(GenerationOutcome { results, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainingExample;
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};

    /// The generation loop with the paper's percentile features, at the
    /// given seed, fan-out, survival floor and telemetry.
    fn examples(
        model: &dyn BlackBoxModel,
        df: &DataFrame,
        (runs, clean, metric): (usize, usize, Metric),
        (seed, parallel, min_survival): (u64, bool, f64),
        telemetry: Option<&Registry>,
    ) -> Result<GenerationOutcome<TrainingExample>, CoreError> {
        let gens = standard_tabular_suite(df.schema());
        generate_batches_resilient(
            model,
            df,
            &gens,
            runs,
            clean,
            metric,
            seed,
            parallel,
            min_survival,
            telemetry,
            TrainingExample::from_batch,
        )
    }

    #[test]
    fn subsample_lower_bound_is_sane() {
        for n in 1..=50 {
            let lo = subsample_lower_bound(n);
            assert!((1..=n.max(1)).contains(&lo), "n={n} lo={lo}");
            if n >= 2 {
                // There must be room for size variation.
                assert!(lo < n, "n={n} lo={lo} leaves no range to sample");
            }
        }
        assert_eq!(subsample_lower_bound(9), 4);
        assert_eq!(subsample_lower_bound(10), 5);
        assert_eq!(subsample_lower_bound(300), 100);
    }

    #[test]
    fn subsample_range_composes_with_sample_n_for_every_frame_size() {
        // The generation loop draws `sample_n(gen_range(lo..=n))`; the whole
        // range must produce exactly-sized samples for any frame size,
        // including the tiny-frame fallback and the `take == n` endpoint
        // where `sample_n` must return the full frame (not panic or pad).
        use lvp_dataframe::toy_frame;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 5, 10, 11, 31] {
            let df = toy_frame(n);
            let lo = subsample_lower_bound(n);
            for take in lo..=n {
                assert_eq!(df.sample_n(take, &mut rng).n_rows(), take, "n={n}");
            }
            // Oversized requests (beyond the generation loop's range) cap.
            assert_eq!(df.sample_n(n + 1, &mut rng).n_rows(), n, "n={n}");
        }
    }

    #[test]
    fn instrumented_engine_counts_batches_and_leaves_output_unchanged() {
        let df = toy_frame(100);
        let mut rng = StdRng::seed_from_u64(13);
        let mut model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let registry = Registry::new();
        model.attach_telemetry(&registry);
        let gens = standard_tabular_suite(df.schema());
        let plain = examples(
            model.as_ref(),
            &df,
            (3, 2, Metric::Accuracy),
            (5, true, 1.0),
            None,
        )
        .map(|outcome| outcome.results)
        .unwrap();
        let plain_calls = registry.snapshot().counters["model.predict.calls"];
        let instrumented = examples(
            model.as_ref(),
            &df,
            (3, 2, Metric::Accuracy),
            (5, true, 1.0),
            Some(&registry),
        )
        .map(|outcome| outcome.results)
        .unwrap();
        assert_eq!(plain, instrumented, "telemetry must not perturb batches");
        let total = (gens.len() * 3 + 2) as u64;
        let snap = registry.snapshot();
        assert_eq!(snap.counters["engine.batches_generated"], total);
        assert_eq!(snap.counters["engine.batches_clean"], 2);
        assert_eq!(snap.counters["engine.seeds_used"], total);
        for phase in [
            "engine.generate_phase",
            "engine.score_phase",
            "engine.featurize_phase",
        ] {
            let h = &snap.histograms[phase];
            assert_eq!(h.count, total, "{phase}");
            assert_eq!(h.bucket_total(), h.count, "{phase}");
        }
        assert!(plain_calls > 0);
        assert_eq!(
            snap.counters["model.predict.calls"],
            2 * plain_calls,
            "both runs made the same calls to the instrumented model"
        );
    }

    #[test]
    fn parallel_output_matches_sequential() {
        let df = toy_frame(120);
        let mut rng = StdRng::seed_from_u64(7);
        let model = train_model(ModelKind::Lr, &df, &mut rng).unwrap();
        let gens = standard_tabular_suite(df.schema());
        let sequential = examples(
            model.as_ref(),
            &df,
            (4, 3, Metric::Accuracy),
            (99, false, 1.0),
            None,
        )
        .map(|outcome| outcome.results)
        .unwrap();
        let parallel = examples(
            model.as_ref(),
            &df,
            (4, 3, Metric::Accuracy),
            (99, true, 1.0),
            None,
        )
        .map(|outcome| outcome.results)
        .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), gens.len() * 4 + 3);
        assert_eq!(sequential.last().unwrap().generator, "clean");
    }

    #[test]
    fn tiny_frames_generate_without_panicking() {
        let df = toy_frame(3);
        let mut rng = StdRng::seed_from_u64(8);
        let model = train_model(ModelKind::Lr, &toy_frame(40), &mut rng).unwrap();
        let gens = standard_tabular_suite(df.schema());
        let ex = examples(
            model.as_ref(),
            &df,
            (3, 2, Metric::Accuracy),
            (5, true, 1.0),
            None,
        )
        .map(|outcome| outcome.results)
        .unwrap();
        assert_eq!(ex.len(), gens.len() * 3 + 2);
    }

    /// A model that fails terminally on every batch whose row count is in
    /// the poisoned set — content-dependent like a real fault plan, so the
    /// skip schedule is thread-count independent.
    struct SizePoisoned {
        inner: Box<dyn BlackBoxModel>,
        poisoned_rows: usize,
    }

    impl BlackBoxModel for SizePoisoned {
        fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
            self.try_predict_proba(data).unwrap()
        }
        fn try_predict_proba(
            &self,
            data: &DataFrame,
        ) -> Result<DenseMatrix, lvp_models::ModelError> {
            if data.n_rows().is_multiple_of(self.poisoned_rows) {
                return Err(lvp_models::ModelError::transient("poisoned batch size"));
            }
            Ok(self.inner.predict_proba(data))
        }
        fn n_classes(&self) -> usize {
            self.inner.n_classes()
        }
        fn name(&self) -> &str {
            "size-poisoned"
        }
        fn rows_are_independent(&self) -> bool {
            false // failures depend on the batch size
        }
    }

    #[test]
    fn resilient_generation_skips_and_records_failed_tasks() {
        let df = toy_frame(90);
        let mut rng = StdRng::seed_from_u64(21);
        let model = SizePoisoned {
            inner: train_model(ModelKind::Lr, &df, &mut rng).unwrap(),
            poisoned_rows: 5,
        };
        let gens = standard_tabular_suite(df.schema());
        let registry = Registry::new();
        let outcome = examples(
            &model,
            &df,
            (4, 3, Metric::Accuracy),
            (17, true, 0.5),
            Some(&registry),
        )
        .unwrap();
        let total = gens.len() * 4 + 3;
        assert!(!outcome.skipped.is_empty(), "some batch sizes divide by 5");
        assert_eq!(outcome.results.len() + outcome.skipped.len(), total);
        assert!(
            outcome.results.len() >= outcome.skipped.len(),
            "most survive"
        );
        for s in &outcome.skipped {
            assert!(s.error.message.contains("poisoned"), "{:?}", s.error);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["engine.batches_skipped"],
            outcome.skipped.len() as u64
        );
        assert_eq!(
            snap.counters["engine.batches_generated"],
            outcome.results.len() as u64
        );

        // Skip decisions are content-keyed → parallel ≡ sequential, both
        // for the surviving examples and for the skip record.
        let sequential = examples(
            &model,
            &df,
            (4, 3, Metric::Accuracy),
            (17, false, 0.5),
            None,
        )
        .unwrap();
        assert_eq!(outcome.results, sequential.results);
        assert_eq!(outcome.skipped, sequential.skipped);
    }

    #[test]
    fn insufficient_survival_aborts_with_the_typed_cause() {
        let df = toy_frame(40);
        let mut rng = StdRng::seed_from_u64(22);
        let model = SizePoisoned {
            inner: train_model(ModelKind::Lr, &df, &mut rng).unwrap(),
            poisoned_rows: 1, // every batch fails
        };
        let err =
            examples(&model, &df, (2, 1, Metric::Accuracy), (3, false, 0.5), None).unwrap_err();
        assert!(err.message.contains("minimum survival"), "{err}");
        // The source chain carries the typed serving failure.
        let cause = err.model_error().expect("source preserved");
        assert!(cause.is_retryable());

        // The strict wrapper (min_survival = 1.0) also fails closed.
        let err = examples(&model, &df, (2, 1, Metric::Accuracy), (3, false, 1.0), None)
            .map(|outcome| outcome.results)
            .unwrap_err();
        assert!(err.model_error().is_some());
    }

    #[test]
    fn empty_test_data_fails_before_scoring() {
        struct Unscorable;
        impl BlackBoxModel for Unscorable {
            fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
                panic!("must fail before scoring {} rows", data.n_rows())
            }
            fn n_classes(&self) -> usize {
                2
            }
            fn name(&self) -> &str {
                "unscorable"
            }
        }
        let empty = toy_frame(0);
        for parallel in [false, true] {
            let err = examples(
                &Unscorable,
                &empty,
                (2, 1, Metric::Accuracy),
                (0, parallel, 0.0),
                None,
            )
            .unwrap_err();
            assert!(err.message.contains("test data is empty"), "{err}");
        }
    }

    #[test]
    fn auc_with_non_binary_model_fails_before_generating() {
        struct ThreeClass;
        impl BlackBoxModel for ThreeClass {
            fn predict_proba(&self, data: &DataFrame) -> DenseMatrix {
                panic!("must fail fast, not on batch {}", data.n_rows())
            }
            fn n_classes(&self) -> usize {
                3
            }
            fn name(&self) -> &str {
                "three"
            }
        }
        let df = toy_frame(20);
        let err =
            examples(&ThreeClass, &df, (2, 1, Metric::Auc), (0, false, 1.0), None).unwrap_err();
        assert!(err.message.contains("2 probability columns"), "{err}");
    }
}
