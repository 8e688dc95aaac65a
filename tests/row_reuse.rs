//! Row reuse in Algorithm 1 (DESIGN.md §5c): the engine scores the test
//! data once and sends the black box only the rows a corruption changed.
//!
//! Reuse rests on the `BlackBoxModel::rows_are_independent` contract, so
//! the first tests prove it for every local model family instead of
//! assuming it; the others check that the engine's outputs with reuse are
//! bit-identical to scoring every batch whole, for every tabular generator.

use lvp_core::{generate_batches_resilient, GeneratedBatch, GenerationOutcome, Metric};
use lvp_corruptions::{
    extended_tabular_suite, standard_tabular_suite, unknown_tabular_suite, CleanCopy,
    EntropyMissingValues, ErrorGen, Mixture,
};
use lvp_dataframe::DataFrame;
use lvp_linalg::DenseMatrix;
use lvp_models::cloud::CloudModelService;
use lvp_models::{train_model_quick, BlackBoxModel, ModelError, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Every generator the tabular suites hold, plus the model-aware entropy
/// generator, a mixture and the clean copy.
fn all_tabular_generators(df: &DataFrame) -> Vec<Box<dyn ErrorGen>> {
    let schema = df.schema();
    let mut gens = standard_tabular_suite(schema);
    gens.extend(unknown_tabular_suite(schema));
    gens.extend(extended_tabular_suite(schema));
    gens.push(Box::new(EntropyMissingValues::all_tabular(schema)));
    gens.push(Box::new(Mixture::from_boxes(unknown_tabular_suite(schema))));
    gens.push(Box::new(CleanCopy));
    gens
}

/// One model per local family, trained once, and a pool of rows none of
/// them trained on.
struct Families {
    pool: DataFrame,
    gens: Vec<Box<dyn ErrorGen>>,
    lr: Arc<dyn BlackBoxModel>,
    dnn: Arc<dyn BlackBoxModel>,
    xgb: Arc<dyn BlackBoxModel>,
    /// The AutoML pipeline the simulated cloud service deploys.
    automl: Arc<dyn BlackBoxModel>,
}

fn families() -> &'static Families {
    static FAMILIES: OnceLock<Families> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(17);
        let df = lvp::datasets::income(700, &mut rng);
        let (train, pool) = df.split_frac(0.5, &mut rng);
        let mut quick =
            |kind| Arc::from(train_model_quick(kind, &train, &mut rng).expect("trains"));
        let (lr, dnn, xgb) = (
            quick(ModelKind::Lr),
            quick(ModelKind::Dnn),
            quick(ModelKind::Xgb),
        );
        let service = CloudModelService::new();
        let handle = service.train_and_deploy(&train, 5).expect("deploys");
        Families {
            gens: all_tabular_generators(&pool),
            pool,
            lr,
            dnn,
            xgb,
            automl: Arc::new(service.remote_model(handle).expect("deployed")),
        }
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Scores a corrupted batch of `batch_rows` pool rows whole and a random
/// subset of `subset_rows` of its rows (in random order) on its own; each
/// subset row must get the bits of the matching row of the whole batch.
fn subset_scores_match_the_whole_batch(
    model: &dyn BlackBoxModel,
    seed: u64,
    batch_rows: usize,
    subset_rows: usize,
) -> Result<(), TestCaseError> {
    let f = families();
    prop_assert!(model.rows_are_independent());
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = &f.gens[rng.gen_range(0..f.gens.len())];
    let base = f.pool.sample_n(batch_rows, &mut rng);
    let batch = gen.corrupt_with_model(&base, Some(model), &mut rng);
    let subset = batch.sample_indices(subset_rows, &mut rng);
    let whole = model.predict_proba(&batch);
    let part = model.predict_proba(&batch.select_rows(&subset));
    prop_assert_eq!(part.rows(), subset.len());
    for (k, &r) in subset.iter().enumerate() {
        prop_assert_eq!(bits(part.row(k)), bits(whole.row(r)), "{}", gen.name());
    }
    Ok(())
}

// Batches run from 1 row to past three of gbdt's 64-row prediction
// blocks, and subsets from 1 row (under the dense matmul's 4-wide
// register block) to past two, so a row is scored at other positions of
// other blocks in the subset than in the whole batch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lr_rows_are_independent(seed in 0u64..1 << 40, batch in 1usize..200, subset in 1usize..140) {
        subset_scores_match_the_whole_batch(families().lr.as_ref(), seed, batch, subset)?;
    }

    #[test]
    fn dnn_rows_are_independent(seed in 0u64..1 << 40, batch in 1usize..200, subset in 1usize..140) {
        subset_scores_match_the_whole_batch(families().dnn.as_ref(), seed, batch, subset)?;
    }

    #[test]
    fn xgb_rows_are_independent(seed in 0u64..1 << 40, batch in 1usize..200, subset in 1usize..140) {
        subset_scores_match_the_whole_batch(families().xgb.as_ref(), seed, batch, subset)?;
    }

    #[test]
    fn remote_automl_rows_are_independent(seed in 0u64..1 << 40, batch in 1usize..200, subset in 1usize..140) {
        subset_scores_match_the_whole_batch(families().automl.as_ref(), seed, batch, subset)?;
    }
}

/// Forwards to a model, counting its calls and scored rows, and reports
/// row independence only when `reuse` allows it.
struct Counted {
    inner: Arc<dyn BlackBoxModel>,
    reuse: bool,
    calls: AtomicUsize,
    rows: AtomicUsize,
}

impl Counted {
    fn new(inner: &Arc<dyn BlackBoxModel>, reuse: bool) -> Self {
        Self {
            inner: Arc::clone(inner),
            reuse,
            calls: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
        }
    }

    fn count(&self, data: &DataFrame) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(data.n_rows(), Ordering::Relaxed);
    }

    fn totals(&self) -> (usize, usize) {
        (
            self.calls.load(Ordering::Relaxed),
            self.rows.load(Ordering::Relaxed),
        )
    }
}

impl BlackBoxModel for Counted {
    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        self.count(data);
        self.inner.try_predict_proba(data)
    }
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }
    fn name(&self) -> &str {
        "counted"
    }
    fn rows_are_independent(&self) -> bool {
        self.reuse && self.inner.rows_are_independent()
    }
}

/// What a generated batch carries, with the outputs and score as bits.
type BatchBits = (String, usize, u64, Vec<u64>);

fn batch_bits(batch: GeneratedBatch<'_>) -> BatchBits {
    (
        batch.generator.to_string(),
        batch.proba.rows(),
        batch.score.to_bits(),
        bits(batch.proba.data()),
    )
}

fn run_engine(
    model: &dyn BlackBoxModel,
    test: &DataFrame,
    gens: &[Box<dyn ErrorGen>],
    (runs, clean): (usize, usize),
    parallel: bool,
) -> GenerationOutcome<BatchBits> {
    generate_batches_resilient(
        model,
        test,
        gens,
        runs,
        clean,
        Metric::Accuracy,
        29,
        parallel,
        0.0,
        None,
        batch_bits,
    )
    .expect("accuracy fits any class count")
}

#[test]
fn reuse_gives_the_outputs_of_full_scoring_for_every_generator() {
    let f = families();
    let test = f.pool.sample_n(240, &mut StdRng::seed_from_u64(3));
    let (runs, clean) = (5, 4);
    for model in [&f.xgb, &f.dnn] {
        let full_model = Counted::new(model, false);
        let full = run_engine(&full_model, &test, &f.gens, (runs, clean), false);
        // Full scoring makes the calls of the engine before reuse: one per
        // task, plus the entropy generator's own call on each base batch.
        let tasks = f.gens.len() * runs + clean;
        assert_eq!(full.results.len() + full.skipped.len(), tasks);
        let entropy: Vec<usize> = full
            .results
            .iter()
            .filter(|b| b.0 == "entropy_missing_values")
            .map(|b| b.1)
            .collect();
        assert_eq!(entropy.len(), runs);
        let full_rows: usize =
            full.results.iter().map(|b| b.1).sum::<usize>() + entropy.iter().sum::<usize>();
        assert!(full.skipped.is_empty(), "{:?}", full.skipped);
        assert_eq!(full_model.totals(), (tasks + runs, full_rows));

        for parallel in [false, true] {
            let reuse_model = Counted::new(model, true);
            let reused = run_engine(&reuse_model, &test, &f.gens, (runs, clean), parallel);
            assert_eq!(reused.results, full.results, "parallel={parallel}");
            assert_eq!(reused.skipped, full.skipped, "parallel={parallel}");
            let (calls, rows) = reuse_model.totals();
            assert!(calls < tasks + runs, "{calls} calls");
            assert!(rows < full_rows, "{rows} of {full_rows} rows");
        }
    }
}

#[test]
fn clean_copies_make_no_model_call() {
    let f = families();
    let test = f.pool.sample_n(120, &mut StdRng::seed_from_u64(4));
    let gens: Vec<Box<dyn ErrorGen>> = vec![Box::new(CleanCopy)];
    let full_model = Counted::new(&f.lr, false);
    let full = run_engine(&full_model, &test, &gens, (3, 3), true);
    let reuse_model = Counted::new(&f.lr, true);
    let reused = run_engine(&reuse_model, &test, &gens, (3, 3), true);
    assert_eq!(reused.results, full.results);
    assert_eq!(full_model.totals().0, 6);
    // Only the one reference call on the whole test data.
    assert_eq!(reuse_model.totals(), (1, test.n_rows()));
}

/// A model whose every call fails: the reference call fails too, every
/// task falls back to full scoring, and the same tasks are skipped.
#[test]
fn a_failed_reference_call_skips_the_same_tasks() {
    struct Down;
    impl BlackBoxModel for Down {
        fn try_predict_proba(&self, _: &DataFrame) -> Result<DenseMatrix, ModelError> {
            Err(ModelError::transient("endpoint down"))
        }
        fn n_classes(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "down"
        }
    }
    let f = families();
    let test = f.pool.sample_n(60, &mut StdRng::seed_from_u64(5));
    let gens = standard_tabular_suite(test.schema());
    let down: Arc<dyn BlackBoxModel> = Arc::new(Down);
    let full_model = Counted::new(&down, false);
    let full = run_engine(&full_model, &test, &gens, (2, 2), true);
    let reuse_model = Counted::new(&down, true);
    let reused = run_engine(&reuse_model, &test, &gens, (2, 2), true);
    assert_eq!(full.skipped.len(), gens.len() * 2 + 2);
    assert_eq!(reused.skipped, full.skipped);
    assert_eq!(reuse_model.totals().0, full_model.totals().0 + 1);
}
