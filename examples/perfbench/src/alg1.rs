//! Algorithm 1 workloads: repeated `PerformancePredictor::fit` calls on one
//! black box, timed end to end, and a traced fit decomposed into the public
//! calls `fit` makes.

use crate::host::Phase;
use crate::trace::{TimedGen, TimedModel, Tracer};
use crate::{serve, Outcome, Params, Sampler, Workload, SETUP_REPS};
use lvp_core::{
    checksum64, generate_batches_resilient, prediction_statistics, BatchMonitor, CoreError,
    MonitorPolicy, PerformancePredictor, PredictorConfig, ServingArtifact, TrainingExample,
};
use lvp_corruptions::{standard_tabular_suite, ErrorGen};
use lvp_dataframe::DataFrame;
use lvp_models::forest::ForestConfig;
use lvp_models::{train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Rows of the fixed serving batch every fitted predictor is checked on.
const PROBE_ROWS: usize = 256;
/// Timed fits per run even when one fit outlasts `--seconds`.
const MIN_FITS: usize = 3;

/// Data, black box and generators of one Algorithm 1 set-up.
pub struct FitEnv {
    pub model: Arc<dyn BlackBoxModel>,
    pub test: DataFrame,
    pub serving: DataFrame,
    pub probe: DataFrame,
    pub generators: Vec<Box<dyn ErrorGen>>,
}

impl FitEnv {
    /// Generates income data, balances and splits it like the figure
    /// harness (half serving; of the rest, 70% train and 30% test), and
    /// trains the black box with fixed hyperparameters. The balanced frame
    /// is cut to exactly `test_rows / 0.15` rows, so every seed gives the
    /// same split sizes.
    pub fn setup(test_rows: usize, kind: ModelKind, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (test_rows as f64 / 0.15).round() as usize;
        let df = lvp_datasets::income(rows + rows / 10, &mut rng).balance_classes(&mut rng);
        if df.n_rows() < rows {
            return Err(format!(
                "balancing left {} of the {rows} rows needed",
                df.n_rows()
            ));
        }
        let (source, serving) = df.sample_n(rows, &mut rng).split_frac(0.5, &mut rng);
        let (train, test) = source.split_frac(0.7, &mut rng);
        let model = train_model_quick(kind, &train, &mut rng)
            .map_err(|e| format!("train {}: {e}", kind.name()))?;
        let probe = serving.sample_n(PROBE_ROWS.min(serving.n_rows()), &mut rng);
        Ok(Self {
            model: Arc::from(model),
            generators: standard_tabular_suite(test.schema()),
            test,
            serving,
            probe,
        })
    }

    /// One plain `PerformancePredictor::fit`; every fit starts from
    /// [`FIT_SEED`], so every fit of a run must produce the same predictor.
    pub fn fit(&self, config: &PredictorConfig) -> Result<PerformancePredictor, CoreError> {
        PerformancePredictor::fit(
            Arc::clone(&self.model),
            &self.test,
            &self.generators,
            config,
            &mut StdRng::seed_from_u64(FIT_SEED),
        )
    }
}

/// Digest of what a fitted predictor answers: its test score and its
/// interval on the fixed serving batch, bit for bit.
pub fn fit_digest(predictor: &PerformancePredictor, probe: &DataFrame) -> Result<u64, CoreError> {
    let interval = predictor.predict_interval(probe)?;
    let bytes: Vec<u8> = [
        predictor.test_score(),
        interval.point,
        interval.lo,
        interval.hi,
    ]
    .iter()
    .flat_map(|v| v.to_bits().to_le_bytes())
    .collect();
    Ok(checksum64(&bytes))
}

/// Seed of Algorithm 1's own random choices (subsample sizes, corrupted
/// columns and magnitudes). It is part of the program's configuration, not
/// of its inputs, so the fit does the same amount of work for every
/// workload seed.
const FIT_SEED: u64 = 0xA16_0F17;

struct FitSpec {
    test_rows: usize,
    model: ModelKind,
    config: PredictorConfig,
}

fn spec(workload: Workload, smoke: bool) -> FitSpec {
    let forest = |n_trees| {
        vec![ForestConfig {
            n_trees,
            ..ForestConfig::default()
        }]
    };
    match (workload, smoke) {
        // |D_test| ≈ 3,000 rows scored by xgb: black-box scoring dominates.
        (Workload::Alg1FitLargeTest, false) => FitSpec {
            test_rows: 3_000,
            model: ModelKind::Xgb,
            config: PredictorConfig {
                runs_per_generator: 40,
                clean_copies: 12,
                forest_grid: forest(40),
                ..PredictorConfig::default()
            },
        },
        // |D_test| ≈ 300 rows scored by lr, the paper's forest grid with
        // 5-fold CV: the meta-fit dominates.
        (Workload::Alg1FitMetaGrid, false) => FitSpec {
            test_rows: 300,
            model: ModelKind::Lr,
            config: PredictorConfig {
                runs_per_generator: 100,
                clean_copies: 27,
                ..PredictorConfig::default()
            },
        },
        (Workload::Alg1FitLargeTest, true) => FitSpec {
            test_rows: 300,
            model: ModelKind::Xgb,
            config: PredictorConfig {
                runs_per_generator: 6,
                clean_copies: 4,
                forest_grid: forest(10),
                ..PredictorConfig::default()
            },
        },
        (Workload::Alg1FitMetaGrid, true) => FitSpec {
            test_rows: 90,
            model: ModelKind::Lr,
            config: PredictorConfig {
                runs_per_generator: 8,
                clean_copies: 4,
                ..PredictorConfig::default()
            },
        },
        (other, _) => unreachable!("{other:?} is not an Algorithm 1 workload"),
    }
}

/// Runs an Algorithm 1 workload, untraced or traced.
pub fn run(workload: Workload, params: &Params) -> Result<Outcome, String> {
    let spec = spec(workload, params.smoke);
    let reps = if params.trace { 1 } else { SETUP_REPS };
    let (env, setups) = crate::repeat_setup(reps, || {
        FitEnv::setup(spec.test_rows, spec.model, params.seed)
    })?;
    // The warm-up fit fills allocator arenas and lazy state, and fixes the
    // digest every later fit must reproduce.
    let warm_up = env
        .fit(&spec.config)
        .map_err(|e| format!("warm-up fit: {e}"))?;
    let reference = fit_digest(&warm_up, &env.probe).map_err(|e| format!("warm-up fit: {e}"))?;
    let mut outcome = Outcome::new(reference);
    outcome.attempted += 1;
    if params.trace {
        traced(&env, &spec.config, warm_up, params, &mut outcome)?;
        return Ok(outcome);
    }

    let mut sampler = Sampler::start();
    let deadline = Instant::now() + params.run_time();
    let (samples, phase) = Phase::measure(|| {
        let mut samples = Vec::new();
        while Instant::now() < deadline || samples.len() < MIN_FITS {
            let mut fitted = None;
            samples.push(sampler.next(|| {
                fitted = Some(env.fit(&spec.config));
                1.0
            }));
            let fitted = fitted.expect("measured closure ran");
            outcome.check_fit(fitted.and_then(|p| fit_digest(&p, &env.probe)), reference);
        }
        samples
    });
    outcome.end_to_end(&setups, &samples, &phase);
    Ok(outcome)
}

/// Traced rounds until `--seconds` run out: a plain fit, the same fit
/// decomposed into spans, and the fitted predictor served through lvpd.
fn traced(
    env: &FitEnv,
    config: &PredictorConfig,
    fitted: PerformancePredictor,
    params: &Params,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let monitor = BatchMonitor::new(fitted, MonitorPolicy::default().with_interval_alarm())
        .map_err(|e| e.to_string())?;
    let artifact = ServingArtifact::from_monitor(&monitor);
    let outputs = env.model.predict_proba(&env.serving);
    let spec = serve::spec(Workload::LvpdMixedInproc, params.smoke);
    let stream = serve::Stream::build(&outputs, &spec, params.seed);
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let deadline = Instant::now() + params.run_time();
    while rounds.is_empty() || Instant::now() < deadline {
        let mut layers = traced_fit(env, config, outcome.digest, &tracer, outcome)?;
        layers.extend(serve::trace_serving(
            &env.model,
            &artifact,
            &stream,
            &spec,
            &params.scratch,
            &tracer,
        )?);
        rounds.push(layers);
    }
    outcome.layers_from_rounds(&rounds);
    outcome.finish_trace(&tracer, params);
    Ok(())
}

/// One plain fit and one decomposed fit: checks that both reproduce
/// `reference` and returns the fit layers of the decomposed one, with the
/// tracing overhead against the plain one.
pub fn traced_fit(
    env: &FitEnv,
    config: &PredictorConfig,
    reference: u64,
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let started = Instant::now();
    let plain = env.fit(config);
    let plain_s = started.elapsed().as_secs_f64();
    outcome.check_fit(plain.and_then(|p| fit_digest(&p, &env.probe)), reference);
    let (predictor, mut layers, traced_s) =
        decomposed_fit(env, config, tracer).map_err(|e| format!("decomposed fit: {e}"))?;
    outcome.check_fit(fit_digest(&predictor, &env.probe), reference);
    layers.insert(
        "trace.fit_overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
    );
    Ok(layers)
}

/// The calls `PerformancePredictor::fit` makes, made one by one from here
/// with the black box and the generators wrapped in span recorders:
/// reference scoring of D_test, the master seed draw, the generation loop
/// with `prediction_statistics` as its featurizer, and the meta-fit.
fn decomposed_fit(
    env: &FitEnv,
    config: &PredictorConfig,
    tracer: &Arc<Tracer>,
) -> Result<(PerformancePredictor, BTreeMap<&'static str, f64>, f64), CoreError> {
    let mark = tracer.mark();
    let timed = Arc::new(TimedModel::new(Arc::clone(&env.model), Arc::clone(tracer)));
    let model: &dyn BlackBoxModel = timed.as_ref();
    let generators = TimedGen::wrap_all(standard_tabular_suite(env.test.schema()), tracer);
    let mut rng = StdRng::seed_from_u64(FIT_SEED);
    let started = Instant::now();
    let test_score = tracer.span("predictor.test_score", || {
        let proba = model.try_predict_proba(&env.test)?;
        config.metric.score(&proba, env.test.labels())
    })?;
    let master_seed: u64 = rng.gen();
    let examples = tracer.span("engine.generate", || {
        generate_batches_resilient(
            model,
            &env.test,
            &generators,
            config.runs_per_generator,
            config.clean_copies,
            config.metric,
            master_seed,
            config.parallel,
            config.min_batch_survival,
            None,
            |batch| TrainingExample {
                features: tracer.span("features.featurize", || prediction_statistics(&batch.proba)),
                score: batch.score,
                generator: batch.generator.to_string(),
            },
        )
    })?;
    let n_examples = examples.results.len();
    let predictor = tracer.span("predictor.meta_fit", || {
        PerformancePredictor::fit_from_examples(
            Arc::clone(&env.model),
            examples.results,
            test_score,
            config,
            &mut rng,
        )
    })?;
    let wall_s = started.elapsed().as_secs_f64();

    let totals = tracer.totals_since(mark);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (test, generate, meta) = (
        get("predictor.test_score"),
        get("engine.generate"),
        get("predictor.meta_fit"),
    );
    let (blackbox, corrupt, featurize) = (
        get("models.predict_proba"),
        get("corruptions.corrupt"),
        get("features.featurize"),
    );
    // The reference scoring's model call is the test-score span's child.
    let generate_busy_s =
        blackbox.self_s - (test.duration_s - test.self_s) + corrupt.self_s + featurize.self_s;
    let threads = if config.parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let layers = BTreeMap::from([
        ("models.blackbox_busy_s", blackbox.self_s),
        (
            "models.blackbox_rows",
            timed.rows.load(Ordering::Relaxed) as f64,
        ),
        (
            "models.blackbox_calls",
            timed.calls.load(Ordering::Relaxed) as f64,
        ),
        ("corruptions.corrupt_busy_s", corrupt.self_s),
        ("features.featurize_busy_s", featurize.self_s),
        ("engine.generate_wall_s", generate.duration_s),
        (
            "engine.parallel_efficiency",
            generate_busy_s / (generate.duration_s * threads as f64),
        ),
        ("predictor.test_score_s", test.duration_s),
        ("predictor.meta_fit_s", meta.duration_s),
        ("predictor.training_examples", n_examples as f64),
        (
            "trace.fit_span_share",
            (test.duration_s + generate.duration_s + meta.duration_s) / wall_s,
        ),
    ]);
    Ok((predictor, layers, wall_s))
}
