//! Experiment environment: scales, splits and model training.

use lvp_core::{
    FeatureSource, Metric, PerformancePredictor, PredictorConfig, ScoreInterval, ValidatorConfig,
};
use lvp_corruptions::ErrorGen;
use lvp_dataframe::DataFrame;
use lvp_datasets::DatasetKind;
use lvp_models::forest::ForestConfig;
use lvp_models::{train_model, train_model_quick, BlackBoxModel, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Experiment size. Every figure binary accepts `--scale {smoke,small,paper}`.
///
/// * `smoke` — minutes on one core; verifies the full pipeline end to end.
/// * `small` — the default; qualitative reproduction of every figure.
/// * `paper` — the paper's dataset sizes and the full five-fold CV training
///   protocol. Expect hours of single-core compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for CI-style smoke runs.
    Smoke,
    /// Default reproduction scale.
    Small,
    /// The paper's sizes and training protocol.
    Paper,
}

impl Scale {
    /// Parses a figure binary's command line (without the program name):
    /// `--scale <smoke|small|paper>` (default small), `--seed <u64>`
    /// (default 42) and any of `switches`, the value-less flags the binary
    /// accepts. Returns the scale, the seed and the switches given. An
    /// unknown flag, a missing value or a malformed one is an error that
    /// names the flag.
    pub fn parse_args(
        args: &[String],
        switches: &[&str],
    ) -> Result<(Scale, u64, Vec<String>), String> {
        let mut scale = Scale::Small;
        let mut seed = 42;
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = || {
                args.next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--scale" => {
                    scale = match value()? {
                        "smoke" => Scale::Smoke,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => {
                            return Err(format!(
                                "--scale: unknown scale '{other}' (expected smoke|small|paper)"
                            ))
                        }
                    }
                }
                "--seed" => {
                    let v = value()?;
                    seed = v
                        .parse()
                        .map_err(|_| format!("--seed: '{v}' is not an unsigned integer"))?;
                }
                s if switches.contains(&s) => given.push(s.to_string()),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok((scale, seed, given))
    }

    /// Number of records drawn for a dataset at this scale.
    pub fn dataset_size(self, kind: DatasetKind) -> usize {
        match self {
            Scale::Smoke => {
                if kind.is_image() {
                    400
                } else {
                    800
                }
            }
            Scale::Small => {
                if kind.is_image() {
                    900
                } else {
                    2_000
                }
            }
            Scale::Paper => kind.paper_size(),
        }
    }

    /// Corrupted copies per error generator when training a predictor or
    /// validator (the paper uses 100 per column/error combination).
    pub fn runs_per_generator(self) -> usize {
        match self {
            Scale::Smoke => 15,
            Scale::Small => 40,
            Scale::Paper => 100,
        }
    }

    /// Number of corrupted serving batches evaluated per condition.
    pub fn serving_batches(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Small => 25,
            Scale::Paper => 100,
        }
    }

    /// Rows per serving batch.
    pub fn serving_batch_rows(self) -> usize {
        match self {
            Scale::Smoke => 200,
            Scale::Small => 300,
            Scale::Paper => 1_000,
        }
    }

    /// Whether to train models with the paper's full CV grid protocol.
    pub fn use_cv_training(self) -> bool {
        matches!(self, Scale::Paper)
    }

    /// Predictor configuration for this scale.
    pub fn predictor_config(self) -> PredictorConfig {
        PredictorConfig {
            runs_per_generator: self.runs_per_generator(),
            clean_copies: self.runs_per_generator() / 4 + 2,
            forest_grid: match self {
                Scale::Paper => lvp_models::forest::default_forest_grid(),
                _ => vec![ForestConfig {
                    n_trees: 40,
                    ..ForestConfig::default()
                }],
            },
            ..PredictorConfig::default()
        }
    }

    /// Validator configuration for this scale and threshold.
    pub fn validator_config(self, threshold: f64) -> ValidatorConfig {
        ValidatorConfig {
            threshold,
            runs_per_generator: self.runs_per_generator(),
            clean_copies: self.runs_per_generator() / 2 + 5,
            ..ValidatorConfig::default()
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// A source/test/serving split of one dataset (§6.1's per-run protocol).
pub struct SplitSpec {
    /// Training data for the black box model.
    pub train: DataFrame,
    /// Held-out test data used to train the predictor/validator.
    pub test: DataFrame,
    /// The unseen serving pool that batches are drawn from.
    pub serving: DataFrame,
}

/// Generates a dataset at the given scale and splits it into
/// train/test/serving (50% serving; of the source half, 70% train).
pub fn prepare_split(kind: DatasetKind, scale: Scale, rng: &mut StdRng) -> SplitSpec {
    let df = lvp_datasets::generate(kind, scale.dataset_size(kind), rng);
    let df = df.balance_classes(rng);
    let (source, serving) = df.split_frac(0.5, rng);
    let (train, test) = source.split_frac(0.7, rng);
    SplitSpec {
        train,
        test,
        serving,
    }
}

/// Trains the black box model for this scale (full CV protocol at paper
/// scale, fixed defaults otherwise).
pub fn train_for(
    kind: ModelKind,
    train: &DataFrame,
    scale: Scale,
    rng: &mut StdRng,
) -> Arc<dyn BlackBoxModel> {
    let boxed = if scale.use_cv_training() {
        train_model(kind, train, rng)
    } else {
        train_model_quick(kind, train, rng)
    }
    .expect("model training on generated data succeeds");
    Arc::from(boxed)
}

/// Scores one labeled serving batch through the black box once, and returns
/// the predictor's estimate together with the model's true accuracy on the
/// batch, both computed from the same outputs.
pub fn estimate_and_accuracy(
    predictor: &PerformancePredictor,
    batch: &DataFrame,
) -> (ScoreInterval, f64) {
    let proba = predictor.model_outputs(batch).expect("non-empty batch");
    let estimate = predictor
        .predict_source(&FeatureSource::Exact(&proba))
        .expect("outputs of the predictor's own model");
    let truth = Metric::Accuracy
        .score(&proba, batch.labels())
        .expect("accuracy scores any class count");
    (estimate, truth)
}

/// The predictor's absolute error `|estimate − true accuracy|` on each of
/// `scale`'s serving batches: every batch is drawn from `serving`, then
/// corrupted by `error`, which sees the deployed `model` when one is given.
pub fn serving_errors(
    predictor: &PerformancePredictor,
    serving: &DataFrame,
    error: &dyn ErrorGen,
    model: Option<&dyn BlackBoxModel>,
    scale: Scale,
    rng: &mut StdRng,
) -> Vec<f64> {
    (0..scale.serving_batches())
        .map(|_| {
            let batch = serving.sample_n(scale.serving_batch_rows(), rng);
            let corrupted = error.corrupt_with_model(&batch, model, rng);
            let (estimate, truth) = estimate_and_accuracy(predictor, &corrupted);
            (estimate.point - truth).abs()
        })
        .collect()
}

/// Bundles the common per-experiment state.
pub struct ExperimentEnv {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentEnv {
    /// Reads scale and seed from the command line.
    pub fn from_args() -> Self {
        Self::from_args_with(&[]).0
    }

    /// [`Self::from_args`] for a binary that also accepts the value-less
    /// `switches`; returns the ones given. A bad command line (see
    /// [`Scale::parse_args`]) prints the usage and exits non-zero.
    pub fn from_args_with(switches: &[&str]) -> (Self, Vec<String>) {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let argv: Vec<String> = argv.collect();
        let (scale, seed, given) = Scale::parse_args(&argv, switches).unwrap_or_else(|message| {
            let extra: String = switches.iter().map(|s| format!(" [{s}]")).collect();
            eprintln!(
                "error: {message}\n\nUSAGE: {program} [--scale smoke|small|paper] [--seed <u64>]{extra}"
            );
            std::process::exit(1);
        });
        println!("# scale: {}, seed: {}", scale.name(), seed);
        (Self { scale, seed }, given)
    }

    /// A deterministic RNG derived from the master seed and a label.
    pub fn rng(&self, stream: &str) -> StdRng {
        // Derive a stream-specific seed with FNV-style mixing.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sizes_are_ordered() {
        for kind in DatasetKind::ALL {
            assert!(Scale::Smoke.dataset_size(kind) <= Scale::Small.dataset_size(kind));
            assert!(Scale::Small.dataset_size(kind) <= Scale::Paper.dataset_size(kind));
        }
        assert_eq!(Scale::Paper.dataset_size(DatasetKind::Income), 48_842);
    }

    #[test]
    fn prepare_split_partitions() {
        let mut rng = StdRng::seed_from_u64(1);
        let split = prepare_split(DatasetKind::Income, Scale::Smoke, &mut rng);
        assert!(split.train.n_rows() > 0);
        assert!(split.test.n_rows() > 0);
        assert!(split.serving.n_rows() > 0);
    }

    #[test]
    fn figure_arguments_parse_or_name_the_bad_flag() {
        let parse = |args: &[&str], switches: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Scale::parse_args(&args, switches)
        };
        assert_eq!(parse(&[], &[]), Ok((Scale::Small, 42, vec![])));
        assert_eq!(
            parse(
                &["--scale", "smoke", "--seed", "7", "--known"],
                &["--known"]
            ),
            Ok((Scale::Smoke, 7, vec!["--known".to_string()]))
        );
        for (args, flag) in [
            (&["--seed", "x"][..], "--seed"),
            (&["--seed", "-1"], "--seed"),
            (&["--seed"], "--seed"),
            (&["--scale", "huge"], "--scale"),
            (&["--scale", "--seed", "1"], "--scale"),
            (&["--known"], "--known"),
            (&["--threads", "4"], "--threads"),
            (&["smoke"], "smoke"),
        ] {
            let err = parse(args, &[]).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn env_rng_streams_differ() {
        let env = ExperimentEnv {
            scale: Scale::Smoke,
            seed: 7,
        };
        use rand::Rng;
        let a: u64 = env.rng("a").gen();
        let b: u64 = env.rng("b").gen();
        assert_ne!(a, b);
        let a2: u64 = env.rng("a").gen();
        assert_eq!(a, a2);
    }
}
