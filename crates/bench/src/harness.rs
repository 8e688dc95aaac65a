//! Experiment environment: scales, splits and model training.

use lvp_core::{
    FeatureSource, Metric, PerformancePredictor, PredictorConfig, ScoreInterval, ValidatorConfig,
};
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
    /// Parses `--scale <value>` from command-line arguments; defaults to
    /// [`Scale::Small`]. Also accepts a `--seed <u64>` override, returned
    /// as the second element.
    pub fn from_args() -> (Scale, u64) {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::Small;
        let mut seed = 42u64;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    scale = match args[i + 1].as_str() {
                        "smoke" => Scale::Smoke,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => {
                            eprintln!("unknown scale '{other}', using small");
                            Scale::Small
                        }
                    };
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    seed = args[i + 1].parse().unwrap_or(42);
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        (scale, seed)
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
        let (scale, seed) = Scale::from_args();
        println!("# scale: {}, seed: {}", scale.name(), seed);
        Self { scale, seed }
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
