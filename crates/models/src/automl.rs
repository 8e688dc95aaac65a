//! AutoML-style searchers producing opaque black box pipelines (§6.3).
//!
//! The paper validates its approach on models produced by auto-sklearn,
//! TPOT and auto-keras. What matters for the experiment is that the model
//! was chosen by an *automated search the validator knows nothing about*;
//! these searchers reproduce the three archetypes over our model families:
//!
//! * [`auto_sklearn_like`] — budgeted candidate evaluation with successive
//!   halving across all tabular families and their hyperparameter grids,
//! * [`tpot_like`] — a small evolutionary search mutating genomes (model
//!   family and hyperparameters; the featurization is not searched),
//! * [`auto_keras_like`] — architecture search over convolutional network
//!   widths,
//! * [`large_convnet`] — the larger hand-specified convnet of Figure 6.

use crate::convnet::{ConvNet, ConvNetConfig};
use crate::cv::{accuracy, select_labeled};
use crate::featurize::PipelineConfig;
use crate::gbdt::{GbdtClassifier, GbdtConfig};
use crate::linear::{LogisticRegression, LrConfig, Penalty};
use crate::mlp::{MlpConfig, NeuralNet};
use crate::pipeline::{image_side, seal};
use crate::{BlackBoxModel, Classifier, ModelError};
use lvp_dataframe::DataFrame;
use lvp_linalg::CsrMatrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// One candidate genome: a model family and its hyperparameters (every
/// candidate is sealed with `PipelineConfig::default()`).
#[derive(Debug, Clone, PartialEq)]
enum Genome {
    /// Logistic regression candidate.
    Lr(LrConfig),
    /// Neural network candidate.
    Mlp(MlpConfig),
    /// Gradient-boosted trees candidate.
    Gbdt(GbdtConfig),
}

impl Genome {
    fn random(rng: &mut impl Rng) -> Self {
        match rng.gen_range(0..3) {
            0 => Genome::Lr(LrConfig {
                penalty: if rng.gen_bool(0.5) {
                    Penalty::L2(10f64.powf(rng.gen_range(-5.0..-2.0)))
                } else {
                    Penalty::L1(10f64.powf(rng.gen_range(-5.0..-2.0)))
                },
                learning_rate: 10f64.powf(rng.gen_range(-2.0..-0.5)),
                epochs: rng.gen_range(8..20),
                batch_size: 32,
            }),
            1 => Genome::Mlp(MlpConfig {
                hidden1: *[16, 32, 64].get(rng.gen_range(0..3)).unwrap(),
                hidden2: *[8, 16, 32].get(rng.gen_range(0..3)).unwrap(),
                learning_rate: 10f64.powf(rng.gen_range(-3.0..-1.5)),
                epochs: rng.gen_range(6..14),
                batch_size: 32,
            }),
            _ => Genome::Gbdt(GbdtConfig {
                n_rounds: rng.gen_range(10..40),
                max_depth: rng.gen_range(2..5),
                learning_rate: rng.gen_range(0.1..0.5),
                ..GbdtConfig::default()
            }),
        }
    }

    /// Randomly perturbs one hyperparameter.
    fn mutate(&self, rng: &mut impl Rng) -> Self {
        let mut g = self.clone();
        match &mut g {
            Genome::Lr(cfg) => match rng.gen_range(0..2) {
                0 => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..2.0)).min(0.5),
                _ => cfg.epochs = (cfg.epochs + rng.gen_range(0..6)).clamp(5, 25),
            },
            Genome::Mlp(cfg) => match rng.gen_range(0..2) {
                0 => cfg.hidden1 = (cfg.hidden1 * if rng.gen_bool(0.5) { 2 } else { 1 }).min(128),
                _ => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..2.0)).min(0.1),
            },
            Genome::Gbdt(cfg) => match rng.gen_range(0..3) {
                0 => cfg.n_rounds = (cfg.n_rounds + rng.gen_range(1..15)).min(60),
                1 => cfg.max_depth = (cfg.max_depth + 1).min(6),
                _ => cfg.learning_rate = (cfg.learning_rate * rng.gen_range(0.5..1.5)).min(0.8),
            },
        }
        g
    }

    fn fit(
        &self,
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        rng: &mut impl Rng,
    ) -> Result<Box<dyn Classifier>, ModelError> {
        Ok(match self {
            Genome::Lr(cfg) => Box::new(LogisticRegression::fit(x, labels, n_classes, cfg, rng)?),
            Genome::Mlp(cfg) => Box::new(NeuralNet::fit(x, labels, n_classes, cfg, rng)?),
            Genome::Gbdt(cfg) => Box::new(GbdtClassifier::fit(x, labels, n_classes, cfg, rng)?),
        })
    }
}

/// The 80/20 holdout split every search here scores its candidates on,
/// drawn once per search.
struct Holdout {
    train_x: CsrMatrix,
    train_y: Vec<u32>,
    val_x: CsrMatrix,
    val_y: Vec<u32>,
}

impl Holdout {
    fn draw(x: &CsrMatrix, labels: &[u32], rng: &mut impl Rng) -> Self {
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        idx.shuffle(rng);
        let cut = (x.rows() as f64 * 0.8).round() as usize;
        let (train_x, train_y) = select_labeled(x, labels, &idx[..cut]);
        let (val_x, val_y) = select_labeled(x, labels, &idx[cut..]);
        Self {
            train_x,
            train_y,
            val_x,
            val_y,
        }
    }

    /// Validation accuracy of a fitted candidate; −∞ when the fit failed.
    fn score(&self, fitted: Result<Box<dyn Classifier>, ModelError>) -> f64 {
        fitted.map_or(f64::NEG_INFINITY, |model| {
            accuracy(model.as_ref(), &self.val_x, &self.val_y)
        })
    }
}

/// Successive-halving search over random candidates (auto-sklearn
/// archetype): evaluates `budget` random genomes on a subsample, keeps the
/// better half on the full training split, and deploys the winner.
pub fn auto_sklearn_like(
    train: &DataFrame,
    budget: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    seal(
        train,
        &PipelineConfig::default(),
        "auto-sklearn",
        |x, labels, m| {
            let holdout = Holdout::draw(x, labels, rng);

            // Round 1: cheap evaluation on a subsample of the training split.
            let sub: Vec<usize> = (0..holdout.train_x.rows()).step_by(2).collect();
            let (xs, ys) = select_labeled(&holdout.train_x, &holdout.train_y, &sub);
            let mut candidates: Vec<(Genome, f64)> = (0..budget.max(2))
                .map(|_| {
                    let g = Genome::random(rng);
                    let score = holdout.score(g.fit(&xs, &ys, m, rng));
                    (g, score)
                })
                .collect();
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            candidates.truncate((candidates.len() / 2).max(1));

            // Round 2: full training split for the survivors.
            let (best, _) = candidates
                .into_iter()
                .map(|(g, _)| {
                    let score = holdout.score(g.fit(&holdout.train_x, &holdout.train_y, m, rng));
                    (g, score)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one survivor");
            best.fit(x, labels, m, rng)
        },
    )
}

/// Evolutionary pipeline search (TPOT archetype): a small population evolved
/// by mutation with truncation selection on holdout accuracy.
pub fn tpot_like(
    train: &DataFrame,
    generations: usize,
    population: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    seal(train, &PipelineConfig::default(), "tpot", |x, labels, m| {
        let holdout = Holdout::draw(x, labels, rng);
        let (xt, yt) = (&holdout.train_x, &holdout.train_y);

        let population = population.max(2);
        let mut pop: Vec<(Genome, f64)> = (0..population)
            .map(|_| {
                let g = Genome::random(rng);
                let s = holdout.score(g.fit(xt, yt, m, rng));
                (g, s)
            })
            .collect();

        for _gen in 0..generations {
            pop.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            pop.truncate((population / 2).max(1));
            let parents: Vec<Genome> = pop.iter().map(|(g, _)| g.clone()).collect();
            for parent in parents {
                if pop.len() >= population {
                    break;
                }
                let child = parent.mutate(rng);
                let s = holdout.score(child.fit(xt, yt, m, rng));
                pop.push((child, s));
            }
        }
        pop.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        pop.remove(0).0.fit(x, labels, m, rng)
    })
}

/// Neural architecture search over convnet widths (auto-keras archetype).
pub fn auto_keras_like(
    train: &DataFrame,
    trials: usize,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let side = image_side(train, "auto-keras search")?;
    seal(
        train,
        &PipelineConfig::default(),
        "auto-keras",
        |x, labels, m| {
            let holdout = Holdout::draw(x, labels, rng);
            let mut best: Option<(ConvNetConfig, f64)> = None;
            for _ in 0..trials.max(1) {
                let cfg = ConvNetConfig {
                    c1: *[3, 4, 6].get(rng.gen_range(0..3)).unwrap(),
                    c2: *[6, 8, 12].get(rng.gen_range(0..3)).unwrap(),
                    dense: *[16, 32].get(rng.gen_range(0..2)).unwrap(),
                    ..ConvNetConfig::small(side)
                };
                let fitted = ConvNet::fit(&holdout.train_x, &holdout.train_y, m, &cfg, rng);
                let score = holdout.score(fitted.map(|net| Box::new(net) as Box<dyn Classifier>));
                if best.as_ref().is_none_or(|(_, s)| score > *s) {
                    best = Some((cfg, score));
                }
            }
            let (cfg, _) = best.expect("at least one trial ran");
            Ok(Box::new(ConvNet::fit(x, labels, m, &cfg, rng)?))
        },
    )
}

/// The hand-specified larger convnet of Figure 6.
pub fn large_convnet(
    train: &DataFrame,
    rng: &mut impl Rng,
) -> Result<Box<dyn BlackBoxModel>, ModelError> {
    let cfg = ConvNetConfig {
        c1: 8,
        c2: 16,
        dense: 48,
        ..ConvNetConfig::small(image_side(train, "large-convnet")?)
    };
    seal(
        train,
        &PipelineConfig::default(),
        "large-convnet",
        |x, labels, m| Ok(Box::new(ConvNet::fit(x, labels, m, &cfg, rng)?)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_accuracy;
    use lvp_dataframe::toy_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auto_sklearn_like_finds_a_working_model() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(1);
        let model = auto_sklearn_like(&df, 4, &mut rng).unwrap();
        assert_eq!(model.name(), "auto-sklearn");
        assert!(model_accuracy(model.as_ref(), &df) > 0.8);
    }

    #[test]
    fn tpot_like_finds_a_working_model() {
        let df = toy_frame(80);
        let mut rng = StdRng::seed_from_u64(2);
        let model = tpot_like(&df, 2, 4, &mut rng).unwrap();
        assert_eq!(model.name(), "tpot");
        assert!(model_accuracy(model.as_ref(), &df) > 0.8);
    }

    #[test]
    fn auto_keras_requires_images() {
        let df = toy_frame(20);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(auto_keras_like(&df, 1, &mut rng).is_err());
        assert!(large_convnet(&df, &mut rng).is_err());
    }

    #[test]
    fn genome_mutation_changes_something_eventually() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = Genome::random(&mut rng);
        let changed = (0..20).any(|_| g.mutate(&mut rng) != g);
        assert!(changed);
    }
}
