//! Multinomial logistic regression trained with minibatch SGD (the paper's
//! `lr` model, mirroring scikit-learn's `SGDClassifier` with grid-searched
//! regularization and learning rate).

use crate::cv::kfold_select_classifier;
use crate::{one_hot_labels, Classifier, ModelError};
use lvp_linalg::{stable_softmax, CsrMatrix, DenseMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

/// Regularization penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Penalty {
    /// Ridge penalty with the given strength.
    L2(f64),
    /// Lasso penalty with the given strength (applied proximally).
    L1(f64),
}

/// Training configuration for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrConfig {
    /// Regularization type and strength.
    pub penalty: Penalty,
    /// Constant SGD learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for LrConfig {
    fn default() -> Self {
        Self {
            penalty: Penalty::L2(1e-4),
            learning_rate: 0.1,
            epochs: 15,
            batch_size: 32,
        }
    }
}

/// The paper's default hyperparameter grid: regularization type/strength ×
/// learning rate.
pub fn default_lr_grid() -> Vec<LrConfig> {
    let mut grid = Vec::new();
    for penalty in [Penalty::L2(1e-4), Penalty::L2(1e-3), Penalty::L1(1e-4)] {
        for learning_rate in [0.1, 0.03] {
            grid.push(LrConfig {
                penalty,
                learning_rate,
                ..LrConfig::default()
            });
        }
    }
    grid
}

/// A fitted multinomial logistic regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: DenseMatrix, // d × m
    bias: Vec<f64>,       // m
    n_classes: usize,
}

impl LogisticRegression {
    /// Fits the model with minibatch SGD under the given configuration.
    pub fn fit(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        config: &LrConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        if x.rows() != labels.len() {
            return Err(ModelError::new("feature/label row count mismatch"));
        }
        if x.rows() == 0 {
            return Err(ModelError::new("cannot fit on an empty dataset"));
        }
        let d = x.cols();
        let m = n_classes;
        let y = one_hot_labels(labels, m);
        let mut weights = DenseMatrix::zeros(d, m);
        let mut bias = vec![0.0; m];
        let mut order: Vec<usize> = (0..x.rows()).collect();

        for _epoch in 0..config.epochs {
            order.shuffle(rng);
            for batch in order.chunks(config.batch_size) {
                // Forward: logits and probabilities for the batch.
                let mut grad_w: Vec<(usize, usize, f64)> = Vec::new();
                let mut grad_b = vec![0.0; m];
                for &r in batch {
                    let (idx, vals) = x.row(r);
                    let mut logits = bias.clone();
                    for (&c, &v) in idx.iter().zip(vals) {
                        let w_row = weights.row(c as usize);
                        for (l, &w) in logits.iter_mut().zip(w_row) {
                            *l += v * w;
                        }
                    }
                    lvp_linalg::softmax_in_place(&mut logits);
                    for k in 0..m {
                        let err = logits[k] - y.get(r, k);
                        grad_b[k] += err;
                        for (&c, &v) in idx.iter().zip(vals) {
                            grad_w.push((c as usize, k, v * err));
                        }
                    }
                }
                let scale = config.learning_rate / batch.len() as f64;
                for (c, k, g) in grad_w {
                    let w = weights.get(c, k);
                    weights.set(c, k, w - scale * g);
                }
                for (b, g) in bias.iter_mut().zip(&grad_b) {
                    *b -= scale * g;
                }
                // Regularization, applied densely once per batch.
                match config.penalty {
                    Penalty::L2(l2) => {
                        let decay = 1.0 - config.learning_rate * l2;
                        weights.scale(decay.max(0.0));
                    }
                    Penalty::L1(l1) => {
                        let t = config.learning_rate * l1;
                        for w in weights.data_mut() {
                            *w = w.signum() * (w.abs() - t).max(0.0);
                        }
                    }
                }
            }
        }
        Ok(Self {
            weights,
            bias,
            n_classes: m,
        })
    }

    /// Fits with k-fold cross-validation over the hyperparameter grid,
    /// then refits the winning configuration on the full data.
    pub fn fit_cv(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        grid: &[LrConfig],
        k_folds: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, LrConfig), ModelError> {
        let best = kfold_select_classifier(x, labels, grid, k_folds, rng, |xt, yt, cfg, local| {
            Self::fit(xt, yt, n_classes, cfg, local)
        })?;
        Ok((Self::fit(x, labels, n_classes, &best, rng)?, best))
    }
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, x: &CsrMatrix) -> DenseMatrix {
        let mut logits = x
            .matmul_dense(&self.weights)
            .expect("weight dimensionality fixed at fit time");
        logits
            .add_row_vector(&self.bias)
            .expect("bias length equals class count");
        stable_softmax(&logits)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_linalg::CsrBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Linearly separable blobs in 2D.
    fn blobs(n: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = CsrBuilder::new(2);
        let mut labels = Vec::new();
        for i in 0..n {
            let y = (i % 2) as u32;
            let cx = if y == 0 { -1.0 } else { 1.0 };
            let x0 = cx + rng.gen_range(-0.5..0.5);
            let x1 = cx + rng.gen_range(-0.5..0.5);
            rows.push_row_pairs(&mut vec![(0, x0), (1, x1)]).unwrap();
            labels.push(y);
        }
        (rows.finish(), labels)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(200, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let model = LogisticRegression::fit(&x, &y, 2, &LrConfig::default(), &mut rng).unwrap();
        let pred = model.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        assert!(lvp_stats::accuracy(&pred, &labels) > 0.97);
    }

    #[test]
    fn probabilities_are_normalized() {
        let (x, y) = blobs(50, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = LogisticRegression::fit(&x, &y, 2, &LrConfig::default(), &mut rng).unwrap();
        let p = model.predict_proba(&x);
        for row in p.row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cv_grid_search_returns_good_model() {
        let (x, y) = blobs(120, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (model, cfg) =
            LogisticRegression::fit_cv(&x, &y, 2, &default_lr_grid(), 3, &mut rng).unwrap();
        assert!(default_lr_grid().contains(&cfg));
        let pred = model.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        assert!(lvp_stats::accuracy(&pred, &labels) > 0.95);
    }

    /// With fewer rows than folds, `fit_cv` picks the first configuration
    /// without cross-validating over empty folds, and draws from the RNG
    /// exactly what a direct `fit` of that configuration draws.
    #[test]
    fn fewer_rows_than_folds_fits_the_first_config_directly() {
        let (x, y) = blobs(3, 9);
        let mut grid = default_lr_grid();
        grid.reverse();
        let mut cv_rng = StdRng::seed_from_u64(10);
        let (model, cfg) = LogisticRegression::fit_cv(&x, &y, 2, &grid, 5, &mut cv_rng).unwrap();
        assert_eq!(cfg, grid[0]);
        let mut direct_rng = StdRng::seed_from_u64(10);
        let direct = LogisticRegression::fit(&x, &y, 2, &grid[0], &mut direct_rng).unwrap();
        assert_eq!(model, direct);
        assert_eq!(cv_rng.gen::<u64>(), direct_rng.gen::<u64>());
    }

    #[test]
    fn l1_penalty_zeroes_irrelevant_features() {
        // Two informative dims plus one pure-noise dim; strong L1 should
        // kill the noise dimension (this is the L1-regularization scale
        // invariance the paper's problem statement points at).
        let mut rng = StdRng::seed_from_u64(8);
        let mut rows = CsrBuilder::new(3);
        let mut labels = Vec::new();
        for i in 0..300 {
            let y = (i % 2) as u32;
            let cx = if y == 0 { -1.0 } else { 1.0 };
            rows.push_row_pairs(&mut vec![
                (0, cx + rng.gen_range(-0.3..0.3)),
                (1, cx + rng.gen_range(-0.3..0.3)),
                (2, rng.gen_range(-1.0..1.0)),
            ])
            .unwrap();
            labels.push(y);
        }
        let x = rows.finish();
        let strong_l1 = LrConfig {
            penalty: Penalty::L1(0.02),
            ..LrConfig::default()
        };
        let model = LogisticRegression::fit(&x, &labels, 2, &strong_l1, &mut rng).unwrap();
        // Noise-feature weights (row 2) must be much smaller than the
        // informative ones.
        let noise_mag: f64 = model.weights.row(2).iter().map(|w| w.abs()).sum();
        let signal_mag: f64 = model.weights.row(0).iter().map(|w| w.abs()).sum();
        assert!(
            noise_mag < 0.3 * signal_mag,
            "noise {noise_mag} vs signal {signal_mag}"
        );
    }

    #[test]
    fn rejects_empty_and_mismatched_input() {
        let x = CsrBuilder::new(0).finish();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(LogisticRegression::fit(&x, &[], 2, &LrConfig::default(), &mut rng).is_err());
        let (x, _) = blobs(10, 1);
        assert!(LogisticRegression::fit(&x, &[0, 1], 2, &LrConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn extreme_inputs_do_not_produce_nan() {
        // Scaling corruption can blow up feature magnitudes; predictions
        // must saturate rather than turn NaN (cf. the paper's footnote on
        // SGDClassifier overflows).
        let (x, y) = blobs(100, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let model = LogisticRegression::fit(&x, &y, 2, &LrConfig::default(), &mut rng).unwrap();
        let mut huge = CsrBuilder::new(2);
        huge.push_row_pairs(&mut vec![(0, 1e12), (1, -1e12)])
            .unwrap();
        let huge = huge.finish();
        let p = model.predict_proba(&huge);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }
}
