//! Gradient-boosted decision trees (the paper's `xgb` model): second-order
//! boosting on the softmax objective, one regression tree per class per
//! round, XGBoost-style.

use crate::cv::kfold_select_classifier;
use crate::tree::{walk_rows, RegressionTree, Rows, SplitMethod, TrainingColumns, TreeParams};
use crate::{one_hot_labels, Classifier, ModelError};
use lvp_linalg::{stable_softmax, CsrMatrix, DenseMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

/// Fraction of rows sampled per boosting round.
const SUBSAMPLE: f64 = 0.9;
/// Minimum examples per leaf of every boosted tree.
const MIN_SAMPLES_LEAF: usize = 2;

/// Training configuration for gradient boosting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Fraction of features considered per split.
    pub colsample: f64,
    /// Split-candidate enumeration strategy (histogram by default; exact
    /// enumeration is kept as the oracle).
    pub split_method: SplitMethod,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 30,
            max_depth: 3,
            learning_rate: 0.3,
            lambda: 1.0,
            colsample: 0.8,
            split_method: SplitMethod::default(),
        }
    }
}

/// The paper's grid: number and depth of trees.
pub fn default_gbdt_grid() -> Vec<GbdtConfig> {
    let mut grid = Vec::new();
    for n_rounds in [20, 40] {
        for max_depth in [2, 3, 4] {
            grid.push(GbdtConfig {
                n_rounds,
                max_depth,
                ..GbdtConfig::default()
            });
        }
    }
    grid
}

impl GbdtConfig {
    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            min_samples_leaf: MIN_SAMPLES_LEAF,
            lambda: self.lambda,
            colsample: self.colsample,
            min_gain: 1e-9,
        }
    }
}

/// A fitted gradient-boosted classifier.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GbdtClassifier {
    // trees[round][class]
    trees: Vec<Vec<RegressionTree>>,
    learning_rate: f64,
    n_classes: usize,
}

impl GbdtClassifier {
    /// Fits with Newton boosting on the softmax objective.
    pub fn fit(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        config: &GbdtConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        if x.rows() != labels.len() {
            return Err(ModelError::new("feature/label row count mismatch"));
        }
        if x.rows() == 0 {
            return Err(ModelError::new("cannot fit on an empty dataset"));
        }
        let n = x.rows();
        let m = n_classes;
        let columns = TrainingColumns::from_csr(x, config.split_method);
        let y = one_hot_labels(labels, m);
        let mut logits = DenseMatrix::zeros(n, m);
        let mut trees: Vec<Vec<RegressionTree>> = Vec::with_capacity(config.n_rounds);
        let params = config.tree_params();
        let mut all_rows: Vec<usize> = (0..n).collect();

        for _round in 0..config.n_rounds {
            let p = stable_softmax(&logits);
            // Row subsample for this round.
            all_rows.shuffle(rng);
            let keep = ((n as f64 * SUBSAMPLE).ceil() as usize).clamp(1, n);
            let round_rows = &all_rows[..keep];

            let mut round_trees = Vec::with_capacity(m);
            for k in 0..m {
                let mut grad = vec![0.0; n];
                let mut hess = vec![0.0; n];
                for r in 0..n {
                    let pk = p.get(r, k);
                    grad[r] = pk - y.get(r, k);
                    hess[r] = (pk * (1.0 - pk)).max(1e-12);
                }
                let tree = RegressionTree::fit(&columns, &grad, &hess, round_rows, &params, rng);
                let data = logits.data_mut();
                walk_rows(
                    std::slice::from_ref(&tree),
                    Rows::Columns(columns.raw()),
                    |_, start, deltas| {
                        let column = data[start * m + k..].iter_mut().step_by(m);
                        for (logit, &delta) in column.zip(deltas) {
                            *logit += config.learning_rate * delta;
                        }
                    },
                );
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }
        Ok(Self {
            trees,
            learning_rate: config.learning_rate,
            n_classes: m,
        })
    }

    /// Fits with k-fold CV over the (rounds, depth) grid, refitting the
    /// winner on all data.
    pub fn fit_cv(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        grid: &[GbdtConfig],
        k_folds: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, GbdtConfig), ModelError> {
        let best = kfold_select_classifier(x, labels, grid, k_folds, rng, |xt, yt, cfg, local| {
            Self::fit(xt, yt, n_classes, cfg, local)
        })?;
        Ok((Self::fit(x, labels, n_classes, &best, rng)?, best))
    }

    /// Total number of trees across rounds and classes.
    pub fn n_trees(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Rejects a classifier that could not predict on rows of
    /// `n_features` features: a round without one tree per class, or a
    /// tree failing [`RegressionTree::check`]. Fitted classifiers pass.
    pub fn check(&self, n_features: usize) -> Result<(), ModelError> {
        for trees in &self.trees {
            if trees.len() != self.n_classes {
                return Err(ModelError::invalid_input(
                    "boosting round without one tree per class",
                ));
            }
            trees.iter().try_for_each(|t| t.check(n_features))?;
        }
        Ok(())
    }
}

impl Classifier for GbdtClassifier {
    /// Walks every tree over the rows with the blocked, level-synchronous
    /// kernel of [`crate::tree`], which densifies only the features the
    /// trees read. Per (row, class) the logit accumulates in round
    /// order, as a row-at-a-time walk would add it, so the probabilities
    /// do not depend on the blocking.
    fn predict_proba(&self, x: &CsrMatrix) -> DenseMatrix {
        let m = self.n_classes;
        let mut logits = DenseMatrix::zeros(x.rows(), m);
        let (classes, trees): (Vec<usize>, Vec<&RegressionTree>) = self
            .trees
            .iter()
            .flat_map(|round| round.iter().enumerate())
            .unzip();
        let data = logits.data_mut();
        walk_rows(&trees, Rows::Csr(x), |t, start, deltas| {
            let column = data[start * m + classes[t]..].iter_mut().step_by(m);
            for (logit, &delta) in column.zip(deltas) {
                *logit += self.learning_rate * delta;
            }
        });
        stable_softmax(&logits)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Gradient-boosted regressor on squared loss; used as an ablation
/// meta-model for the performance predictor and by the validator.
pub struct GbdtRegressor {
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    base: f64,
}

impl GbdtRegressor {
    /// Fits boosted trees to continuous targets with squared loss.
    pub fn fit(
        x: &DenseMatrix,
        targets: &[f64],
        config: &GbdtConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        if x.rows() != targets.len() {
            return Err(ModelError::new("feature/target row count mismatch"));
        }
        if x.rows() == 0 {
            return Err(ModelError::new("cannot fit on an empty dataset"));
        }
        let n = x.rows();
        let columns = TrainingColumns::from_dense(x, config.split_method);
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut trees = Vec::with_capacity(config.n_rounds);
        let params = config.tree_params();
        let hess = vec![1.0; n];
        let mut all_rows: Vec<usize> = (0..n).collect();
        for _ in 0..config.n_rounds {
            let grad: Vec<f64> = pred.iter().zip(targets).map(|(p, t)| p - t).collect();
            all_rows.shuffle(rng);
            let keep = ((n as f64 * SUBSAMPLE).ceil() as usize).clamp(1, n);
            let tree = RegressionTree::fit(&columns, &grad, &hess, &all_rows[..keep], &params, rng);
            walk_rows(
                std::slice::from_ref(&tree),
                Rows::Dense(x),
                |_, start, deltas| {
                    for (p, &delta) in pred[start..].iter_mut().zip(deltas) {
                        *p += config.learning_rate * delta;
                    }
                },
            );
            trees.push(tree);
        }
        Ok(Self {
            trees,
            learning_rate: config.learning_rate,
            base,
        })
    }

    /// Predicted target for each row of `x`.
    ///
    /// Walks the trees with the blocked kernel of [`crate::tree`]; per row
    /// the tree outputs sum in tree order, as a row-at-a-time walk would
    /// add them.
    pub fn predict(&self, x: &DenseMatrix) -> Vec<f64> {
        let mut sums = vec![0.0; x.rows()];
        walk_rows(&self.trees, Rows::Dense(x), |_, start, leaves| {
            for (sum, &v) in sums[start..].iter_mut().zip(leaves) {
                *sum += v;
            }
        });
        sums.into_iter()
            .map(|s| self.base + self.learning_rate * s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_linalg::CsrBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rings(n: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
        // Inner disc vs outer ring: nonlinear, tree-friendly.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = CsrBuilder::new(2);
        let mut labels = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let y = u32::from(rng.gen_bool(0.5));
            let r = if y == 0 {
                rng.gen_range(0.0..0.5)
            } else {
                rng.gen_range(0.8..1.2)
            };
            rows.push_row_pairs(&mut vec![(0, r * a.cos()), (1, r * a.sin())])
                .unwrap();
            labels.push(y);
        }
        (rows.finish(), labels)
    }

    #[test]
    fn learns_rings() {
        let (x, y) = rings(300, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let model = GbdtClassifier::fit(&x, &y, 2, &GbdtConfig::default(), &mut rng).unwrap();
        let pred = model.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        let acc = lvp_stats::accuracy(&pred, &labels);
        assert!(acc > 0.9, "rings accuracy {acc}");
    }

    #[test]
    fn probabilities_normalized_and_finite() {
        let (x, y) = rings(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = GbdtClassifier::fit(&x, &y, 2, &GbdtConfig::default(), &mut rng).unwrap();
        for row in model.predict_proba(&x).row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn check_passes_fitted_classifiers_and_rejects_a_short_round() {
        let (x, y) = rings(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = GbdtClassifier::fit(&x, &y, 2, &GbdtConfig::default(), &mut rng).unwrap();
        assert!(model.check(x.cols()).is_ok());
        // Prediction would index a class column past the logits.
        let extra = model.trees[0][0].clone();
        model.trees[0].push(extra);
        assert!(model.check(x.cols()).is_err());
    }

    #[test]
    fn tree_count_matches_config() {
        let (x, y) = rings(60, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = GbdtConfig {
            n_rounds: 7,
            ..GbdtConfig::default()
        };
        let model = GbdtClassifier::fit(&x, &y, 2, &cfg, &mut rng).unwrap();
        assert_eq!(model.n_trees(), 7 * 2);
    }

    #[test]
    fn cv_returns_grid_member() {
        let (x, y) = rings(120, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let grid = [
            GbdtConfig {
                n_rounds: 5,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                n_rounds: 15,
                ..GbdtConfig::default()
            },
        ];
        let (_, cfg) = GbdtClassifier::fit_cv(&x, &y, 2, &grid, 3, &mut rng).unwrap();
        assert!(grid.contains(&cfg));
    }

    #[test]
    fn classifier_survives_json_round_trip() {
        let (x, y) = rings(120, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let model = GbdtClassifier::fit(&x, &y, 2, &GbdtConfig::default(), &mut rng).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let restored: GbdtClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, model);
        // Bit-identical probabilities, not just equal structure.
        let before = model.predict_proba(&x);
        let after = restored.predict_proba(&x);
        for r in 0..x.rows() {
            for c in 0..2 {
                assert_eq!(before.get(r, c).to_bits(), after.get(r, c).to_bits());
            }
        }
    }

    /// With fewer rows than folds, `fit_cv` fits the first grid entry
    /// instead of scoring empty validation folds.
    #[test]
    fn tiny_dataset_falls_back_without_cv() {
        let (x, y) = rings(3, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let grid = default_gbdt_grid();
        let (model, cfg) = GbdtClassifier::fit_cv(&x, &y, 2, &grid, 5, &mut rng).unwrap();
        assert_eq!(cfg, grid[0]);
        assert!(model.n_trees() > 0);
    }

    #[test]
    fn exact_and_histogram_splits_reach_similar_accuracy() {
        let (x, y) = rings(300, 15);
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        let mut acc = [0.0f64; 2];
        for (slot, method) in [SplitMethod::Exact, SplitMethod::Histogram]
            .into_iter()
            .enumerate()
        {
            let cfg = GbdtConfig {
                split_method: method,
                ..GbdtConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(16);
            let model = GbdtClassifier::fit(&x, &y, 2, &cfg, &mut rng).unwrap();
            let pred = model.predict_proba(&x).argmax_rows();
            acc[slot] = lvp_stats::accuracy(&pred, &labels);
        }
        assert!(acc[0] > 0.9, "exact accuracy {}", acc[0]);
        assert!(acc[1] > 0.9, "histogram accuracy {}", acc[1]);
        assert!((acc[0] - acc[1]).abs() < 0.05, "parity gap {acc:?}");
    }

    #[test]
    fn regressor_fits_quadratic() {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 79.0]).collect();
        let x = DenseMatrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = GbdtConfig {
            n_rounds: 60,
            max_depth: 3,
            learning_rate: 0.2,
            lambda: 0.1,
            ..GbdtConfig::default()
        };
        let model = GbdtRegressor::fit(&x, &y, &cfg, &mut rng).unwrap();
        let pred = model.predict(&x);
        let mae = lvp_stats::mean_absolute_error(&pred, &y);
        assert!(mae < 0.03, "MAE {mae}");
    }

    #[test]
    fn regressor_rejects_empty() {
        let x = DenseMatrix::zeros(0, 3);
        let mut rng = StdRng::seed_from_u64(10);
        assert!(GbdtRegressor::fit(&x, &[], &GbdtConfig::default(), &mut rng).is_err());
    }
}
