//! Random forest regression — the meta-model of the paper's performance
//! predictor (§4: `RandomForestRegressor` with five-fold cross-validation
//! and a grid search over the number of trees, minimizing MAE).

use crate::cv::kfold_select;
use crate::tree::{
    walk_row, walk_rows, RegressionTree, Rows, SplitMethod, TrainingColumns, TreeParams,
};
use crate::ModelError;
use lvp_linalg::DenseMatrix;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::cell::OnceCell;
use std::cmp::Reverse;

/// Minimum examples per leaf of every forest tree.
const MIN_SAMPLES_LEAF: usize = 2;
/// Fraction of features considered per split of every forest tree.
const COLSAMPLE: f64 = 0.4;

/// Configuration for [`RandomForestRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Split-candidate enumeration strategy (histogram by default; exact
    /// enumeration is kept as the oracle).
    pub split_method: SplitMethod,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            max_depth: 12,
            split_method: SplitMethod::default(),
        }
    }
}

/// The paper's grid over the number of trees.
pub fn default_forest_grid() -> Vec<ForestConfig> {
    [25, 50, 100]
        .into_iter()
        .map(|n_trees| ForestConfig {
            n_trees,
            ..ForestConfig::default()
        })
        .collect()
}

/// A fitted random forest regressor (bagging + per-split feature
/// subsampling; prediction is the mean over trees).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RandomForestRegressor {
    trees: Vec<RegressionTree>,
}

impl RandomForestRegressor {
    /// Fits `config.n_trees` trees on bootstrap samples.
    pub fn fit(
        x: &DenseMatrix,
        targets: &[f64],
        config: &ForestConfig,
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
        // Regression via the Newton formulation: grad = -y, hess = 1.
        let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; n];
        let params = TreeParams {
            max_depth: config.max_depth,
            min_samples_leaf: MIN_SAMPLES_LEAF,
            lambda: 0.0,
            colsample: COLSAMPLE,
            min_gain: 1e-12,
        };
        let seeds: Vec<u64> = (0..config.n_trees).map(|_| rng.gen()).collect();
        let trees: Vec<RegressionTree> = seeds
            .into_par_iter()
            .map(|seed| {
                let mut tree_rng = rand::rngs::StdRng::seed_from_u64(seed);
                let bootstrap: Vec<usize> = (0..n).map(|_| tree_rng.gen_range(0..n)).collect();
                RegressionTree::fit(&columns, &grad, &hess, &bootstrap, &params, &mut tree_rng)
            })
            .collect();
        Ok(Self { trees })
    }

    /// Fits with k-fold CV over `grid`, selecting the configuration with
    /// lowest validation MAE (the paper's objective), then refits on all
    /// data.
    ///
    /// Configurations that differ only in `n_trees` share one forest per
    /// fold, grown to the largest of their tree counts from the seed of
    /// the configuration that has it (see `kfold_select`). Each is scored
    /// on that forest's first `n_trees` trees, whose mean is bit-identical
    /// to `predict` on a forest of just those trees, so the largest one
    /// scores what fitting it alone would. A grid whose configurations
    /// differ in any other field fits one forest per configuration.
    pub fn fit_cv(
        x: &DenseMatrix,
        targets: &[f64],
        grid: &[ForestConfig],
        k_folds: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, ForestConfig), ModelError> {
        let best = kfold_select(
            x.rows(),
            grid,
            &tree_count_hosts(grid),
            k_folds,
            rng,
            |cfg, rows, local| FoldForest::fit(x, targets, cfg, rows, local),
            |fold, cfg, rows| fold.score(x, targets, cfg.n_trees, rows),
        )?;
        Ok((Self::fit(x, targets, &best, rng)?, best))
    }

    /// Number of trees in the fitted ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Rejects a forest that could not predict on rows of `n_features`
    /// features: one with no trees, or with a tree failing
    /// [`RegressionTree::check`]. Fitted forests pass.
    pub fn check(&self, n_features: usize) -> Result<(), ModelError> {
        if self.trees.is_empty() {
            return Err(ModelError::invalid_input("random forest has no trees"));
        }
        self.trees.iter().try_for_each(|t| t.check(n_features))
    }

    /// Predicted target for each row of `x`.
    ///
    /// Walks the trees with the blocked kernel of [`crate::tree`]; per row
    /// the tree outputs sum in tree order, so the mean is bit-identical to
    /// the mean of [`Self::predict_per_tree_row`].
    pub fn predict(&self, x: &DenseMatrix) -> Vec<f64> {
        let mut sums = vec![0.0; x.rows()];
        walk_rows(&self.trees, Rows::Dense(x), |_, start, leaves| {
            for (sum, &v) in sums[start..].iter_mut().zip(leaves) {
                *sum += v;
            }
        });
        let k = self.trees.len() as f64;
        sums.into_iter().map(|s| s / k).collect()
    }

    /// Per-tree predictions for one dense feature row, in tree order.
    ///
    /// The ensemble's point prediction is the mean of this vector, summed
    /// in the same tree order as [`Self::predict`], so
    /// `mean(predict_per_tree_row(row))` is bit-identical to
    /// `predict(row)`. The spread of the vector is the ensemble's own
    /// uncertainty — the raw material for quantile prediction intervals.
    pub fn predict_per_tree_row(&self, row: &[f64]) -> Vec<f64> {
        walk_row(&self.trees, row)
    }

    /// Per-tree predictions for every row of `x` as an
    /// `n_rows × n_trees` matrix, computed with the blocked kernel. Row `r`
    /// equals [`Self::predict_per_tree_row`] on `x.row(r)` bit-for-bit.
    pub fn predict_per_tree(&self, x: &DenseMatrix) -> DenseMatrix {
        let k = self.trees.len();
        let mut out = DenseMatrix::zeros(x.rows(), k);
        let data = out.data_mut();
        walk_rows(&self.trees, Rows::Dense(x), |t, start, leaves| {
            let column = data[start * k + t..].iter_mut().step_by(k);
            for (cell, &v) in column.zip(leaves) {
                *cell = v;
            }
        });
        out
    }
}

/// For each configuration of `grid`, the one whose fold forests also
/// score it: of the configurations equal to it but for `n_trees`, the
/// first with the most trees.
fn tree_count_hosts(grid: &[ForestConfig]) -> Vec<usize> {
    let shape = |c: &ForestConfig| ForestConfig { n_trees: 0, ..*c };
    (0..grid.len())
        .map(|i| {
            (0..grid.len())
                .filter(|&j| j == i || shape(&grid[j]) == shape(&grid[i]))
                .max_by_key(|&j| (grid[j].n_trees, Reverse(j)))
                .unwrap_or(i)
        })
        .collect()
}

/// One cross-validation fold's forest and, once the first configuration
/// is scored, its per-tree predictions of the fold's validation rows.
struct FoldForest {
    forest: RandomForestRegressor,
    validation: OnceCell<DenseMatrix>,
}

impl FoldForest {
    /// Fits `cfg` on the given training rows.
    fn fit(
        x: &DenseMatrix,
        targets: &[f64],
        cfg: &ForestConfig,
        rows: &[usize],
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        let yt: Vec<f64> = rows.iter().map(|&i| targets[i]).collect();
        Ok(Self {
            forest: RandomForestRegressor::fit(&x.select_rows(rows), &yt, cfg, rng)?,
            validation: OnceCell::new(),
        })
    }

    /// Negated MAE of the forest's first `n_trees` trees on the validation
    /// `rows`, which are the same rows for every call on one fold.
    fn score(&self, x: &DenseMatrix, targets: &[f64], n_trees: usize, rows: &[usize]) -> f64 {
        let per_tree = self
            .validation
            .get_or_init(|| self.forest.predict_per_tree(&x.select_rows(rows)));
        let yv: Vec<f64> = rows.iter().map(|&i| targets[i]).collect();
        -lvp_stats::mean_absolute_error(&prefix_means(per_tree, n_trees), &yv)
    }
}

/// Mean of each row's first `n_trees` per-tree predictions, summed in tree
/// order from zero like [`RandomForestRegressor::predict`], so it is
/// bit-identical to `predict` on a forest of just those trees.
fn prefix_means(per_tree: &DenseMatrix, n_trees: usize) -> Vec<f64> {
    (0..per_tree.rows())
        .map(|r| per_tree.row(r)[..n_trees].iter().fold(0.0, |s, v| s + v) / n_trees as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn friedman_like(n: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen();
            let b: f64 = rng.gen();
            let c: f64 = rng.gen();
            rows.push(vec![a, b, c]);
            y.push(2.0 * a + (std::f64::consts::PI * b).sin() - c * c);
        }
        (DenseMatrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_nonlinear_regression() {
        let (x, y) = friedman_like(400, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let model = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), &mut rng).unwrap();
        let pred = model.predict(&x);
        let mae = lvp_stats::mean_absolute_error(&pred, &y);
        assert!(mae < 0.15, "MAE {mae}");
    }

    #[test]
    fn prediction_is_mean_of_trees_in_range() {
        let (x, y) = friedman_like(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), &mut rng).unwrap();
        let (lo, hi) = y
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        for p in model.predict(&x) {
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn tree_count_matches_config() {
        let (x, y) = friedman_like(50, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = ForestConfig {
            n_trees: 9,
            ..ForestConfig::default()
        };
        let model = RandomForestRegressor::fit(&x, &y, &cfg, &mut rng).unwrap();
        assert_eq!(model.n_trees(), 9);
    }

    #[test]
    fn cv_selects_grid_member() {
        let (x, y) = friedman_like(90, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let grid = default_forest_grid();
        let (_, cfg) = RandomForestRegressor::fit_cv(&x, &y, &grid, 3, &mut rng).unwrap();
        assert!(grid.contains(&cfg));
    }

    /// `fit_cv`'s own search, recording every (configuration, fold score).
    fn cv_scores(
        x: &DenseMatrix,
        y: &[f64],
        grid: &[ForestConfig],
        rng: &mut StdRng,
    ) -> Vec<(usize, f64)> {
        let mut scores = Vec::new();
        kfold_select(
            x.rows(),
            grid,
            &tree_count_hosts(grid),
            5,
            rng,
            |cfg, rows, local| FoldForest::fit(x, y, cfg, rows, local),
            |fold, cfg, rows| {
                let s = fold.score(x, y, cfg.n_trees, rows);
                scores.push((cfg.n_trees, s));
                s
            },
        )
        .unwrap();
        scores
    }

    #[test]
    fn nested_grid_scores_its_largest_forest_as_if_fitted_alone() {
        let (x, y) = friedman_like(90, 15);
        let grid = default_forest_grid();
        assert_eq!(tree_count_hosts(&grid), [2, 2, 2]);
        let mixed: Vec<ForestConfig> = [(25, 12), (100, 6), (50, 12), (100, 12), (100, 12)]
            .into_iter()
            .map(|(n_trees, max_depth)| ForestConfig {
                n_trees,
                max_depth,
                ..ForestConfig::default()
            })
            .collect();
        assert_eq!(tree_count_hosts(&mixed), [3, 1, 3, 3, 3]);
        let scores = cv_scores(&x, &y, &grid, &mut StdRng::seed_from_u64(16));
        assert_eq!(scores.len(), 5 * 3, "one forest per fold scores all three");
        let nested: f64 = scores
            .iter()
            .filter(|(n, _)| *n == 100)
            .map(|(_, s)| s)
            .sum();

        // The 100-tree candidate alone, drawing as `kfold_select` does: the
        // folds, then one seed per candidate taken from the back.
        let mut rng = StdRng::seed_from_u64(16);
        let folds = crate::cv::kfold_indices(90, 5, &mut rng);
        let seeds: Vec<u64> = (0..3).map(|_| rng.gen()).collect();
        let mut local = StdRng::seed_from_u64(seeds[0]);
        let mut alone = 0.0;
        for (train, val) in &folds {
            let yt: Vec<f64> = train.iter().map(|&i| y[i]).collect();
            let yv: Vec<f64> = val.iter().map(|&i| y[i]).collect();
            let model =
                RandomForestRegressor::fit(&x.select_rows(train), &yt, &grid[2], &mut local)
                    .unwrap();
            alone += -lvp_stats::mean_absolute_error(&model.predict(&x.select_rows(val)), &yv);
        }
        assert_eq!((nested / 5.0).to_bits(), (alone / 5.0).to_bits());
    }

    #[test]
    fn prefix_means_predict_like_a_forest_of_those_trees() {
        let (x, y) = friedman_like(80, 17);
        let cfg = |n_trees| ForestConfig {
            n_trees,
            ..ForestConfig::default()
        };
        let big =
            RandomForestRegressor::fit(&x, &y, &cfg(30), &mut StdRng::seed_from_u64(18)).unwrap();
        let per_tree = big.predict_per_tree(&x);
        for n in [1, 7, 30] {
            let prefix = RandomForestRegressor {
                trees: big.trees[..n].to_vec(),
            };
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(prefix_means(&per_tree, n)), bits(prefix.predict(&x)));
        }
        // The prefix is the forest its seed grows at that size.
        let small =
            RandomForestRegressor::fit(&x, &y, &cfg(7), &mut StdRng::seed_from_u64(18)).unwrap();
        assert_eq!(small.trees[..], big.trees[..7]);
    }

    /// Configurations that differ in `max_depth` each fit their own
    /// forests, so the search is the plain grid search it was before
    /// tree counts were nested: the choice and the next draw are pinned
    /// from that implementation.
    #[test]
    fn grid_over_depths_selects_as_before_nesting() {
        let (x, y) = friedman_like(120, 21);
        let mut noise = StdRng::seed_from_u64(24);
        let y: Vec<f64> = y.iter().map(|v| v + noise.gen_range(-2.0..2.0)).collect();
        let grid: Vec<ForestConfig> = [(12, 1), (8, 3), (6, 6)]
            .into_iter()
            .map(|(n_trees, max_depth)| ForestConfig {
                n_trees,
                max_depth,
                ..ForestConfig::default()
            })
            .collect();
        assert_eq!(tree_count_hosts(&grid), [0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(22);
        let (model, cfg) = RandomForestRegressor::fit_cv(&x, &y, &grid, 5, &mut rng).unwrap();
        assert_eq!(cfg, grid[1]);
        assert_eq!(model.n_trees(), 8);
        assert_eq!(rng.gen::<u64>(), 0xfcf1_8f4f_ab16_c68e);
    }

    #[test]
    fn tiny_dataset_falls_back_without_cv() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (model, _) =
            RandomForestRegressor::fit_cv(&x, &[1.0, 2.0], &default_forest_grid(), 5, &mut rng)
                .unwrap();
        assert!(model.n_trees() > 0);
    }

    #[test]
    fn per_tree_predictions_mean_matches_ensemble_prediction_bitwise() {
        let (x, y) = friedman_like(120, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let model = RandomForestRegressor::fit(&x, &y, &ForestConfig::default(), &mut rng).unwrap();
        let ensemble = model.predict(&x);
        let per_tree_matrix = model.predict_per_tree(&x);
        assert_eq!(per_tree_matrix.cols(), model.n_trees());
        for (r, expected) in ensemble.iter().enumerate() {
            let per_tree = model.predict_per_tree_row(x.row(r));
            assert_eq!(per_tree.len(), model.n_trees());
            let mean = per_tree.iter().sum::<f64>() / per_tree.len() as f64;
            assert_eq!(mean.to_bits(), expected.to_bits());
            // The batch matrix is the row-at-a-time vector, bit for bit.
            for (t, v) in per_tree.iter().enumerate() {
                assert_eq!(per_tree_matrix.get(r, t).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn exact_and_histogram_splits_reach_similar_error() {
        let (x, y) = friedman_like(400, 13);
        let mut mae = [0.0f64; 2];
        for (slot, method) in [SplitMethod::Exact, SplitMethod::Histogram]
            .into_iter()
            .enumerate()
        {
            let cfg = ForestConfig {
                split_method: method,
                ..ForestConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(14);
            let model = RandomForestRegressor::fit(&x, &y, &cfg, &mut rng).unwrap();
            mae[slot] = lvp_stats::mean_absolute_error(&model.predict(&x), &y);
        }
        assert!(mae[0] < 0.15, "exact MAE {}", mae[0]);
        assert!(mae[1] < 0.15, "histogram MAE {}", mae[1]);
        assert!((mae[0] - mae[1]).abs() < 0.05, "parity gap {mae:?}");
    }

    #[test]
    fn rejects_empty_input() {
        let x = DenseMatrix::zeros(0, 2);
        let mut rng = StdRng::seed_from_u64(10);
        assert!(RandomForestRegressor::fit(&x, &[], &ForestConfig::default(), &mut rng).is_err());
    }
}
