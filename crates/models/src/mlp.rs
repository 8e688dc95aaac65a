//! Feed-forward neural network (the paper's `dnn` model): two ReLU hidden
//! layers and a softmax output, trained with Adam, layer sizes grid-searched
//! with cross-validation.

use crate::cv::kfold_select_classifier;
use crate::{one_hot_labels, Classifier, ModelError};
use lvp_linalg::{relu, relu_grad, stable_softmax, CsrMatrix, DenseMatrix};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Training configuration for [`NeuralNet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Width of the first hidden layer.
    pub hidden1: usize,
    /// Width of the second hidden layer.
    pub hidden2: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden1: 32,
            hidden2: 16,
            learning_rate: 1e-2,
            epochs: 12,
            batch_size: 32,
        }
    }
}

/// The paper's grid over layer sizes.
pub fn default_mlp_grid() -> Vec<MlpConfig> {
    [(16, 8), (32, 16), (64, 32)]
        .into_iter()
        .map(|(hidden1, hidden2)| MlpConfig {
            hidden1,
            hidden2,
            ..MlpConfig::default()
        })
        .collect()
}

use crate::opt::Adam;

/// A fitted two-hidden-layer network.
#[derive(Debug, Clone)]
pub struct NeuralNet {
    w1: DenseMatrix, // d × h1
    b1: Vec<f64>,
    w2: DenseMatrix, // h1 × h2
    b2: Vec<f64>,
    w3: DenseMatrix, // h2 × m
    b3: Vec<f64>,
    n_classes: usize,
}

fn he_init(rows: usize, cols: usize, rng: &mut impl Rng) -> DenseMatrix {
    let std = (2.0 / rows.max(1) as f64).sqrt();
    let normal = Normal::new(0.0, std).expect("finite parameters");
    let data: Vec<f64> = (0..rows * cols).map(|_| normal.sample(rng)).collect();
    DenseMatrix::from_vec(rows, cols, data).expect("buffer sized to shape")
}

impl NeuralNet {
    /// Fits the network with Adam on minibatches.
    pub fn fit(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        config: &MlpConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        if x.rows() != labels.len() {
            return Err(ModelError::new("feature/label row count mismatch"));
        }
        if x.rows() == 0 {
            return Err(ModelError::new("cannot fit on an empty dataset"));
        }
        let (d, h1, h2, m) = (x.cols(), config.hidden1, config.hidden2, n_classes);
        let mut net = Self {
            w1: he_init(d, h1, rng),
            b1: vec![0.0; h1],
            w2: he_init(h1, h2, rng),
            b2: vec![0.0; h2],
            w3: he_init(h2, m, rng),
            b3: vec![0.0; m],
            n_classes: m,
        };
        let y = one_hot_labels(labels, m);
        let mut opt_w1 = Adam::new(d * h1, config.learning_rate);
        let mut opt_b1 = Adam::new(h1, config.learning_rate);
        let mut opt_w2 = Adam::new(h1 * h2, config.learning_rate);
        let mut opt_b2 = Adam::new(h2, config.learning_rate);
        let mut opt_w3 = Adam::new(h2 * m, config.learning_rate);
        let mut opt_b3 = Adam::new(m, config.learning_rate);

        let mut order: Vec<usize> = (0..x.rows()).collect();
        for _epoch in 0..config.epochs {
            order.shuffle(rng);
            for batch in order.chunks(config.batch_size) {
                let xb = x.select_rows(batch);
                let yb = y.select_rows(batch);
                let n = batch.len() as f64;

                // Forward pass.
                let mut z1 = xb.matmul_dense(&net.w1).expect("shapes fixed at init");
                z1.add_row_vector(&net.b1).expect("bias aligned");
                let mut a1 = z1.clone();
                a1.map_in_place(relu);
                let mut z2 = a1.matmul(&net.w2).expect("shapes fixed at init");
                z2.add_row_vector(&net.b2).expect("bias aligned");
                let mut a2 = z2.clone();
                a2.map_in_place(relu);
                let mut logits = a2.matmul(&net.w3).expect("shapes fixed at init");
                logits.add_row_vector(&net.b3).expect("bias aligned");
                let p = stable_softmax(&logits);

                // Backward pass.
                let mut d_logits = p;
                d_logits.axpy(-1.0, &yb).expect("same shape");
                d_logits.scale(1.0 / n);

                let d_w3 = a2.transpose().matmul(&d_logits).expect("shapes align");
                let d_b3 = column_sums(&d_logits);
                let mut d_a2 = d_logits.matmul(&net.w3.transpose()).expect("shapes align");
                mask_relu_grad(&mut d_a2, &z2);
                let d_w2 = a1.transpose().matmul(&d_a2).expect("shapes align");
                let d_b2 = column_sums(&d_a2);
                let mut d_a1 = d_a2.matmul(&net.w2.transpose()).expect("shapes align");
                mask_relu_grad(&mut d_a1, &z1);
                let d_w1 = csr_transpose_matmul(&xb, &d_a1);
                let d_b1 = column_sums(&d_a1);

                opt_w1.step(net.w1.data_mut(), d_w1.data());
                opt_b1.step(&mut net.b1, &d_b1);
                opt_w2.step(net.w2.data_mut(), d_w2.data());
                opt_b2.step(&mut net.b2, &d_b2);
                opt_w3.step(net.w3.data_mut(), d_w3.data());
                opt_b3.step(&mut net.b3, &d_b3);
            }
        }
        Ok(net)
    }

    /// Fits with k-fold CV over the layer-size grid, refitting the winner.
    pub fn fit_cv(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        grid: &[MlpConfig],
        k_folds: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, MlpConfig), ModelError> {
        let best = kfold_select_classifier(x, labels, grid, k_folds, rng, |xt, yt, cfg, local| {
            Self::fit(xt, yt, n_classes, cfg, local)
        })?;
        Ok((Self::fit(x, labels, n_classes, &best, rng)?, best))
    }
}

/// `xᵀ · dense` for a CSR left operand: accumulates sparse outer products.
fn csr_transpose_matmul(x: &CsrMatrix, dense: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(x.cols(), dense.cols());
    for r in 0..x.rows() {
        let (idx, vals) = x.row(r);
        let d_row = dense.row(r);
        for (&c, &v) in idx.iter().zip(vals) {
            let out_row = out.row_mut(c as usize);
            for (o, &g) in out_row.iter_mut().zip(d_row) {
                *o += v * g;
            }
        }
    }
    out
}

/// Zeroes gradient entries where the pre-activation was non-positive.
fn mask_relu_grad(grad: &mut DenseMatrix, pre_activation: &DenseMatrix) {
    for (g, &z) in grad.data_mut().iter_mut().zip(pre_activation.data().iter()) {
        *g *= relu_grad(z);
    }
}

fn column_sums(m: &DenseMatrix) -> Vec<f64> {
    let mut sums = vec![0.0; m.cols()];
    for row in m.row_iter() {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    sums
}

impl Classifier for NeuralNet {
    fn predict_proba(&self, x: &CsrMatrix) -> DenseMatrix {
        let mut z1 = x.matmul_dense(&self.w1).expect("shapes fixed at fit");
        z1.add_row_vector(&self.b1).expect("bias aligned");
        z1.map_in_place(relu);
        let mut z2 = z1.matmul(&self.w2).expect("shapes fixed at fit");
        z2.add_row_vector(&self.b2).expect("bias aligned");
        z2.map_in_place(relu);
        let mut logits = z2.matmul(&self.w3).expect("shapes fixed at fit");
        logits.add_row_vector(&self.b3).expect("bias aligned");
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

    /// XOR-like data: requires a nonlinear decision boundary.
    fn xor_data(n: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = CsrBuilder::new(2);
        let mut labels = Vec::new();
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let y = u32::from((x0 > 0.0) != (x1 > 0.0));
            rows.push_row_pairs(&mut vec![(0, x0), (1, x1)]).unwrap();
            labels.push(y);
        }
        (rows.finish(), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(400, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MlpConfig {
            epochs: 40,
            ..MlpConfig::default()
        };
        let net = NeuralNet::fit(&x, &y, 2, &cfg, &mut rng).unwrap();
        let pred = net.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        let acc = lvp_stats::accuracy(&pred, &labels);
        assert!(acc > 0.9, "XOR accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = xor_data(60, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let net = NeuralNet::fit(&x, &y, 2, &MlpConfig::default(), &mut rng).unwrap();
        for row in net.predict_proba(&x).row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let x = CsrBuilder::new(0).finish();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(NeuralNet::fit(&x, &[], 2, &MlpConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn cv_picks_a_grid_member() {
        let (x, y) = xor_data(150, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let grid = default_mlp_grid();
        let (_, cfg) = NeuralNet::fit_cv(&x, &y, 2, &grid, 3, &mut rng).unwrap();
        assert!(grid.contains(&cfg));
    }

    #[test]
    fn csr_transpose_matmul_matches_dense() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = CsrMatrix::from_dense(&d);
        let g = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let got = csr_transpose_matmul(&x, &g);
        let want = d.transpose().matmul(&g).unwrap();
        assert_eq!(got, want);
    }
}
