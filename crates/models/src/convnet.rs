//! Convolutional network for the image tasks (the paper's `conv` model):
//! two 3×3 convolutional layers with ReLU, 2×2 max pooling, a dense layer,
//! dropout regularization and a softmax output.
//!
//! The paper's architecture uses 32 and 64 convolution channels and a dense
//! width of 128. Training that from scratch on a single CPU core is slow,
//! so every convnet black box here uses a proportionally scaled variant
//! ([`ConvNetConfig::small`]) with the identical topology; the substitution
//! is recorded in DESIGN.md §2.
//!
//! Input is the flattened pixel CSR matrix produced by the image feature
//! pipeline; the network reshapes rows back to `side × side` internally.

use crate::opt::Adam;
use crate::{one_hot_labels, Classifier, ModelError};
use lvp_linalg::{relu, relu_grad, softmax_in_place, CsrMatrix, DenseMatrix};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Architecture and training configuration for [`ConvNet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvNetConfig {
    /// Input image side length (images are `side × side`).
    pub side: usize,
    /// Channels of the first convolution.
    pub c1: usize,
    /// Channels of the second convolution.
    pub c2: usize,
    /// Width of the dense layer.
    pub dense: usize,
    /// Dropout probability on the dense activations during training.
    pub dropout: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
}

impl ConvNetConfig {
    /// A proportionally scaled variant for single-core experiment runs.
    pub fn small(side: usize) -> Self {
        Self {
            side,
            c1: 6,
            c2: 12,
            dense: 32,
            dropout: 0.25,
            learning_rate: 1e-3,
            epochs: 5,
            batch_size: 32,
        }
    }
}

const K: usize = 3; // kernel side
const POOL: usize = 2;

/// A fitted convolutional network.
pub struct ConvNet {
    cfg: ConvNetConfig,
    // conv1: [c1][1][K][K] flattened; conv2: [c2][c1][K][K] flattened.
    w_conv1: Vec<f64>,
    b_conv1: Vec<f64>,
    w_conv2: Vec<f64>,
    b_conv2: Vec<f64>,
    // fc1: [flat][dense], fc2: [dense][m]; both row-major.
    w_fc1: Vec<f64>,
    b_fc1: Vec<f64>,
    w_fc2: Vec<f64>,
    b_fc2: Vec<f64>,
    n_classes: usize,
}

/// Per-image activations retained for the backward pass.
struct Activations {
    input: Vec<f64>,      // side²
    z1: Vec<f64>,         // c1 × side²
    a1: Vec<f64>,         // c1 × side²
    z2: Vec<f64>,         // c2 × side²
    pooled: Vec<f64>,     // c2 × (side/2)²
    pool_idx: Vec<usize>, // argmax offsets into a2
    z_fc1: Vec<f64>,      // dense
    a_fc1: Vec<f64>,      // dense (after dropout mask during training)
    drop_mask: Vec<f64>,
    probs: Vec<f64>, // m
}

impl ConvNet {
    /// Fits the network with Adam on minibatches.
    pub fn fit(
        x: &CsrMatrix,
        labels: &[u32],
        n_classes: usize,
        cfg: &ConvNetConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ModelError> {
        if x.rows() != labels.len() {
            return Err(ModelError::new("feature/label row count mismatch"));
        }
        if x.rows() == 0 {
            return Err(ModelError::new("cannot fit on an empty dataset"));
        }
        if x.cols() != cfg.side * cfg.side {
            return Err(ModelError::new(format!(
                "expected {}x{} flattened images ({} dims), got {}",
                cfg.side,
                cfg.side,
                cfg.side * cfg.side,
                x.cols()
            )));
        }
        let side = cfg.side;
        let half = side / POOL;
        let flat = cfg.c2 * half * half;
        let m = n_classes;

        let init = |fan_in: usize, len: usize, rng: &mut dyn rand::RngCore| -> Vec<f64> {
            let std = (2.0 / fan_in.max(1) as f64).sqrt();
            let normal = Normal::new(0.0, std).expect("finite parameters");
            (0..len).map(|_| normal.sample(rng)).collect()
        };

        let mut net = Self {
            cfg: *cfg,
            w_conv1: init(K * K, cfg.c1 * K * K, rng),
            b_conv1: vec![0.0; cfg.c1],
            w_conv2: init(cfg.c1 * K * K, cfg.c2 * cfg.c1 * K * K, rng),
            b_conv2: vec![0.0; cfg.c2],
            w_fc1: init(flat, flat * cfg.dense, rng),
            b_fc1: vec![0.0; cfg.dense],
            w_fc2: init(cfg.dense, cfg.dense * m, rng),
            b_fc2: vec![0.0; m],
            n_classes: m,
        };

        let y = one_hot_labels(labels, m);
        let mut opt_c1 = Adam::new(net.w_conv1.len(), cfg.learning_rate);
        let mut opt_bc1 = Adam::new(net.b_conv1.len(), cfg.learning_rate);
        let mut opt_c2 = Adam::new(net.w_conv2.len(), cfg.learning_rate);
        let mut opt_bc2 = Adam::new(net.b_conv2.len(), cfg.learning_rate);
        let mut opt_f1 = Adam::new(net.w_fc1.len(), cfg.learning_rate);
        let mut opt_bf1 = Adam::new(net.b_fc1.len(), cfg.learning_rate);
        let mut opt_f2 = Adam::new(net.w_fc2.len(), cfg.learning_rate);
        let mut opt_bf2 = Adam::new(net.b_fc2.len(), cfg.learning_rate);

        let mut order: Vec<usize> = (0..x.rows()).collect();
        for _epoch in 0..cfg.epochs {
            order.shuffle(rng);
            for batch in order.chunks(cfg.batch_size) {
                let mut g_c1 = vec![0.0; net.w_conv1.len()];
                let mut g_bc1 = vec![0.0; net.b_conv1.len()];
                let mut g_c2 = vec![0.0; net.w_conv2.len()];
                let mut g_bc2 = vec![0.0; net.b_conv2.len()];
                let mut g_f1 = vec![0.0; net.w_fc1.len()];
                let mut g_bf1 = vec![0.0; net.b_fc1.len()];
                let mut g_f2 = vec![0.0; net.w_fc2.len()];
                let mut g_bf2 = vec![0.0; net.b_fc2.len()];

                for &r in batch {
                    let acts = net.forward_row(x, r, Some(rng));
                    net.backward(
                        &acts,
                        y.row(r),
                        (&mut g_c1, &mut g_bc1),
                        (&mut g_c2, &mut g_bc2),
                        (&mut g_f1, &mut g_bf1),
                        (&mut g_f2, &mut g_bf2),
                    );
                }
                let scale = 1.0 / batch.len() as f64;
                for g in [
                    &mut g_c1, &mut g_bc1, &mut g_c2, &mut g_bc2, &mut g_f1, &mut g_bf1, &mut g_f2,
                    &mut g_bf2,
                ] {
                    for v in g.iter_mut() {
                        *v *= scale;
                    }
                }
                opt_c1.step(&mut net.w_conv1, &g_c1);
                opt_bc1.step(&mut net.b_conv1, &g_bc1);
                opt_c2.step(&mut net.w_conv2, &g_c2);
                opt_bc2.step(&mut net.b_conv2, &g_bc2);
                opt_f1.step(&mut net.w_fc1, &g_f1);
                opt_bf1.step(&mut net.b_fc1, &g_bf1);
                opt_f2.step(&mut net.w_fc2, &g_f2);
                opt_bf2.step(&mut net.b_fc2, &g_bf2);
            }
        }
        Ok(net)
    }

    /// Forward pass for one CSR row. `dropout_rng` enables dropout
    /// (training); `None` disables it (inference).
    fn forward_row(
        &self,
        x: &CsrMatrix,
        row: usize,
        dropout_rng: Option<&mut dyn rand::RngCore>,
    ) -> Activations {
        let cfg = &self.cfg;
        let side = cfg.side;
        let area = side * side;
        let half = side / POOL;
        let flat = cfg.c2 * half * half;
        let m = self.n_classes;

        let mut input = vec![0.0; area];
        let (idx, vals) = x.row(row);
        for (&c, &v) in idx.iter().zip(vals) {
            input[c as usize] = v;
        }

        // conv1: 1 input channel → c1 channels, same padding.
        let mut z1 = vec![0.0; cfg.c1 * area];
        conv_same(
            &input,
            1,
            side,
            &self.w_conv1,
            &self.b_conv1,
            cfg.c1,
            &mut z1,
        );
        let a1: Vec<f64> = z1.iter().map(|&v| relu(v)).collect();

        // conv2: c1 → c2 channels, same padding.
        let mut z2 = vec![0.0; cfg.c2 * area];
        conv_same(
            &a1,
            cfg.c1,
            side,
            &self.w_conv2,
            &self.b_conv2,
            cfg.c2,
            &mut z2,
        );
        let a2: Vec<f64> = z2.iter().map(|&v| relu(v)).collect();

        // 2×2 max pooling.
        let mut pooled = vec![0.0; flat];
        let mut pool_idx = vec![0usize; flat];
        for ch in 0..cfg.c2 {
            for py in 0..half {
                for px in 0..half {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_off = 0;
                    for dy in 0..POOL {
                        for dx in 0..POOL {
                            let yy = py * POOL + dy;
                            let xx = px * POOL + dx;
                            let off = ch * area + yy * side + xx;
                            if a2[off] > best {
                                best = a2[off];
                                best_off = off;
                            }
                        }
                    }
                    let p_off = ch * half * half + py * half + px;
                    pooled[p_off] = best;
                    pool_idx[p_off] = best_off;
                }
            }
        }

        // Dense layer with optional dropout.
        let mut z_fc1 = self.b_fc1.clone();
        for (i, &p) in pooled.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let w_row = &self.w_fc1[i * cfg.dense..(i + 1) * cfg.dense];
            for (z, &w) in z_fc1.iter_mut().zip(w_row) {
                *z += p * w;
            }
        }
        let mut drop_mask = vec![1.0; cfg.dense];
        if let Some(rng) = dropout_rng {
            let keep = 1.0 - cfg.dropout;
            for dm in &mut drop_mask {
                use rand::Rng as _;
                *dm = if rng.gen::<f64>() < cfg.dropout {
                    0.0
                } else {
                    1.0 / keep
                };
            }
        }
        let a_fc1: Vec<f64> = z_fc1
            .iter()
            .zip(&drop_mask)
            .map(|(&z, &dm)| relu(z) * dm)
            .collect();

        // Output layer.
        let mut probs = self.b_fc2.clone();
        for (i, &a) in a_fc1.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let w_row = &self.w_fc2[i * m..(i + 1) * m];
            for (z, &w) in probs.iter_mut().zip(w_row) {
                *z += a * w;
            }
        }
        softmax_in_place(&mut probs);

        Activations {
            input,
            z1,
            a1,
            z2,
            pooled,
            pool_idx,
            z_fc1,
            a_fc1,
            drop_mask,
            probs,
        }
    }

    /// Accumulates gradients for one example into the provided buffers.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        acts: &Activations,
        y_row: &[f64],
        (g_c1, g_bc1): (&mut [f64], &mut [f64]),
        (g_c2, g_bc2): (&mut [f64], &mut [f64]),
        (g_f1, g_bf1): (&mut [f64], &mut [f64]),
        (g_f2, g_bf2): (&mut [f64], &mut [f64]),
    ) {
        let cfg = &self.cfg;
        let side = cfg.side;
        let area = side * side;
        let half = side / POOL;
        let flat = cfg.c2 * half * half;
        let m = self.n_classes;

        // dL/dlogits = p - y.
        let d_logits: Vec<f64> = acts.probs.iter().zip(y_row).map(|(&p, &t)| p - t).collect();

        // fc2 gradients and upstream.
        let mut d_afc1 = vec![0.0; cfg.dense];
        for (i, &a) in acts.a_fc1.iter().enumerate() {
            let w_row = &self.w_fc2[i * m..(i + 1) * m];
            let g_row = &mut g_f2[i * m..(i + 1) * m];
            let mut acc = 0.0;
            for ((g, &w), &dl) in g_row.iter_mut().zip(w_row).zip(&d_logits) {
                *g += a * dl;
                acc += w * dl;
            }
            d_afc1[i] = acc;
        }
        for (g, &dl) in g_bf2.iter_mut().zip(&d_logits) {
            *g += dl;
        }

        // Through dropout + ReLU of fc1.
        let d_zfc1: Vec<f64> = d_afc1
            .iter()
            .zip(&acts.drop_mask)
            .zip(&acts.z_fc1)
            .map(|((&d, &dm), &z)| d * dm * relu_grad(z))
            .collect();

        // fc1 gradients and upstream into pooled.
        let mut d_pooled = vec![0.0; flat];
        for (i, &p) in acts.pooled.iter().enumerate() {
            let w_row = &self.w_fc1[i * cfg.dense..(i + 1) * cfg.dense];
            let g_row = &mut g_f1[i * cfg.dense..(i + 1) * cfg.dense];
            let mut acc = 0.0;
            for ((g, &w), &dz) in g_row.iter_mut().zip(w_row).zip(&d_zfc1) {
                *g += p * dz;
                acc += w * dz;
            }
            d_pooled[i] = acc;
        }
        for (g, &dz) in g_bf1.iter_mut().zip(&d_zfc1) {
            *g += dz;
        }

        // Unpool: route gradient to the argmax positions.
        let mut d_a2 = vec![0.0; cfg.c2 * area];
        for (p_off, &src) in acts.pool_idx.iter().enumerate() {
            d_a2[src] += d_pooled[p_off];
        }
        let d_z2: Vec<f64> = d_a2
            .iter()
            .zip(&acts.z2)
            .map(|(&d, &z)| d * relu_grad(z))
            .collect();

        // conv2 gradients and upstream into a1.
        let mut d_a1 = vec![0.0; cfg.c1 * area];
        conv_same_backward(
            &acts.a1,
            cfg.c1,
            side,
            &self.w_conv2,
            cfg.c2,
            &d_z2,
            g_c2,
            g_bc2,
            Some(&mut d_a1),
        );
        let d_z1: Vec<f64> = d_a1
            .iter()
            .zip(&acts.z1)
            .map(|(&d, &z)| d * relu_grad(z))
            .collect();

        // conv1 gradients (no upstream needed below the input).
        conv_same_backward(
            &acts.input,
            1,
            side,
            &self.w_conv1,
            cfg.c1,
            &d_z1,
            g_c1,
            g_bc1,
            None,
        );
    }
}

/// Same-padding 3×3 convolution: `input` has `c_in` channels of `side²`,
/// `weights` is `[c_out][c_in][K][K]`, output `c_out × side²`.
fn conv_same(
    input: &[f64],
    c_in: usize,
    side: usize,
    weights: &[f64],
    bias: &[f64],
    c_out: usize,
    out: &mut [f64],
) {
    let area = side * side;
    let pad = K / 2;
    for co in 0..c_out {
        let out_ch = &mut out[co * area..(co + 1) * area];
        for v in out_ch.iter_mut() {
            *v = bias[co];
        }
        for ci in 0..c_in {
            let in_ch = &input[ci * area..(ci + 1) * area];
            let w = &weights[(co * c_in + ci) * K * K..(co * c_in + ci + 1) * K * K];
            for y in 0..side {
                for x in 0..side {
                    let mut acc = 0.0;
                    for ky in 0..K {
                        let yy = y + ky;
                        if yy < pad || yy - pad >= side {
                            continue;
                        }
                        let in_row = (yy - pad) * side;
                        for kx in 0..K {
                            let xx = x + kx;
                            if xx < pad || xx - pad >= side {
                                continue;
                            }
                            acc += w[ky * K + kx] * in_ch[in_row + (xx - pad)];
                        }
                    }
                    out_ch[y * side + x] += acc;
                }
            }
        }
    }
}

/// Backward pass of [`conv_same`]: accumulates weight/bias gradients and
/// optionally the gradient w.r.t. the input.
#[allow(clippy::too_many_arguments)]
fn conv_same_backward(
    input: &[f64],
    c_in: usize,
    side: usize,
    weights: &[f64],
    c_out: usize,
    d_out: &[f64],
    g_w: &mut [f64],
    g_b: &mut [f64],
    mut d_input: Option<&mut Vec<f64>>,
) {
    let area = side * side;
    let pad = K / 2;
    for co in 0..c_out {
        let d_ch = &d_out[co * area..(co + 1) * area];
        g_b[co] += d_ch.iter().sum::<f64>();
        for ci in 0..c_in {
            let in_ch = &input[ci * area..(ci + 1) * area];
            let w = &weights[(co * c_in + ci) * K * K..(co * c_in + ci + 1) * K * K];
            let g = &mut g_w[(co * c_in + ci) * K * K..(co * c_in + ci + 1) * K * K];
            for y in 0..side {
                for x in 0..side {
                    let d = d_ch[y * side + x];
                    if d == 0.0 {
                        continue;
                    }
                    for ky in 0..K {
                        let yy = y + ky;
                        if yy < pad || yy - pad >= side {
                            continue;
                        }
                        let in_row = (yy - pad) * side;
                        for kx in 0..K {
                            let xx = x + kx;
                            if xx < pad || xx - pad >= side {
                                continue;
                            }
                            let in_off = in_row + (xx - pad);
                            g[ky * K + kx] += d * in_ch[in_off];
                            if let Some(di) = d_input.as_deref_mut() {
                                di[ci * area + in_off] += d * w[ky * K + kx];
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Classifier for ConvNet {
    fn predict_proba(&self, x: &CsrMatrix) -> DenseMatrix {
        let m = self.n_classes;
        let mut out = DenseMatrix::zeros(x.rows(), m);
        for r in 0..x.rows() {
            let acts = self.forward_row(x, r, None);
            out.row_mut(r).copy_from_slice(&acts.probs);
        }
        out
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

    /// A minimal configuration for the unit tests.
    fn tiny(side: usize) -> ConvNetConfig {
        ConvNetConfig {
            side,
            c1: 3,
            c2: 6,
            dense: 16,
            dropout: 0.2,
            learning_rate: 2e-3,
            epochs: 4,
            batch_size: 16,
        }
    }

    /// Tiny image task: bright top half vs bright bottom half, 8×8.
    fn halves(n: usize, side: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = CsrBuilder::new(side * side);
        let mut labels = Vec::new();
        for i in 0..n {
            let y = (i % 2) as u32;
            let mut pairs = Vec::new();
            for yy in 0..side {
                for xx in 0..side {
                    let bright = if y == 0 {
                        yy < side / 2
                    } else {
                        yy >= side / 2
                    };
                    let base: f64 = if bright { 0.8 } else { 0.1 };
                    let v = (base + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
                    if v > 0.0 {
                        pairs.push(((yy * side + xx) as u32, v));
                    }
                }
            }
            rows.push_row_pairs(&mut pairs).unwrap();
            labels.push(y);
        }
        (rows.finish(), labels)
    }

    #[test]
    fn learns_half_images() {
        let side = 8;
        let (x, y) = halves(80, side, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let net = ConvNet::fit(&x, &y, 2, &tiny(side), &mut rng).unwrap();
        let pred = net.predict_proba(&x).argmax_rows();
        let labels: Vec<usize> = y.iter().map(|&l| l as usize).collect();
        let acc = lvp_stats::accuracy(&pred, &labels);
        assert!(acc > 0.9, "halves accuracy {acc}");
    }

    #[test]
    fn probabilities_normalized() {
        let side = 8;
        let (x, y) = halves(20, side, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let net = ConvNet::fit(&x, &y, 2, &tiny(side), &mut rng).unwrap();
        for row in net.predict_proba(&x).row_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_wrong_geometry() {
        let (x, y) = halves(10, 8, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Config says 10×10 but the data is 8×8.
        assert!(ConvNet::fit(&x, &y, 2, &tiny(10), &mut rng).is_err());
    }

    #[test]
    fn conv_same_identity_kernel_preserves_input() {
        let side = 4;
        let input: Vec<f64> = (0..16).map(|i| i as f64).collect();
        // Kernel with 1 in the center.
        let mut w = vec![0.0; 9];
        w[4] = 1.0;
        let mut out = vec![0.0; 16];
        conv_same(&input, 1, side, &w, &[0.0], 1, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_gradcheck_on_weights() {
        // Finite-difference check of conv_same_backward weight gradients.
        let side = 5;
        let input: Vec<f64> = (0..25).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut w: Vec<f64> = (0..9).map(|i| (i as f64 * 0.11).cos() * 0.3).collect();
        let bias = [0.1];
        let loss = |w: &[f64]| -> f64 {
            let mut out = vec![0.0; 25];
            conv_same(&input, 1, side, w, &bias, 1, &mut out);
            out.iter().map(|v| v * v).sum::<f64>() * 0.5
        };
        // Analytic gradient: dL/dout = out.
        let mut out = vec![0.0; 25];
        conv_same(&input, 1, side, &w, &bias, 1, &mut out);
        let mut g_w = vec![0.0; 9];
        let mut g_b = vec![0.0; 1];
        conv_same_backward(&input, 1, side, &w, 1, &out, &mut g_w, &mut g_b, None);
        // Numeric gradient.
        let eps = 1e-6;
        for i in 0..9 {
            let orig = w[i];
            w[i] = orig + eps;
            let up = loss(&w);
            w[i] = orig - eps;
            let down = loss(&w);
            w[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - g_w[i]).abs() < 1e-5,
                "weight {i}: analytic {} vs numeric {}",
                g_w[i],
                numeric
            );
        }
    }
}
