//! Extension (the paper's future work): a neural-network regressor.
//!
//! "In the future, we will be building upon this work and experimenting
//! with more machine learning models such as neural networks,
//! autoencoders and deep reinforcement learning techniques." (Sec. VII)
//!
//! This is a from-scratch multilayer perceptron: one or two hidden
//! layers, ReLU (or tanh) activations, squared-error loss, trained with
//! Adam on mini-batches. Shapes follow scikit-learn's `MLPRegressor`
//! defaults where sensible (`hidden = (100,)`, `adam`, `lr = 1e-3`,
//! `batch = min(200, n)`, `max_iter = 200`), with early stopping on the
//! training loss. Weights use He initialization from the seeded RNG, so
//! training is fully deterministic.

use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (sklearn default).
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    #[inline]
    fn derivative(self, activated: f64) -> f64 {
        match self {
            Activation::Relu => {
                if activated > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - activated * activated,
        }
    }
}

/// One dense layer with Adam state.
#[derive(Debug, Clone)]
struct Layer {
    weights: Matrix, // out x in
    bias: Vec<f64>,
    m_w: Matrix,
    v_w: Matrix,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new(input: usize, output: usize, gain: f64, rng: &mut StdRng) -> Self {
        // He initialization (gain 2) for ReLU nets, Xavier (gain 1) for
        // tanh — a too-hot tanh init saturates units and strands
        // training on a plateau.
        let scale = (gain / input as f64).sqrt();
        let mut weights = Matrix::zeros(output, input);
        for i in 0..output {
            for j in 0..input {
                // Box-Muller normal from seeded uniforms
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                weights[(i, j)] = g * scale;
            }
        }
        Layer {
            m_w: Matrix::zeros(output, input),
            v_w: Matrix::zeros(output, input),
            m_b: vec![0.0; output],
            v_b: vec![0.0; output],
            bias: vec![0.0; output],
            weights,
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        (0..self.weights.rows())
            .map(|i| linalg::matrix::dot(self.weights.row(i), input) + self.bias[i])
            .collect()
    }
}

/// A small MLP regressor.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    /// Hidden layer widths (sklearn default `(100,)`).
    pub hidden: Vec<usize>,
    /// Activation for hidden layers.
    pub activation: Activation,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 penalty (sklearn `alpha = 1e-4`).
    pub alpha: f64,
    /// Maximum epochs.
    pub max_iter: usize,
    /// Mini-batch size cap.
    pub batch_size: usize,
    /// Early-stopping tolerance on epoch-loss improvement.
    pub tol: f64,
    /// RNG seed (init + shuffling).
    pub seed: u64,
    layers: Vec<Layer>,
    adam_t: u64,
}

impl Default for MlpRegressor {
    fn default() -> Self {
        MlpRegressor {
            hidden: vec![100],
            activation: Activation::Relu,
            learning_rate: 1e-3,
            alpha: 1e-4,
            max_iter: 200,
            batch_size: 200,
            tol: 1e-4,
            seed: 0,
            layers: Vec::new(),
            adam_t: 0,
        }
    }
}

impl MlpRegressor {
    /// MLP with sklearn-like defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// A smaller MLP suitable for lag-window forecasting workloads.
    ///
    /// Uses true mini-batches (32) rather than the full-batch default:
    /// on the few-hundred-sample datasets this model targets, full-batch
    /// Adam has no gradient noise and can park in symmetric local
    /// minima of small tanh nets.
    pub fn compact(seed: u64) -> Self {
        MlpRegressor {
            hidden: vec![32, 16],
            max_iter: 300,
            batch_size: 32,
            seed,
            ..Self::default()
        }
    }

    /// Number of trainable parameters (after `fit`).
    #[cfg(test)]
    fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.rows() * l.weights.cols() + l.bias.len())
            .sum()
    }

    /// Forward pass storing every layer's activated output (for backprop).
    fn forward_all(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut outs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut current = input.to_vec();
        for (idx, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&current);
            let is_output = idx == self.layers.len() - 1;
            if !is_output {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            outs.push(z.clone());
            current = z;
        }
        outs
    }

    /// One Adam step over a mini-batch; returns the batch loss.
    #[allow(clippy::needless_range_loop)]
    fn train_batch(&mut self, x: &Matrix, y: &[f64], batch: &[usize]) -> f64 {
        let n_layers = self.layers.len();
        // accumulate gradients
        let mut grad_w: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.bias.len()])
            .collect();
        let mut loss = 0.0;
        for &i in batch {
            let input = x.row(i);
            let outs = self.forward_all(input);
            let pred = outs[n_layers - 1][0];
            let err = pred - y[i];
            loss += 0.5 * err * err;
            // backprop
            let mut delta = vec![err]; // output layer (linear)
            for layer_idx in (0..n_layers).rev() {
                let layer_input: &[f64] = if layer_idx == 0 {
                    input
                } else {
                    &outs[layer_idx - 1]
                };
                for (r, &d) in delta.iter().enumerate() {
                    grad_b[layer_idx][r] += d;
                    for (cidx, &inp) in layer_input.iter().enumerate() {
                        grad_w[layer_idx][(r, cidx)] += d * inp;
                    }
                }
                if layer_idx == 0 {
                    break;
                }
                // propagate to previous layer
                let prev_out = &outs[layer_idx - 1];
                let w = &self.layers[layer_idx].weights;
                let mut prev_delta = vec![0.0; prev_out.len()];
                for (r, &d) in delta.iter().enumerate() {
                    for c in 0..prev_out.len() {
                        prev_delta[c] += d * w[(r, c)];
                    }
                }
                for (c, pd) in prev_delta.iter_mut().enumerate() {
                    *pd *= self.activation.derivative(prev_out[c]);
                }
                delta = prev_delta;
            }
        }
        // Adam update
        let bsz = batch.len() as f64;
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let corr1 = 1.0 - b1.powf(t);
        let corr2 = 1.0 - b2.powf(t);
        for (layer, (gw, gb)) in self.layers.iter_mut().zip(grad_w.into_iter().zip(grad_b)) {
            for r in 0..layer.weights.rows() {
                for c in 0..layer.weights.cols() {
                    let g = gw[(r, c)] / bsz + self.alpha * layer.weights[(r, c)];
                    layer.m_w[(r, c)] = b1 * layer.m_w[(r, c)] + (1.0 - b1) * g;
                    layer.v_w[(r, c)] = b2 * layer.v_w[(r, c)] + (1.0 - b2) * g * g;
                    let mhat = layer.m_w[(r, c)] / corr1;
                    let vhat = layer.v_w[(r, c)] / corr2;
                    layer.weights[(r, c)] -= self.learning_rate * mhat / (vhat.sqrt() + eps);
                }
                let g = gb[r] / bsz;
                layer.m_b[r] = b1 * layer.m_b[r] + (1.0 - b1) * g;
                layer.v_b[r] = b2 * layer.v_b[r] + (1.0 - b2) * g * g;
                let mhat = layer.m_b[r] / corr1;
                let vhat = layer.v_b[r] / corr2;
                layer.bias[r] -= self.learning_rate * mhat / (vhat.sqrt() + eps);
            }
        }
        loss / bsz
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        if self.hidden.is_empty() {
            return Err(MlError::BadHyperparameter(
                "need at least one hidden layer".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // build layers: input -> hidden* -> 1
        self.layers.clear();
        self.adam_t = 0;
        let mut widths = vec![x.cols()];
        widths.extend_from_slice(&self.hidden);
        widths.push(1);
        let gain = match self.activation {
            Activation::Relu => 2.0,
            Activation::Tanh => 1.0,
        };
        for w in widths.windows(2) {
            self.layers.push(Layer::new(w[0], w[1], gain, &mut rng));
        }
        let n = x.rows();
        let batch_size = self.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut best_loss = f64::INFINITY;
        let mut stale = 0usize;
        for _epoch in 0..self.max_iter {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0.0;
            for batch in order.chunks(batch_size) {
                epoch_loss += self.train_batch(x, y, batch);
                batches += 1.0;
            }
            epoch_loss /= batches;
            if !epoch_loss.is_finite() {
                return Err(MlError::Numeric("MLP training diverged".into()));
            }
            if epoch_loss > best_loss - self.tol {
                stale += 1;
                if stale >= 10 {
                    break;
                }
            } else {
                stale = 0;
            }
            best_loss = best_loss.min(epoch_loss);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.layers.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.layers[0].weights.cols() {
            return Err(MlError::BadShape(format!(
                "MLP fitted on {} features, got {}",
                self.layers[0].weights.cols(),
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| {
                let outs = self.forward_all(x.row(i));
                outs[self.layers.len() - 1][0]
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn nonlinear_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / (n as f64 / 6.0);
                vec![t.sin(), t.cos()]
            })
            .collect();
        let y = rows.iter().map(|r| r[0] * r[1] + 0.5 * r[0]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_nonlinear_function() {
        let (x, y) = nonlinear_data(200);
        let mut m = MlpRegressor::compact(1);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let e = rmse(&y, &pred);
        assert!(e < 0.15, "rmse {e}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear_data(80);
        let mut a = MlpRegressor::compact(5);
        let mut b = MlpRegressor::compact(5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn tanh_also_converges() {
        let (x, y) = nonlinear_data(150);
        let mut m = MlpRegressor {
            activation: Activation::Tanh,
            ..MlpRegressor::compact(2)
        };
        m.fit(&x, &y).unwrap();
        assert!(rmse(&y, &m.predict(&x).unwrap()) < 0.25);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let (x, y) = nonlinear_data(30);
        let mut m = MlpRegressor {
            hidden: vec![8, 4],
            max_iter: 1,
            ..MlpRegressor::default()
        };
        m.fit(&x, &y).unwrap();
        // (2*8 + 8) + (8*4 + 4) + (4*1 + 1) = 24 + 36 + 5 = 65
        assert_eq!(m.parameter_count(), 65);
    }

    #[test]
    fn unfitted_and_bad_shape_errors() {
        let m = MlpRegressor::new();
        assert_eq!(
            m.predict(&Matrix::zeros(1, 2)).unwrap_err(),
            MlError::NotFitted
        );
        let (x, y) = nonlinear_data(30);
        let mut m = MlpRegressor::compact(0);
        m.fit(&x, &y).unwrap();
        assert!(m.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn empty_hidden_rejected() {
        let (x, y) = nonlinear_data(30);
        let mut m = MlpRegressor {
            hidden: vec![],
            ..MlpRegressor::default()
        };
        assert!(matches!(m.fit(&x, &y), Err(MlError::BadHyperparameter(_))));
    }
}
