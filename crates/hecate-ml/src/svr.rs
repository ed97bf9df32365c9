//! R16/R17: epsilon-Support Vector Regression with linear and RBF kernels,
//! solved by pairwise SMO on the dual.
//!
//! scikit-learn defaults mirrored: `C = 1.0`, `epsilon = 0.1`,
//! `gamma = "scale"` (`1 / (n_features * Var(X))`) for the RBF kernel.
//!
//! Dual formulation (with `beta_i = alpha_i - alpha_i*`, `beta_i` in
//! `[-C, C]`, `sum beta = 0`):
//!
//! `max W(beta) = -1/2 beta' K beta + y' beta - epsilon * ||beta||_1`.
//!
//! Each SMO step picks a pair `(i, j)`, moves `beta_i += d`,
//! `beta_j -= d` (preserving the equality constraint) and maximizes the
//! resulting piecewise quadratic in `d` exactly — the `|beta|` terms make
//! it piecewise, with breakpoints where `beta_i + d` or `beta_j - d`
//! crosses zero.

use crate::model::Regressor;
use crate::{check_finite, check_xy, MlError};
use linalg::Matrix;
use std::cmp::Ordering;

/// Kernel choice for [`SvrRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvrKernel {
    /// Dot-product kernel (R16: SVM-Linear).
    Linear,
    /// Radial basis function; `None` = scikit-learn's `"scale"` heuristic
    /// (R17: SVM-RBF).
    Rbf {
        /// Kernel width; `None` resolves to `1/(p * Var(X))` at fit time.
        gamma: Option<f64>,
    },
}

/// Epsilon-SVR.
#[derive(Debug, Clone)]
pub struct SvrRegressor {
    /// Box constraint (sklearn default 1.0).
    pub c: f64,
    /// Epsilon-insensitive tube half-width (sklearn default 0.1).
    pub epsilon: f64,
    /// Kernel.
    pub kernel: SvrKernel,
    /// Maximum SMO sweeps over the training set.
    pub max_sweeps: usize,
    /// Convergence tolerance on the dual objective improvement per sweep.
    pub tol: f64,
    x_train: Option<Matrix>,
    beta: Vec<f64>,
    bias: f64,
    gamma_resolved: f64,
}

impl SvrRegressor {
    /// Linear-kernel SVR with scikit-learn defaults.
    pub fn linear() -> Self {
        SvrRegressor {
            c: 1.0,
            epsilon: 0.1,
            kernel: SvrKernel::Linear,
            max_sweeps: 200,
            tol: 1e-6,
            x_train: None,
            beta: Vec::new(),
            bias: 0.0,
            gamma_resolved: 1.0,
        }
    }

    /// RBF-kernel SVR with scikit-learn defaults (`gamma="scale"`).
    pub fn rbf() -> Self {
        SvrRegressor {
            kernel: SvrKernel::Rbf { gamma: None },
            ..Self::linear()
        }
    }

    /// Number of support vectors (|beta_i| > 0 after fitting).
    #[cfg(test)]
    fn support_vector_count(&self) -> usize {
        self.beta.iter().filter(|b| b.abs() > 1e-9).count()
    }

    fn kernel_value(&self, a: &[f64], b: &[f64]) -> f64 {
        match self.kernel {
            SvrKernel::Linear => linalg::matrix::dot(a, b),
            SvrKernel::Rbf { .. } => {
                let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-self.gamma_resolved * sq).exp()
            }
        }
    }
}

/// Maximizes `g*d - 0.5*eta*d^2 - eps*(|bi + d| - |bi| + |bj - d| - |bj|)`
/// over `d` in `[lo, hi]`, exactly, by checking each linear segment.
fn best_pair_step(g: f64, eta: f64, eps: f64, bi: f64, bj: f64, lo: f64, hi: f64) -> f64 {
    // Breakpoints where the L1 terms change slope.
    let mut points = vec![lo, hi, -bi, bj];
    points.retain(|p| *p >= lo - 1e-15 && *p <= hi + 1e-15);
    // Finite for finite data, which `fit` checks; `Equal` keeps `-0.0`
    // and `0.0` in place, where `total_cmp` would reorder them.
    points.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    points.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

    let objective = |d: f64| -> f64 {
        g * d - 0.5 * eta * d * d - eps * ((bi + d).abs() - bi.abs() + (bj - d).abs() - bj.abs())
    };
    let mut best_d = 0.0;
    let mut best_v = 0.0; // d = 0 is always feasible with objective 0
    let mut consider = |d: f64| {
        let d = d.clamp(lo, hi);
        let v = objective(d);
        if v > best_v + 1e-15 {
            best_v = v;
            best_d = d;
        }
    };
    // Segment interiors: the unconstrained optimum of the quadratic with
    // the segment's fixed L1 slopes.
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mid = 0.5 * (a + b);
        let slope_eps = eps * ((bi + mid).signum() - (bj - mid).signum());
        if eta > 1e-15 {
            let d_star = (g - slope_eps) / eta;
            if d_star > a && d_star < b {
                consider(d_star);
            }
        }
        consider(a);
        consider(b);
    }
    best_d
}

impl Regressor for SvrRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        check_finite("X", x.as_slice())?;
        check_finite("y", y)?;
        let n = x.rows();
        self.gamma_resolved = match self.kernel {
            SvrKernel::Linear => 1.0,
            SvrKernel::Rbf { gamma: Some(g) } => g,
            SvrKernel::Rbf { gamma: None } => {
                // sklearn "scale": 1 / (n_features * X.var())
                let var = linalg::stats::variance(x.as_slice()).max(1e-12);
                1.0 / (x.cols() as f64 * var)
            }
        };
        // Precompute the kernel matrix (training sets here are small).
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.kernel_value(x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        let mut beta = vec![0.0; n];
        // f_i = sum_k beta_k K(i,k), maintained incrementally.
        let mut f = vec![0.0; n];
        let c = self.c;
        let eps = self.epsilon;
        // Simple xorshift stream for candidate-partner sampling; fitting
        // stays deterministic for a given dataset.
        let mut rng_state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next_rand = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for _sweep in 0..self.max_sweeps {
            let mut improvement = 0.0;
            // Residual extremes (most-violating candidates) for this sweep.
            for i in 0..n {
                let mut jmax = 0;
                let mut jmin = 0;
                for t in 1..n {
                    let rt = y[t] - f[t];
                    if rt > y[jmax] - f[jmax] {
                        jmax = t;
                    }
                    if rt < y[jmin] - f[jmin] {
                        jmin = t;
                    }
                }
                // Candidate partners: the two extremes escape local traps,
                // the neighbour gives cyclic coverage, and random draws
                // guarantee every violating pair is eventually visited.
                let candidates = [
                    jmax,
                    jmin,
                    (i + 1) % n,
                    next_rand() as usize % n,
                    next_rand() as usize % n,
                    next_rand() as usize % n,
                ];
                for j in candidates {
                    if i == j {
                        continue;
                    }
                    // gradient difference along the feasible direction
                    let g = (y[i] - f[i]) - (y[j] - f[j]);
                    let eta = k[(i, i)] + k[(j, j)] - 2.0 * k[(i, j)];
                    // box bounds on d: bi + d in [-C, C], bj - d in [-C, C]
                    let lo = (-c - beta[i]).max(beta[j] - c);
                    let hi = (c - beta[i]).min(beta[j] + c);
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let d = best_pair_step(g, eta.max(1e-12), eps, beta[i], beta[j], lo, hi);
                    if d.abs() < 1e-14 {
                        continue;
                    }
                    beta[i] += d;
                    beta[j] -= d;
                    for t in 0..n {
                        f[t] += d * (k[(i, t)] - k[(j, t)]);
                    }
                    improvement += d.abs();
                    break; // one move per i per sweep keeps sweeps cheap
                }
            }
            if improvement < self.tol {
                break;
            }
        }
        // Intercept from free support vectors: for 0 < |beta_i| < C,
        // y_i - f_i - b = eps * sign(beta_i)  =>  b = y_i - f_i - eps*sign.
        let mut candidates = Vec::new();
        for i in 0..n {
            if beta[i].abs() > 1e-8 && beta[i].abs() < c - 1e-8 {
                candidates.push(y[i] - f[i] - eps * beta[i].signum());
            }
        }
        self.bias = if candidates.is_empty() {
            // fall back: median of unconstrained residuals
            let resid: Vec<f64> = (0..n).map(|i| y[i] - f[i]).collect();
            linalg::stats::median(&resid)
        } else {
            linalg::stats::median(&candidates)
        };
        self.beta = beta;
        self.x_train = Some(x.clone());
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let xt = self.x_train.as_ref().ok_or(MlError::NotFitted)?;
        if x.cols() != xt.cols() {
            return Err(MlError::BadShape(format!(
                "SVR fitted on {} features, got {}",
                xt.cols(),
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| {
                let mut s = self.bias;
                for j in 0..xt.rows() {
                    if self.beta[j].abs() > 1e-12 {
                        s += self.beta[j] * self.kernel_value(x.row(i), xt.row(j));
                    }
                }
                s
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn line_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i as f64 - 25.0) / 10.0]).collect();
        let y = rows.iter().map(|r| 1.5 * r[0] + 0.3).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn linear_svr_fits_line_within_tube() {
        let (x, y) = line_data();
        let mut m = SvrRegressor::linear();
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        // epsilon = 0.1: errors should be around the tube width.
        assert!(rmse(&y, &pred) < 0.15, "rmse = {}", rmse(&y, &pred));
    }

    #[test]
    fn rbf_svr_fits_nonlinear_target() {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![(i as f64) / 8.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = SvrRegressor::rbf();
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.3, "rmse = {}", rmse(&y, &pred));
    }

    #[test]
    fn dual_variables_respect_box_and_equality() {
        let (x, y) = line_data();
        let mut m = SvrRegressor::linear();
        m.fit(&x, &y).unwrap();
        let sum: f64 = m.beta.iter().sum();
        assert!(sum.abs() < 1e-8, "sum(beta) = {sum}");
        assert!(m.beta.iter().all(|b| b.abs() <= m.c + 1e-9));
    }

    #[test]
    fn flat_targets_inside_tube_need_no_support_vectors() {
        // All targets within epsilon of a constant: zero function + bias
        // is optimal, so no support vectors are needed.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.01]).collect();
        let y = vec![0.05; 20];
        let mut m = SvrRegressor::linear();
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(m.support_vector_count(), 0);
        let pred = m.predict(&Matrix::from_rows(&rows)).unwrap();
        assert!(pred.iter().all(|p| (p - 0.05).abs() <= 0.1 + 1e-9));
    }

    #[test]
    fn pair_step_respects_box() {
        let d = best_pair_step(10.0, 1.0, 0.1, 0.0, 0.0, -1.0, 1.0);
        assert!(d <= 1.0 + 1e-12);
        let d2 = best_pair_step(-10.0, 1.0, 0.1, 0.0, 0.0, -1.0, 1.0);
        assert!(d2 >= -1.0 - 1e-12);
    }

    #[test]
    fn pair_step_zero_when_inside_tube() {
        // Gradient smaller than epsilon slopes: no move is beneficial.
        let d = best_pair_step(0.05, 1.0, 0.1, 0.0, 0.0, -1.0, 1.0);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            SvrRegressor::linear()
                .predict(&Matrix::zeros(1, 1))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
