//! R2: ARD regression (Automatic Relevance Determination), the sparse
//! Bayesian linear model of MacKay/Tipping as implemented by
//! scikit-learn's `ARDRegression`.
//!
//! Defaults mirrored: `max_iter = 300`, `tol = 1e-3`,
//! `threshold_lambda = 1e4` (features whose precision exceeds this are
//! pruned), non-informative Gamma hyperpriors (`alpha_1 = alpha_2 =
//! lambda_1 = lambda_2 = 1e-6`).
//!
//! Iteration (evidence approximation):
//! `Sigma = (A + beta X'X)^-1`, `mu = beta Sigma X'y`,
//! `gamma_i = 1 - lambda_i Sigma_ii`,
//! `lambda_i = (gamma_i + 2 l1) / (mu_i^2 + 2 l2)`,
//! `beta = (n - sum gamma + 2 a1) / (||y - X mu||^2 + 2 a2)`.

use crate::linear::{center_xy, predict_linear};
use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::Matrix;

/// ARD (sparse Bayesian) linear regression.
#[derive(Debug, Clone)]
pub struct ArdRegression {
    /// Maximum evidence-maximization iterations.
    pub max_iter: usize,
    /// Convergence tolerance on coefficient change.
    pub tol: f64,
    /// Precision threshold above which a feature is pruned.
    pub threshold_lambda: f64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for ArdRegression {
    fn default() -> Self {
        ArdRegression {
            max_iter: 300,
            tol: 1e-3,
            threshold_lambda: 1e4,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl ArdRegression {
    /// ARD with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }
}

const HYPER_A1: f64 = 1e-6;
const HYPER_A2: f64 = 1e-6;
const HYPER_L1: f64 = 1e-6;
const HYPER_L2: f64 = 1e-6;

impl Regressor for ArdRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let (xc, yc, x_means, y_mean) = center_xy(x, y);
        let n = xc.rows();
        let p = xc.cols();
        let gram = xc.gram(); // X'X, reused every iteration
        let xty = xc.t_matvec(&yc).map_err(MlError::from)?;
        let var_y = linalg::stats::variance(&yc).max(1e-12);
        let mut beta = 1.0 / var_y; // noise precision init (sklearn)
        let mut lambda = vec![1.0; p]; // per-weight precision
        let mut active: Vec<bool> = vec![true; p];
        let mut mu = vec![0.0; p];
        for _ in 0..self.max_iter {
            let act: Vec<usize> = (0..p).filter(|&j| active[j]).collect();
            if act.is_empty() {
                break;
            }
            // Build the active-submatrix system: A + beta * X'X
            let k = act.len();
            let mut sys = Matrix::zeros(k, k);
            for (a, &ja) in act.iter().enumerate() {
                for (b, &jb) in act.iter().enumerate() {
                    sys[(a, b)] = beta * gram[(ja, jb)];
                }
                sys[(a, a)] += lambda[ja];
            }
            let l = match sys.cholesky() {
                Ok(l) => l,
                Err(_) => break, // keep last stable estimate
            };
            // mu_act = beta * Sigma * X'y
            let rhs: Vec<f64> = act.iter().map(|&j| beta * xty[j]).collect();
            let mu_act = l.cholesky_solve(&rhs);
            // Sigma diagonal via solves against unit vectors.
            let mut sigma_diag = vec![0.0; k];
            for a in 0..k {
                let mut e = vec![0.0; k];
                e[a] = 1.0;
                let col = l.cholesky_solve(&e);
                sigma_diag[a] = col[a];
            }
            let mut mu_new = vec![0.0; p];
            for (a, &j) in act.iter().enumerate() {
                mu_new[j] = mu_act[a];
            }
            // gamma_i and hyperparameter updates
            let mut gamma_sum = 0.0;
            for (a, &j) in act.iter().enumerate() {
                let gamma = 1.0 - lambda[j] * sigma_diag[a];
                gamma_sum += gamma;
                lambda[j] = (gamma + 2.0 * HYPER_L1) / (mu_new[j] * mu_new[j] + 2.0 * HYPER_L2);
                if lambda[j] > self.threshold_lambda {
                    active[j] = false;
                    mu_new[j] = 0.0;
                }
            }
            let pred = xc.matvec(&mu_new).map_err(MlError::from)?;
            let sse: f64 = yc.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
            beta = (n as f64 - gamma_sum + 2.0 * HYPER_A1) / (sse + 2.0 * HYPER_A2);
            let delta: f64 = mu.iter().zip(&mu_new).map(|(a, b)| (a - b).abs()).sum();
            mu = mu_new;
            if delta < self.tol {
                break;
            }
        }
        self.intercept = y_mean - linalg::matrix::dot(&x_means, &mu);
        self.coef = Some(mu);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let coef = self.coef.as_ref().ok_or(MlError::NotFitted)?;
        Ok(predict_linear(x, coef, self.intercept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn sparse_signal() -> (Matrix, Vec<f64>) {
        // Ten features, only two relevant: y = 4*x0 - 3*x4.
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = i as f64;
                (0..10)
                    .map(|j| (t * (j as f64 + 1.3) * 0.37).sin())
                    .collect()
            })
            .collect();
        let y = rows.iter().map(|r| 4.0 * r[0] - 3.0 * r[4]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn recovers_sparse_coefficients() {
        let (x, y) = sparse_signal();
        let mut m = ArdRegression::new();
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        assert!((c[0] - 4.0).abs() < 0.15, "c0 = {}", c[0]);
        assert!((c[4] + 3.0).abs() < 0.15, "c4 = {}", c[4]);
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.2);
    }

    #[test]
    fn prunes_irrelevant_features() {
        let (x, y) = sparse_signal();
        let mut m = ArdRegression::new();
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        // most irrelevant features end up (near-)zero
        let small = c
            .iter()
            .enumerate()
            .filter(|(j, v)| *j != 0 && *j != 4 && v.abs() < 0.05)
            .count();
        assert!(small >= 6, "pruned {small}/8 irrelevant features; c={c:?}");
    }

    #[test]
    fn fits_with_intercept() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i as f64 * 0.3).sin()]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 10.0).collect();
        let mut m = ArdRegression::new();
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert!((m.intercept - 10.0).abs() < 0.1);
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            ArdRegression::new()
                .predict(&Matrix::zeros(1, 1))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
