//! R15: SGDRegressor — linear model fitted by stochastic gradient descent.
//!
//! scikit-learn defaults mirrored: squared error loss, L2 penalty
//! `alpha = 1e-4`, `eta0 = 0.01` with the `invscaling` schedule
//! `eta = eta0 / t^0.25`, `max_iter = 1000`, `tol = 1e-3` with early
//! stopping on the training loss, shuffled epochs.

use crate::linear::predict_linear;
use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Linear regression by SGD.
#[derive(Debug, Clone)]
pub struct SgdRegressor {
    /// L2 penalty (scikit-learn default 1e-4).
    pub alpha: f64,
    /// Initial learning rate.
    pub eta0: f64,
    /// Inverse-scaling exponent.
    pub power_t: f64,
    /// Maximum epochs.
    pub max_iter: usize,
    /// Early-stopping tolerance on epoch loss improvement.
    pub tol: f64,
    /// RNG seed for epoch shuffling.
    pub seed: u64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for SgdRegressor {
    fn default() -> Self {
        SgdRegressor {
            alpha: 1e-4,
            eta0: 0.01,
            power_t: 0.25,
            max_iter: 1000,
            tol: 1e-3,
            seed: 0,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl SgdRegressor {
    /// SGD regressor with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the shuffle seed (deterministic runs).
    pub fn with_seed(seed: u64) -> Self {
        SgdRegressor {
            seed,
            ..Self::default()
        }
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }
}

impl Regressor for SgdRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let p = x.cols();
        let mut w = vec![0.0; p];
        let mut b = 0.0;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut t: u64 = 1;
        let mut best_loss = f64::INFINITY;
        let mut no_improvement = 0usize;
        for _epoch in 0..self.max_iter {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for &i in &order {
                let eta = self.eta0 / (t as f64).powf(self.power_t);
                t += 1;
                let row = x.row(i);
                let pred = linalg::matrix::dot(row, &w) + b;
                let err = pred - y[i];
                epoch_loss += 0.5 * err * err;
                // gradient of 0.5*(err)^2 + 0.5*alpha*||w||^2
                for (wj, &xj) in w.iter_mut().zip(row) {
                    *wj -= eta * (err * xj + self.alpha * *wj);
                }
                b -= eta * err;
            }
            epoch_loss /= n as f64;
            // scikit-learn stops after n_iter_no_change (5) epochs without
            // tol improvement.
            if epoch_loss > best_loss - self.tol {
                no_improvement += 1;
                if no_improvement >= 5 {
                    break;
                }
            } else {
                no_improvement = 0;
            }
            best_loss = best_loss.min(epoch_loss);
            if !epoch_loss.is_finite() {
                return Err(MlError::Numeric(
                    "SGD diverged; consider scaling features".into(),
                ));
            }
        }
        self.coef = Some(w);
        self.intercept = b;
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

    fn standardized_line() -> (Matrix, Vec<f64>) {
        // Standardized-ish features; y = 2*x0 - x1 + 0.5
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 / 6.0;
                vec![t.sin(), (1.7 * t).cos()]
            })
            .collect();
        let y = rows.iter().map(|r| 2.0 * r[0] - r[1] + 0.5).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_line_on_scaled_data() {
        let (x, y) = standardized_line();
        let mut m = SgdRegressor::with_seed(42);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.15, "rmse = {}", rmse(&y, &pred));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = standardized_line();
        let mut a = SgdRegressor::with_seed(7);
        let mut b = SgdRegressor::with_seed(7);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
    }

    #[test]
    fn different_seeds_still_converge() {
        let (x, y) = standardized_line();
        for seed in [1, 2, 3] {
            let mut m = SgdRegressor::with_seed(seed);
            m.fit(&x, &y).unwrap();
            let pred = m.predict(&x).unwrap();
            assert!(rmse(&y, &pred) < 0.3);
        }
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            SgdRegressor::new()
                .predict(&Matrix::zeros(1, 2))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
