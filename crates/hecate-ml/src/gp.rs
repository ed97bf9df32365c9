//! R7: Gaussian Process regression with an RBF kernel.
//!
//! scikit-learn defaults mirrored: kernel `ConstantKernel(1.0) *
//! RBF(length_scale=1.0)`, `alpha = 1e-10` jitter, `normalize_y = False`.
//! We keep the kernel hyperparameters **fixed** (no marginal-likelihood
//! optimization). On 10-dimensional standardized lag windows the pairwise
//! distances are large relative to the unit length scale, so the posterior
//! mean collapses toward the prior (zero) away from training points —
//! which is exactly the failure mode the paper observes: "GPR is excluded
//! from the scatter plot due to the high RMSE values" (WiFi 34.75, LTE
//! 52.43), and Fig 8 shows the big gap between observed and predicted.

use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::Matrix;

/// Gaussian process regressor with a fixed RBF kernel.
#[derive(Debug, Clone)]
pub struct GaussianProcessRegressor {
    /// RBF length scale (sklearn default 1.0).
    pub length_scale: f64,
    /// Constant kernel amplitude (sklearn default 1.0).
    pub amplitude: f64,
    /// Diagonal jitter added to the training kernel (sklearn default 1e-10).
    pub alpha: f64,
    x_train: Option<Matrix>,
    dual_coef: Vec<f64>,
}

impl Default for GaussianProcessRegressor {
    fn default() -> Self {
        GaussianProcessRegressor {
            length_scale: 1.0,
            amplitude: 1.0,
            alpha: 1e-10,
            x_train: None,
            dual_coef: Vec::new(),
        }
    }
}

impl GaussianProcessRegressor {
    /// GPR with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// GPR with a custom length scale.
    #[cfg(test)]
    fn with_length_scale(length_scale: f64) -> Self {
        GaussianProcessRegressor {
            length_scale,
            ..Self::default()
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        self.amplitude * (-0.5 * sq / (self.length_scale * self.length_scale)).exp()
    }
}

impl Regressor for GaussianProcessRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = self.kernel(x.row(i), x.row(j));
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += self.alpha;
        }
        // Escalating jitter if the kernel is numerically semidefinite.
        let mut jitter = self.alpha;
        let chol = loop {
            match k.cholesky() {
                Ok(l) => break l,
                Err(_) => {
                    jitter = (jitter * 10.0).max(1e-10);
                    if jitter > 1.0 {
                        return Err(MlError::Numeric(
                            "GPR kernel matrix is not positive definite".into(),
                        ));
                    }
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                }
            }
        };
        self.dual_coef = chol.cholesky_solve(y);
        self.x_train = Some(x.clone());
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let xt = self.x_train.as_ref().ok_or(MlError::NotFitted)?;
        if x.cols() != xt.cols() {
            return Err(MlError::BadShape(format!(
                "GPR fitted on {} features, got {}",
                xt.cols(),
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| {
                (0..xt.rows())
                    .map(|j| self.kernel(x.row(i), xt.row(j)) * self.dual_coef[j])
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    #[test]
    fn interpolates_training_points() {
        // With tiny jitter the posterior mean passes through the data.
        let rows: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 3.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = GaussianProcessRegressor::new();
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 1e-6);
    }

    #[test]
    fn reverts_to_prior_far_from_data() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let y = vec![5.0; 10];
        let mut m = GaussianProcessRegressor::new();
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        // 100 length-scales away: prediction ~ prior mean 0, not 5.
        let far = m.predict(&Matrix::from_rows(&[vec![100.0]])).unwrap();
        assert!(far[0].abs() < 1e-6, "far prediction {}", far[0]);
    }

    #[test]
    fn collapses_in_high_dimension_like_the_paper() {
        // 10-D standardized-ish inputs, unit length scale: train/test
        // points are mutually distant, so test predictions are near zero
        // even though targets are not — the paper's Fig 8 behaviour.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..10)
                    .map(|j| ((i * 7 + j * 13) as f64 * 0.7).sin() * 2.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = (0..60).map(|i| 3.0 + (i as f64 * 0.2).cos()).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = GaussianProcessRegressor::new();
        m.fit(&x, &y).unwrap();
        let test_rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                (0..10)
                    .map(|j| ((i * 11 + j * 5) as f64 * 0.9).cos() * 2.0)
                    .collect()
            })
            .collect();
        let pred = m.predict(&Matrix::from_rows(&test_rows)).unwrap();
        let mean_abs_pred = pred.iter().map(|p| p.abs()).sum::<f64>() / pred.len() as f64;
        assert!(
            mean_abs_pred < 1.0,
            "high-dim GPR should collapse toward prior, got {mean_abs_pred}"
        );
    }

    #[test]
    fn longer_length_scale_generalizes_smooth_targets() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] / 10.0).sin()).collect();
        let x = Matrix::from_rows(&rows);
        let mut m = GaussianProcessRegressor::with_length_scale(5.0);
        m.fit(&x, &y).unwrap();
        // interpolate between training points
        let mid = m.predict(&Matrix::from_rows(&[vec![10.5]])).unwrap();
        assert!((mid[0] - (10.5f64 / 10.0).sin()).abs() < 0.05);
    }

    #[test]
    fn duplicate_rows_survive_via_jitter() {
        let rows = vec![vec![1.0], vec![1.0], vec![2.0]];
        let y = vec![3.0, 3.0, 4.0];
        let mut m = GaussianProcessRegressor::new();
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        let pred = m.predict(&Matrix::from_rows(&rows)).unwrap();
        assert!((pred[0] - 3.0).abs() < 0.1);
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            GaussianProcessRegressor::new()
                .predict(&Matrix::zeros(1, 1))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
