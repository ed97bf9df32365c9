//! L1-regularized linear models by coordinate descent: Elastic Net (R5),
//! and Lasso (R10), which is Elastic Net at `l1_ratio = 1`.
//!
//! scikit-learn defaults mirrored: `alpha = 1.0`, `l1_ratio = 0.5` (for
//! ElasticNet; `RegressorKind::Lasso` builds `with_params(1.0, 1.0)`),
//! `max_iter = 1000`, `tol = 1e-4`, intercept by centering.
//! With `alpha = 1.0` on standardized lag features both models shrink
//! aggressively — which is precisely why they sit far from the origin in
//! the paper's Fig 6 RMSE scatter.
//!
//! The objective, as in scikit-learn:
//! `1/(2n) ||y - Xw||² + alpha * l1_ratio * ||w||₁
//!  + 0.5 * alpha * (1 - l1_ratio) * ||w||²`.

use crate::linear::{center_xy, predict_linear};
use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::Matrix;

/// Coordinate descent on the elastic-net objective.
fn coordinate_descent(
    x: &Matrix,
    y: &[f64],
    alpha: f64,
    l1_ratio: f64,
    max_iter: usize,
    tol: f64,
) -> Vec<f64> {
    let n = x.rows();
    let p = x.cols();
    let nf = n as f64;
    // scikit-learn internally scales: l1_reg = alpha * l1_ratio * n, etc.,
    // on the unnormalized quadratic; equivalently work per-sample here.
    let l1 = alpha * l1_ratio;
    let l2 = alpha * (1.0 - l1_ratio);
    let mut w = vec![0.0; p];
    // residual r = y - Xw (starts at y since w = 0)
    let mut r: Vec<f64> = y.to_vec();
    // per-feature squared norms / n
    let col_sq: Vec<f64> = (0..p)
        .map(|j| (0..n).map(|i| x[(i, j)] * x[(i, j)]).sum::<f64>() / nf)
        .collect();
    for _ in 0..max_iter {
        let mut max_update: f64 = 0.0;
        for j in 0..p {
            if col_sq[j] == 0.0 {
                continue;
            }
            let w_old = w[j];
            // rho = (1/n) x_j^T (r + x_j w_j)
            let mut rho = 0.0;
            for i in 0..n {
                rho += x[(i, j)] * r[i];
            }
            rho = rho / nf + col_sq[j] * w_old;
            // soft threshold
            let w_new = soft_threshold(rho, l1) / (col_sq[j] + l2);
            if w_new != w_old {
                let delta = w_new - w_old;
                for i in 0..n {
                    r[i] -= delta * x[(i, j)];
                }
                w[j] = w_new;
                max_update = max_update.max(delta.abs());
            }
        }
        if max_update < tol {
            break;
        }
    }
    w
}

fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// R5: Elastic Net (and R10: Lasso, at `l1_ratio = 1`).
#[derive(Debug, Clone)]
pub struct ElasticNet {
    /// Overall penalty strength (scikit-learn default 1.0).
    pub alpha: f64,
    /// Mix between L1 (1.0) and L2 (0.0); scikit-learn default 0.5.
    pub l1_ratio: f64,
    /// Maximum coordinate-descent sweeps.
    pub max_iter: usize,
    /// Convergence tolerance.
    pub tol: f64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for ElasticNet {
    fn default() -> Self {
        ElasticNet {
            alpha: 1.0,
            l1_ratio: 0.5,
            max_iter: 1000,
            tol: 1e-4,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl ElasticNet {
    /// Elastic net with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Elastic net with custom penalties.
    pub fn with_params(alpha: f64, l1_ratio: f64) -> Self {
        ElasticNet {
            alpha,
            l1_ratio,
            ..Self::default()
        }
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }
}

impl Regressor for ElasticNet {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        if !(0.0..).contains(&self.alpha) || !(0.0..=1.0).contains(&self.l1_ratio) {
            return Err(MlError::BadHyperparameter(
                "alpha >= 0 and 0 <= l1_ratio <= 1 required".into(),
            ));
        }
        let (xc, yc, x_means, y_mean) = center_xy(x, y);
        let coef = coordinate_descent(&xc, &yc, self.alpha, self.l1_ratio, self.max_iter, self.tol);
        self.intercept = y_mean - linalg::matrix::dot(&x_means, &coef);
        self.coef = Some(coef);
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

    fn strong_signal() -> (Matrix, Vec<f64>) {
        // y = 10*x0, x1 is noise; n=40
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64 / 4.0;
                vec![t.sin() * 3.0, (t * 7.3).cos() * 0.1]
            })
            .collect();
        let y = rows.iter().map(|r| 10.0 * r[0]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn lasso_small_alpha_fits_signal() {
        let (x, y) = strong_signal();
        let mut m = ElasticNet::with_params(0.01, 1.0);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.5);
    }

    #[test]
    fn lasso_selects_sparse_support() {
        let (x, y) = strong_signal();
        let mut m = ElasticNet::with_params(0.5, 1.0);
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        assert!(c[0].abs() > 1.0, "signal coefficient survives");
        assert_eq!(c[1], 0.0, "noise coefficient is exactly zero");
    }

    #[test]
    fn lasso_huge_alpha_predicts_mean() {
        let (x, y) = strong_signal();
        let mut m = ElasticNet::with_params(1e6, 1.0);
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        assert!(c.iter().all(|v| *v == 0.0));
        let pred = m.predict(&x).unwrap();
        let mean = linalg::stats::mean(&y);
        assert!(pred.iter().all(|p| (p - mean).abs() < 1e-9));
    }

    #[test]
    fn elastic_net_between_ridge_and_lasso() {
        let (x, y) = strong_signal();
        let mut en = ElasticNet::with_params(0.1, 0.5);
        en.fit(&x, &y).unwrap();
        let pred = en.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 2.0);
    }

    #[test]
    fn elastic_net_l1_ratio_one_matches_lasso() {
        // The Lasso kind is the elastic net at `l1_ratio = 1`: pure L1,
        // so the signal survives and the noise coefficient is exactly 0.
        let (x, y) = strong_signal();
        let mut la = crate::RegressorKind::Lasso.build(0);
        let mut en = ElasticNet::with_params(1.0, 1.0);
        la.fit(&x, &y).unwrap();
        en.fit(&x, &y).unwrap();
        assert_eq!(la.predict(&x).unwrap(), en.predict(&x).unwrap());
        let c = en.coefficients().unwrap();
        assert!(c[0].abs() > 1.0 && c[1] == 0.0, "{c:?}");
    }

    #[test]
    fn bad_hyperparameters_rejected() {
        let (x, y) = strong_signal();
        assert!(ElasticNet::with_params(-0.1, 1.0).fit(&x, &y).is_err());
        assert!(ElasticNet::with_params(1.0, 1.5).fit(&x, &y).is_err());
    }

    #[test]
    fn nan_alpha_is_rejected() {
        // `alpha < 0.0` is false for NaN, and a NaN penalty fit
        // "successfully" and predicted NaN.
        let (x, y) = strong_signal();
        let models: [Box<dyn Regressor>; 3] = [
            Box::new(ElasticNet::with_params(f64::NAN, 0.5)),
            Box::new(ElasticNet::with_params(f64::NAN, 1.0)),
            Box::new(crate::linear::Ridge::with_alpha(f64::NAN)),
        ];
        for mut m in models {
            let got = m.fit(&x, &y);
            assert!(matches!(got, Err(MlError::BadHyperparameter(_))), "{got:?}");
        }
    }

    #[test]
    fn unfitted_predict_errors() {
        assert_eq!(
            ElasticNet::new().predict(&Matrix::zeros(1, 1)).unwrap_err(),
            MlError::NotFitted
        );
    }
}
