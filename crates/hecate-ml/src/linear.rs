//! Ordinary least squares (R11:LR) and Ridge (R14:Ridge).
//!
//! scikit-learn defaults mirrored here: `LinearRegression(fit_intercept=
//! True)` solved by least squares; `Ridge(alpha=1.0, fit_intercept=True)`
//! solved on centered data via the regularized normal equations
//! (Cholesky), matching `solver="cholesky"`.

use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::{lstsq, Matrix};

/// Centers columns of `x` and values of `y`; returns
/// `(x_centered, y_centered, x_means, y_mean)`. Linear models fit the
/// intercept by centering, like scikit-learn's `_preprocess_data`.
pub(crate) fn center_xy(x: &Matrix, y: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>, f64) {
    let n = x.rows() as f64;
    let mut x_means = vec![0.0; x.cols()];
    for i in 0..x.rows() {
        for (j, &v) in x.row(i).iter().enumerate() {
            x_means[j] += v;
        }
    }
    for m in &mut x_means {
        *m /= n;
    }
    let y_mean = y.iter().sum::<f64>() / n;
    let mut xc = x.clone();
    for i in 0..xc.rows() {
        for (j, v) in xc.row_mut(i).iter_mut().enumerate() {
            *v -= x_means[j];
        }
    }
    let yc = y.iter().map(|v| v - y_mean).collect();
    (xc, yc, x_means, y_mean)
}

/// Shared linear predictor: `y = X w + b`.
pub(crate) fn predict_linear(x: &Matrix, coef: &[f64], intercept: f64) -> Vec<f64> {
    (0..x.rows())
        .map(|i| linalg::matrix::dot(x.row(i), coef) + intercept)
        .collect()
}

/// R11: ordinary least squares.
#[derive(Debug, Clone, Default)]
pub struct LinearRegression {
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl LinearRegression {
    /// A new unfitted model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients (one per feature).
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        if x.rows() < x.cols() {
            return Err(MlError::BadShape(format!(
                "OLS needs rows >= cols, got {}x{}",
                x.rows(),
                x.cols()
            )));
        }
        let (xc, yc, x_means, y_mean) = center_xy(x, y);
        let coef = lstsq(&xc, &yc).map_err(MlError::from)?;
        self.intercept = y_mean - linalg::matrix::dot(&x_means, &coef);
        self.coef = Some(coef);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let coef = self.coef.as_ref().ok_or(MlError::NotFitted)?;
        Ok(predict_linear(x, coef, self.intercept))
    }
}

/// R14: Ridge regression (`alpha = 1.0` by default).
#[derive(Debug, Clone)]
pub struct Ridge {
    /// L2 penalty strength.
    pub alpha: f64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for Ridge {
    fn default() -> Self {
        Ridge {
            alpha: 1.0,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl Ridge {
    /// Ridge with the scikit-learn default `alpha = 1.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ridge with a custom penalty.
    pub fn with_alpha(alpha: f64) -> Self {
        Ridge {
            alpha,
            ..Self::default()
        }
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

impl Regressor for Ridge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        if !(0.0..).contains(&self.alpha) {
            return Err(MlError::BadHyperparameter("alpha must be >= 0".into()));
        }
        let (xc, yc, x_means, y_mean) = center_xy(x, y);
        // (X^T X + alpha I) w = X^T y
        let mut gram = xc.gram();
        for j in 0..gram.cols() {
            gram[(j, j)] += self.alpha;
        }
        let rhs = xc.t_matvec(&yc).map_err(MlError::from)?;
        let coef = gram
            .solve_spd(&rhs)
            .or_else(|_| gram.solve(&rhs))
            .map_err(MlError::from)?;
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

    fn line_data() -> (Matrix, Vec<f64>) {
        // y = 3x1 - 2x2 + 5
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i as f64 * 0.5).sin()])
            .collect();
        let y = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn ols_recovers_exact_line() {
        let (x, y) = line_data();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        assert!((c[0] - 3.0).abs() < 1e-8);
        assert!((c[1] + 2.0).abs() < 1e-8);
        assert!((m.intercept() - 5.0).abs() < 1e-8);
        let pred = m.predict(&x).unwrap();
        assert!(crate::metrics::rmse(&y, &pred) < 1e-8);
    }

    #[test]
    fn ols_unfitted_errors() {
        let m = LinearRegression::new();
        assert_eq!(
            m.predict(&Matrix::zeros(1, 2)).unwrap_err(),
            MlError::NotFitted
        );
    }

    #[test]
    fn ols_rejects_underdetermined() {
        let x = Matrix::zeros(2, 5);
        let mut m = LinearRegression::new();
        assert!(m.fit(&x, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let (x, y) = line_data();
        let mut weak = Ridge::with_alpha(1e-9);
        let mut strong = Ridge::with_alpha(1e6);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let wc = weak.coefficients().unwrap();
        let sc = strong.coefficients().unwrap();
        assert!((wc[0] - 3.0).abs() < 1e-4);
        assert!(sc[0].abs() < 0.1, "strong penalty shrinks coef: {sc:?}");
    }

    #[test]
    fn ridge_with_zero_alpha_matches_ols() {
        let (x, y) = line_data();
        let mut ols = LinearRegression::new();
        let mut ridge = Ridge::with_alpha(0.0);
        ols.fit(&x, &y).unwrap();
        ridge.fit(&x, &y).unwrap();
        let po = ols.predict(&x).unwrap();
        let pr = ridge.predict(&x).unwrap();
        assert!(crate::metrics::rmse(&po, &pr) < 1e-6);
    }

    #[test]
    fn ridge_negative_alpha_rejected() {
        let (x, y) = line_data();
        let mut r = Ridge::with_alpha(-1.0);
        assert!(matches!(r.fit(&x, &y), Err(MlError::BadHyperparameter(_))));
    }

    #[test]
    fn ridge_handles_collinear_features() {
        // Duplicate columns are singular for OLS but fine for Ridge.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let mut r = Ridge::new();
        r.fit(&Matrix::from_rows(&rows), &y).unwrap();
        let pred = r.predict(&Matrix::from_rows(&rows)).unwrap();
        assert!(crate::metrics::rmse(&y, &pred) < 0.5);
    }
}
