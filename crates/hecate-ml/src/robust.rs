//! Robust linear regressors: Huber (R9), RANSAC (R12), Theil-Sen (R18).
//!
//! scikit-learn defaults mirrored:
//!
//! * `HuberRegressor(epsilon=1.35, alpha=1e-4)` — here solved by
//!   iteratively reweighted least squares with a MAD scale estimate
//!   (scikit-learn uses L-BFGS on the concomitant-scale objective; IRLS
//!   converges to the same M-estimate on well-behaved data);
//! * `RANSACRegressor(min_samples=n_features+1, residual_threshold=MAD(y),
//!   max_trials=100)` with an OLS base estimator;
//! * `TheilSenRegressor(max_subpopulation=1e4)` — least squares on random
//!   subsets of size `n_features + 1`, combined by the spatial median
//!   (Weiszfeld's algorithm).

use crate::linear::{predict_linear, LinearRegression};
use crate::model::Regressor;
use crate::{check_xy, MlError};
use linalg::stats::{mad, median};
use linalg::{lstsq, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// R9: Huber regression via IRLS.
#[derive(Debug, Clone)]
pub struct HuberRegressor {
    /// Outlier threshold in scaled-residual units (sklearn default 1.35).
    pub epsilon: f64,
    /// L2 regularization (sklearn default 1e-4).
    pub alpha: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on coefficient change.
    pub tol: f64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for HuberRegressor {
    fn default() -> Self {
        HuberRegressor {
            epsilon: 1.35,
            alpha: 1e-4,
            max_iter: 100,
            tol: 1e-6,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl HuberRegressor {
    /// Huber regressor with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }
}

impl Regressor for HuberRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let p = x.cols();
        // Design with explicit intercept column (unpenalized would be
        // ideal; the tiny alpha makes the difference negligible).
        let mut xd = Matrix::zeros(n, p + 1);
        for i in 0..n {
            xd.row_mut(i)[..p].copy_from_slice(x.row(i));
            xd.row_mut(i)[p] = 1.0;
        }
        let mut w = vec![0.0; p + 1];
        for _ in 0..self.max_iter {
            // residuals under current fit
            let pred = xd.matvec(&w).map_err(MlError::from)?;
            let resid: Vec<f64> = y.iter().zip(&pred).map(|(yi, pi)| yi - pi).collect();
            // robust scale: MAD * 1.4826 (consistent for the normal).
            // Identical residuals make the MAD collapse to zero — there
            // are then no outliers to downweight, so everyone is an
            // inlier (weight 1) rather than everyone being "infinitely
            // far" from a zero-width scale.
            let mad_scale = mad(&resid) * 1.4826;
            let weights: Vec<f64> = if mad_scale < 1e-12 {
                vec![1.0; resid.len()]
            } else {
                resid
                    .iter()
                    .map(|r| {
                        let z = r.abs() / mad_scale;
                        if z <= self.epsilon {
                            1.0
                        } else {
                            self.epsilon / z
                        }
                    })
                    .collect()
            };
            // Weighted ridge normal equations.
            let mut gram = Matrix::zeros(p + 1, p + 1);
            let mut rhs = vec![0.0; p + 1];
            for i in 0..n {
                let wi = weights[i];
                let row = xd.row(i);
                for a in 0..p + 1 {
                    rhs[a] += wi * row[a] * y[i];
                    for b in a..p + 1 {
                        gram[(a, b)] += wi * row[a] * row[b];
                    }
                }
            }
            for a in 0..p + 1 {
                for b in 0..a {
                    gram[(a, b)] = gram[(b, a)];
                }
                gram[(a, a)] += self.alpha;
            }
            let w_new = gram
                .solve_spd(&rhs)
                .or_else(|_| gram.solve(&rhs))
                .map_err(MlError::from)?;
            let delta: f64 = w
                .iter()
                .zip(&w_new)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            w = w_new;
            if delta < self.tol {
                break;
            }
        }
        self.intercept = w[p];
        w.truncate(p);
        self.coef = Some(w);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let coef = self.coef.as_ref().ok_or(MlError::NotFitted)?;
        Ok(predict_linear(x, coef, self.intercept))
    }
}

/// R12: RANSAC with an OLS base estimator.
#[derive(Debug, Clone)]
pub struct RansacRegressor {
    /// Minimal sample size per trial; `None` = `n_features + 1` (sklearn).
    pub min_samples: Option<usize>,
    /// Inlier residual threshold; `None` = `MAD(y)` (sklearn default).
    pub residual_threshold: Option<f64>,
    /// Number of random trials (sklearn default 100).
    pub max_trials: usize,
    /// RNG seed.
    pub seed: u64,
    inner: Option<LinearRegression>,
}

impl Default for RansacRegressor {
    fn default() -> Self {
        RansacRegressor {
            min_samples: None,
            residual_threshold: None,
            max_trials: 100,
            seed: 0,
            inner: None,
        }
    }
}

impl RansacRegressor {
    /// RANSAC with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// RANSAC with a fixed seed.
    pub fn with_seed(seed: u64) -> Self {
        RansacRegressor {
            seed,
            ..Self::default()
        }
    }
}

impl Regressor for RansacRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let p = x.cols();
        let min_samples = self.min_samples.unwrap_or(p + 1).max(p + 1);
        if n < min_samples {
            return Err(MlError::BadShape(format!(
                "RANSAC needs at least {min_samples} samples, got {n}"
            )));
        }
        let threshold = self.residual_threshold.unwrap_or_else(|| mad(y)).max(1e-12);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best_inliers: Vec<usize> = Vec::new();
        for _ in 0..self.max_trials {
            // sample min_samples distinct indices
            let mut idx: Vec<usize> = Vec::with_capacity(min_samples);
            while idx.len() < min_samples {
                let c = rng.gen_range(0..n);
                if !idx.contains(&c) {
                    idx.push(c);
                }
            }
            let xs = x.select_rows(&idx);
            let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
            let mut base = LinearRegression::new();
            if base.fit(&xs, &ys).is_err() {
                continue; // degenerate sample
            }
            let pred = base.predict(x)?;
            let inliers: Vec<usize> = (0..n)
                .filter(|&i| (y[i] - pred[i]).abs() <= threshold)
                .collect();
            if inliers.len() > best_inliers.len() {
                best_inliers = inliers;
                if best_inliers.len() == n {
                    break;
                }
            }
        }
        if best_inliers.len() < min_samples {
            // fall back to all data (sklearn raises; we degrade gracefully
            // because the routing loop must keep producing forecasts)
            best_inliers = (0..n).collect();
        }
        let xi = x.select_rows(&best_inliers);
        let yi: Vec<f64> = best_inliers.iter().map(|&i| y[i]).collect();
        let mut final_model = LinearRegression::new();
        final_model.fit(&xi, &yi)?;
        self.inner = Some(final_model);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.inner.as_ref().ok_or(MlError::NotFitted)?.predict(x)
    }
}

/// R18: Theil-Sen estimator.
#[derive(Debug, Clone)]
pub struct TheilSenRegressor {
    /// Number of random subsets (sklearn caps at max_subpopulation=1e4;
    /// 300 is plenty for lag-window dimensionality).
    pub n_subsets: usize,
    /// RNG seed.
    pub seed: u64,
    coef: Option<Vec<f64>>,
    intercept: f64,
}

impl Default for TheilSenRegressor {
    fn default() -> Self {
        TheilSenRegressor {
            n_subsets: 300,
            seed: 0,
            coef: None,
            intercept: 0.0,
        }
    }
}

impl TheilSenRegressor {
    /// Theil-Sen with default subset count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Theil-Sen with a fixed seed.
    pub fn with_seed(seed: u64) -> Self {
        TheilSenRegressor {
            seed,
            ..Self::default()
        }
    }

    /// Fitted coefficients.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coef.as_deref()
    }
}

/// Weiszfeld's algorithm for the spatial median (geometric median) of a
/// set of points.
fn spatial_median(points: &[Vec<f64>], max_iter: usize, tol: f64) -> Vec<f64> {
    let dim = points[0].len();
    // start at the coordinate-wise median
    let mut current: Vec<f64> = (0..dim)
        .map(|j| median(&points.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect();
    for _ in 0..max_iter {
        let mut num = vec![0.0; dim];
        let mut denom = 0.0;
        let mut coincident = false;
        for p in points {
            let dist: f64 = p
                .iter()
                .zip(&current)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if dist < 1e-12 {
                coincident = true;
                continue;
            }
            let w = 1.0 / dist;
            for (nj, pj) in num.iter_mut().zip(p) {
                *nj += w * pj;
            }
            denom += w;
        }
        if denom == 0.0 || coincident && denom < 1e-12 {
            break;
        }
        let next: Vec<f64> = num.iter().map(|v| v / denom).collect();
        let shift: f64 = next
            .iter()
            .zip(&current)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        current = next;
        if shift < tol {
            break;
        }
    }
    current
}

impl Regressor for TheilSenRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let p = x.cols();
        let subset = p + 2; // p+1 unknowns (with intercept) + 1 for stability
        if n < subset {
            return Err(MlError::BadShape(format!(
                "TheilSen needs at least {subset} samples, got {n}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(self.n_subsets);
        for _ in 0..self.n_subsets {
            let mut idx: Vec<usize> = Vec::with_capacity(subset);
            while idx.len() < subset {
                let c = rng.gen_range(0..n);
                if !idx.contains(&c) {
                    idx.push(c);
                }
            }
            // design with intercept column
            let mut xs = Matrix::zeros(subset, p + 1);
            let mut ys = Vec::with_capacity(subset);
            for (k, &i) in idx.iter().enumerate() {
                xs.row_mut(k)[..p].copy_from_slice(x.row(i));
                xs.row_mut(k)[p] = 1.0;
                ys.push(y[i]);
            }
            if let Ok(sol) = lstsq(&xs, &ys) {
                if sol.iter().all(|v| v.is_finite()) {
                    solutions.push(sol);
                }
            }
        }
        if solutions.is_empty() {
            return Err(MlError::Numeric(
                "TheilSen: all random subsets were degenerate".into(),
            ));
        }
        let med = spatial_median(&solutions, 200, 1e-9);
        self.intercept = med[p];
        self.coef = Some(med[..p].to_vec());
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

    /// Clean line with a block of gross outliers.
    fn outlier_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 5.0]).collect();
        let mut y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        // 10% wild outliers
        for i in [3usize, 17, 29, 41, 47] {
            y[i] += 80.0;
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn huber_resists_outliers() {
        let (x, y) = outlier_data();
        let mut huber = HuberRegressor::new();
        huber.fit(&x, &y).unwrap();
        let c = huber.coefficients().unwrap();
        assert!((c[0] - 2.0).abs() < 0.2, "slope {} should be ~2", c[0]);
        // OLS, by contrast, is dragged far off.
        let mut ols = LinearRegression::new();
        ols.fit(&x, &y).unwrap();
        let slope_err_ols = (ols.coefficients().unwrap()[0] - 2.0).abs();
        assert!(slope_err_ols > (c[0] - 2.0).abs());
    }

    #[test]
    fn ransac_finds_consensus_line() {
        let (x, y) = outlier_data();
        let mut m = RansacRegressor::with_seed(3);
        m.fit(&x, &y).unwrap();
        // Outliers excluded from the consensus set: the fitted line
        // passes far from them and only them.
        let pred = m.predict(&x).unwrap();
        let far: Vec<usize> = (0..50).filter(|&i| (y[i] - pred[i]).abs() > 1.0).collect();
        assert_eq!(far, [3, 17, 29, 41, 47]);
        // Clean-point predictions are accurate.
        let clean_idx: Vec<usize> = (0..50)
            .filter(|i| ![3, 17, 29, 41, 47].contains(i))
            .collect();
        let clean_rmse = rmse(
            &clean_idx.iter().map(|&i| y[i]).collect::<Vec<_>>(),
            &clean_idx.iter().map(|&i| pred[i]).collect::<Vec<_>>(),
        );
        assert!(clean_rmse < 0.5, "clean rmse {clean_rmse}");
    }

    #[test]
    fn ransac_too_few_samples_errors() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let mut m = RansacRegressor::new();
        assert!(m.fit(&x, &[1.0]).is_err());
    }

    #[test]
    fn theilsen_resists_outliers() {
        let (x, y) = outlier_data();
        let mut m = TheilSenRegressor::with_seed(5);
        m.fit(&x, &y).unwrap();
        let c = m.coefficients().unwrap();
        assert!((c[0] - 2.0).abs() < 0.3, "slope {} should be ~2", c[0]);
    }

    #[test]
    fn theilsen_deterministic_given_seed() {
        let (x, y) = outlier_data();
        let mut a = TheilSenRegressor::with_seed(11);
        let mut b = TheilSenRegressor::with_seed(11);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
    }

    #[test]
    fn spatial_median_of_symmetric_cloud_is_center() {
        let pts = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let m = spatial_median(&pts, 100, 1e-10);
        assert!(m[0].abs() < 1e-6 && m[1].abs() < 1e-6);
    }

    #[test]
    fn all_unfitted_error() {
        let x = Matrix::zeros(1, 1);
        assert_eq!(
            HuberRegressor::new().predict(&x).unwrap_err(),
            MlError::NotFitted
        );
        assert_eq!(
            RansacRegressor::new().predict(&x).unwrap_err(),
            MlError::NotFitted
        );
        assert_eq!(
            TheilSenRegressor::new().predict(&x).unwrap_err(),
            MlError::NotFitted
        );
    }
}
