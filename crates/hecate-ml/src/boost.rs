//! Boosting ensembles: AdaBoost.R2 (R1) and Gradient Boosting (R6).
//!
//! scikit-learn defaults mirrored:
//!
//! * `AdaBoostRegressor(n_estimators=50, learning_rate=1.0, loss="linear")`
//!   over depth-3 CART trees (Drucker's AdaBoost.R2: weighted resampling,
//!   per-estimator confidence `log(1/beta)`, weighted-median combination);
//! * `GradientBoostingRegressor(n_estimators=100, learning_rate=0.1,
//!   max_depth=3, loss="squared_error")` — stage-wise fitting of residuals.

use crate::model::Regressor;
use crate::tree::{Forest, Presort, TreeBuilder};
use crate::MlError;
use linalg::stats::weighted_median;
use linalg::Matrix;

/// R1: AdaBoost.R2 over depth-3 trees.
#[derive(Debug, Clone)]
pub struct AdaBoostRegressor {
    /// Maximum number of boosting rounds (sklearn default 50).
    pub n_estimators: usize,
    /// Shrinkage on the estimator weight exponent (sklearn default 1.0).
    pub learning_rate: f64,
    /// Depth of the weak learner (sklearn default 3).
    pub max_depth: usize,
    estimators: Forest,
    log_betas: Vec<f64>,
}

impl Default for AdaBoostRegressor {
    fn default() -> Self {
        AdaBoostRegressor {
            n_estimators: 50,
            learning_rate: 1.0,
            max_depth: 3,
            estimators: Forest::default(),
            log_betas: Vec::new(),
        }
    }
}

impl AdaBoostRegressor {
    /// AdaBoost.R2 with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of boosting rounds actually performed (early exit happens
    /// when a round's weighted loss reaches 0 or 0.5).
    pub fn rounds(&self) -> usize {
        self.estimators.len()
    }
}

impl Regressor for AdaBoostRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        // Every round reweighs the same rows: validate and rank X once.
        let pre = Presort::new(x, y)?;
        let n = x.rows();
        let mut w = vec![1.0 / n as f64; n];
        self.estimators = Forest::default();
        self.log_betas.clear();
        let (mut builder, rows) = (TreeBuilder::new(&pre), pre.all_rows());
        let max_depth = Some(self.max_depth);
        // Every round that goes on keeps its tree, so round `k` fits
        // tree `k`.
        for round in 0..self.n_estimators {
            builder.fit(max_depth, &rows, y, Some(&w), &mut self.estimators);
            let pred = self.estimators.predict_tree(round, x);
            // linear loss normalized by the max absolute error
            let abs_err: Vec<f64> = y.iter().zip(&pred).map(|(a, b)| (a - b).abs()).collect();
            let max_err = abs_err.iter().cloned().fold(0.0, f64::max);
            if max_err <= f64::EPSILON {
                // perfect fit: give it full confidence and stop
                self.log_betas.push((1.0f64 / 1e-10).ln());
                break;
            }
            let loss: Vec<f64> = abs_err.iter().map(|e| e / max_err).collect();
            let avg_loss: f64 = w.iter().zip(&loss).map(|(wi, li)| wi * li).sum();
            if avg_loss >= 0.5 {
                // weak learner no better than chance: stop (keep at least one)
                if round == 0 {
                    self.log_betas.push(1e-10f64.max(1.0 - avg_loss));
                } else {
                    self.estimators.pop();
                }
                break;
            }
            let beta = avg_loss / (1.0 - avg_loss);
            // weight update: w_i *= beta^{(1 - loss_i) * lr}
            for (wi, li) in w.iter_mut().zip(&loss) {
                *wi *= beta.powf((1.0 - li) * self.learning_rate);
            }
            let sum: f64 = w.iter().sum();
            if sum <= 0.0 || !sum.is_finite() {
                return Err(MlError::Numeric("AdaBoost weights degenerated".into()));
            }
            for wi in &mut w {
                *wi /= sum;
            }
            self.log_betas.push((1.0 / beta).ln() * self.learning_rate);
        }
        if self.log_betas.is_empty() {
            return Err(MlError::Numeric("AdaBoost fitted no estimators".into()));
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.estimators.check_cols(x.cols())?;
        // weighted median across estimators, per sample
        let rounds = self.estimators.len();
        let mut vals = Vec::with_capacity(rounds);
        Ok((0..x.rows())
            .map(|i| {
                vals.clear();
                self.estimators
                    .leaves(0..rounds, x.row(i), |leaf| vals.push(leaf));
                weighted_median(&vals, &self.log_betas)
            })
            .collect())
    }
}

/// R6: gradient boosting with squared-error loss.
#[derive(Debug, Clone)]
pub struct GradientBoostingRegressor {
    /// Number of boosting stages (sklearn default 100).
    pub n_estimators: usize,
    /// Shrinkage (sklearn default 0.1).
    pub learning_rate: f64,
    /// Depth of each stage's tree (sklearn default 3).
    pub max_depth: usize,
    init: f64,
    stages: Forest,
}

impl Default for GradientBoostingRegressor {
    fn default() -> Self {
        GradientBoostingRegressor {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 3,
            init: 0.0,
            stages: Forest::default(),
        }
    }
}

impl GradientBoostingRegressor {
    /// GBR with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// The initial guess plus every stage's shrunken update, in stage
    /// order.
    fn boosted(&self, row: &[f64]) -> f64 {
        let mut out = self.init;
        self.stages.leaves(0..self.stages.len(), row, |leaf| {
            out += self.learning_rate * leaf;
        });
        out
    }

    /// GBR with a custom stage count.
    #[cfg(test)]
    fn with_stages(n_estimators: usize) -> Self {
        GradientBoostingRegressor {
            n_estimators,
            ..Self::default()
        }
    }
}

impl Regressor for GradientBoostingRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if self.n_estimators == 0 {
            return Err(MlError::BadHyperparameter(
                "n_estimators must be > 0".into(),
            ));
        }
        // Every stage fits new residuals on the same rows: validate and
        // rank X once.
        let pre = Presort::new(x, y)?;
        self.init = linalg::stats::mean(y);
        self.stages = Forest::default();
        let mut current: Vec<f64> = vec![self.init; y.len()];
        let (mut builder, rows) = (TreeBuilder::new(&pre), pre.all_rows());
        let max_depth = Some(self.max_depth);
        for stage in 0..self.n_estimators {
            let residual: Vec<f64> = y.iter().zip(&current).map(|(a, b)| a - b).collect();
            builder.fit(max_depth, &rows, &residual, None, &mut self.stages);
            let update = self.stages.predict_tree(stage, x);
            for (c, u) in current.iter_mut().zip(&update) {
                *c += self.learning_rate * u;
            }
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.stages.check_cols(x.cols())?;
        Ok((0..x.rows()).map(|i| self.boosted(x.row(i))).collect())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64, MlError> {
        self.stages.check_cols(row.len())?;
        Ok(self.boosted(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use crate::tree::DecisionTreeRegressor;

    fn smooth_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / 8.0;
                vec![t.sin(), (0.5 * t).cos()]
            })
            .collect();
        let y = rows.iter().map(|r| 5.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn gbr_reduces_error_with_stages() {
        let (x, y) = smooth_data(120);
        let mut few = GradientBoostingRegressor::with_stages(5);
        let mut many = GradientBoostingRegressor::with_stages(100);
        few.fit(&x, &y).unwrap();
        many.fit(&x, &y).unwrap();
        let e_few = rmse(&y, &few.predict(&x).unwrap());
        let e_many = rmse(&y, &many.predict(&x).unwrap());
        assert!(e_many < e_few, "100 stages {e_many} < 5 stages {e_few}");
        assert!(e_many < 0.2);
    }

    #[test]
    fn gbr_first_guess_is_mean() {
        let (x, y) = smooth_data(40);
        let mut g = GradientBoostingRegressor::with_stages(1);
        g.fit(&x, &y).unwrap();
        assert!((g.init - linalg::stats::mean(&y)).abs() < 1e-12);
    }

    #[test]
    fn adaboost_fits_smooth_target() {
        let (x, y) = smooth_data(120);
        let mut a = AdaBoostRegressor::new();
        a.fit(&x, &y).unwrap();
        let pred = a.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.6, "rmse = {}", rmse(&y, &pred));
        assert!(a.rounds() >= 1);
    }

    #[test]
    fn adaboost_perfect_fit_short_circuits() {
        // A step function is perfectly fit by one depth-3 tree, so
        // boosting stops after round one.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let mut a = AdaBoostRegressor::new();
        a.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(a.rounds(), 1);
    }

    #[test]
    fn adaboost_downweights_outliers_vs_single_tree() {
        // AdaBoost's weighted-median combination is robust-ish; verify the
        // ensemble at least matches its own weak learner on clean data.
        let (x, y) = smooth_data(80);
        let mut ada = AdaBoostRegressor::new();
        ada.fit(&x, &y).unwrap();
        let mut stump = DecisionTreeRegressor::with_max_depth(3);
        stump.fit(&x, &y).unwrap();
        let e_ada = rmse(&y, &ada.predict(&x).unwrap());
        let e_stump = rmse(&y, &stump.predict(&x).unwrap());
        assert!(e_ada <= e_stump + 1e-9);
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            AdaBoostRegressor::new()
                .predict(&Matrix::zeros(1, 2))
                .unwrap_err(),
            MlError::NotFitted
        );
        assert_eq!(
            GradientBoostingRegressor::new()
                .predict(&Matrix::zeros(1, 2))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
