//! Hecate's machine-learning substrate: the paper's eighteen scikit-learn
//! regressors, re-implemented from scratch in Rust.
//!
//! Section V of the paper evaluates eighteen regressors (R1–R18) on the UQ
//! wireless bandwidth dataset: each model sees a sliding window of the last
//! 10 bandwidth samples and predicts the next one; features are
//! standardized with `StandardScaler`, the split is a sequential 75/25, and
//! the metric is RMSE per path. The best model (Random Forest) is then
//! wired into the routing framework to forecast per-path QoS.
//!
//! This crate reproduces that entire pipeline:
//!
//! * [`data`] — lag-window supervision and the sequential split;
//! * [`scale`] — `StandardScaler` with `fit`/`transform`/`inverse_transform`;
//! * [`metrics`] — RMSE / MAE / R²;
//! * [`model`] — the [`Regressor`] trait and the [`RegressorKind`] registry
//!   naming models exactly as the paper does (R1:AdaBoostR … R18:TheilSenR);
//! * one module per model family, each documenting the scikit-learn
//!   defaults it mirrors;
//! * [`pipeline`] — the end-to-end evaluation protocol of Sec. V-B and the
//!   recursive multi-step forecaster Hecate uses ("predicted values for the
//!   next 10 steps").
//!
//! Ensemble fits run on scoped threads ([`linalg::par`]); a fitted model is
//! `Send + Sync` so the framework can score paths concurrently.

pub mod bayes;
pub mod boost;
pub mod coordinate;
pub mod data;
pub mod ensemble;
pub mod gp;
pub mod hist;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod nn;
pub mod pipeline;
pub mod robust;
pub mod scale;
pub mod select;
pub mod sgd;
pub mod svr;
pub mod tree;

pub use model::{Regressor, RegressorKind};
pub use pipeline::{evaluate_all, evaluate_regressor, EvalReport, PipelineConfig};
pub use scale::StandardScaler;

/// Errors surfaced by model fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// X/y shapes disagree, or the dataset is empty/too small.
    BadShape(String),
    /// The model was asked to predict before `fit` succeeded.
    NotFitted,
    /// The underlying linear algebra failed (singular system etc.).
    Numeric(String),
    /// Hyperparameters are invalid (e.g. negative regularization).
    BadHyperparameter(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::BadShape(m) => write!(f, "bad data shape: {m}"),
            MlError::NotFitted => write!(f, "model is not fitted"),
            MlError::Numeric(m) => write!(f, "numeric failure: {m}"),
            MlError::BadHyperparameter(m) => write!(f, "bad hyperparameter: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<linalg::LinalgError> for MlError {
    fn from(e: linalg::LinalgError) -> Self {
        MlError::Numeric(e.to_string())
    }
}

pub(crate) fn check_xy(x: &linalg::Matrix, y: &[f64]) -> Result<(), MlError> {
    if x.rows() != y.len() {
        return Err(MlError::BadShape(format!(
            "X has {} rows but y has {} entries",
            x.rows(),
            y.len()
        )));
    }
    if x.rows() == 0 || x.cols() == 0 {
        return Err(MlError::BadShape("empty design matrix".into()));
    }
    Ok(())
}

/// Rejects NaN/±∞ before a model sorts or sums `values`: one bad
/// telemetry sample must fail the fit, not abort the process.
pub(crate) fn check_finite(what: &str, values: &[f64]) -> Result<(), MlError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(MlError::Numeric(format!("{what} has a non-finite value")))
    }
}
