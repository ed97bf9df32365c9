//! Walk-forward model selection.
//!
//! The paper picks its production model (RFR) from a single 75/25 split.
//! A deployment would rather use **walk-forward cross-validation**: fit on
//! an expanding window, test on the next fold, roll forward — the only
//! leakage-free CV scheme for time series. This module provides that, plus
//! a `select_model` helper the framework can call periodically to re-pick
//! the best regressor as traffic characteristics drift (the "re-engineered
//! when any changes … have happened" pain point of Sec III).

use crate::data::make_supervised;
use crate::metrics::rmse;
use crate::model::RegressorKind;
use crate::scale::StandardScaler;
use crate::MlError;
use linalg::par::par_map;
use linalg::Matrix;

/// Result of walk-forward evaluation for one model.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// Which model.
    pub kind: RegressorKind,
    /// RMSE per fold (original scale).
    pub fold_rmse: Vec<f64>,
    /// Mean RMSE across folds.
    pub mean_rmse: f64,
}

/// Walk-forward CV of one model on a series.
///
/// The series is cut into `folds + 1` contiguous blocks; fold `i` trains
/// on blocks `0..=i` and tests on block `i + 1`. Scaling is refit per
/// fold from training data only.
fn walk_forward(
    kind: RegressorKind,
    series: &[f64],
    lags: usize,
    folds: usize,
    seed: u64,
) -> Result<CvReport, MlError> {
    if folds == 0 {
        return Err(MlError::BadHyperparameter("need at least one fold".into()));
    }
    let block = series.len() / (folds + 1);
    if block <= lags + 1 {
        return Err(MlError::BadShape(format!(
            "series of {} too short for {} folds with lags {}",
            series.len(),
            folds,
            lags
        )));
    }
    let mut fold_rmse = Vec::with_capacity(folds);
    for fold in 0..folds {
        let train_end = block * (fold + 1);
        let test_end = (block * (fold + 2)).min(series.len());
        let train = &series[..train_end];
        let test = &series[train_end..test_end];
        let mut scaler = StandardScaler::new();
        let col = Matrix::from_vec(train.len(), 1, train.to_vec());
        scaler.fit(&col)?;
        let train_scaled = scaler.transform_column(train, 0)?;
        let test_scaled = scaler.transform_column(test, 0)?;
        let (x, y) =
            make_supervised(&train_scaled, lags).ok_or(MlError::BadShape("train fold".into()))?;
        let (xt, yt) =
            make_supervised(&test_scaled, lags).ok_or(MlError::BadShape("test fold".into()))?;
        let mut model = kind.build(seed);
        model.fit(&x, &y)?;
        let pred = model.predict(&xt)?;
        let obs = scaler.inverse_transform_column(&yt, 0)?;
        let prd = scaler.inverse_transform_column(&pred, 0)?;
        fold_rmse.push(rmse(&obs, &prd));
    }
    let mean_rmse = fold_rmse.iter().sum::<f64>() / fold_rmse.len() as f64;
    Ok(CvReport {
        kind,
        fold_rmse,
        mean_rmse,
    })
}

/// Evaluates a panel of candidate models with walk-forward CV (in
/// parallel) and returns reports sorted best-first. Models that fail on
/// this series (e.g. too little data) are dropped.
pub fn select_model(
    candidates: &[RegressorKind],
    series: &[f64],
    lags: usize,
    folds: usize,
    seed: u64,
) -> Vec<CvReport> {
    let mut reports: Vec<CvReport> = par_map(candidates, |k| {
        walk_forward(*k, series, lags, folds, seed).ok()
    })
    .into_iter()
    .flatten()
    .collect();
    reports.sort_by(|a, b| a.mean_rmse.total_cmp(&b.mean_rmse));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 25.0 + 10.0 * (i as f64 / 15.0).sin() + (i as f64 / 4.0).cos())
            .collect()
    }

    #[test]
    fn walk_forward_produces_requested_folds() {
        let s = sine_series(300);
        let r = walk_forward(RegressorKind::Lr, &s, 10, 3, 0).unwrap();
        assert_eq!(r.fold_rmse.len(), 3);
        assert!(r.mean_rmse.is_finite() && r.mean_rmse >= 0.0);
        // predictable series: small errors
        assert!(r.mean_rmse < 2.0, "mean rmse {}", r.mean_rmse);
    }

    #[test]
    fn later_folds_never_leak_into_training() {
        // A series whose last block is shifted far outside the training
        // range. A tree cannot extrapolate, so if CV is leakage-free its
        // final-fold error must be enormous; had the fold seen its own
        // test block during training, the error would be tiny.
        let mut s = sine_series(300);
        for v in s.iter_mut().skip(225) {
            *v += 200.0;
        }
        let r = walk_forward(RegressorKind::Dtr, &s, 10, 3, 0).unwrap();
        let last = *r.fold_rmse.last().unwrap();
        let early = r.fold_rmse[0].max(r.fold_rmse[1]);
        assert!(
            last > 100.0 && last > 20.0 * early.max(1.0),
            "{:?}",
            r.fold_rmse
        );
    }

    #[test]
    fn select_model_ranks_best_first() {
        let s = sine_series(250);
        let reports = select_model(
            &[RegressorKind::Lr, RegressorKind::Dtr, RegressorKind::Lasso],
            &s,
            10,
            2,
            0,
        );
        assert_eq!(reports.len(), 3);
        assert!(reports.windows(2).all(|w| w[0].mean_rmse <= w[1].mean_rmse));
        // The smooth sine is linear-friendly; over-shrunk Lasso loses.
        assert!(reports[0].kind != RegressorKind::Lasso);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let s = sine_series(50);
        assert!(walk_forward(RegressorKind::Lr, &s, 10, 0, 0).is_err());
        assert!(walk_forward(RegressorKind::Lr, &s, 10, 8, 0).is_err());
    }

    #[test]
    fn failing_models_are_dropped_not_fatal() {
        // Series long enough for LR but the fold blocks are too short for
        // a model that needs many samples? All 3 succeed here; instead
        // check robustness with a very short series where folds fail.
        let s = sine_series(40);
        let reports = select_model(&[RegressorKind::Lr], &s, 10, 5, 0);
        assert!(reports.is_empty());
    }
}
