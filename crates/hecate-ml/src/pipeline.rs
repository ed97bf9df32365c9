//! The paper's end-to-end evaluation pipeline (Sec. V-B) and Hecate's
//! multi-step forecaster.
//!
//! Pipeline per path: sequential 75/25 split → StandardScaler fitted on
//! the training series → lag-10 windows → fit → predict the test windows →
//! inverse-transform → RMSE in the original (Mbps) scale.

use crate::data::{make_supervised, sequential_split};
use crate::ensemble::RandomForestRegressor;
use crate::metrics::{mae, r2, rmse};
use crate::model::{Regressor, RegressorKind};
use crate::scale::StandardScaler;
use crate::{check_finite, MlError};
use linalg::par::par_map;
use linalg::Matrix;

/// Configuration of the evaluation protocol.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// History window length (paper: 10).
    pub lags: usize,
    /// Training fraction of the series (paper: 0.75).
    pub train_fraction: f64,
    /// Seed handed to stochastic models.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            lags: 10,
            train_fraction: 0.75,
            seed: 42,
        }
    }
}

/// Evaluation result for one model on one series.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Which model.
    pub kind: RegressorKind,
    /// RMSE in the original scale (the paper's Fig 6 metric).
    pub rmse: f64,
    /// MAE in the original scale.
    pub mae: f64,
    /// R² on the test windows.
    pub r2: f64,
    /// Observed test targets (original scale), for Fig 7/8-style plots.
    pub observed: Vec<f64>,
    /// Predicted test targets (original scale).
    pub predicted: Vec<f64>,
    /// Wall-clock fit time.
    pub fit_time: std::time::Duration,
}

/// Runs the paper's pipeline for one regressor on one series.
pub fn evaluate_regressor(
    kind: RegressorKind,
    series: &[f64],
    config: &PipelineConfig,
) -> Result<EvalReport, MlError> {
    let mut model = kind.build(config.seed);
    let (observed, predicted, fit_time) = evaluate_model(model.as_mut(), series, config)?;
    Ok(EvalReport {
        kind,
        rmse: rmse(&observed, &predicted),
        mae: mae(&observed, &predicted),
        r2: r2(&observed, &predicted),
        observed,
        predicted,
        fit_time,
    })
}

/// The protocol itself, on any model, which it fits: returns the
/// observed and predicted test targets, both in the original scale, and
/// the fit's wall time. `config.seed` is the caller's to build with.
pub fn evaluate_model(
    model: &mut dyn Regressor,
    series: &[f64],
    config: &PipelineConfig,
) -> Result<(Vec<f64>, Vec<f64>, std::time::Duration), MlError> {
    check_finite("series", series)?;
    let (train, test) = sequential_split(series, config.train_fraction);
    if train.len() <= config.lags || test.len() <= config.lags {
        return Err(MlError::BadShape(format!(
            "series too short for lags={}: train={}, test={}",
            config.lags,
            train.len(),
            test.len()
        )));
    }
    // Scale using training statistics only (per the paper's protocol).
    let mut scaler = StandardScaler::new();
    let train_col = Matrix::from_vec(train.len(), 1, train.to_vec());
    scaler.fit(&train_col)?;
    let train_scaled = scaler.transform_column(train, 0)?;
    let test_scaled = scaler.transform_column(test, 0)?;

    let (x_train, y_train) =
        make_supervised(&train_scaled, config.lags).ok_or(MlError::BadShape("train".into()))?;
    let (x_test, y_test) =
        make_supervised(&test_scaled, config.lags).ok_or(MlError::BadShape("test".into()))?;

    // detlint: allow(wall-clock) — fit_time is a reported measurement
    // (the paper's training-time column); it never feeds a decision,
    // a forecast, or anything replayed bit-for-bit.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    model.fit(&x_train, &y_train)?;
    let fit_time = t0.elapsed();
    let pred_scaled = model.predict(&x_test)?;

    // Back to the original scale for RMSE, as the paper does.
    let observed = scaler.inverse_transform_column(&y_test, 0)?;
    let predicted = scaler.inverse_transform_column(&pred_scaled, 0)?;
    Ok((observed, predicted, fit_time))
}

/// Evaluates all eighteen regressors on a series, in parallel
/// (the Fig 6 sweep).
pub fn evaluate_all(series: &[f64], config: &PipelineConfig) -> Vec<Result<EvalReport, MlError>> {
    let kinds = RegressorKind::all();
    par_map(&kinds, |k| evaluate_regressor(*k, series, config))
}

/// A forecaster trained once and queried online: the expensive fit phase
/// of [`forecast_next`] frozen into a reusable value.
///
/// NeuRoute-style amortization: the scaler statistics, the fitted model
/// and the trailing lag window are captured at fit time, after which
/// [`TrainedForecaster::roll`] produces multi-step forecasts without
/// refitting, and [`TrainedForecaster::observe`] slides new telemetry
/// samples into the lag window (still without refitting). Callers decide
/// when drift warrants a fresh [`TrainedForecaster::fit`]; the framework
/// layer does so after a configurable number of new samples.
///
/// A forecaster made by [`TrainedForecaster::sketch`] holds its scaled
/// history instead of a model until its first roll, which fits it.
pub struct TrainedForecaster {
    kind: RegressorKind,
    scaler: StandardScaler,
    /// `None` until the deferred fit of a sketch has run.
    model: Option<Box<dyn Regressor>>,
    /// The scaled history a deferred fit trains on; empty once fitted.
    history: Vec<f64>,
    /// Scaled trailing window of the most recent `lags` samples.
    window: Vec<f64>,
    lags: usize,
    seed: u64,
    trained_on: usize,
}

impl std::fmt::Debug for TrainedForecaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedForecaster")
            .field("kind", &self.kind)
            .field("lags", &self.lags)
            .field("seed", &self.seed)
            .field("trained_on", &self.trained_on)
            .field("fitted", &self.is_fitted())
            .finish()
    }
}

/// Lag-window supervision over a scaled history, and one fit.
fn fit_model(
    kind: RegressorKind,
    scaled: &[f64],
    lags: usize,
    seed: u64,
) -> Result<Box<dyn Regressor>, MlError> {
    let (x, y) = supervised(scaled, lags)?;
    let mut model = kind.build(seed);
    model.fit(&x, &y)?;
    Ok(model)
}

fn supervised(scaled: &[f64], lags: usize) -> Result<(Matrix, Vec<f64>), MlError> {
    make_supervised(scaled, lags).ok_or(MlError::BadShape("history".into()))
}

/// The roll over any predictor: feeds each prediction back into a copy
/// of the scaled lag `window` to forecast `horizon` steps ahead, into
/// `out` in the original scale.
fn roll_window(
    window: &[f64],
    scaler: &StandardScaler,
    horizon: usize,
    out: &mut Vec<f64>,
    mut predict: impl FnMut(&[f64]) -> Result<f64, MlError>,
) -> Result<(), MlError> {
    // The buffer is the window followed by the predictions so far,
    // so the last `lags` values are always the next model input.
    out.clear();
    out.extend_from_slice(window);
    for step in 0..horizon {
        let pred = predict(&out[step..])?;
        out.push(pred);
    }
    out.drain(..window.len());
    for v in out {
        *v = scaler.inverse_transform_value(*v, 0)?;
    }
    Ok(())
}

impl TrainedForecaster {
    /// Fit phase: scaler statistics from the whole history, lag-window
    /// supervision, one model fit, and the trailing window captured for
    /// rolling. Requires more than `lags + 1` samples, all finite: one
    /// NaN or ±∞ fails every model's fit here, where some would panic
    /// and others would return a non-finite forecast.
    pub fn fit(
        kind: RegressorKind,
        history: &[f64],
        lags: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        let mut f = Self::unfitted(kind, history, lags, seed)?;
        f.model = Some(fit_model(kind, &f.history, lags, seed)?);
        f.history = Vec::new();
        Ok(f)
    }

    /// [`TrainedForecaster::fit`] and then
    /// [`TrainedForecaster::roll`]`(horizon)`, for a fit that may serve
    /// no other roll: the same forecaster and, bit for bit, the same
    /// forecast, with the same errors from the same checks. For RFR it
    /// grows no forest: each tree grows only the nodes the roll's walks
    /// reach, with the fit's own growth function, on one thread. The
    /// forecaster then keeps its scaled history and fits the whole
    /// forest on its first roll, if one ever comes. Every other kind
    /// fits, then rolls.
    pub fn sketch(
        kind: RegressorKind,
        history: &[f64],
        lags: usize,
        seed: u64,
        horizon: usize,
    ) -> Result<(Self, Vec<f64>), MlError> {
        let mut f = Self::unfitted(kind, history, lags, seed)?;
        let mut out = Vec::new();
        match kind {
            RegressorKind::Rfr => {
                let (x, y) = supervised(&f.history, lags)?;
                let forest = RandomForestRegressor::with_seed(seed);
                forest.sketch(&x, &y, |predict| {
                    roll_window(&f.window, &f.scaler, horizon, &mut out, |row| {
                        Ok(predict(row))
                    })
                })??
            }
            _ => f.roll_into(horizon, &mut out)?,
        }
        Ok((f, out))
    }

    /// Everything of a fit but the model: the history checked, the
    /// scaler fitted on it, the history scaled and its trailing window.
    fn unfitted(
        kind: RegressorKind,
        history: &[f64],
        lags: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        check_finite("history", history)?;
        if history.len() <= lags + 1 {
            return Err(MlError::BadShape(format!(
                "need more than {} samples, have {}",
                lags + 1,
                history.len()
            )));
        }
        let mut scaler = StandardScaler::new();
        let col = Matrix::from_vec(history.len(), 1, history.to_vec());
        scaler.fit(&col)?;
        let scaled = scaler.transform_column(history, 0)?;
        Ok(TrainedForecaster {
            kind,
            scaler,
            model: None,
            window: scaled[scaled.len() - lags..].to_vec(),
            history: scaled,
            lags,
            seed,
            trained_on: history.len(),
        })
    }

    /// Which regressor was fitted.
    pub fn kind(&self) -> RegressorKind {
        self.kind
    }

    /// Lag-window length the model was trained with.
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// Seed the model was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of history samples the current fit saw.
    #[cfg(test)]
    fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// Whether the model is fitted: `false` for a sketch until its
    /// first roll.
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// Roll phase: feeds each prediction back into a copy of the lag
    /// window to forecast `horizon` steps ahead, in the original scale.
    /// Deterministic — repeated rolls of one window are identical. On a
    /// sketch, the first roll runs the deferred fit first (hence
    /// `&mut self`); the forecast is the bits an eager fit would roll.
    pub fn roll(&mut self, horizon: usize) -> Result<Vec<f64>, MlError> {
        let mut out = Vec::new();
        self.roll_into(horizon, &mut out)?;
        Ok(out)
    }

    /// [`TrainedForecaster::roll`] into a caller-owned buffer, which it
    /// overwrites: a buffer that has held one roll makes the next
    /// allocation-free. `out` is left unspecified on an error.
    pub fn roll_into(&mut self, horizon: usize, out: &mut Vec<f64>) -> Result<(), MlError> {
        let model = match &mut self.model {
            Some(model) => model,
            deferred => {
                let model = fit_model(self.kind, &self.history, self.lags, self.seed)?;
                self.history = Vec::new();
                deferred.insert(model)
            }
        };
        roll_window(&self.window, &self.scaler, horizon, out, |row| {
            model.predict_row(row)
        })
    }

    /// Slides one new raw sample into the lag window using the frozen
    /// scaler statistics, without refitting the model. Subsequent rolls
    /// forecast from the updated window. A non-finite sample is an error
    /// and leaves the window as it was: a forest would still roll a
    /// finite forecast off a NaN (every comparison fails, so it goes
    /// right at every split), and the caller would steer on it.
    pub fn observe(&mut self, sample: f64) -> Result<(), MlError> {
        check_finite("observed sample", &[sample])?;
        let scaled = self.scaler.transform_value(sample, 0)?;
        self.window.rotate_left(1);
        self.window[self.lags - 1] = scaled;
        Ok(())
    }
}

/// Recursive multi-step forecaster: "Hecate computes the predicted values
/// for the next 10 steps and returns the best path."
///
/// One-shot convenience over [`TrainedForecaster::sketch`]: the forecast
/// that fitting on the whole history and rolling `horizon` steps gives,
/// bit for bit, with an RFR's forest grown only where the roll walks.
/// Returns forecasts in the original scale.
pub fn forecast_next(
    kind: RegressorKind,
    history: &[f64],
    lags: usize,
    horizon: usize,
    seed: u64,
) -> Result<Vec<f64>, MlError> {
    Ok(TrainedForecaster::sketch(kind, history, lags, seed, horizon)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                20.0 + 8.0 * (t / 20.0).sin() + 2.0 * (t / 3.0).cos()
            })
            .collect()
    }

    #[test]
    fn pipeline_produces_finite_rmse() {
        let series = synthetic_series(200);
        let cfg = PipelineConfig::default();
        let rep = evaluate_regressor(RegressorKind::Rfr, &series, &cfg).unwrap();
        assert!(rep.rmse.is_finite() && rep.rmse >= 0.0);
        assert_eq!(rep.observed.len(), rep.predicted.len());
        // test windows: 50 - 10
        assert_eq!(rep.observed.len(), 40);
    }

    #[test]
    fn rfr_beats_predicting_the_mean() {
        let series = synthetic_series(300);
        let cfg = PipelineConfig::default();
        let rep = evaluate_regressor(RegressorKind::Rfr, &series, &cfg).unwrap();
        let mean = linalg::stats::mean(&rep.observed);
        let mean_rmse = rmse(&rep.observed, &vec![mean; rep.observed.len()]);
        assert!(
            rep.rmse < mean_rmse,
            "RFR rmse {} should beat mean-prediction rmse {mean_rmse}",
            rep.rmse
        );
    }

    #[test]
    fn observed_values_match_raw_series() {
        // inverse_transform(observed) must reproduce the raw test targets.
        let series = synthetic_series(120);
        let cfg = PipelineConfig::default();
        let rep = evaluate_regressor(RegressorKind::Lr, &series, &cfg).unwrap();
        let (_, test) = sequential_split(&series, cfg.train_fraction);
        for (o, raw) in rep.observed.iter().zip(&test[cfg.lags..]) {
            assert!((o - raw).abs() < 1e-9);
        }
    }

    #[test]
    fn too_short_series_is_rejected() {
        let cfg = PipelineConfig::default();
        assert!(evaluate_regressor(RegressorKind::Lr, &[1.0; 20], &cfg).is_err());
    }

    #[test]
    fn evaluate_all_covers_18_models() {
        let series = synthetic_series(160);
        let cfg = PipelineConfig::default();
        let reports = evaluate_all(&series, &cfg);
        assert_eq!(reports.len(), 18);
        let ok = reports.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 18, "all models must fit the smooth series");
    }

    #[test]
    fn forecast_rolls_forward() {
        let series = synthetic_series(150);
        let fc = forecast_next(RegressorKind::Lr, &series, 10, 10, 0).unwrap();
        assert_eq!(fc.len(), 10);
        assert!(fc.iter().all(|v| v.is_finite()));
        // Forecast of a bounded series stays in a sane envelope.
        assert!(fc.iter().all(|v| *v > 0.0 && *v < 60.0), "{fc:?}");
    }

    #[test]
    fn forecast_too_short_history_errors() {
        assert!(forecast_next(RegressorKind::Lr, &[1.0; 11], 10, 5, 0).is_err());
        assert!(TrainedForecaster::fit(RegressorKind::Lr, &[1.0; 11], 10, 0).is_err());
    }

    #[test]
    fn trained_forecaster_matches_one_shot_bitwise() {
        // The fit/roll split must not change a single bit of the
        // forecast relative to the one-shot path, for deterministic and
        // seeded-stochastic models alike.
        let series = synthetic_series(150);
        for kind in [RegressorKind::Lr, RegressorKind::Rfr, RegressorKind::Gbr] {
            let one_shot = forecast_next(kind, &series, 10, 10, 7).unwrap();
            let mut trained = TrainedForecaster::fit(kind, &series, 10, 7).unwrap();
            assert_eq!(trained.roll(10).unwrap(), one_shot, "{kind}");
            // Rolling is pure: a second roll is identical.
            assert_eq!(trained.roll(10).unwrap(), one_shot, "{kind} reroll");
        }
    }

    #[test]
    fn row_level_roll_matches_the_matrix_roll_bitwise() {
        // `roll` predicts through `Regressor::predict_row`; the roll it
        // replaced built a 1 x lags matrix per step. Same bits, whether
        // the model overrides the row path (RFR, GBR) or not (LR).
        let series = synthetic_series(120);
        for kind in [RegressorKind::Rfr, RegressorKind::Gbr, RegressorKind::Lr] {
            let mut f = TrainedForecaster::fit(kind, &series, 10, 42).unwrap();
            let model = f.model.as_ref().unwrap();
            let mut window = f.window.clone();
            let mut scaled = Vec::new();
            for _ in 0..10 {
                let x_next = Matrix::from_vec(1, f.lags, window.clone());
                let pred = model.predict(&x_next).unwrap()[0];
                scaled.push(pred);
                window.rotate_left(1);
                window[f.lags - 1] = pred;
            }
            let matrix_roll = f.scaler.inverse_transform_column(&scaled, 0).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.roll(10).unwrap()), bits(&matrix_roll), "{kind}");
        }
    }

    /// Smooth wave with a deterministic jitter; IEEE basic operations
    /// only, so the series is the same on every platform.
    fn smooth_series() -> Vec<f64> {
        (0..120u64)
            .map(|i| {
                let x = (i % 40) as f64 / 20.0 - 1.0;
                let jitter = (i.wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0;
                50.0 + 30.0 * (4.0 * x * (1.0 - x.abs())) + jitter
            })
            .collect()
    }

    /// Flat-lined telemetry: three quantized levels, every lag column
    /// full of ties.
    fn flat_lined_series() -> Vec<f64> {
        (0..120)
            .map(|i| match (i / 6) % 5 {
                2 => 80.0,
                4 => 90.0,
                _ => 100.0,
            })
            .collect()
    }

    #[test]
    fn rfr_forecast_bits_are_pinned() {
        // Captured on the commit before the presorted tree builder
        // (per-node sorting CART, `select_rows` bootstraps, matrix
        // roll): the forests and their forecasts must never move a bit.
        let smooth: [u64; 10] = [
            0x404a94855da27286,
            0x4047d7689ca18bd6,
            0x40471f8327674d16,
            0x404549b035bd512e,
            0x40423f33daf8df7a,
            0x4040b0f61672324c,
            0x403bcbc2b94d9407,
            0x4039056e04c05920,
            0x40372433721d53ca,
            0x4035c0f1d3ed527c,
        ];
        let mut flat = [0x4059000000000000u64; 10];
        flat[0] = 0x4058eccccccccccd;
        for (series, want) in [(smooth_series(), smooth), (flat_lined_series(), flat)] {
            let got = forecast_next(RegressorKind::Rfr, &series, 10, 10, 42).unwrap();
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{got:#018x?}");
        }
    }

    #[test]
    fn non_finite_history_fails_the_forest_fit() {
        let mut series = synthetic_series(120);
        series[60] = f64::NAN;
        let err = TrainedForecaster::fit(RegressorKind::Rfr, &series, 10, 42).unwrap_err();
        assert!(matches!(err, MlError::Numeric(_)), "{err}");
    }

    #[test]
    fn non_finite_history_fails_every_fit() {
        // Unchecked, five kinds panicked on such a history and six
        // returned non-finite forecasts.
        for kind in RegressorKind::all() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut series = synthetic_series(120);
                series[60] = bad;
                let err = TrainedForecaster::fit(kind, &series, 10, 42).unwrap_err();
                assert!(matches!(err, MlError::Numeric(_)), "{kind} on {bad}: {err}");
                let err = forecast_next(kind, &series, 10, 10, 42).unwrap_err();
                assert!(matches!(err, MlError::Numeric(_)), "{kind} on {bad}: {err}");
                let cfg = PipelineConfig::default();
                let err = evaluate_regressor(kind, &series, &cfg).unwrap_err();
                assert!(matches!(err, MlError::Numeric(_)), "{kind} on {bad}: {err}");
            }
        }
    }

    #[test]
    fn trained_forecaster_reports_fit_metadata() {
        let series = synthetic_series(90);
        let f = TrainedForecaster::fit(RegressorKind::Lr, &series, 10, 3).unwrap();
        assert_eq!(f.kind(), RegressorKind::Lr);
        assert_eq!(f.lags(), 10);
        assert_eq!(f.seed(), 3);
        assert_eq!(f.trained_on(), 90);
        assert!(format!("{f:?}").contains("Lr"));
    }

    #[test]
    fn observe_slides_the_window_without_refit() {
        // Fit on a prefix, then observe the remaining samples: the
        // rolled forecast must equal fitting-with-frozen-stats on the
        // full window, i.e. the window content drives the prediction.
        let series = synthetic_series(160);
        let mut f = TrainedForecaster::fit(RegressorKind::Lr, &series[..150], 10, 0).unwrap();
        let before = f.roll(5).unwrap();
        for &v in &series[150..] {
            f.observe(v).unwrap();
        }
        let after = f.roll(5).unwrap();
        assert_ne!(before, after, "new samples must move the forecast");
        // An LR model is linear in the window, so the updated forecast
        // stays in the series' envelope.
        assert!(after.iter().all(|v| v.is_finite() && *v > 0.0 && *v < 60.0));
    }
    /// A telemetry-like series drawn from `seed`: smooth, quantized to a
    /// few levels (exact ties in every lag column), flat-lined with
    /// steps, or smooth with constant stretches and repeated runs.
    fn drawn_series(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let level: f64 = rng.gen_range(5.0..100.0);
        let amp: f64 = rng.gen_range(0.5..20.0);
        let period: f64 = rng.gen_range(2.0..30.0);
        let mut series: Vec<f64> = match rng.gen_range(0..4u32) {
            0 => (0..len)
                .map(|i| level + amp * (i as f64 / period).sin() + rng.gen_range(-1.0..1.0))
                .collect(),
            1 => (0..len)
                .map(|_| level + amp * rng.gen_range(0..4u32) as f64)
                .collect(),
            2 => {
                let mut v = level;
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            v = level + amp * rng.gen_range(-2..3i32) as f64;
                        }
                        v
                    })
                    .collect()
            }
            _ => (0..len)
                .map(|i| level + amp * (i as f64 / period).cos())
                .collect(),
        };
        // constant stretches and repeated runs
        for _ in 0..rng.gen_range(0..4u32) {
            let (from, run) = (rng.gen_range(0..len), rng.gen_range(1..20usize));
            let v = series[from];
            let to = rng.gen_range(0..len);
            for x in series.iter_mut().skip(to).take(run) {
                *x = v;
            }
        }
        series
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sketch oracle: a sketched RFR forecast is the eager
        /// fit-then-roll's bits, and so is every roll of the sketched
        /// forecaster after `k` observed samples (its deferred fit).
        #[test]
        fn rfr_sketch_rolls_the_eager_fit_bit_for_bit(
            series_seed in any::<u64>(),
            lags in 1usize..=12,
            extra in 0usize..190,
            horizon in 0usize..=12,
            seed in (0usize..4).prop_map(|i| [0u64, 7, 42, 0x5eed][i]),
            observed in 0usize..6,
        ) {
            let series = drawn_series(series_seed, lags + 2 + extra + observed);
            let (history, later) = series.split_at(series.len() - observed);
            let kind = RegressorKind::Rfr;
            let mut eager = TrainedForecaster::fit(kind, history, lags, seed).unwrap();
            let (mut sketched, rolled) =
                TrainedForecaster::sketch(kind, history, lags, seed, horizon).unwrap();
            prop_assert_eq!(bits(&rolled), bits(&eager.roll(horizon).unwrap()));
            prop_assert!(!sketched.is_fitted());
            for &v in later {
                eager.observe(v).unwrap();
                sketched.observe(v).unwrap();
            }
            let want = bits(&eager.roll(horizon).unwrap());
            prop_assert_eq!(bits(&sketched.roll(horizon).unwrap()), want);
            prop_assert!(sketched.is_fitted());
            prop_assert_eq!(sketched.trained_on(), eager.trained_on());
        }
    }

    #[test]
    fn every_other_kind_sketches_by_fitting_then_rolling() {
        let series = drawn_series(3, 120);
        for kind in RegressorKind::all() {
            let mut eager = TrainedForecaster::fit(kind, &series, 10, 42).unwrap();
            let (sketched, rolled) = TrainedForecaster::sketch(kind, &series, 10, 42, 10).unwrap();
            assert_eq!(bits(&rolled), bits(&eager.roll(10).unwrap()), "{kind}");
            let deferred = kind == RegressorKind::Rfr;
            assert_eq!(sketched.is_fitted(), !deferred, "{kind}");
        }
    }

    #[test]
    fn a_sketch_fails_as_the_fit_does() {
        let mut nan = synthetic_series(120);
        nan[60] = f64::NAN;
        let mut inf = synthetic_series(120);
        inf[119] = f64::INFINITY;
        // Finite, but its mean overflows.
        let huge: Vec<f64> = (0..40).map(|i| f64::MAX * (i % 3) as f64 / 2.0).collect();
        let bad: [&[f64]; 5] = [&[1.0; 11], &[], &nan, &inf, &huge];
        for kind in [RegressorKind::Rfr, RegressorKind::Lr, RegressorKind::Gbr] {
            for history in bad {
                let want = TrainedForecaster::fit(kind, history, 10, 42).err();
                assert!(want.is_some(), "{kind} on {} samples", history.len());
                let got = TrainedForecaster::sketch(kind, history, 10, 42, 10).err();
                assert_eq!(got, want, "{kind} on {} samples", history.len());
                let got = forecast_next(kind, history, 10, 10, 42).err();
                assert_eq!(got, want, "{kind} on {} samples", history.len());
            }
        }
    }
}
