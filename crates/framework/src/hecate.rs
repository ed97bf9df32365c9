//! The Hecate Service: per-path QoS forecasting behind a trained-model
//! cache — the framework's **ForecastEngine**.
//!
//! "The ML model predicts QoS at time t_{i+1} … Hecate computes the
//! predicted values for the next 10 steps and returns the best path,
//! where the most available bandwidth is as a recommendation for PolKA
//! to use."
//!
//! The seed reproduction retrained the regressor from scratch on every
//! decision. This module instead keeps one [`TrainedForecaster`] per
//! telemetry series, in a slot indexed by the series' [`SeriesId`], and
//! *queries* it online (NeuRoute's train-once/query-many discipline):
//!
//! * **hit** — no new telemetry since the model last looked: roll the
//!   cached model, no history read at all;
//! * **update** — fewer than [`HecateService::refit_after`] new samples
//!   since the fit: slide them into the model's lag window
//!   ([`TrainedForecaster::observe`]) and roll, still no refit;
//! * **refit** — the series moved by `refit_after` or more samples (or
//!   the service's model/lags/seed changed): fit fresh from history and
//!   replace the entry.
//!
//! A refit whose replaced model was never re-rolled — it served the roll
//! its fit made, hits, and no update arm — *sketches*
//! ([`TrainedForecaster::sketch`]): an RFR grows only the tree paths
//! that one roll walks, on one thread, and keeps its history instead of
//! a forest. An update arm on a sketched entry first runs its deferred
//! fit, so the refit after it is eager again, as is a series' first
//! fit. Either way the forecast carries the eager fit's bits.
//!
//! A consult that reads only some of the candidates runs that protocol
//! on those and only the cheap half of it on the rest: a due refit, or
//! the window slide without the roll. Refits and forecast bits are
//! unchanged.
//!
//! Every forecast goes through one driver of that protocol, the
//! consult's crate-private `forecast_candidates`;
//! [`HecateService::forecast_all`] is the same driver over a plain list
//! of paths, every one read.
//!
//! Staleness is tracked with the telemetry store's monotonic per-series
//! sample counter ([`TelemetryService::total`]), so invalidation is one
//! integer compare, not a history diff. The slots are bound to the store
//! that issued their ids: pointed at another store, the cache drops
//! every entry and refits.

use crate::telemetry::{Metric, SeriesId, SeriesKey, TelemetryService};
use crate::PairId;
use hecate_ml::pipeline::TrainedForecaster;
use hecate_ml::{MlError, RegressorKind};
use std::sync::{Arc, Mutex, MutexGuard};

/// A per-path forecast.
#[derive(Debug, Clone)]
pub struct PathForecast {
    /// Path/tunnel name.
    pub path: String,
    /// Predicted values for the next `horizon` steps.
    pub values: Vec<f64>,
}

impl PathForecast {
    /// Mean of the forecast horizon — the bandwidth score Hecate returns.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Pessimistic (minimum) forecast over the horizon, or `0.0` for an
    /// empty forecast — consistent with [`PathForecast::mean`], and
    /// never the `+INFINITY` a bare fold would produce (which would make
    /// an empty forecast look infinitely attractive to the
    /// min-max-utilization objective).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// One cached trained model plus the bookkeeping invalidation needs.
#[derive(Debug)]
struct CacheEntry {
    forecaster: TrainedForecaster,
    /// Telemetry [`TelemetryService::total`] at fit time.
    fitted_at: u64,
    /// Telemetry total the lag window has absorbed (>= `fitted_at`).
    observed: u64,
    /// Memoized `forecaster.roll(rolled_horizon)` as of `rolled_at`: a
    /// roll is a pure function of the unchanged window, so a cache hit
    /// clones ten floats instead of re-running `horizon` model
    /// inferences per path.
    rolled: Vec<f64>,
    rolled_horizon: usize,
    /// `observed` when `rolled` was rolled; behind it after a deferred
    /// series slid samples in without rolling.
    rolled_at: u64,
}

/// The cache arm a forecast took: the index of its counter.
#[derive(Debug, Clone, Copy)]
enum Arm {
    Hit,
    Update,
    Refit,
}

/// The arms' counter names, in [`Arm`] order.
const ARMS: [&str; 3] = ["hits", "updates", "refits"];

/// One counter per [`Arm`]: `obsv` instruments, so a scenario's metrics
/// registry can adopt them and its scorecard rows read live behavior.
type ArmCounters = [obsv::Counter; 3];

/// What every clone of a [`HecateService`] shares, behind the one lock
/// a consult takes once: one model slot per telemetry series, indexed
/// by [`SeriesId`], and the counters the slots' arms bump.
#[derive(Debug, Default)]
struct Cache {
    /// Identity of the telemetry store whose ids index `entries`.
    store: Option<u64>,
    entries: Vec<Option<CacheEntry>>,
    total: ArmCounters,
    /// Per-pair counters, indexed by [`PairId`]; `None` for a pair
    /// [`HecateService::register_metrics`] gave no scope.
    pairs: Vec<Option<ArmCounters>>,
    /// Tracer plus the shared sim-time cell the controller keeps
    /// current — the ML pipeline has no clock of its own — while
    /// [`HecateService::set_trace`] has armed them.
    tracer: Option<(obsv::Tracer, obsv::SimClock)>,
}

impl Cache {
    /// The slot of series `id`, grown on first use.
    fn slot(&mut self, id: SeriesId) -> &mut Option<CacheEntry> {
        if self.entries.len() <= id.index() {
            self.entries.resize_with(id.index() + 1, || None);
        }
        &mut self.entries[id.index()]
    }

    /// Bumps `arm`'s counter, and `pair`'s when it has one.
    fn count(&self, arm: Arm, pair: Option<PairId>) {
        self.total[arm as usize].inc();
        if let Some(c) = pair.and_then(|p| self.pairs.get(p.index())?.as_ref()) {
            c[arm as usize].inc();
        }
    }

    /// The installed tracer and the current sim time, when armed.
    fn trace(&self) -> Option<(obsv::Tracer, u64)> {
        let (tracer, clock) = self.tracer.as_ref()?;
        Some((tracer.clone(), clock.get()))
    }
}

/// One candidate series of a consult: the tunnel's name (its
/// [`PathForecast::path`]), its series in the consulted store (`None`:
/// nothing to forecast), the pair whose counters its cache arm bumps,
/// and whether the decision reads its forecast (else it is deferred).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'a> {
    pub(crate) path: &'a str,
    pub(crate) series: Option<SeriesId>,
    pub(crate) pair: Option<PairId>,
    pub(crate) needed: bool,
}

/// A snapshot of the forecast cache's behavior counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Forecasts served by rolling a cached model with no new data.
    pub hits: u64,
    /// Forecasts served by sliding new samples into a cached model's
    /// lag window (no refit).
    pub updates: u64,
    /// Forecasts that (re)fitted a model from history.
    pub refits: u64,
    /// Series with a cached model right now.
    pub entries: usize,
}

/// Hecate: one regressor + the forecasting protocol + the trained-model
/// cache. Cloning is cheap and clones *share* the cache.
#[derive(Clone)]
pub struct HecateService {
    /// Which of the eighteen models to use (the paper picks RFR).
    pub model: RegressorKind,
    /// History window length (paper: 10).
    pub lags: usize,
    /// Forecast horizon (paper: 10).
    pub horizon: usize,
    /// Seed for stochastic models.
    pub seed: u64,
    /// Staleness threshold N: a cached model is reused (its lag window
    /// updated in place) until the series has grown by `refit_after`
    /// samples since the fit, then it is refitted. `0` refits whenever
    /// any new sample arrived. Default 10 — one refit per forecast
    /// horizon at the paper's 1 Hz sampling.
    pub refit_after: u64,
    cache: Arc<Mutex<Cache>>,
}

impl std::fmt::Debug for HecateService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HecateService")
            .field("model", &self.model)
            .field("lags", &self.lags)
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .field("refit_after", &self.refit_after)
            .field("cached_series", &self.cache_stats().entries)
            .finish()
    }
}

impl Default for HecateService {
    fn default() -> Self {
        HecateService {
            model: RegressorKind::Rfr,
            lags: 10,
            horizon: 10,
            seed: 42,
            refit_after: 10,
            cache: Arc::default(),
        }
    }
}

impl HecateService {
    /// Hecate with the paper's choices (RFR, lag 10, horizon 10).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hecate with a specific model (for the ablation).
    pub fn with_model(model: RegressorKind) -> Self {
        HecateService {
            model,
            ..Self::default()
        }
    }

    /// Minimum history needed before forecasts are possible.
    pub fn min_history(&self) -> usize {
        self.lags + 2
    }

    /// How many trailing samples a fit reads: two minutes at the
    /// paper's 1 Hz sampling, or the minimum if `lags` demands more.
    fn history_window(&self) -> usize {
        120.max(self.min_history())
    }

    /// The shared cache. A poisoned cache is still a valid cache: every
    /// entry is replaced whole, and a fan-out that panicked leaves the
    /// entries it had taken empty, so they refit.
    fn lock(&self) -> MutexGuard<'_, Cache> {
        self.cache
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// The shared cache, its slots bound to `telemetry`'s ids: every
    /// entry goes when they indexed another store's.
    fn bound(&self, telemetry: &TelemetryService) -> MutexGuard<'_, Cache> {
        let mut cache = self.lock();
        if cache.store != Some(telemetry.store_id()) {
            cache.entries.clear();
            cache.store = Some(telemetry.store_id());
        }
        cache
    }

    /// True when the cached entry was produced by this service's current
    /// configuration (users may retarget `model`/`lags`/`seed` at any
    /// time; stale-config entries must refit, not roll).
    fn entry_usable(&self, e: &CacheEntry) -> bool {
        e.forecaster.kind() == self.model
            && e.forecaster.lags() == self.lags
            && e.forecaster.seed() == self.seed
    }

    /// Samples the series gained since `e` last looked at a total of
    /// `total`; `None` when a refit is due — the series moved
    /// `refit_after` or more since the fit, or reads shorter than the
    /// entry saw.
    fn fresh(&self, e: &CacheEntry, total: u64) -> Option<u64> {
        (total >= e.observed && total - e.fitted_at < self.refit_after.max(1))
            .then(|| total - e.observed)
    }

    /// Installs a tracer and the shared sim-time clock so the ML
    /// pipeline emits `ml.fit` (model fit + initial roll) and
    /// `ml.roll` (lag-window slide + re-roll) spans. The caller keeps
    /// the clock current (sim time does not advance while the
    /// controller thinks, so both endpoints of a span carry the
    /// decision instant — the analyzer leans on the spans' work args).
    /// Passing `Tracer::off()` disarms it again.
    pub fn set_trace(&self, tracer: obsv::Tracer, clock: obsv::SimClock) {
        self.lock().tracer = tracer.enabled().then_some((tracer, clock));
    }

    /// Fits a fresh cache entry for series `id` on its trailing history
    /// window, and rolls it: eagerly, or as a [`TrainedForecaster::sketch`]
    /// when `sketch` is set. `None` when the series is shorter than
    /// [`HecateService::min_history`] or the fit fails.
    fn fit_entry(
        &self,
        telemetry: &TelemetryService,
        id: SeriesId,
        sketch: bool,
        trace: Option<&(obsv::Tracer, u64)>,
    ) -> Option<CacheEntry> {
        let (total, vals) = telemetry.tail(id)?;
        let history = &vals[vals.len().saturating_sub(self.history_window())..];
        if history.len() < self.min_history() {
            return None;
        }
        let span = trace.map(|(t, at)| t.span("ml", "ml.fit", *at));
        let (model, lags, seed, horizon) = (self.model, self.lags, self.seed, self.horizon);
        let fitted = if sketch {
            TrainedForecaster::sketch(model, history, lags, seed, horizon)
        } else {
            TrainedForecaster::fit(model, history, lags, seed).and_then(|mut forecaster| {
                let rolled = forecaster.roll(horizon)?;
                Ok((forecaster, rolled))
            })
        };
        if let (Some(span), Some((_, at))) = (span, trace) {
            let samples = history.len() as u64;
            let ok = fitted.is_ok() as u64;
            let lags = lags as u64;
            span.end(*at, || {
                vec![
                    ("samples", obsv::Value::U64(samples)),
                    ("lags", obsv::Value::U64(lags)),
                    ("ok", obsv::Value::U64(ok)),
                ]
            });
        }
        let (forecaster, rolled) = fitted.ok()?;
        Some(CacheEntry {
            forecaster,
            fitted_at: total,
            observed: total,
            rolled,
            rolled_horizon: self.horizon,
            rolled_at: total,
        })
    }

    /// The first half of the update arm: slides the series' fresh
    /// samples (fewer than `refit_after`) into the lag window without
    /// rolling. `false` when a refit is due; an error on a non-finite
    /// sample, after which the window is spent.
    fn absorb(
        &self,
        telemetry: &TelemetryService,
        id: SeriesId,
        e: &mut CacheEntry,
    ) -> Result<bool, MlError> {
        let Some((total, vals)) = telemetry.tail(id) else {
            return Ok(false);
        };
        let Some(fresh) = self.fresh(e, total) else {
            return Ok(false);
        };
        for &v in &vals[vals.len().saturating_sub(fresh as usize)..] {
            e.forecaster.observe(v)?;
        }
        e.observed = total;
        Ok(true)
    }

    /// The hit and update arms on an entry that has absorbed its
    /// series: a hit clones the memoized roll — `horizon` floats, no
    /// model inference. Otherwise (fresh samples, or a new horizon) the
    /// roll is re-memoized in place, no refit and no allocation but the
    /// returned copy. A sketched entry's deferred fit runs here.
    fn roll(
        &self,
        e: &mut CacheEntry,
        trace: Option<&(obsv::Tracer, u64)>,
    ) -> Result<(Arm, Vec<f64>), MlError> {
        let fresh = e.observed - e.rolled_at;
        let arm = if fresh == 0 { Arm::Hit } else { Arm::Update };
        if fresh == 0 && e.rolled_horizon == self.horizon {
            return Ok((arm, e.rolled.clone()));
        }
        let span = trace.map(|(t, at)| t.span("ml", "ml.roll", *at));
        e.forecaster.roll_into(self.horizon, &mut e.rolled)?;
        e.rolled_horizon = self.horizon;
        e.rolled_at = e.observed;
        if let (Some(span), Some((_, at))) = (span, trace) {
            let horizon = self.horizon as u64;
            span.end(*at, || {
                vec![
                    ("fresh", obsv::Value::U64(fresh)),
                    ("horizon", obsv::Value::U64(horizon)),
                ]
            });
        }
        Ok((arm, e.rolled.clone()))
    }

    /// The whole protocol on series `id` and its slot: hit or update a
    /// usable entry the series has not outrun, else refit — a sketch
    /// when the entry it replaces was never re-rolled; a failed fit
    /// leaves the slot as it was. A non-finite sample spends the
    /// entry: the window may have taken the samples before it, so the
    /// path is skipped now and refits at the next consult. `None`: the
    /// path is skipped.
    fn serve(
        &self,
        telemetry: &TelemetryService,
        id: SeriesId,
        slot: &mut Option<CacheEntry>,
        trace: Option<&(obsv::Tracer, u64)>,
    ) -> Option<(Arm, Vec<f64>)> {
        if let Some(e) = slot.as_mut().filter(|e| self.entry_usable(e)) {
            let served = self
                .absorb(telemetry, id, e)
                .and_then(|absorbed| absorbed.then(|| self.roll(e, trace)).transpose());
            match served {
                Ok(Some(served)) => return Some(served),
                Ok(None) => {} // stale: refit
                Err(_) => {
                    *slot = None;
                    return None;
                }
            }
        }
        // Served no update arm: every roll was at the fit's total.
        let sketch = slot.as_ref().is_some_and(|e| e.rolled_at == e.fitted_at);
        let entry = self.fit_entry(telemetry, id, sketch, trace)?;
        let values = entry.rolled.clone();
        *slot = Some(entry);
        Some((Arm::Refit, values))
    }

    /// The deferred arm, minus the refit: `None` when one is due, else
    /// whether the series is still forecastable. A usable entry takes
    /// its fresh samples into the lag window without a roll; a
    /// non-finite one spends it, as in `serve`.
    fn defer(
        &self,
        telemetry: &TelemetryService,
        id: SeriesId,
        slot: &mut Option<CacheEntry>,
    ) -> Option<bool> {
        let e = slot.as_mut().filter(|e| self.entry_usable(e))?;
        match self.absorb(telemetry, id, e) {
            Ok(absorbed) => absorbed.then_some(true),
            Err(_) => {
                *slot = None;
                Some(false)
            }
        }
    }

    /// A memoized hit on `e` — it saw every sample of its series and
    /// rolled this horizon — served without touching the model.
    fn hit(&self, telemetry: &TelemetryService, id: SeriesId, e: &CacheEntry) -> Option<Vec<f64>> {
        let (total, _) = telemetry.tail(id)?;
        let hit = self.entry_usable(e)
            && self.fresh(e, total) == Some(0)
            && e.rolled_at == e.observed
            && e.rolled_horizon == self.horizon;
        hit.then(|| e.rolled.clone())
    }

    /// Forecasts every candidate path; paths with insufficient history
    /// are skipped (they cannot be recommended yet). Results come back
    /// in candidate order.
    pub fn forecast_all(
        &self,
        telemetry: &TelemetryService,
        paths: &[String],
        metric: Metric,
    ) -> Vec<PathForecast> {
        let cands: Vec<Candidate> = paths
            .iter()
            .map(|path| Candidate {
                path,
                series: telemetry.find(&SeriesKey::new(path, metric)),
                pair: None,
                needed: true,
            })
            .collect();
        let (aligned, _) = self.forecast_candidates(telemetry, &cands);
        aligned.into_iter().flatten().collect()
    }

    /// A consult's forecasts, under one lock. Every candidate the
    /// decision reads gets the full protocol. Every other one is
    /// *deferred*: it refits when that refit is due, and otherwise
    /// slides its fresh samples into the lag window but skips the roll.
    /// Staleness counts from the fit and a roll is a pure function of
    /// the window, so refits land where a full consult puts them and
    /// later forecasts carry its bits.
    ///
    /// The forecasts come back aligned with `cands`: entry `i` is
    /// candidate `i`'s, `None` when it was deferred or could not be
    /// forecast. The flag says whether *any* candidate could be
    /// forecast, deferred ones included — what a cold-start fallback
    /// must test.
    ///
    /// Hits are served in place (a ten-float clone, which a thread
    /// spawn would dominate). The rest — rolls and refits — fan out
    /// once over scoped workers, their entries moved out of the cache
    /// for the duration so each worker owns its own.
    pub(crate) fn forecast_candidates(
        &self,
        telemetry: &TelemetryService,
        cands: &[Candidate<'_>],
    ) -> (Vec<Option<PathForecast>>, bool) {
        let mut cache = self.bound(telemetry);
        let mut forecastable = false;
        let mut aligned = vec![None; cands.len()];
        let mut jobs = Vec::new();
        for (pos, c) in cands.iter().enumerate() {
            let Some(id) = c.series else { continue };
            let slot = cache.slot(id);
            if !c.needed {
                if let Some(ok) = self.defer(telemetry, id, slot) {
                    forecastable |= ok;
                    continue;
                }
            } else if let Some(values) = slot.as_ref().and_then(|e| self.hit(telemetry, id, e)) {
                cache.count(Arm::Hit, c.pair);
                let path = c.path.to_string();
                aligned[pos] = Some(PathForecast { path, values });
                forecastable = true;
                continue;
            }
            // A deferred series lands here only when its refit is due.
            jobs.push((pos, id, slot.take()));
        }
        let trace = cache.trace();
        let run = |(_, id, entry): &mut (usize, SeriesId, Option<CacheEntry>)| {
            self.serve(telemetry, *id, entry, trace.as_ref())
        };
        // A traced run fans out sequentially: `ml.fit`/`ml.roll` span
        // emission order must be deterministic, and worker
        // interleaving is not. Results are bitwise identical either
        // way — forecasts are independent and `par_map_mut` preserves
        // candidate order — so only the trace artifact cares.
        let served: Vec<_> = if trace.is_some() {
            jobs.iter_mut().map(run).collect()
        } else {
            linalg::par::par_map_mut(&mut jobs, run)
        };
        for ((pos, id, entry), served) in jobs.into_iter().zip(served) {
            *cache.slot(id) = entry;
            if let Some((arm, values)) = served {
                let c = &cands[pos];
                cache.count(arm, c.pair);
                forecastable = true;
                if c.needed {
                    let path = c.path.to_string();
                    aligned[pos] = Some(PathForecast { path, values });
                }
            }
        }
        (aligned, forecastable)
    }

    /// Behavior counters plus the live entry count (a snapshot; the
    /// live instruments can be exposed via
    /// [`HecateService::register_metrics`]).
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.lock();
        let [hits, updates, refits] = cache.total.each_ref().map(obsv::Counter::get);
        CacheStats {
            hits,
            updates,
            refits,
            entries: cache.entries.iter().flatten().count(),
        }
    }

    /// Exposes the cache's live counters in `registry` under
    /// `{prefix}.hits` / `.updates` / `.refits`, and per-pair counters
    /// `{prefix}.{scope}.hits` etc. for pair `i` under the non-empty
    /// scope `scopes[i]` (pair names, multi-pair deployments). A
    /// consult attributes each candidate's arm to its own pair.
    pub fn register_metrics(&self, registry: &obsv::Registry, prefix: &str, scopes: &[String]) {
        let mut cache = self.lock();
        for (arm, counter) in ARMS.iter().zip(&cache.total) {
            registry.adopt_counter(&format!("{prefix}.{arm}"), counter);
        }
        // The legacy single-pair scope has no prefix; the global
        // counters already are its attribution.
        cache.pairs = scopes
            .iter()
            .map(|scope| {
                let scoped = |arm| registry.counter(&format!("{prefix}.{scope}.{arm}"));
                (!scope.is_empty()).then(|| ARMS.map(scoped))
            })
            .collect();
    }

    /// How many samples the series has grown since the cached model for
    /// `(path, metric)` was fitted; `None` when nothing is cached. After
    /// a consult that forecast the path this is always
    /// `< max(refit_after, 1)` as of the telemetry state that consult saw.
    pub fn cache_age(
        &self,
        telemetry: &TelemetryService,
        path: &str,
        metric: Metric,
    ) -> Option<u64> {
        let id = telemetry.find(&SeriesKey::new(path, metric))?;
        let cache = self.lock();
        if cache.store != Some(telemetry.store_id()) {
            return None;
        }
        let fitted_at = cache.entries.get(id.index())?.as_ref()?.fitted_at;
        let total = telemetry.tail(id).map_or(0, |(total, _)| total);
        Some(total.saturating_sub(fitted_at))
    }

    /// Whether the model cached for `(path, metric)` is fitted: `false`
    /// for a sketch whose deferred fit has not run; `None` when nothing
    /// is cached.
    #[cfg(test)]
    pub(crate) fn cached_model_fitted(
        &self,
        telemetry: &TelemetryService,
        path: &str,
        metric: Metric,
    ) -> Option<bool> {
        let id = telemetry.find(&SeriesKey::new(path, metric))?;
        let cache = self.lock();
        let entry = cache.entries.get(id.index())?.as_ref()?;
        Some(entry.forecaster.is_fitted())
    }

    /// Drops every cached model (e.g. after a topology change that
    /// makes old series semantics meaningless).
    pub fn clear_cache(&self) {
        self.lock().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Metric = Metric::AvailableBandwidth;

    /// One path's forecast: the consult over that path alone.
    fn forecast(h: &HecateService, ts: &TelemetryService, path: &str) -> Option<PathForecast> {
        h.forecast_all(ts, &[path.to_string()], BW).pop()
    }

    /// The reference a cached forecast must equal: an eager fit on the
    /// path's history window, rolled.
    fn eager(h: &HecateService, ts: &TelemetryService, path: &str) -> Vec<f64> {
        let history = ts.last_n(&SeriesKey::new(path, BW), h.history_window());
        let mut fit = TrainedForecaster::fit(h.model, &history, h.lags, h.seed).unwrap();
        fit.roll(h.horizon).unwrap()
    }

    fn seeded_store(paths: &[(&str, f64)]) -> TelemetryService {
        let mut ts = TelemetryService::new(1000);
        for (name, level) in paths {
            for t in 0..60u64 {
                // mild sinusoidal wiggle around the level
                let v = level + (t as f64 / 5.0).sin();
                ts.insert(
                    &SeriesKey::new(name, Metric::AvailableBandwidth),
                    t * 1000,
                    v,
                );
            }
        }
        ts
    }

    #[test]
    fn forecast_has_horizon_length() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let h = HecateService::new();
        let f = forecast(&h, &ts, "t1").unwrap();
        assert_eq!(f.values.len(), 10);
        // forecast of a ~20 Mbps series stays near 20
        assert!((f.mean() - 20.0).abs() < 3.0, "mean {}", f.mean());
    }

    #[test]
    fn insufficient_history_is_reported() {
        // A path is skipped until its series holds `min_history()`
        // samples, and forecast from then on.
        let h = HecateService::new();
        let key = SeriesKey::new("t1", BW);
        let mut ts = TelemetryService::new(100);
        for t in 0..h.min_history() as u64 - 1 {
            ts.insert(&key, t, 1.0 + (t % 3) as f64);
        }
        assert!(forecast(&h, &ts, "t1").is_none());
        ts.insert(&key, 99, 2.0);
        assert_eq!(forecast(&h, &ts, "t1").unwrap().values.len(), h.horizon);
        assert_eq!(h.cache_stats().refits, 1);
    }

    #[test]
    fn paths_without_history_are_skipped() {
        let ts = seeded_store(&[("t1", 10.0)]);
        let h = HecateService::new();
        let forecasts = h.forecast_all(
            &ts,
            &["t1".to_string(), "ghost".to_string()],
            Metric::AvailableBandwidth,
        );
        assert_eq!(forecasts.len(), 1);
        assert_eq!(forecasts[0].path, "t1");
    }

    #[test]
    fn nan_poisoned_series_is_skipped_not_a_panic() {
        // One non-finite sample used to abort the process inside the
        // tree builder's sort; it must cost that path its forecast and
        // nothing else — when its cached model refits, when it only
        // slides the sample into its lag window (a forest rolls a
        // *finite* forecast off a NaN: every compare fails, so it goes
        // right), and cold.
        let sick = SeriesKey::new("sick", Metric::AvailableBandwidth);
        let paths = ["t1".to_string(), "sick".to_string(), "t3".to_string()];
        let names = |got: &[PathForecast]| -> Vec<String> {
            assert!(got.iter().all(|f| f.values.iter().all(|v| v.is_finite())));
            got.iter().map(|f| f.path.clone()).collect()
        };
        let refit_after = HecateService::new().refit_after;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Five new samples: the update arm; `refit_after`: the refit.
            for fresh in [5, refit_after] {
                let mut ts = seeded_store(&[("t1", 10.0), ("sick", 12.0), ("t3", 8.0)]);
                let h = HecateService::new();
                let healthy = h.forecast_all(&ts, &paths, Metric::AvailableBandwidth);
                assert_eq!(healthy.len(), 3);
                for t in 0..fresh {
                    let v = if t == 3 { bad } else { 12.0 };
                    ts.insert(&sick, (60 + t) * 1000, v);
                }
                for service in [h.clone(), HecateService::new()] {
                    let got = service.forecast_all(&ts, &paths, Metric::AvailableBandwidth);
                    assert_eq!(names(&got), ["t1", "t3"], "{fresh} samples, one {bad}");
                }
                // The half-absorbed window went with its entry (a failed
                // refit leaves the stale one to fail again); the next
                // consult refits, and fails while the sample is history.
                let stale = (fresh == refit_after) as usize;
                assert_eq!(h.cache_stats().entries, 2 + stale);
                let again = h.forecast_all(&ts, &paths, Metric::AvailableBandwidth);
                assert_eq!(names(&again), ["t1", "t3"]);
                assert_eq!(h.cache_stats().updates, 0, "nothing was served off it");
            }
        }
    }

    #[test]
    fn a_poisoned_series_costs_any_model_only_its_own_forecast() {
        // Unchecked, HGBR's binning sort panicked on the sample and took
        // the whole fan-out down; LR forecast NaN off it.
        let sick = SeriesKey::new("sick", Metric::AvailableBandwidth);
        let paths = ["t1".to_string(), "sick".to_string(), "t3".to_string()];
        for model in [RegressorKind::Hgbr, RegressorKind::Lr] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut ts = seeded_store(&[("t1", 10.0), ("sick", 12.0), ("t3", 8.0)]);
                ts.insert(&sick, 60_000, bad);
                ts.insert(&sick, 61_000, 12.0);
                let got = HecateService::with_model(model).forecast_all(
                    &ts,
                    &paths,
                    Metric::AvailableBandwidth,
                );
                let names: Vec<&str> = got.iter().map(|f| f.path.as_str()).collect();
                assert_eq!(names, ["t1", "t3"], "{model} on {bad}");
                assert!(got.iter().all(|f| f.values.iter().all(|v| v.is_finite())));
            }
        }
    }

    #[test]
    fn empty_forecast_min_is_zero_not_infinity() {
        let f = PathForecast {
            path: "t1".into(),
            values: vec![],
        };
        assert_eq!(f.min(), 0.0);
        assert_eq!(f.mean(), 0.0);
        let g = PathForecast {
            path: "t1".into(),
            values: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(g.min(), 1.0);
    }

    #[test]
    fn cache_hit_when_no_new_samples_is_identical_to_uncached() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let h = HecateService::new();
        let first = forecast(&h, &ts, "t1").unwrap();
        let hit = forecast(&h, &ts, "t1").unwrap();
        assert_eq!(first.values, hit.values);
        assert_eq!(
            hit.values,
            eager(&h, &ts, "t1"),
            "cache must not change bits"
        );
        let stats = h.cache_stats();
        assert_eq!((stats.refits, stats.hits), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_updates_window_below_threshold_and_refits_at_it() {
        let mut ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        h.refit_after = 5;
        forecast(&h, &ts, "t1").unwrap();
        // 3 new samples < 5: window update, no refit.
        for t in 60..63u64 {
            ts.insert(
                &SeriesKey::new("t1", Metric::AvailableBandwidth),
                t * 1000,
                20.0,
            );
        }
        forecast(&h, &ts, "t1").unwrap();
        let stats = h.cache_stats();
        assert_eq!((stats.refits, stats.updates), (1, 1), "{stats:?}");
        assert_eq!(h.cache_age(&ts, "t1", Metric::AvailableBandwidth), Some(3));
        // 2 more: the series has moved 5 >= refit_after since the fit.
        for t in 63..65u64 {
            ts.insert(
                &SeriesKey::new("t1", Metric::AvailableBandwidth),
                t * 1000,
                20.0,
            );
        }
        forecast(&h, &ts, "t1").unwrap();
        let stats = h.cache_stats();
        assert_eq!(stats.refits, 2, "{stats:?}");
        assert_eq!(h.cache_age(&ts, "t1", Metric::AvailableBandwidth), Some(0));
    }

    #[test]
    fn changing_the_model_invalidates_cached_entries() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        forecast(&h, &ts, "t1").unwrap();
        h.model = RegressorKind::Lr;
        let cached = forecast(&h, &ts, "t1").unwrap();
        assert_eq!(
            cached.values,
            eager(&h, &ts, "t1"),
            "stale-config entry reused"
        );
        assert_eq!(h.cache_stats().refits, 2);
    }

    #[test]
    fn clones_share_the_cache() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let h = HecateService::new();
        forecast(&h, &ts, "t1").unwrap();
        let clone = h.clone();
        forecast(&clone, &ts, "t1").unwrap();
        let stats = clone.cache_stats();
        assert_eq!((stats.refits, stats.hits), (1, 1), "{stats:?}");
        h.clear_cache();
        assert_eq!(clone.cache_stats().entries, 0);
    }

    #[test]
    fn a_warm_cache_pointed_at_another_store_refits() {
        // The same service asked for `t1` on store A, then on store B:
        // same name, 63 different samples. B's last 3 samples must not
        // slide into the model fitted on A.
        let a = seeded_store(&[("t1", 20.0)]);
        let mut b = seeded_store(&[("t1", 5.0)]);
        for t in 60..63u64 {
            b.insert(&SeriesKey::new("t1", Metric::AvailableBandwidth), t, 5.0);
        }
        let h = HecateService::new();
        forecast(&h, &a, "t1").unwrap();
        let got = forecast(&h, &b, "t1").unwrap();
        assert_eq!(got.values, eager(&h, &b, "t1"), "rolled A's model on B");
        let stats = h.cache_stats();
        assert_eq!((stats.refits, stats.updates), (2, 0), "{stats:?}");
        assert_eq!(h.cache_age(&a, "t1", Metric::AvailableBandwidth), None);
    }

    #[test]
    fn traced_cache_emits_fit_and_roll_spans_stamped_from_the_clock() {
        let mut ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        h.refit_after = 10;
        let sink = obsv::RecordingSink::shared();
        let clock = obsv::SimClock::new();
        clock.set(7_000);
        h.set_trace(obsv::Tracer::to(sink.clone()), clock.clone());

        // Cold call: refit -> one ml.fit span at the clock's time.
        forecast(&h, &ts, "t1").unwrap();
        // Fresh samples below the refit threshold: update -> ml.roll.
        for t in 60..63u64 {
            ts.insert(
                &SeriesKey::new("t1", Metric::AvailableBandwidth),
                t * 1000,
                20.0,
            );
        }
        clock.set(9_500);
        forecast(&h, &ts, "t1").unwrap();
        // Pure hit: no model work, no span.
        clock.set(11_000);
        forecast(&h, &ts, "t1").unwrap();

        let recs = sink.snapshot();
        let spans: Vec<(&str, obsv::RecordKind, u64)> =
            recs.iter().map(|r| (r.name, r.kind, r.at_ns)).collect();
        assert_eq!(
            spans,
            vec![
                ("ml.fit", obsv::RecordKind::Begin, 7_000),
                ("ml.fit", obsv::RecordKind::End, 7_000),
                ("ml.roll", obsv::RecordKind::Begin, 9_500),
                ("ml.roll", obsv::RecordKind::End, 9_500),
            ],
            "{recs:?}"
        );
        let fit_end = &recs[1];
        assert!(fit_end
            .args
            .iter()
            .any(|(k, v)| *k == "samples" && *v == obsv::Value::U64(60)));
        let roll_end = &recs[3];
        assert!(roll_end
            .args
            .iter()
            .any(|(k, v)| *k == "fresh" && *v == obsv::Value::U64(3)));

        // Disarming stops emission.
        h.set_trace(obsv::Tracer::off(), obsv::SimClock::new());
        h.clear_cache();
        forecast(&h, &ts, "t1").unwrap();
        assert_eq!(sink.len(), 4, "disarmed cache emitted a span");
    }

    #[test]
    fn traced_forecast_all_matches_untraced_bits() {
        let ts = seeded_store(&[("t1", 20.0), ("t2", 10.0)]);
        let paths = vec!["t1".to_string(), "t2".to_string()];
        let plain = HecateService::new();
        let traced = HecateService::new();
        let sink = obsv::RecordingSink::shared();
        traced.set_trace(obsv::Tracer::to(sink.clone()), obsv::SimClock::new());
        let a = plain.forecast_all(&ts, &paths, Metric::AvailableBandwidth);
        let b = traced.forecast_all(&ts, &paths, Metric::AvailableBandwidth);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.values, y.values, "tracing changed forecast bits");
        }
        assert!(sink.len() >= 2, "fit spans expected on the cold fan-out");
    }

    #[test]
    fn linear_model_tracks_trend() {
        // A rising series should yield a forecast above the recent mean.
        let mut ts = TelemetryService::new(1000);
        for t in 0..60u64 {
            ts.insert(
                &SeriesKey::new("up", Metric::AvailableBandwidth),
                t * 1000,
                t as f64,
            );
        }
        let h = HecateService::with_model(RegressorKind::Lr);
        let f = forecast(&h, &ts, "up").unwrap();
        assert!(f.values[0] > 55.0, "first forecast {}", f.values[0]);
    }
    #[test]
    fn sketched_refits_keep_every_forecast_and_count_of_the_eager_cadence() {
        // Three phases on three series: new samples at the refit cadence
        // (each refit replaces a model that was never re-rolled, so it
        // sketches), then one sample per consult (the update arm runs a
        // sketch's deferred fit; the refit after it is eager), then the
        // cadence again. The reference is the protocol run by hand on
        // eager forecasters: a refit is an eager fit, rolled, an
        // update the last fit's forecaster, slid and rolled.
        let paths: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let mut ts = seeded_store(&[("a", 20.0), ("b", 12.0), ("c", 6.0)]);
        let h = HecateService::new();
        let metric = Metric::AvailableBandwidth;
        let history = |ts: &TelemetryService, p: &str| {
            ts.last_n(&SeriesKey::new(p, metric), h.history_window())
        };
        let mut eager: Vec<TrainedForecaster> = Vec::new();
        let mut last: Vec<Vec<f64>> = Vec::new();
        let mut fitted_after_refit = Vec::new();
        let mut t = 60u64;
        let step = h.refit_after;
        let schedule = [0, step, step, step, 0]
            .into_iter()
            .chain([1; 12])
            .chain([step, 0, step]);
        for fresh in schedule {
            for _ in 0..fresh {
                for (i, p) in paths.iter().enumerate() {
                    let v = 10.0 + 4.0 * i as f64 + (t as f64 / 3.0).sin() + (t % 7) as f64;
                    ts.insert(&SeriesKey::new(p, metric), t * 1000, v);
                }
                t += 1;
            }
            let before = h.cache_stats();
            let got = h.forecast_all(&ts, &paths, metric);
            let after = h.cache_stats();
            let arms = (
                after.hits - before.hits,
                after.updates - before.updates,
                after.refits - before.refits,
            );
            assert_eq!(got.len(), paths.len());
            for (i, (p, f)) in paths.iter().zip(&got).enumerate() {
                let want = match arms {
                    (0, 0, 3) => {
                        let mut fit =
                            TrainedForecaster::fit(h.model, &history(&ts, p), h.lags, h.seed)
                                .unwrap();
                        let rolled = fit.roll(h.horizon).unwrap();
                        if eager.len() <= i {
                            eager.push(fit);
                        } else {
                            eager[i] = fit;
                        }
                        fitted_after_refit.push(h.cached_model_fitted(&ts, p, metric).unwrap());
                        rolled
                    }
                    (0, 3, 0) => {
                        eager[i].observe(*history(&ts, p).last().unwrap()).unwrap();
                        assert_eq!(h.cached_model_fitted(&ts, p, metric), Some(true));
                        eager[i].roll(h.horizon).unwrap()
                    }
                    (3, 0, 0) => last[i].clone(),
                    other => panic!("arms {other:?} after {fresh} samples"),
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&f.values), bits(&want), "{p} after {fresh} samples");
            }
            last = got.into_iter().map(|f| f.values).collect();
        }
        // The counts this call sequence gave while every refit was
        // eager: sketching moves none of them.
        let stats = h.cache_stats();
        assert_eq!((stats.hits, stats.updates, stats.refits), (6, 33, 21));
        // First fit eager; three sketches; in phase two the eager refit
        // after re-rolls; in phase three an eager refit (its predecessor
        // was re-rolled), then a sketch.
        let per_refit: Vec<bool> = fitted_after_refit.chunks(3).map(|c| c[0]).collect();
        assert!(fitted_after_refit
            .chunks(3)
            .all(|c| c.iter().all(|f| *f == c[0])));
        assert_eq!(per_refit, [true, false, false, false, true, true, false]);
    }
}
