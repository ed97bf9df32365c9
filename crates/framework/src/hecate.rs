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
//! `(path, metric)` series in a concurrent cache and *queries* it
//! online (NeuRoute's train-once/query-many discipline):
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
//! A decision that reads only some of the candidates
//! ([`HecateService::forecast_needed`]) runs that protocol on those and
//! only the cheap half of it on the rest: a due refit, or the window
//! slide without the roll. Refits and forecast bits are unchanged.
//!
//! Staleness is tracked with the telemetry store's monotonic per-series
//! sample counter ([`TelemetryService::total`]), so invalidation costs
//! one atomic-ish read, not a history diff.

use crate::telemetry::{Metric, SeriesKey, TelemetryService};
use crate::FrameworkError;
use hecate_ml::pipeline::{forecast_next, TrainedForecaster};
use hecate_ml::{MlError, RegressorKind};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// inferences per path under the read lock.
    rolled: Vec<f64>,
    rolled_horizon: usize,
    /// `observed` when `rolled` was rolled; behind it after a deferred
    /// series slid samples in without rolling.
    rolled_at: u64,
}

/// Cache internals shared by every clone of a [`HecateService`].
///
/// Entries are individually locked (`Arc<Mutex<_>>` per series) so
/// forecasts for *different* paths never serialize on the map: the
/// map-wide `RwLock` is only held to look up or publish an entry, and
/// the per-entry mutex covers the window slide + roll. Only calls for
/// the same series contend — which is the correct serialization anyway.
/// Entries are kept in a `BTreeMap` so any future enumeration of the
/// cache (stats dumps, eviction sweeps) is deterministic by
/// construction; lookups on the decision hot path are over a few
/// hundred series at most, where the tree walk is noise next to a
/// model roll.
#[derive(Debug, Default)]
struct CacheInner {
    entries: RwLock<BTreeMap<SeriesKey, Arc<Mutex<CacheEntry>>>>,
    // Behavior counters are `obsv` instruments: the same atomics the
    // accessors snapshot can be adopted into a scenario's metrics
    // registry, so per-epoch scorecard rows read live cache behavior.
    hits: obsv::Counter,
    updates: obsv::Counter,
    refits: obsv::Counter,
    /// Fast gate for per-scope attribution: one relaxed load on the
    /// hot path when disabled (the default).
    scoped_on: AtomicBool,
    /// Per-pair-scope counters, keyed by the scope prefix of a series
    /// target (`"p0/tunnel1"` → `"p0"`). Populated only by
    /// [`HecateService::register_metrics`].
    scoped: RwLock<BTreeMap<String, ScopeCounters>>,
    /// Fast gate for `ml.fit`/`ml.roll` span emission: one relaxed
    /// load on the hot path when tracing is off (the default).
    trace_on: AtomicBool,
    /// Tracer plus the shared sim-time cell the controller keeps
    /// current — the ML pipeline has no clock of its own. Installed by
    /// [`HecateService::set_trace`].
    trace: RwLock<(obsv::Tracer, obsv::SimClock)>,
}

/// Per-scope cache behavior counters (multi-pair attribution).
#[derive(Debug, Clone, Default)]
struct ScopeCounters {
    hits: obsv::Counter,
    updates: obsv::Counter,
    refits: obsv::Counter,
}

/// The pair scope of a series target: `"p0/tunnel1"` → `"p0"`, bare
/// single-pair targets → `""`.
fn scope_of(target: &str) -> &str {
    target.split_once('/').map_or("", |(scope, _)| scope)
}

impl CacheInner {
    /// Bumps one per-scope counter when scoped attribution is on.
    /// `pick` selects hits/updates/refits off the scope's counters.
    fn bump_scoped(&self, target: &str, pick: impl Fn(&ScopeCounters) -> &obsv::Counter) {
        if !self.scoped_on.load(Ordering::Relaxed) {
            return;
        }
        if let Some(sc) = self.scoped.read().get(scope_of(target)) {
            pick(sc).inc();
        }
    }
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
    cache: Arc<CacheInner>,
}

impl std::fmt::Debug for HecateService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HecateService")
            .field("model", &self.model)
            .field("lags", &self.lags)
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .field("refit_after", &self.refit_after)
            .field("cached_series", &self.cache.entries.read().len())
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

    /// True when the cached entry was produced by this service's current
    /// configuration (users may retarget `model`/`lags`/`seed` at any
    /// time; stale-config entries must refit, not roll).
    fn entry_usable(&self, e: &CacheEntry) -> bool {
        e.forecaster.kind() == self.model
            && e.forecaster.lags() == self.lags
            && e.forecaster.seed() == self.seed
    }

    /// Installs a tracer and the shared sim-time clock so the ML
    /// pipeline emits `ml.fit` (model fit + initial roll) and
    /// `ml.roll` (lag-window slide + re-roll) spans. The caller keeps
    /// the clock current (sim time does not advance while the
    /// controller thinks, so both endpoints of a span carry the
    /// decision instant — the analyzer leans on the spans' work args).
    /// Passing `Tracer::off()` disarms the gate again.
    pub fn set_trace(&self, tracer: obsv::Tracer, clock: obsv::SimClock) {
        let on = tracer.enabled();
        *self.cache.trace.write() = (tracer, clock);
        self.cache.trace_on.store(on, Ordering::Relaxed);
    }

    /// The installed tracer and the current sim time, when armed.
    fn ml_trace(&self) -> Option<(obsv::Tracer, u64)> {
        if !self.cache.trace_on.load(Ordering::Relaxed) {
            return None;
        }
        let guard = self.cache.trace.read();
        if !guard.0.enabled() {
            return None;
        }
        Some((guard.0.clone(), guard.1.get()))
    }

    /// Fits a fresh cache entry for `key`. The history window and the
    /// series total are captured in one consistent telemetry read, then
    /// copied out (<= 120 values, refits only) so the expensive model
    /// fit runs without holding any lock — telemetry writers are never
    /// stalled behind a fit.
    fn fit_entry(
        &self,
        telemetry: &TelemetryService,
        key: &SeriesKey,
    ) -> Result<CacheEntry, FrameworkError> {
        let insufficient = |have: usize| FrameworkError::InsufficientTelemetry {
            key: key.to_string(),
            have,
            need: self.min_history(),
        };
        let (total, history) = telemetry
            .with_tail(key, |total, vals| {
                let start = vals.len().saturating_sub(self.history_window());
                (total, vals[start..].to_vec())
            })
            .ok_or_else(|| insufficient(0))?;
        if history.len() < self.min_history() {
            return Err(insufficient(history.len()));
        }
        let trace = self.ml_trace();
        let span = trace.as_ref().map(|(t, at)| t.span("ml", "ml.fit", *at));
        let fitted: Result<(TrainedForecaster, Vec<f64>), FrameworkError> = (|| {
            let forecaster = TrainedForecaster::fit(self.model, &history, self.lags, self.seed)?;
            let rolled = forecaster.roll(self.horizon)?;
            Ok((forecaster, rolled))
        })();
        if let (Some(span), Some((_, at))) = (span, &trace) {
            let samples = history.len() as u64;
            let ok = fitted.is_ok() as u64;
            let lags = self.lags as u64;
            span.end(*at, || {
                vec![
                    ("samples", obsv::Value::U64(samples)),
                    ("lags", obsv::Value::U64(lags)),
                    ("ok", obsv::Value::U64(ok)),
                ]
            });
        }
        let (forecaster, rolled) = fitted?;
        Ok(CacheEntry {
            forecaster,
            fitted_at: total,
            observed: total,
            rolled,
            rolled_horizon: self.horizon,
            rolled_at: total,
        })
    }

    /// The first half of the update arm on a usable entry: slides the
    /// series' fresh samples (fewer than `refit_after`) into the lag
    /// window without rolling. `false` when the series has outrun the
    /// entry (refit); an error on a non-finite sample, after which the
    /// window is spent.
    fn absorb(
        &self,
        telemetry: &TelemetryService,
        key: &SeriesKey,
        e: &mut CacheEntry,
    ) -> Result<bool, MlError> {
        let threshold = self.refit_after.max(1);
        // Read the series total and absorb the fresh tail (a scale and
        // a ten-float rotate per value) in ONE short, consistent
        // telemetry read — taking them separately would let a racing
        // insert land in between, and the window would skip samples now
        // and double-absorb them on the next call. `total < e.observed`
        // means this service was pointed at a different (shorter)
        // telemetry store than the one that populated the cache;
        // anything inconsistent refits.
        telemetry
            .with_tail(key, |total, vals| {
                if total < e.observed || total - e.fitted_at >= threshold {
                    return Ok(false);
                }
                let fresh = (total - e.observed) as usize;
                for &v in &vals[vals.len().saturating_sub(fresh)..] {
                    e.forecaster.observe(v)?;
                }
                e.observed = total;
                Ok(true)
            })
            .unwrap_or(Ok(false))
    }

    /// The hit and update arms of [`HecateService::forecast_path`] on a
    /// usable entry: `None` when the series has outrun it (refit). A hit
    /// clones the memoized roll — `horizon` floats, no model inference.
    /// Otherwise the fresh samples slide into the lag window and the
    /// roll is re-memoized in place, no refit and no allocation but the
    /// returned copy. The roll — all of the inference — runs after the
    /// telemetry guard is dropped, under only this entry's lock, so
    /// inserts and other series' readers are never stalled behind it.
    fn serve_cached(
        &self,
        telemetry: &TelemetryService,
        key: &SeriesKey,
        e: &mut CacheEntry,
    ) -> Result<Option<Vec<f64>>, MlError> {
        if !self.absorb(telemetry, key, e)? {
            return Ok(None);
        }
        let fresh = e.observed - e.rolled_at;
        if fresh == 0 {
            self.cache.hits.inc();
            self.cache.bump_scoped(&key.target, |sc| &sc.hits);
            if e.rolled_horizon == self.horizon {
                return Ok(Some(e.rolled.clone()));
            }
            // Horizon changed: re-roll only.
        } else {
            self.cache.updates.inc();
            self.cache.bump_scoped(&key.target, |sc| &sc.updates);
        }
        let trace = self.ml_trace();
        let span = trace.as_ref().map(|(t, at)| t.span("ml", "ml.roll", *at));
        e.forecaster.roll_into(self.horizon, &mut e.rolled)?;
        e.rolled_horizon = self.horizon;
        e.rolled_at = e.observed;
        if let (Some(span), Some((_, at))) = (span, &trace) {
            let horizon = self.horizon as u64;
            span.end(*at, || {
                vec![
                    ("fresh", obsv::Value::U64(fresh)),
                    ("horizon", obsv::Value::U64(horizon)),
                ]
            });
        }
        Ok(Some(e.rolled.clone()))
    }

    /// Forecasts the next `horizon` values of a metric for one path,
    /// serving from the trained-model cache whenever the series has not
    /// outrun [`HecateService::refit_after`] — see the module docs for
    /// the hit/update/refit protocol. A refit-every-time baseline is
    /// kept as [`HecateService::forecast_path_uncached`].
    pub fn forecast_path(
        &self,
        telemetry: &TelemetryService,
        path: &str,
        metric: Metric,
    ) -> Result<PathForecast, FrameworkError> {
        let key = SeriesKey::new(path, metric);
        let wrap = |values: Vec<f64>| PathForecast {
            path: path.to_string(),
            values,
        };
        // Hit/update path: lock only this series' entry (the map read
        // lock is dropped immediately), so forecasts for different
        // paths proceed fully in parallel.
        let cell = self.cache.entries.read().get(&key).cloned();
        if let Some(cell) = cell {
            let mut e = cell.lock();
            if self.entry_usable(&e) {
                match self.serve_cached(telemetry, &key, &mut e) {
                    Ok(Some(values)) => return Ok(wrap(values)),
                    Ok(None) => {} // stale: refit
                    Err(err) => {
                        drop(e);
                        self.spend(&key);
                        return Err(err.into());
                    }
                }
            }
        }
        self.refit(telemetry, key).map(wrap)
    }

    /// Drops `key`'s entry after a non-finite sample. The window may
    /// have taken the samples before it, so the entry is spent: the
    /// path is skipped now and refits at the next consult.
    fn spend(&self, key: &SeriesKey) {
        self.cache.entries.write().remove(key);
    }

    /// The refit arm: fits outside any lock (fits are the expensive
    /// part and must not serialize a parallel fan-out over many paths),
    /// then publishes the entry and returns its roll. Concurrent misses
    /// on the same key may fit twice; both fits are deterministic, so
    /// last-write-wins is harmless.
    fn refit(
        &self,
        telemetry: &TelemetryService,
        key: SeriesKey,
    ) -> Result<Vec<f64>, FrameworkError> {
        let entry = self.fit_entry(telemetry, &key)?;
        let values = entry.rolled.clone();
        self.cache.refits.inc();
        self.cache.bump_scoped(&key.target, |sc| &sc.refits);
        self.cache
            .entries
            .write()
            .insert(key, Arc::new(Mutex::new(entry)));
        Ok(values)
    }

    /// The deferred arm, minus the refit: `None` when one is due, else
    /// whether the series is still forecastable. A usable entry takes
    /// its fresh samples into the lag window without a roll; a
    /// non-finite one spends it, as in [`HecateService::forecast_path`].
    fn defer(&self, telemetry: &TelemetryService, key: &SeriesKey) -> Option<bool> {
        let cell = self.cache.entries.read().get(key).cloned()?;
        let mut e = cell.lock();
        if !self.entry_usable(&e) {
            return None;
        }
        match self.absorb(telemetry, key, &mut e) {
            Ok(absorbed) => absorbed.then_some(true),
            Err(_) => {
                drop(e);
                self.spend(key);
                Some(false)
            }
        }
    }

    /// The seed reproduction's behavior: refit from history on every
    /// single call, bypassing the cache. Backs
    /// [`HecateService::forecast_all_uncached`], the cold reference the
    /// cache is checked against in `tests/forecast_engine.rs`.
    pub fn forecast_path_uncached(
        &self,
        telemetry: &TelemetryService,
        path: &str,
        metric: Metric,
    ) -> Result<PathForecast, FrameworkError> {
        let key = SeriesKey::new(path, metric);
        let history = telemetry.last_n(&key, self.history_window());
        if history.len() < self.min_history() {
            return Err(FrameworkError::InsufficientTelemetry {
                key: key.to_string(),
                have: history.len(),
                need: self.min_history(),
            });
        }
        let values = forecast_next(self.model, &history, self.lags, self.horizon, self.seed)?;
        Ok(PathForecast {
            path: path.to_string(),
            values,
        })
    }

    /// Serves a memoized cache hit for `key` — model saw every sample,
    /// same horizon — without touching the model or any history;
    /// `None` on anything that needs the full hit/update/refit
    /// protocol. Does not touch the stats counters: the caller
    /// attributes hits (a partial probe that falls back to
    /// [`HecateService::forecast_path`] must not count paths twice).
    fn try_hit(&self, telemetry: &TelemetryService, key: &SeriesKey) -> Option<Vec<f64>> {
        let cell = self.cache.entries.read().get(key).cloned()?;
        let e = cell.lock();
        if self.entry_usable(&e)
            && e.rolled_horizon == self.horizon
            && e.rolled_at == e.observed
            && e.observed == telemetry.total(key)
        {
            Some(e.rolled.clone())
        } else {
            None
        }
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
        let (aligned, _) = self.forecast_needed(telemetry, paths, &vec![true; paths.len()], metric);
        aligned.into_iter().flatten().collect()
    }

    /// [`HecateService::forecast_all`] for a decision that reads only
    /// the paths with `needed[i]` set. Those get the full protocol.
    /// Every other path is *deferred*: it refits when that refit is
    /// due, and otherwise slides its fresh samples into the lag window
    /// but skips the roll. Staleness counts from the fit and a roll is
    /// a pure function of the window, so refits land where
    /// `forecast_all` puts them and later forecasts carry its bits.
    ///
    /// The forecasts come back aligned with `paths`: entry `i` is path
    /// `i`'s, `None` when it was deferred or could not be forecast. The
    /// flag says whether *any* path could be forecast, deferred ones
    /// included — what a cold-start fallback must test.
    ///
    /// An all-hit call runs sequentially (a lookup and a ten-float clone
    /// per path, which thread spawns would dominate); otherwise the
    /// needed paths and due refits fan out once over scoped workers.
    pub fn forecast_needed<P: AsRef<str> + Sync>(
        &self,
        telemetry: &TelemetryService,
        paths: &[P],
        needed: &[bool],
        metric: Metric,
    ) -> (Vec<Option<PathForecast>>, bool) {
        let mut forecastable = false;
        // (position, path, needed) for every path that needs a forecast
        // or a refit, in candidate order.
        let mut work: Vec<(usize, &str, bool)> = Vec::with_capacity(paths.len());
        for (i, path) in paths.iter().enumerate() {
            let path = path.as_ref();
            if needed.get(i) == Some(&true) {
                work.push((i, path, true));
                continue;
            }
            match self.defer(telemetry, &SeriesKey::new(path, metric)) {
                Some(ok) => forecastable |= ok,
                None => work.push((i, path, false)),
            }
        }
        let hits: Option<Vec<PathForecast>> = work
            .iter()
            .map(|&(_, path, need)| {
                need.then(|| self.try_hit(telemetry, &SeriesKey::new(path, metric)))?
                    .map(|values| PathForecast {
                        path: path.to_string(),
                        values,
                    })
            })
            .collect();
        let served: Vec<(Option<PathForecast>, bool)> = if let Some(forecasts) = hits {
            self.cache.hits.add(forecasts.len() as u64);
            if self.cache.scoped_on.load(Ordering::Relaxed) {
                for f in &forecasts {
                    self.cache.bump_scoped(&f.path, |sc| &sc.hits);
                }
            }
            forecasts.into_iter().map(|f| (Some(f), true)).collect()
        } else {
            let serve = |&(_, path, need): &(usize, &str, bool)| {
                if need {
                    let forecast = self.forecast_path(telemetry, path, metric).ok();
                    let ok = forecast.is_some();
                    (forecast, ok)
                } else {
                    let refit = self.refit(telemetry, SeriesKey::new(path, metric));
                    (None, refit.is_ok())
                }
            };
            // A traced run fans out sequentially: `ml.fit`/`ml.roll` span
            // emission order must be deterministic, and worker
            // interleaving is not. Results are bitwise identical either
            // way — forecasts are independent and `par_map` preserves
            // candidate order — so only the trace artifact cares.
            if self.cache.trace_on.load(Ordering::Relaxed) {
                work.iter().map(serve).collect()
            } else {
                linalg::par::par_map(&work, serve)
            }
        };
        let forecastable = forecastable || served.iter().any(|&(_, ok)| ok);
        let mut aligned = vec![None; paths.len()];
        for (&(i, ..), (forecast, _)) in work.iter().zip(served) {
            aligned[i] = forecast;
        }
        (aligned, forecastable)
    }

    /// Refit-every-time variant of [`HecateService::forecast_all`] (the
    /// cold baseline), with the same parallel fan-out.
    pub fn forecast_all_uncached(
        &self,
        telemetry: &TelemetryService,
        paths: &[String],
        metric: Metric,
    ) -> Vec<PathForecast> {
        linalg::par::par_map(paths, |p| {
            self.forecast_path_uncached(telemetry, p, metric).ok()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Behavior counters plus the live entry count (a snapshot; the
    /// live instruments can be exposed via
    /// [`HecateService::register_metrics`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits.get(),
            updates: self.cache.updates.get(),
            refits: self.cache.refits.get(),
            entries: self.cache.entries.read().len(),
        }
    }

    /// Exposes the cache's live counters in `registry` under
    /// `{prefix}.hits` / `.updates` / `.refits`, and — for every scope
    /// in `scopes` (pair names, multi-pair deployments) — per-scope
    /// counters `{prefix}.{scope}.hits` etc., attributed by the scope
    /// prefix of each series target. The per-scope path costs one
    /// relaxed load until scopes are registered.
    pub fn register_metrics(&self, registry: &obsv::Registry, prefix: &str, scopes: &[String]) {
        registry.adopt_counter(&format!("{prefix}.hits"), &self.cache.hits);
        registry.adopt_counter(&format!("{prefix}.updates"), &self.cache.updates);
        registry.adopt_counter(&format!("{prefix}.refits"), &self.cache.refits);
        let mut scoped = self.cache.scoped.write();
        for scope in scopes {
            if scope.is_empty() {
                // The legacy single-pair scope has no prefix; the
                // global counters already are its attribution.
                continue;
            }
            let sc = ScopeCounters {
                hits: registry.counter(&format!("{prefix}.{scope}.hits")),
                updates: registry.counter(&format!("{prefix}.{scope}.updates")),
                refits: registry.counter(&format!("{prefix}.{scope}.refits")),
            };
            scoped.insert(scope.clone(), sc);
        }
        if !scoped.is_empty() {
            self.cache.scoped_on.store(true, Ordering::Relaxed);
        }
    }

    /// How many samples the series has grown since the cached model for
    /// `(path, metric)` was fitted; `None` when nothing is cached. After
    /// any successful [`HecateService::forecast_path`] this is always
    /// `< max(refit_after, 1)` as of the telemetry state that call saw.
    pub fn cache_age(
        &self,
        telemetry: &TelemetryService,
        path: &str,
        metric: Metric,
    ) -> Option<u64> {
        let key = SeriesKey::new(path, metric);
        let cell = self.cache.entries.read().get(&key).cloned()?;
        let fitted_at = cell.lock().fitted_at;
        Some(telemetry.total(&key).saturating_sub(fitted_at))
    }

    /// Drops every cached model (e.g. after a topology change that
    /// makes old series semantics meaningless).
    pub fn clear_cache(&self) {
        self.cache.entries.write().clear();
    }

    /// The paper's headline recommendation: the path with the most
    /// predicted available bandwidth over the horizon.
    pub fn best_path_by_bandwidth(
        &self,
        telemetry: &TelemetryService,
        paths: &[String],
    ) -> Result<String, FrameworkError> {
        let forecasts = self.forecast_all(telemetry, paths, Metric::AvailableBandwidth);
        forecasts
            .into_iter()
            .max_by(|a, b| a.mean().total_cmp(&b.mean()))
            .map(|f| f.path)
            .ok_or(FrameworkError::NoFeasiblePath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store(paths: &[(&str, f64)]) -> TelemetryService {
        let ts = TelemetryService::new(1000);
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
        let f = h
            .forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        assert_eq!(f.values.len(), 10);
        // forecast of a ~20 Mbps series stays near 20
        assert!((f.mean() - 20.0).abs() < 3.0, "mean {}", f.mean());
    }

    #[test]
    fn insufficient_history_is_reported() {
        let ts = TelemetryService::new(100);
        for t in 0..5u64 {
            ts.insert(&SeriesKey::new("t1", Metric::AvailableBandwidth), t, 1.0);
        }
        let h = HecateService::new();
        match h.forecast_path(&ts, "t1", Metric::AvailableBandwidth) {
            Err(FrameworkError::InsufficientTelemetry { have, need, .. }) => {
                assert_eq!(have, 5);
                assert_eq!(need, 12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn best_path_picks_highest_forecast() {
        let ts = seeded_store(&[("t1", 20.0), ("t2", 10.0), ("t3", 5.0)]);
        let h = HecateService::new();
        let best = h
            .best_path_by_bandwidth(&ts, &["t1".to_string(), "t2".to_string(), "t3".to_string()])
            .unwrap();
        assert_eq!(best, "t1");
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
                let ts = seeded_store(&[("t1", 10.0), ("sick", 12.0), ("t3", 8.0)]);
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
                let ts = seeded_store(&[("t1", 10.0), ("sick", 12.0), ("t3", 8.0)]);
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
    fn no_candidates_is_an_error() {
        let ts = TelemetryService::new(10);
        let h = HecateService::new();
        assert!(matches!(
            h.best_path_by_bandwidth(&ts, &[]),
            Err(FrameworkError::NoFeasiblePath)
        ));
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
        let first = h
            .forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let hit = h
            .forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let uncached = h
            .forecast_path_uncached(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        assert_eq!(first.values, hit.values);
        assert_eq!(hit.values, uncached.values, "cache must not change bits");
        let stats = h.cache_stats();
        assert_eq!((stats.refits, stats.hits), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_updates_window_below_threshold_and_refits_at_it() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        h.refit_after = 5;
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        // 3 new samples < 5: window update, no refit.
        for t in 60..63u64 {
            ts.insert(
                &SeriesKey::new("t1", Metric::AvailableBandwidth),
                t * 1000,
                20.0,
            );
        }
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
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
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let stats = h.cache_stats();
        assert_eq!(stats.refits, 2, "{stats:?}");
        assert_eq!(h.cache_age(&ts, "t1", Metric::AvailableBandwidth), Some(0));
    }

    #[test]
    fn changing_the_model_invalidates_cached_entries() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        h.model = RegressorKind::Lr;
        let cached = h
            .forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let fresh = h
            .forecast_path_uncached(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        assert_eq!(cached.values, fresh.values, "stale-config entry reused");
        assert_eq!(h.cache_stats().refits, 2);
    }

    #[test]
    fn clones_share_the_cache() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let h = HecateService::new();
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let clone = h.clone();
        clone
            .forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        let stats = clone.cache_stats();
        assert_eq!((stats.refits, stats.hits), (1, 1), "{stats:?}");
        h.clear_cache();
        assert_eq!(clone.cache_stats().entries, 0);
    }

    #[test]
    fn traced_cache_emits_fit_and_roll_spans_stamped_from_the_clock() {
        let ts = seeded_store(&[("t1", 20.0)]);
        let mut h = HecateService::new();
        h.refit_after = 10;
        let sink = obsv::RecordingSink::shared();
        let clock = obsv::SimClock::new();
        clock.set(7_000);
        h.set_trace(obsv::Tracer::to(sink.clone()), clock.clone());

        // Cold call: refit -> one ml.fit span at the clock's time.
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        // Fresh samples below the refit threshold: update -> ml.roll.
        for t in 60..63u64 {
            ts.insert(
                &SeriesKey::new("t1", Metric::AvailableBandwidth),
                t * 1000,
                20.0,
            );
        }
        clock.set(9_500);
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
        // Pure hit: no model work, no span.
        clock.set(11_000);
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();

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
        h.forecast_path(&ts, "t1", Metric::AvailableBandwidth)
            .unwrap();
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
        let ts = TelemetryService::new(1000);
        for t in 0..60u64 {
            ts.insert(
                &SeriesKey::new("up", Metric::AvailableBandwidth),
                t * 1000,
                t as f64,
            );
        }
        let h = HecateService::with_model(RegressorKind::Lr);
        let f = h
            .forecast_path(&ts, "up", Metric::AvailableBandwidth)
            .unwrap();
        assert!(f.values[0] > 55.0, "first forecast {}", f.values[0]);
    }
}
