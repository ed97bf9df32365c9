//! Correctness of the shared ForecastEngine: the trained-model cache
//! must be invisible in results (identical forecasts, identical
//! recommendations) and never serve a read staler than the configured
//! refit threshold, however writes and decisions interleave.

use framework::controller::{decide_flows_pairs, PathDecision, SequenceLog};
use framework::hecate::HecateService;
use framework::optimizer::{FlowDemand, Objective, SharedLinkModel};
use framework::telemetry::{Metric, SeriesKey, TelemetryService};
use hecate_ml::pipeline::TrainedForecaster;
use hecate_ml::RegressorKind;
use proptest::prelude::*;

/// A telemetry store with `paths` bandwidth series of distinct levels
/// and shapes, `len` samples each at 1 Hz.
fn store_with_paths(paths: usize, len: usize) -> (TelemetryService, Vec<String>) {
    let mut ts = TelemetryService::new(1024);
    let names: Vec<String> = (0..paths).map(|i| format!("path{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let level = 5.0 + 3.0 * i as f64;
        for t in 0..len as u64 {
            let v = level + ((t as f64 / (4.0 + i as f64)).sin() * 1.5);
            ts.insert(
                &SeriesKey::new(name, Metric::AvailableBandwidth),
                t * 1000,
                v,
            );
        }
    }
    (ts, names)
}

/// One max-bandwidth consult of `flows` greedy flows on one pair over
/// `names`, tunnels that cross no physical link: only the forecasts
/// bind.
fn decide(
    hecate: &HecateService,
    ts: &TelemetryService,
    flows: usize,
    names: &[String],
) -> Vec<PathDecision> {
    let model = SharedLinkModel::one_pair(names.len());
    let greedy = FlowDemand {
        pair: framework::PairId::default(),
        demand: None,
    };
    let mut log = SequenceLog::default();
    decide_flows_pairs(
        hecate,
        ts,
        &vec![greedy; flows],
        names,
        &model,
        Objective::MaxBandwidth,
        &Default::default(),
        &mut log,
    )
    .expect("warm store: decisions never fail")
    .decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: a cache-hit forecast is bitwise-identical to a fresh
    /// eager fit-then-roll when no new samples arrived — for arbitrary
    /// series content, arbitrary history length and both a
    /// deterministic and a seeded-stochastic model.
    #[test]
    fn cache_hit_is_bitwise_identical_to_fresh_forecast(
        series in prop::collection::vec(0.1f64..100.0, 13..200),
        stochastic in prop::bool::ANY,
    ) {
        let kind = if stochastic { RegressorKind::Rfr } else { RegressorKind::Lr };
        let mut ts = TelemetryService::new(1024);
        let key = SeriesKey::new("p", Metric::AvailableBandwidth);
        for (t, v) in series.iter().enumerate() {
            ts.insert(&key, t as u64 * 1000, *v);
        }
        let h = HecateService::with_model(kind);
        let path = ["p".to_string()];
        // populate (refit) ...
        let first = h.forecast_all(&ts, &path, Metric::AvailableBandwidth).pop().unwrap();
        // ... then hit, with zero new samples in between
        let hit = h.forecast_all(&ts, &path, Metric::AvailableBandwidth).pop().unwrap();
        // the reference: an eager fit from scratch on the exact same
        // history, rolled (`forecast_next` sketches, as a refit may)
        let history = ts.last_n(&key, 120.max(h.min_history()));
        let mut eager = TrainedForecaster::fit(kind, &history, h.lags, h.seed).unwrap();
        let fresh = eager.roll(h.horizon).unwrap();
        prop_assert_eq!(&hit.values, &fresh, "cache hit must not change bits");
        prop_assert_eq!(&hit.values, &first.values);
        let stats = h.cache_stats();
        prop_assert_eq!((stats.refits, stats.hits), (1, 1));
    }
}

/// Acceptance: the cached engine's recommendations match an eager
/// fit-then-roll's on identical telemetry — RFR, 8 candidate paths, both
/// the single best-path question and a batched greedy-flow placement.
#[test]
fn cached_recommendations_match_uncached_on_8_paths() {
    let (ts, names) = store_with_paths(8, 60);
    let hecate = HecateService::new(); // the paper's RFR
    let cold: Vec<Vec<f64>> = names
        .iter()
        .map(|name| {
            let key = SeriesKey::new(name, Metric::AvailableBandwidth);
            let history = ts.last_n(&key, 120.max(hecate.min_history()));
            let mut eager =
                TrainedForecaster::fit(hecate.model, &history, hecate.lags, hecate.seed).unwrap();
            eager.roll(hecate.horizon).unwrap()
        })
        .collect();
    let warm = hecate.forecast_all(&ts, &names, Metric::AvailableBandwidth);
    let hit = hecate.forecast_all(&ts, &names, Metric::AvailableBandwidth);
    assert_eq!(warm.len(), 8);
    for ((c, w), name) in cold.iter().zip(&warm).zip(&names) {
        assert_eq!(&w.path, name);
        assert_eq!(c, &w.values, "{name}: cached forecast diverged");
    }
    // Same recommendation for a single flow...
    let best = |forecasts: &[framework::hecate::PathForecast]| {
        let best = forecasts
            .iter()
            .max_by(|a, b| a.mean().total_cmp(&b.mean()));
        best.unwrap().path.clone()
    };
    assert_eq!(best(&warm), best(&hit));
    assert_eq!(best(&warm), "path7", "highest level wins");
    // ... and for a whole batch placed jointly.
    let again = decide(&hecate, &ts, 4, &names);
    let rerun = decide(&hecate, &ts, 4, &names);
    assert_eq!(again, rerun, "warm batch decisions are stable");
    let stats = hecate.cache_stats();
    assert_eq!(stats.refits, 8, "one fit per path, everything else served");
    assert!(stats.hits >= 8, "{stats:?}");
}

/// Satellite: batched decisions interleaved with telemetry writes, one
/// sample at a time, from two handles on one cache: every decision must
/// use a forecast, and no cached model may serve data staler than
/// `refit_after`.
#[test]
fn interleaved_decisions_and_writers_stay_fresh() {
    let (mut ts, names) = store_with_paths(4, 40);
    let mut hecate = HecateService::with_model(RegressorKind::Lr); // fast fits
    hecate.refit_after = 8;
    let deciders = [hecate.clone(), hecate];
    let rounds = 30u64;

    for t in 0..rounds {
        for (i, name) in names.iter().enumerate() {
            // A writer: this path's series grows by one sample ...
            let key = SeriesKey::new(name, Metric::AvailableBandwidth);
            ts.insert(&key, (40 + t) * 1000, 10.0 + (t as f64 / 3.0).cos());
            // ... then a batched decision, the deciders taking turns.
            let hecate = &deciders[(t as usize + i) % 2];
            let decisions = decide(hecate, &ts, 3, &names);
            assert_eq!(decisions.len(), 3);
            assert!(decisions.iter().all(|dec| dec.used_forecast));
            // Every cached model is within refit_after of its series.
            for name in &names {
                let age = hecate
                    .cache_age(&ts, name, Metric::AvailableBandwidth)
                    .expect("every path is cached");
                assert!(
                    age < hecate.refit_after.max(1),
                    "{name}: cached model is {age} samples stale (refit_after {})",
                    hecate.refit_after
                );
            }
        }
    }
}
