//! The Controller: the Fig 4 decision sequence.
//!
//! "When a new data flow arrives, the Controller consults the Optimizer
//! to determine the most suitable path. After the optimal path is
//! identified, the Controller communicates this decision to the SR
//! Service, establishing the path and configuring a policy to route the
//! flow through it by adjusting the edge routers."

use crate::hecate::{Candidate, HecateService, PathForecast};
use crate::optimizer::{
    assign_flows_shared_with, select_path, FlowDemand, Objective, OptimizerConfig, SharedLinkModel,
    SolverKind,
};
use crate::telemetry::{Metric, SeriesId, SeriesKey, TelemetryService};
use crate::{FrameworkError, PairId};

/// The outcome of one path decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDecision {
    /// Chosen tunnel name.
    pub tunnel: String,
    /// Whether the decision used Hecate forecasts (false = fallback to
    /// the arbitrary first candidate, the paper's "phase (i)").
    pub used_forecast: bool,
    /// Score of the chosen path under the objective (forecast mean);
    /// `None` on the cold-start fallback, where no forecast exists.
    /// (The seed used `f64::NAN` here, which silently broke the derived
    /// `PartialEq`: two identical cold-start decisions compared
    /// unequal.)
    pub score: Option<f64>,
}

/// The Fig 4 message sequence, recorded step by step so tests and the
/// repro harness can assert the exact interaction order.
#[derive(Debug, Clone, Default)]
pub struct SequenceLog {
    steps: Vec<&'static str>,
}

impl SequenceLog {
    /// Records one interaction.
    pub fn record(&mut self, step: &'static str) {
        self.steps.push(step);
    }

    /// The recorded steps in order.
    pub fn steps(&self) -> &[&'static str] {
        &self.steps
    }
}

/// What one consultation decided, and how.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchDecision {
    /// One decision per request, in request order.
    pub decisions: Vec<PathDecision>,
    /// Which shared-link solver placed the batch (`None` on cold start
    /// and for the per-pair objectives, which never solve jointly).
    pub solver: Option<SolverKind>,
    /// Candidate series forecast for the batch: its pairs' tunnels.
    pub series: usize,
    /// Each decision's candidate index: its tunnel is that candidate's
    /// name.
    pub(crate) rows: Vec<usize>,
    /// The per-tunnel caps the shared-link solve placed the batch
    /// under ([`SharedLinkModel::with_tunnel_caps`]); empty when no
    /// solve ran.
    pub(crate) caps: Vec<f64>,
    /// The shared-link solve's [`crate::optimizer::SharedAssignment::scored`] (0
    /// when no solve ran).
    pub scored: u64,
    /// The shared-link solve's [`crate::optimizer::SharedAssignment::fill_rounds`]
    /// (0 when no solve ran).
    pub fill_rounds: u64,
}

/// The decision function: one Fig 4 consultation (getTelemetry →
/// askHecatePath → Optimizer) for a batch of flows across *all* managed
/// pairs, against the shared-link capacity model: the flows due in a
/// scheduler tick at admission, every managed flow at re-optimization.
/// A single-pair network is the `N = 1` case; a lone arrival is a batch
/// of one. Returns one decision per flow, in flow order.
///
/// The per-path forecasts are computed once (fanned out in parallel,
/// served from Hecate's trained-model cache) and amortized across the
/// whole batch — the AMPF insight that per-flow ML path assignment only
/// scales when classifier cost is shared across arriving flows.
///
/// `names` is the global candidate order (every pair's tunnels,
/// pair-scoped series names) aligned with `model.tunnel_links`; the
/// forecasts are therefore keyed `(pair, tunnel, metric)` in Hecate's
/// cache — one trained model per pair-scoped series.
///
/// Only the candidate tunnels of the batch's pairs can change where its
/// flows go, so only their series are forecast; every other series is
/// deferred, with its refits and bits unchanged.
///
/// Placement semantics:
///
/// * cold start (no forecastable series at all, deferred ones included)
///   sends each flow to its own pair's first candidate (phase i);
/// * latency/utilization objectives have no flow-interaction model:
///   each pair's flows all take that pair's [`select_path`] winner;
/// * [`Objective::MaxBandwidth`] forms per-tunnel capacity caps
///   (forecast mean, falling back to the last observed sample, floored
///   at zero), folds them into the model as synthetic links
///   ([`SharedLinkModel::with_tunnel_caps`]), and places the batch with
///   [`assign_flows_shared_with`] under `config` — exhaustively when
///   the assignment space is within its bound, greedily otherwise — so
///   no shared link is oversubscribed.
#[allow(clippy::too_many_arguments)]
pub fn decide_flows_pairs<N: AsRef<str>>(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    flows: &[FlowDemand],
    names: &[N],
    model: &SharedLinkModel,
    objective: Objective,
    config: &OptimizerConfig,
    log: &mut SequenceLog,
) -> Result<BatchDecision, FrameworkError> {
    let series = |t: usize, metric| telemetry.find(&SeriesKey::new(names[t].as_ref(), metric));
    decide_flows(
        hecate, telemetry, flows, names, series, model, objective, config, log,
    )
}

/// [`decide_flows_pairs`] on resolved series: `series(t, metric)` is
/// candidate `t`'s `metric` series in `telemetry` (`None`: the store
/// has none).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_flows<N: AsRef<str>>(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    flows: &[FlowDemand],
    names: &[N],
    series: impl Fn(usize, Metric) -> Option<SeriesId>,
    model: &SharedLinkModel,
    objective: Objective,
    config: &OptimizerConfig,
    log: &mut SequenceLog,
) -> Result<BatchDecision, FrameworkError> {
    if names.is_empty() || names.len() != model.tunnel_links.len() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    let metric = match objective {
        Objective::MinLatency => Metric::Rtt,
        _ => Metric::AvailableBandwidth,
    };
    let mut cands: Vec<Candidate> = names
        .iter()
        .enumerate()
        .map(|(t, name)| Candidate {
            path: name.as_ref(),
            series: series(t, metric),
            pair: None,
            needed: false,
        })
        .collect();
    // Each candidate's pair: the counters its cache arm bumps.
    for (p, own) in model.candidates.iter().enumerate() {
        for &t in own {
            if let Some(c) = cands.get_mut(t) {
                c.pair = Some(PairId(p));
            }
        }
    }
    // Each flow's pair's candidates, all in range: the batch's series.
    let mut first_of_flow = Vec::with_capacity(flows.len());
    for flow in flows {
        let own = model
            .candidates
            .get(flow.pair.index())
            .map_or(&[][..], Vec::as_slice);
        if own.is_empty() || own.iter().any(|&t| t >= cands.len()) {
            return Err(FrameworkError::NoFeasiblePath);
        }
        for &t in own {
            cands[t].needed = true;
        }
        first_of_flow.push(own[0]);
    }
    if flows.is_empty() {
        return Ok(Default::default());
    }
    log.record("getTelemetry");
    log.record("askHecatePath");
    let (forecast_of, forecastable) = hecate.forecast_candidates(telemetry, &cands);
    // Each flow's `(candidate, used_forecast, score)`, and the caps they
    // were placed under.
    let decide = |picks: Vec<(usize, bool, Option<f64>)>, solver, caps| BatchDecision {
        decisions: picks
            .iter()
            .map(|&(t, used_forecast, score)| PathDecision {
                tunnel: names[t].as_ref().to_string(),
                used_forecast,
                score,
            })
            .collect(),
        solver,
        series: cands.iter().filter(|c| c.needed).count(),
        rows: picks.into_iter().map(|(t, ..)| t).collect(),
        caps,
        scored: 0,
        fill_rounds: 0,
    };
    if !forecastable {
        // Cold start: each pair's phase-(i) arbitrary first candidate.
        log.record("fallbackArbitraryPath");
        let picks = first_of_flow.iter().map(|&t| (t, false, None)).collect();
        return Ok(decide(picks, None, Vec::new()));
    }
    let out = match objective {
        Objective::MaxBandwidth => {
            // Per-tunnel caps: forecast mean, else last sample, else 0.
            // A tunnel outside the batch carries none of its flows, so
            // no fill reads its cap.
            let caps: Vec<f64> = cands
                .iter()
                .zip(&forecast_of)
                .map(|(c, forecast)| {
                    if !c.needed {
                        return 0.0;
                    }
                    forecast
                        .as_ref()
                        .map(|f| f.mean())
                        .or_else(|| telemetry.last_of(c.series?))
                        .unwrap_or(0.0)
                        .max(0.0)
                })
                .collect();
            let capped = model.clone().with_tunnel_caps(&caps);
            let (assignment, kind) = assign_flows_shared_with(&capped, flows, config)?;
            let picks = assignment
                .tunnel_of_flow
                .iter()
                .map(|&t| (t, true, forecast_of[t].as_ref().map(|f| f.mean())))
                .collect();
            BatchDecision {
                scored: assignment.scored,
                fill_rounds: assignment.fill_rounds,
                ..decide(picks, Some(kind), caps)
            }
        }
        _ => {
            // No flow-interaction model: each pair's flows take that
            // pair's winner among its own forecasts.
            let picks = flows
                .iter()
                .zip(&first_of_flow)
                .map(|(flow, &first)| {
                    let own = &model.candidates[flow.pair.index()];
                    let (rows, mine): (Vec<usize>, Vec<PathForecast>) = own
                        .iter()
                        .filter_map(|&t| Some((t, forecast_of[t].clone()?)))
                        .unzip();
                    match select_path(objective, &mine) {
                        Ok(best) => (rows[best], true, Some(mine[best].mean())),
                        // This pair is still cold: arbitrary first.
                        Err(_) => (first, false, None),
                    }
                })
                .collect();
            decide(picks, None, Vec::new())
        }
    };
    log.record("optimizerReturn");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SeriesKey;

    fn store_with(paths: &[(&str, f64)], metric: Metric) -> TelemetryService {
        let mut ts = TelemetryService::new(1000);
        for (name, level) in paths {
            for t in 0..40u64 {
                ts.insert(
                    &SeriesKey::new(name, metric),
                    t * 1000,
                    level + (t as f64 / 7.0).sin() * 0.5,
                );
            }
        }
        ts
    }

    fn candidates() -> Vec<String> {
        vec!["tunnel1".into(), "tunnel2".into(), "tunnel3".into()]
    }

    /// `n` greedy flows of pair 0.
    fn reqs(n: usize) -> Vec<FlowDemand> {
        pair_reqs(&vec![0; n])
    }

    /// Decides `reqs` on one pair over `names`, tunnels that cross no
    /// physical link (the paper testbed's shape: only forecasts bind).
    fn decide_one_pair(
        h: &HecateService,
        ts: &TelemetryService,
        reqs: &[FlowDemand],
        names: &[String],
        objective: Objective,
        log: &mut SequenceLog,
    ) -> Result<BatchDecision, FrameworkError> {
        let model = SharedLinkModel::one_pair(names.len());
        let config = OptimizerConfig::default();
        decide_flows_pairs(h, ts, reqs, names, &model, objective, &config, log)
    }

    #[test]
    fn warm_decision_uses_forecasts() {
        let ts = store_with(
            &[("tunnel1", 20.0), ("tunnel2", 10.0), ("tunnel3", 5.0)],
            Metric::AvailableBandwidth,
        );
        let mut log = SequenceLog::default();
        let out = decide_one_pair(
            &HecateService::new(),
            &ts,
            &reqs(1),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        let d = &out.decisions[0];
        assert_eq!(d.tunnel, "tunnel1");
        assert!(d.used_forecast);
        assert_eq!((out.solver, out.series), (Some(SolverKind::Exhaustive), 3));
        assert_eq!(
            log.steps(),
            &["getTelemetry", "askHecatePath", "optimizerReturn"]
        );
    }

    #[test]
    fn latency_objective_reads_rtt_series() {
        let ts = store_with(&[("tunnel1", 58.0), ("tunnel2", 16.0)], Metric::Rtt);
        let mut log = SequenceLog::default();
        let out = decide_one_pair(
            &HecateService::new(),
            &ts,
            &reqs(1),
            &["tunnel1".into(), "tunnel2".into()],
            Objective::MinLatency,
            &mut log,
        )
        .unwrap();
        let d = &out.decisions[0];
        assert_eq!(d.tunnel, "tunnel2");
        assert!((d.score.unwrap() - 16.0).abs() < 2.0);
        assert_eq!(out.solver, None, "latency never solves jointly");
    }

    #[test]
    fn cold_start_falls_back_to_first() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let out = decide_one_pair(
            &HecateService::new(),
            &ts,
            &reqs(1),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(out.decisions[0].tunnel, "tunnel1");
        assert!(!out.decisions[0].used_forecast);
        assert_eq!(out.solver, None);
        assert!(log.steps().contains(&"fallbackArbitraryPath"));
    }

    #[test]
    fn no_candidates_is_error() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        assert!(decide_one_pair(
            &HecateService::new(),
            &ts,
            &reqs(1),
            &[],
            Objective::MaxBandwidth,
            &mut log
        )
        .is_err());
    }

    #[test]
    fn cold_start_decisions_compare_equal() {
        // The NAN score made two identical cold-start decisions unequal
        // under the derived PartialEq; Option<f64> restores reflexivity.
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let h = HecateService::new();
        let mut decide = || {
            let max = Objective::MaxBandwidth;
            decide_one_pair(&h, &ts, &reqs(1), &candidates(), max, &mut log).unwrap()
        };
        let (a, b) = (decide(), decide());
        assert_eq!(a, b);
        assert_eq!(a.decisions[0].score, None);
    }

    #[test]
    fn greedy_batch_spreads_across_tunnels() {
        // Three greedy flows over predicted capacities ~20/10/5: the
        // joint optimum is one flow per tunnel (the Fig 12 decision),
        // not all three piled on the fattest path.
        let ts = store_with(
            &[("tunnel1", 20.0), ("tunnel2", 10.0), ("tunnel3", 5.0)],
            Metric::AvailableBandwidth,
        );
        let h = HecateService::new();
        let mut log = SequenceLog::default();
        let decisions = decide_one_pair(
            &h,
            &ts,
            &reqs(3),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap()
        .decisions;
        let mut tunnels: Vec<&str> = decisions.iter().map(|d| d.tunnel.as_str()).collect();
        tunnels.sort_unstable();
        assert_eq!(tunnels, vec!["tunnel1", "tunnel2", "tunnel3"]);
        assert!(decisions.iter().all(|d| d.used_forecast));
        assert!(decisions.iter().all(|d| d.score.is_some()));
        assert_eq!(
            log.steps(),
            &["getTelemetry", "askHecatePath", "optimizerReturn"],
            "one consultation for the whole batch"
        );
    }

    #[test]
    fn latency_batch_sends_everyone_to_the_fastest_path() {
        let ts = store_with(&[("tunnel1", 58.0), ("tunnel2", 16.0)], Metric::Rtt);
        let h = HecateService::new();
        let mut log = SequenceLog::default();
        let decisions = decide_one_pair(
            &h,
            &ts,
            &reqs(4),
            &["tunnel1".into(), "tunnel2".into()],
            Objective::MinLatency,
            &mut log,
        )
        .unwrap()
        .decisions;
        assert_eq!(decisions.len(), 4);
        assert!(decisions.iter().all(|d| d.tunnel == "tunnel2"));
    }

    #[test]
    fn cold_batch_falls_back_for_every_flow() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let decisions = decide_one_pair(
            &HecateService::new(),
            &ts,
            &reqs(3),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap()
        .decisions;
        assert_eq!(decisions.len(), 3);
        assert!(decisions
            .iter()
            .all(|d| d.tunnel == "tunnel1" && !d.used_forecast));
        assert!(log.steps().contains(&"fallbackArbitraryPath"));
    }

    #[test]
    fn empty_batch_is_empty() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let out = decide_one_pair(
            &HecateService::new(),
            &ts,
            &[],
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(out, BatchDecision::default());
        assert!(log.steps().is_empty(), "nothing to consult for");
    }

    // ---- multi-pair batched decisions ----

    /// Two pairs, two tunnels each, tunnels 1 and 2 sharing link 2.
    fn pair_model() -> (SharedLinkModel, Vec<String>) {
        let model = SharedLinkModel::new(
            vec![20.0, 10.0, 10.0, 20.0, 10.0],
            vec![vec![0], vec![1, 2], vec![2, 3], vec![4]],
            vec![vec![0, 1], vec![2, 3]],
        );
        let names = vec![
            "p0/tunnel1".to_string(),
            "p0/tunnel2".to_string(),
            "p1/tunnel1".to_string(),
            "p1/tunnel2".to_string(),
        ];
        (model, names)
    }

    /// One greedy flow per entry, of that pair.
    fn pair_reqs(pairs: &[usize]) -> Vec<FlowDemand> {
        pairs
            .iter()
            .map(|&p| FlowDemand {
                pair: crate::PairId(p),
                demand: None,
            })
            .collect()
    }

    #[test]
    fn pair_batch_consults_scoped_series_and_spreads() {
        // Warm telemetry under the pair-scoped names: the consultation
        // is keyed (pair, tunnel, metric) and the joint placement sends
        // each pair to its uncontended tunnel.
        let (model, names) = pair_model();
        let ts = store_with(
            &[
                ("p0/tunnel1", 20.0),
                ("p0/tunnel2", 9.0),
                ("p1/tunnel1", 9.0),
                ("p1/tunnel2", 10.0),
            ],
            Metric::AvailableBandwidth,
        );
        let h = HecateService::new();
        let mut log = SequenceLog::default();
        let decisions = decide_flows_pairs(
            &h,
            &ts,
            &pair_reqs(&[0, 1]),
            &names,
            &model,
            Objective::MaxBandwidth,
            &OptimizerConfig::default(),
            &mut log,
        )
        .unwrap()
        .decisions;
        assert_eq!(decisions[0].tunnel, "p0/tunnel1");
        assert_eq!(decisions[1].tunnel, "p1/tunnel2");
        assert!(decisions.iter().all(|d| d.used_forecast));
        assert_eq!(
            log.steps(),
            &["getTelemetry", "askHecatePath", "optimizerReturn"],
            "one consultation for the whole cross-pair batch"
        );
    }

    #[test]
    fn pair_batch_cold_start_falls_back_per_pair() {
        let (model, names) = pair_model();
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let decisions = decide_flows_pairs(
            &HecateService::new(),
            &ts,
            &pair_reqs(&[0, 1, 1]),
            &names,
            &model,
            Objective::MaxBandwidth,
            &OptimizerConfig::default(),
            &mut log,
        )
        .unwrap()
        .decisions;
        // Each flow lands on its own pair's first candidate, not a
        // global first.
        assert_eq!(decisions[0].tunnel, "p0/tunnel1");
        assert_eq!(decisions[1].tunnel, "p1/tunnel1");
        assert_eq!(decisions[2].tunnel, "p1/tunnel1");
        assert!(decisions.iter().all(|d| !d.used_forecast));
        assert!(log.steps().contains(&"fallbackArbitraryPath"));
    }

    #[test]
    fn pair_batch_latency_objective_decides_per_pair() {
        let (model, names) = pair_model();
        let ts = store_with(
            &[
                ("p0/tunnel1", 50.0),
                ("p0/tunnel2", 15.0),
                ("p1/tunnel1", 12.0),
                ("p1/tunnel2", 40.0),
            ],
            Metric::Rtt,
        );
        let mut log = SequenceLog::default();
        let decisions = decide_flows_pairs(
            &HecateService::new(),
            &ts,
            &pair_reqs(&[0, 1]),
            &names,
            &model,
            Objective::MinLatency,
            &OptimizerConfig::default(),
            &mut log,
        )
        .unwrap()
        .decisions;
        assert_eq!(decisions[0].tunnel, "p0/tunnel2", "pair 0's fastest");
        assert_eq!(decisions[1].tunnel, "p1/tunnel1", "pair 1's fastest");
    }

    #[test]
    fn pair_batch_rejects_unknown_pair() {
        let (model, names) = pair_model();
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        assert!(decide_flows_pairs(
            &HecateService::new(),
            &ts,
            &pair_reqs(&[5]),
            &names,
            &model,
            Objective::MaxBandwidth,
            &OptimizerConfig::default(),
            &mut log,
        )
        .is_err());
    }

    #[test]
    fn huge_batch_uses_greedy_placement_and_terminates() {
        // 3^1000 would overflow the exhaustive search; the water-fill
        // must kick in, keep flows on real tunnels and still spread.
        let ts = store_with(
            &[("tunnel1", 20.0), ("tunnel2", 10.0), ("tunnel3", 5.0)],
            Metric::AvailableBandwidth,
        );
        let h = HecateService::new();
        let mut log = SequenceLog::default();
        let out = decide_one_pair(
            &h,
            &ts,
            &reqs(1000),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(out.solver, Some(SolverKind::Greedy));
        let decisions = out.decisions;
        assert_eq!(decisions.len(), 1000);
        let on = |t: &str| decisions.iter().filter(|d| d.tunnel == t).count();
        assert!(on("tunnel1") > on("tunnel2"));
        assert!(on("tunnel2") > on("tunnel3"));
        assert!(on("tunnel3") > 0, "even the thinnest tunnel gets flows");
    }
}
