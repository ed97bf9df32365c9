//! The Controller: the Fig 4 decision sequence.
//!
//! "When a new data flow arrives, the Controller consults the Optimizer
//! to determine the most suitable path. After the optimal path is
//! identified, the Controller communicates this decision to the SR
//! Service, establishing the path and configuring a policy to route the
//! flow through it by adjusting the edge routers."

use crate::hecate::{HecateService, PathForecast};
use crate::optimizer::{
    assign_flows, assign_flows_shared_with, select_path, FlowDemand, Objective, OptimizerConfig,
    SharedLinkModel, SolverKind,
};
use crate::scheduler::FlowRequest;
use crate::telemetry::{Metric, SeriesKey, TelemetryService};
use crate::FrameworkError;

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
    steps: Vec<String>,
}

impl SequenceLog {
    /// Records one interaction.
    pub fn record(&mut self, step: &str) {
        self.steps.push(step.to_string());
    }

    /// The recorded steps in order.
    pub fn steps(&self) -> &[String] {
        &self.steps
    }
}

/// Pure decision function: given telemetry and candidates, run the
/// Fig 4 consultation (getTelemetry → askHecatePath → Optimizer) and
/// return the decision. Falls back to the first candidate when
/// forecasting is impossible (cold start).
pub fn decide_path(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    candidates: &[String],
    objective: Objective,
    log: &mut SequenceLog,
) -> Result<PathDecision, FrameworkError> {
    if candidates.is_empty() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    log.record("getTelemetry");
    let metric = match objective {
        Objective::MinLatency => Metric::Rtt,
        _ => Metric::AvailableBandwidth,
    };
    log.record("askHecatePath");
    let forecasts = hecate.forecast_all(telemetry, candidates, metric);
    if forecasts.is_empty() {
        // Cold start: the paper's phase (i) "controller allocates the
        // flow to an arbitrary path".
        log.record("fallbackArbitraryPath");
        return Ok(PathDecision {
            tunnel: candidates[0].clone(),
            used_forecast: false,
            score: None,
        });
    }
    let best = select_path(objective, &forecasts)?;
    log.record("optimizerReturn");
    Ok(PathDecision {
        tunnel: best.path.clone(),
        used_forecast: true,
        score: Some(best.mean()),
    })
}

/// Exhaustive assignment is k^n; above this bound the batch falls back
/// to the online greedy placement.
const EXHAUSTIVE_ASSIGNMENT_BOUND: u64 = 100_000;

/// Batched decision function: one Fig 4 consultation for *every* flow
/// due in the same scheduler tick.
///
/// The per-path forecasts are computed once (fanned out in parallel,
/// served from Hecate's trained-model cache) and amortized across the
/// whole batch — the AMPF insight that per-flow ML path assignment only
/// scales when classifier cost is shared across arriving flows. Returns
/// one decision per request, in request order.
///
/// Placement semantics per objective:
///
/// * a batch of one always decides exactly like [`decide_path`];
/// * [`Objective::MaxBandwidth`] places the batch jointly: the
///   exhaustive [`assign_flows`] search (the same optimum the
///   re-optimizer uses) when `candidates^flows` is small enough,
///   otherwise an online greedy water-fill where each flow takes the
///   tunnel currently offering it the best share;
/// * the latency/utilization objectives have no flow-interaction model,
///   so every flow gets the single [`select_path`] winner;
/// * cold start sends the whole batch to the first candidate (phase i).
pub fn decide_flows(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    requests: &[FlowRequest],
    candidates: &[String],
    objective: Objective,
    log: &mut SequenceLog,
) -> Result<Vec<PathDecision>, FrameworkError> {
    if candidates.is_empty() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    if requests.is_empty() {
        return Ok(Vec::new());
    }
    if requests.len() == 1 {
        return Ok(vec![decide_path(
            hecate, telemetry, candidates, objective, log,
        )?]);
    }
    log.record("getTelemetry");
    let metric = match objective {
        Objective::MinLatency => Metric::Rtt,
        _ => Metric::AvailableBandwidth,
    };
    log.record("askHecatePath");
    let forecasts = hecate.forecast_all(telemetry, candidates, metric);
    if forecasts.is_empty() {
        log.record("fallbackArbitraryPath");
        return Ok(requests
            .iter()
            .map(|_| PathDecision {
                tunnel: candidates[0].clone(),
                used_forecast: false,
                score: None,
            })
            .collect());
    }
    let decisions = match objective {
        Objective::MaxBandwidth => {
            let caps: Vec<f64> = forecasts.iter().map(|f| f.mean().max(0.0)).collect();
            let tunnel_of_flow = place_batch(
                &caps,
                &requests.iter().map(|r| r.demand_mbps).collect::<Vec<_>>(),
            )?;
            tunnel_of_flow
                .into_iter()
                .map(|t| PathDecision {
                    tunnel: forecasts[t].path.clone(),
                    used_forecast: true,
                    score: Some(forecasts[t].mean()),
                })
                .collect()
        }
        _ => {
            let best = select_path(objective, &forecasts)?;
            requests
                .iter()
                .map(|_| PathDecision {
                    tunnel: best.path.clone(),
                    used_forecast: true,
                    score: Some(best.mean()),
                })
                .collect()
        }
    };
    log.record("optimizerReturn");
    Ok(decisions)
}

/// Places a batch of flows on tunnels with predicted capacities `caps`:
/// the exhaustive optimum when the search space is small, an online
/// greedy water-fill otherwise.
fn place_batch(caps: &[f64], demands: &[Option<f64>]) -> Result<Vec<usize>, FrameworkError> {
    let k = caps.len() as u64;
    let exhaustive_fits = k
        .checked_pow(demands.len().min(u32::MAX as usize) as u32)
        .is_some_and(|space| space <= EXHAUSTIVE_ASSIGNMENT_BOUND);
    if exhaustive_fits {
        return Ok(assign_flows(caps, demands)?.tunnel_of_flow);
    }
    // Online greedy: each flow takes the tunnel currently offering it
    // the best share. Greedy flows split a tunnel's residual evenly;
    // demand-limited flows reserve their demand. O(flows * tunnels).
    let mut reserved = vec![0.0f64; caps.len()];
    let mut greedy_count = vec![0usize; caps.len()];
    let mut placement = Vec::with_capacity(demands.len());
    for demand in demands {
        let share = |t: usize| -> f64 {
            let residual = (caps[t] - reserved[t]).max(0.0);
            match demand {
                Some(d) => d.min(residual / (greedy_count[t] + 1) as f64),
                None => residual / (greedy_count[t] + 1) as f64,
            }
        };
        let Some(best) = (0..caps.len()).max_by(|&a, &b| share(a).total_cmp(&share(b))) else {
            // No candidate tunnels at all: nothing to place on.
            return Err(FrameworkError::NoFeasiblePath);
        };
        match demand {
            Some(d) => reserved[best] += d,
            None => greedy_count[best] += 1,
        }
        placement.push(best);
    }
    Ok(placement)
}

/// Batched decision for a **multi-pair** network: one Fig 4
/// consultation for every flow due in the tick, across *all* managed
/// pairs, against the shared-link capacity model.
///
/// `tunnel_names` is the global candidate order (every pair's tunnels,
/// pair-scoped series names) aligned with `model.tunnel_links`; the
/// forecasts are therefore keyed `(pair, tunnel, metric)` in Hecate's
/// cache — one trained model per pair-scoped series, exactly like the
/// single-pair engine keys per tunnel.
///
/// Placement semantics mirror [`decide_flows`]:
///
/// * cold start (no forecastable series at all) sends each flow to its
///   own pair's first candidate;
/// * latency/utilization objectives have no flow-interaction model:
///   each pair's flows all take that pair's [`select_path`] winner;
/// * [`Objective::MaxBandwidth`] forms per-tunnel capacity caps
///   (forecast mean, falling back to the last observed sample, floored
///   at zero), folds them into the model as synthetic links
///   ([`SharedLinkModel::with_tunnel_caps`]), and places the batch with
///   [`crate::optimizer::assign_flows_shared`] — so no shared link is
///   oversubscribed.
///
/// Single-pair networks never call this: they keep the legacy
/// [`decide_flows`] path bit-for-bit.
pub fn decide_flows_pairs(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    requests: &[FlowRequest],
    tunnel_names: &[String],
    model: &SharedLinkModel,
    objective: Objective,
    log: &mut SequenceLog,
) -> Result<Vec<PathDecision>, FrameworkError> {
    if tunnel_names.is_empty() || tunnel_names.len() != model.tunnel_links.len() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    if requests.is_empty() {
        return Ok(Vec::new());
    }
    for req in requests {
        if model
            .candidates
            .get(req.pair.index())
            .is_none_or(|c| c.is_empty())
        {
            return Err(FrameworkError::NoFeasiblePath);
        }
    }
    log.record("getTelemetry");
    let metric = match objective {
        Objective::MinLatency => Metric::Rtt,
        _ => Metric::AvailableBandwidth,
    };
    log.record("askHecatePath");
    let forecasts = hecate.forecast_all(telemetry, tunnel_names, metric);
    let (decisions, _solver) = pair_decisions_from_forecasts(
        telemetry,
        requests,
        tunnel_names,
        model,
        objective,
        metric,
        &OptimizerConfig::default(),
        &forecasts,
        log,
    )?;
    Ok(decisions)
}

/// `forecasts` by tunnel index: entry `t` is the forecast whose path is
/// `tunnel_names[t]` (the first, if several are), resolved for all
/// tunnels in one pass.
pub(crate) fn forecasts_by_tunnel<'a>(
    tunnel_names: &[String],
    forecasts: &'a [PathForecast],
) -> Vec<Option<&'a PathForecast>> {
    let mut by_name = std::collections::BTreeMap::new();
    for f in forecasts.iter().rev() {
        by_name.insert(f.path.as_str(), f);
    }
    tunnel_names
        .iter()
        .map(|n| by_name.get(n.as_str()).copied())
        .collect()
}

/// The placement tail shared by the sequential and sharded multi-pair
/// consultations: everything after the forecasts are in hand. Keeping
/// this single makes the sharded path bit-identical by construction —
/// the only thing sharding changes is *how* the forecasts were
/// gathered, and the merge re-establishes the sequential order before
/// this runs.
#[allow(clippy::too_many_arguments)]
fn pair_decisions_from_forecasts(
    telemetry: &TelemetryService,
    requests: &[FlowRequest],
    tunnel_names: &[String],
    model: &SharedLinkModel,
    objective: Objective,
    metric: Metric,
    config: &OptimizerConfig,
    forecasts: &[PathForecast],
    log: &mut SequenceLog,
) -> Result<(Vec<PathDecision>, Option<SolverKind>), FrameworkError> {
    if forecasts.is_empty() {
        // Cold start: each pair's phase-(i) arbitrary first candidate.
        log.record("fallbackArbitraryPath");
        return Ok((
            requests
                .iter()
                .map(|req| PathDecision {
                    tunnel: tunnel_names[model.candidates[req.pair.index()][0]].clone(),
                    used_forecast: false,
                    score: None,
                })
                .collect(),
            None,
        ));
    }
    let forecast_of = forecasts_by_tunnel(tunnel_names, forecasts);
    let mut solver = None;
    let decisions = match objective {
        Objective::MaxBandwidth => {
            // Per-tunnel caps: forecast mean, else last sample, else 0.
            let caps: Vec<f64> = tunnel_names
                .iter()
                .zip(&forecast_of)
                .map(|(name, forecast)| {
                    forecast
                        .map(|f| f.mean())
                        .or_else(|| telemetry.last(&SeriesKey::new(name, metric)))
                        .unwrap_or(0.0)
                        .max(0.0)
                })
                .collect();
            let capped = model.clone().with_tunnel_caps(&caps);
            let flows: Vec<FlowDemand> = requests
                .iter()
                .map(|r| FlowDemand {
                    pair: r.pair,
                    demand: r.demand_mbps,
                })
                .collect();
            let (assignment, kind) = assign_flows_shared_with(&capped, &flows, config)?;
            solver = Some(kind);
            assignment
                .tunnel_of_flow
                .iter()
                .map(|&t| PathDecision {
                    tunnel: tunnel_names[t].clone(),
                    used_forecast: true,
                    score: forecast_of[t].map(|f| f.mean()),
                })
                .collect()
        }
        _ => {
            // No flow-interaction model: each pair's flows take that
            // pair's winner among its own forecasts.
            requests
                .iter()
                .map(|req| {
                    let mine: Vec<_> = model.candidates[req.pair.index()]
                        .iter()
                        .filter_map(|&t| forecast_of[t].cloned())
                        .collect();
                    match select_path(objective, &mine) {
                        Ok(best) => PathDecision {
                            tunnel: best.path.clone(),
                            used_forecast: true,
                            score: Some(best.mean()),
                        },
                        // This pair is still cold: arbitrary first.
                        Err(_) => PathDecision {
                            tunnel: tunnel_names[model.candidates[req.pair.index()][0]].clone(),
                            used_forecast: false,
                            score: None,
                        },
                    }
                })
                .collect()
        }
    };
    log.record("optimizerReturn");
    Ok((decisions, solver))
}

/// Per-shard accounting from one sharded consultation: which shard,
/// how many pair-scoped candidate series it forecast, and its isolated
/// busy time. The SDN layer emits one `decide.solve` span per entry,
/// after the join, in shard order — the same
/// emission-order-never-depends-on-scheduling idiom as the data
/// plane's sharded forwarder.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionShardReport {
    /// Shard index; the shard owns pairs `p` with `p % shards == shard`.
    pub shard: usize,
    /// Pair-scoped candidate series this shard forecast.
    pub series: usize,
    /// Busy time spent forecasting them (excludes merge and solve).
    pub busy_ns: u64,
}

/// What a sharded consultation produced.
#[derive(Debug, Clone)]
pub struct ShardedDecision {
    /// One decision per request, in request order — bit-identical to
    /// [`decide_flows_pairs`] at any shard count.
    pub decisions: Vec<PathDecision>,
    /// Which shared-link solver placed the batch (`None` on cold start
    /// and for the per-pair objectives, which never solve jointly).
    pub solver: Option<SolverKind>,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<DecisionShardReport>,
}

/// [`decide_flows_pairs`] with the forecast fan-out partitioned across
/// `config.decision_shards` worker threads.
///
/// Each worker owns stateless clones of the Hecate and telemetry
/// service handles (both are `Arc`-backed, so "clone" is a pointer
/// copy) and forecasts the candidate series of the pairs it owns
/// (`pair % shards`) — disjoint series sets, so the per-series model
/// cache gives every worker exactly the forecasts the sequential pass
/// would have computed. Results come back over a crossbeam channel,
/// are re-ordered into the global candidate order, and the placement
/// tail is the *same code* the sequential path runs: the decisions are
/// bit-identical to [`decide_flows_pairs`] at any shard count
/// (pinned by `sharded_decisions.rs`).
///
/// `config.decision_shards <= 1` skips the thread machinery entirely.
#[allow(clippy::too_many_arguments)]
pub fn decide_flows_pairs_sharded(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    requests: &[FlowRequest],
    tunnel_names: &[String],
    model: &SharedLinkModel,
    objective: Objective,
    config: &OptimizerConfig,
    log: &mut SequenceLog,
) -> Result<ShardedDecision, FrameworkError> {
    if tunnel_names.is_empty() || tunnel_names.len() != model.tunnel_links.len() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    if requests.is_empty() {
        return Ok(ShardedDecision {
            decisions: Vec::new(),
            solver: None,
            shards: Vec::new(),
        });
    }
    for req in requests {
        if model
            .candidates
            .get(req.pair.index())
            .is_none_or(|c| c.is_empty())
        {
            return Err(FrameworkError::NoFeasiblePath);
        }
    }
    let shards = config
        .decision_shards
        .max(1)
        .min(model.candidates.len().max(1));
    log.record("getTelemetry");
    let metric = match objective {
        Objective::MinLatency => Metric::Rtt,
        _ => Metric::AvailableBandwidth,
    };
    log.record("askHecatePath");
    // Tunnel → owning pair, derived from the model rather than assuming
    // a pair-major layout of `tunnel_names`.
    let mut owner = vec![0usize; tunnel_names.len()];
    for (p, cand) in model.candidates.iter().enumerate() {
        for &t in cand {
            if let Some(o) = owner.get_mut(t) {
                *o = p;
            }
        }
    }
    let (forecasts, reports) = if shards == 1 {
        // detlint: allow(wall-clock) — shard busy time is the reported
        // quantity (span stamps), never fed back into a decision.
        #[allow(clippy::disallowed_methods)]
        let t0 = std::time::Instant::now();
        let forecasts = hecate.forecast_all(telemetry, tunnel_names, metric);
        let report = DecisionShardReport {
            shard: 0,
            series: tunnel_names.len(),
            busy_ns: t0.elapsed().as_nanos() as u64,
        };
        (forecasts, vec![report])
    } else {
        let (tx, rx) = crossbeam::channel::bounded(shards);
        let mut handles = Vec::with_capacity(shards);
        for s in 0..shards {
            let names: Vec<String> = (0..tunnel_names.len())
                .filter(|&t| owner[t] % shards == s)
                .map(|t| tunnel_names[t].clone())
                .collect();
            let worker_hecate = hecate.clone();
            let worker_telemetry = telemetry.clone();
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                // detlint: allow(wall-clock) — per-shard busy time is
                // the reported quantity (span stamps), never fed back
                // into a decision.
                #[allow(clippy::disallowed_methods)]
                let t0 = std::time::Instant::now();
                let forecasts = worker_hecate.forecast_all(&worker_telemetry, &names, metric);
                let busy_ns = t0.elapsed().as_nanos() as u64;
                let _ = tx.send((s, names.len(), forecasts, busy_ns));
            }));
        }
        drop(tx);
        let mut parts: Vec<(usize, usize, Vec<PathForecast>, u64)> = rx.iter().collect();
        for h in handles {
            // detlint: allow(bare-panic) — a panicked worker's
            // forecasts are gone; propagating the panic is the only
            // honest outcome.
            h.join().expect("decision shard worker panicked");
        }
        parts.sort_by_key(|&(s, ..)| s);
        // Merge back into the global candidate order — the order the
        // sequential fan-out returns — so the placement tail sees an
        // input independent of worker scheduling.
        let index: std::collections::BTreeMap<&str, usize> = tunnel_names
            .iter()
            .enumerate()
            .map(|(t, n)| (n.as_str(), t))
            .collect();
        let mut merged: Vec<(usize, PathForecast)> = Vec::new();
        let mut reports = Vec::with_capacity(shards);
        for (shard, series, forecasts, busy_ns) in parts {
            reports.push(DecisionShardReport {
                shard,
                series,
                busy_ns,
            });
            for f in forecasts {
                if let Some(&t) = index.get(f.path.as_str()) {
                    merged.push((t, f));
                }
            }
        }
        merged.sort_by_key(|&(t, _)| t);
        (merged.into_iter().map(|(_, f)| f).collect(), reports)
    };
    let (decisions, solver) = pair_decisions_from_forecasts(
        telemetry,
        requests,
        tunnel_names,
        model,
        objective,
        metric,
        config,
        &forecasts,
        log,
    )?;
    Ok(ShardedDecision {
        decisions,
        solver,
        shards: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SeriesKey;

    fn store_with(paths: &[(&str, f64)], metric: Metric) -> TelemetryService {
        let ts = TelemetryService::new(1000);
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

    #[test]
    fn warm_decision_uses_forecasts() {
        let ts = store_with(
            &[("tunnel1", 20.0), ("tunnel2", 10.0), ("tunnel3", 5.0)],
            Metric::AvailableBandwidth,
        );
        let mut log = SequenceLog::default();
        let d = decide_path(
            &HecateService::new(),
            &ts,
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(d.tunnel, "tunnel1");
        assert!(d.used_forecast);
        assert_eq!(
            log.steps(),
            &["getTelemetry", "askHecatePath", "optimizerReturn"]
        );
    }

    #[test]
    fn latency_objective_reads_rtt_series() {
        let ts = store_with(&[("tunnel1", 58.0), ("tunnel2", 16.0)], Metric::Rtt);
        let mut log = SequenceLog::default();
        let d = decide_path(
            &HecateService::new(),
            &ts,
            &["tunnel1".into(), "tunnel2".into()],
            Objective::MinLatency,
            &mut log,
        )
        .unwrap();
        assert_eq!(d.tunnel, "tunnel2");
        assert!((d.score.unwrap() - 16.0).abs() < 2.0);
    }

    #[test]
    fn cold_start_falls_back_to_first() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let d = decide_path(
            &HecateService::new(),
            &ts,
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(d.tunnel, "tunnel1");
        assert!(!d.used_forecast);
        assert!(log.steps().contains(&"fallbackArbitraryPath".to_string()));
    }

    #[test]
    fn no_candidates_is_error() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        assert!(decide_path(
            &HecateService::new(),
            &ts,
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
        let a = decide_path(&h, &ts, &candidates(), Objective::MaxBandwidth, &mut log).unwrap();
        let b = decide_path(&h, &ts, &candidates(), Objective::MaxBandwidth, &mut log).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.score, None);
    }

    fn reqs(n: usize) -> Vec<FlowRequest> {
        (0..n)
            .map(|i| FlowRequest {
                label: format!("f{i}"),
                tos: 32,
                demand_mbps: None,
                start_ms: 0,
                pair: crate::PairId::default(),
            })
            .collect()
    }

    #[test]
    fn batch_of_one_matches_decide_path() {
        let ts = store_with(
            &[("tunnel1", 20.0), ("tunnel2", 10.0), ("tunnel3", 5.0)],
            Metric::AvailableBandwidth,
        );
        let h = HecateService::new();
        let mut log = SequenceLog::default();
        let single =
            decide_path(&h, &ts, &candidates(), Objective::MaxBandwidth, &mut log).unwrap();
        let batch = decide_flows(
            &h,
            &ts,
            &reqs(1),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(batch, vec![single]);
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
        let decisions = decide_flows(
            &h,
            &ts,
            &reqs(3),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
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
        let decisions = decide_flows(
            &h,
            &ts,
            &reqs(4),
            &["tunnel1".into(), "tunnel2".into()],
            Objective::MinLatency,
            &mut log,
        )
        .unwrap();
        assert!(decisions.iter().all(|d| d.tunnel == "tunnel2"));
    }

    #[test]
    fn cold_batch_falls_back_for_every_flow() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let decisions = decide_flows(
            &HecateService::new(),
            &ts,
            &reqs(3),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(decisions.len(), 3);
        assert!(decisions
            .iter()
            .all(|d| d.tunnel == "tunnel1" && !d.used_forecast));
        assert!(log.steps().contains(&"fallbackArbitraryPath".to_string()));
    }

    #[test]
    fn empty_batch_is_empty() {
        let ts = TelemetryService::new(10);
        let mut log = SequenceLog::default();
        let decisions = decide_flows(
            &HecateService::new(),
            &ts,
            &[],
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert!(decisions.is_empty());
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

    fn pair_reqs(pairs: &[usize]) -> Vec<FlowRequest> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| FlowRequest {
                label: format!("f{i}"),
                tos: 32,
                demand_mbps: None,
                start_ms: 0,
                pair: crate::PairId(p),
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
            &mut log,
        )
        .unwrap();
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
            &mut log,
        )
        .unwrap();
        // Each flow lands on its own pair's first candidate, not a
        // global first.
        assert_eq!(decisions[0].tunnel, "p0/tunnel1");
        assert_eq!(decisions[1].tunnel, "p1/tunnel1");
        assert_eq!(decisions[2].tunnel, "p1/tunnel1");
        assert!(decisions.iter().all(|d| !d.used_forecast));
        assert!(log.steps().contains(&"fallbackArbitraryPath".to_string()));
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
            &mut log,
        )
        .unwrap();
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
        let decisions = decide_flows(
            &h,
            &ts,
            &reqs(1000),
            &candidates(),
            Objective::MaxBandwidth,
            &mut log,
        )
        .unwrap();
        assert_eq!(decisions.len(), 1000);
        let on = |t: &str| decisions.iter().filter(|d| d.tunnel == t).count();
        assert!(on("tunnel1") > on("tunnel2"));
        assert!(on("tunnel2") > on("tunnel3"));
        assert!(on("tunnel3") > 0, "even the thinnest tunnel gets flows");
    }
}
