//! The scenario runner: executes one `(topology × traffic × events)`
//! description end-to-end through `framework::SelfDrivingNetwork` under
//! a routing policy, and scores the outcome.
//!
//! One epoch is one simulated second (the paper's telemetry cadence).
//! Each epoch the runner (1) applies due scripted link events,
//! (2) folds background traffic and drains into effective link
//! capacities on both planes, (3) admits managed flows that are due,
//! (4) advances the fluid plane — or forwards a packet window when the
//! scenario runs the packet plane — and (5) lets the policy re-decide
//! at its decision interval. Admission and re-decision are the
//! network's ([`SelfDrivingNetwork::admit_under`] /
//! [`SelfDrivingNetwork::steer`]); the runner only schedules and
//! scores them. Everything downstream of the scenario's `u64` seed is
//! deterministic.

use crate::events::{compile_events, EventSpec, LinkAction};
use crate::observe::{ObsvArtifacts, ObsvOptions, MAX_SLO_DUMPS};
use crate::scorecard::{percentile, MetricsSection, PairScore, Recovery, Scorecard};
use crate::traffic::{headroom_scale, link_load, TrafficSpec};
use crate::zoo::{endpoint_pairs, endpoints, TopologySpec};
use crate::ScenarioError;
use framework::dataloop::DataplaneConfig;
use framework::scheduler::FlowRequest;
use framework::{PairId, Policy, SelfDrivingNetwork};
use std::collections::BTreeMap;

/// Which plane carries the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneMode {
    /// Fluid-flow emulation (max-min fair shares) — fast, scales to
    /// long horizons.
    Fluid,
    /// Packet-level PolKA forwarding via `attach_dataplane`: real
    /// queues, real routeID swaps, measured counters.
    Packet,
}

/// One managed flow the scenario admits.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPlan {
    /// Flow label (ACL name on the edge).
    pub label: String,
    /// Offered load; `None` = greedy.
    pub demand_mbps: Option<f64>,
    /// Epoch the flow starts.
    pub start_epoch: u64,
    /// Which managed pair carries the flow (index below the scenario's
    /// `pairs`; `0` on single-pair scenarios).
    pub pair: usize,
}

/// A complete scenario description: plain data, cloneable, replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (scorecard key).
    pub name: String,
    /// Which graph.
    pub topology: TopologySpec,
    /// Which background demands.
    pub traffic: TrafficSpec,
    /// Which impairments, when.
    pub events: Vec<EventSpec>,
    /// Managed flows the policies steer.
    pub flows: Vec<FlowPlan>,
    /// Managed ingress/egress pairs (`1` = the classic single-pair
    /// scenario). Endpoints come from the zoo's farthest-pair
    /// generalization ([`endpoint_pairs`]); each pair gets its own
    /// candidate tunnel set, and the policies steer the whole traffic
    /// matrix with shared-link-aware assignments.
    pub pairs: usize,
    /// Total epochs (1 epoch = 1 simulated second).
    pub horizon_epochs: u64,
    /// Policy consultation interval (epochs); the paper commits
    /// decisions per 10-step interval.
    pub decision_every: u64,
    /// Candidate tunnels to discover between the endpoints.
    pub k_tunnels: usize,
    /// A demand-declared flow meets its SLO when it delivers at least
    /// this fraction of its demand.
    pub slo_fraction: f64,
    /// Optional elastic background: real simulator flows (greedy
    /// elephants + churning mice) compiled from the seed and scheduled
    /// directly on the fluid plane's event queue, competing in the
    /// max-min water-fill with the managed flows. `None` on the classic
    /// scenarios; the scale-out scenarios use it to load the event core
    /// with ~100k flows. Fluid plane only.
    pub elastic: Option<crate::elastic::ElasticSpec>,
    /// Fluid or packet plane.
    pub plane: PlaneMode,
    /// Master seed: topology randomness, traffic matrix, emulator
    /// jitter all derive from it.
    pub seed: u64,
}

impl Scenario {
    /// A one-line description, e.g.
    /// `fat-tree(4) x eleph/mice(2/10) x 2 events`.
    pub fn describe(&self) -> String {
        let pairs = if self.pairs > 1 {
            format!(", {} pairs", self.pairs)
        } else {
            String::new()
        };
        format!(
            "{} x {} x {} event(s), {} epochs, {:?}{}",
            self.topology.label(),
            self.traffic.label(),
            self.events.len(),
            self.horizon_epochs,
            self.plane,
            pairs
        )
    }

    /// Shrinks the scenario for smoke runs: horizon, decision interval
    /// and every event epoch scale by `factor` (floored at 1 epoch), so
    /// the decisions-per-horizon shape survives. Determinism is
    /// preserved — a scaled scenario is just a different scenario.
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |e: u64| ((e as f64 * factor).round() as u64).max(1);
        self.horizon_epochs = scale(self.horizon_epochs);
        self.decision_every = scale(self.decision_every);
        for ev in &mut self.events {
            ev.at_epoch = scale(ev.at_epoch);
            match &mut ev.kind {
                crate::events::EventKind::LinkDown { restore_after, .. }
                | crate::events::EventKind::Drain { restore_after, .. } => {
                    *restore_after = restore_after.map(scale);
                }
                crate::events::EventKind::FlapStorm { period_epochs, .. } => {
                    *period_epochs = scale(*period_epochs);
                }
            }
        }
        for f in &mut self.flows {
            f.start_epoch = ((f.start_epoch as f64 * factor).round()) as u64;
        }
        self
    }

    /// Runs the scenario under one policy. See the module docs for the
    /// per-epoch sequence. Observability stays fully off: the tracer
    /// is a no-op and the scorecard carries no metrics section.
    pub fn run(&self, policy: Policy) -> Result<Scorecard, ScenarioError> {
        self.run_observed(policy, &ObsvOptions::off())
            .map(|(card, _)| card)
    }

    /// Runs the scenario under one policy with observability attached
    /// per `opts`: sim-time trace records (exportable as JSONL or a
    /// Chrome trace), per-epoch metric snapshots folded into the
    /// scorecard, and flight-recorder dumps captured on SLO-violation
    /// epochs. Observation never perturbs the run: every measured
    /// field matches the un-observed scorecard bit-for-bit — the
    /// metrics section is the only addition.
    pub fn run_observed(
        &self,
        policy: Policy,
        opts: &ObsvOptions,
    ) -> Result<(Scorecard, ObsvArtifacts), ScenarioError> {
        if self.horizon_epochs == 0 || self.flows.is_empty() {
            return Err(ScenarioError::Config(
                "scenario needs a horizon and at least one managed flow".into(),
            ));
        }
        let npairs = self.pairs.max(1);
        if let Some(f) = self.flows.iter().find(|f| f.pair >= npairs) {
            return Err(ScenarioError::Config(format!(
                "flow {} rides pair {} but the scenario declares {npairs} pair(s)",
                f.label, f.pair
            )));
        }
        // Build the graph, pick the managed endpoint pairs (pair 0 is
        // the classic farthest pair), compile background + events.
        let topo = self.topology.build(self.seed);
        let pair_nodes = endpoint_pairs(&topo, npairs);
        debug_assert_eq!(pair_nodes[0], endpoints(&topo));
        let pair_names: Vec<(String, String)> = pair_nodes
            .iter()
            .map(|&(s, d)| (topo.node_name(s).to_string(), topo.node_name(d).to_string()))
            .collect();
        let bg = self.traffic.background(
            &topo,
            self.horizon_epochs,
            self.seed.wrapping_mul(0x9e3779b97f4a7c15),
        );
        let loads = link_load(&topo, &bg, self.horizon_epochs);
        let scale = headroom_scale(&topo, &loads);
        let raw_caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_mbps).collect();
        let link_names: Vec<(String, String)> = topo
            .links()
            .iter()
            .map(|l| {
                (
                    topo.node_name(l.a).to_string(),
                    topo.node_name(l.b).to_string(),
                )
            })
            .collect();

        let endpoint_refs: Vec<(&str, &str)> = pair_names
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let mut sdn = SelfDrivingNetwork::over_topology_pairs(
            topo,
            &endpoint_refs,
            self.k_tunnels,
            self.seed,
        )?;
        // Events target pair 0's primary tunnel (the shortest path of
        // the classic farthest pair) — `tunnel1` on single-pair
        // scenarios, `p0/tunnel1` otherwise.
        let primary = sdn
            .pair_tunnel_names(PairId(0))
            .and_then(|names| sdn.tunnel(names.first()?))
            .ok_or_else(|| ScenarioError::Config("pair 0 has no primary tunnel".into()))?
            .node_path
            .clone();
        let actions = compile_events(&self.events, &sdn.sim.topo, &primary)?;
        // Elastic background rides the raw event queue: schedule every
        // compiled arrival/departure up front.
        if let Some(spec) = &self.elastic {
            if self.plane != PlaneMode::Fluid {
                return Err(ScenarioError::Config(
                    "elastic background flows require the fluid plane".into(),
                ));
            }
            let compiled = crate::elastic::compile_elastic(
                &sdn.sim.topo,
                spec,
                self.horizon_epochs,
                self.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
            );
            for (at_ms, ev) in compiled {
                sdn.sim.schedule(at_ms, ev)?;
            }
        }
        if self.plane == PlaneMode::Packet {
            sdn.attach_dataplane(DataplaneConfig {
                epoch_ms: 1000,
                probe_rate_mbps: 0.2,
                probe_bytes: 250,
                default_flow_mbps: 8.0,
                flow_bytes: 1250,
            })?;
        }

        // Observability: build the sink stack and hand the bundle to
        // every layer. With nothing to observe the tracer stays off and
        // the run is exactly the un-observed one.
        let recording = opts.trace.then(obsv::RecordingSink::shared);
        let flight =
            (opts.flight_capacity > 0).then(|| obsv::FlightRecorder::new(opts.flight_capacity));
        let mut sinks: Vec<std::sync::Arc<dyn obsv::TraceSink>> = Vec::new();
        if let Some(r) = &recording {
            sinks.push(r.clone());
        }
        if let Some(fr) = &flight {
            sinks.push(fr.clone());
        }
        if let Some(x) = &opts.extra_sink {
            sinks.push(x.clone());
        }
        let tracer = if sinks.len() > 1 {
            obsv::Tracer::to(std::sync::Arc::new(obsv::Fanout(sinks)))
        } else {
            sinks.pop().map_or_else(obsv::Tracer::off, obsv::Tracer::to)
        };
        let bundle = obsv::Obsv {
            tracer,
            metrics: obsv::Registry::default(),
        };
        sdn.set_obsv(bundle.clone());
        // Per-epoch snapshot base: taken after registration so the
        // first epoch's delta covers exactly that epoch's increments.
        let mut last_snap = opts.snapshots.then(|| bundle.metrics.snapshot());
        let mut per_epoch: Vec<Vec<(String, u64)>> = Vec::new();
        let mut slo_dumps: Vec<(u64, String)> = Vec::new();
        // Blame bookkeeping: the registry is always live (plain runs
        // get a fresh one through `set_obsv` too), so attribution is
        // computed identically whether or not tracing is on — blames
        // are scorecard data and must honor the bit-replay contract.
        let mut blames: Vec<obsv_analyze::Blame> = Vec::new();
        let mut blame_prev = bundle.metrics.snapshot();
        let mut down_since: BTreeMap<usize, u64> = BTreeMap::new();

        // Per-link capacity state, applied only on change.
        let mut drain: BTreeMap<usize, f64> = BTreeMap::new();
        let mut applied: BTreeMap<usize, f64> = BTreeMap::new();
        let mut started: Vec<bool> = vec![false; self.flows.len()];
        let mut migrations: u64 = 0;
        let mut failures: Vec<u64> = Vec::new();
        let mut aggregate = Vec::with_capacity(self.horizon_epochs as usize);
        let mut flow_samples: Vec<f64> = Vec::new();
        let mut slo_violations: u64 = 0;
        let mut cursor = 0usize;
        // Per-pair attribution (tracked alongside, never feeding back
        // into the aggregate accumulators).
        let mut pair_series: Vec<Vec<f64>> = vec![Vec::new(); npairs];
        let mut pair_samples: Vec<Vec<f64>> = vec![Vec::new(); npairs];
        let mut pair_migrations: Vec<u64> = vec![0; npairs];

        for e in 0..self.horizon_epochs {
            let epoch_span = bundle
                .tracer
                .span("scenario", "scenario.epoch", sdn.sim.now_ns());
            // (1) scripted link events due this epoch.
            while cursor < actions.len() && actions[cursor].epoch <= e {
                let act = &actions[cursor];
                cursor += 1;
                match act.action {
                    LinkAction::SetUp(up) => {
                        sdn.set_link_state(&act.a, &act.b, up)?;
                        let lid = link_index(&link_names, &act.a, &act.b)?;
                        if up {
                            down_since.remove(&lid);
                        } else {
                            down_since.entry(lid).or_insert(e);
                        }
                        if act.starts_failure {
                            failures.push(e);
                        }
                    }
                    LinkAction::SetScale(f) => {
                        let lid = link_index(&link_names, &act.a, &act.b)?;
                        if (f - 1.0).abs() < 1e-12 {
                            drain.remove(&lid);
                        } else {
                            drain.insert(lid, f);
                        }
                    }
                }
            }
            // (2) effective capacities: raw - background, times drain.
            for (i, raw) in raw_caps.iter().enumerate() {
                let bg_now = loads
                    .get(&netsim::LinkId(i as u32))
                    .map(|s| s[e as usize] * scale)
                    .unwrap_or(0.0);
                let factor = drain.get(&i).copied().unwrap_or(1.0);
                let cap = ((raw - bg_now).max(raw * 0.05)) * factor;
                let last = applied.get(&i).copied().unwrap_or(*raw);
                if (cap - last).abs() > 1e-9 {
                    let (a, b) = &link_names[i];
                    sdn.set_link_capacity(a, b, cap)?;
                    applied.insert(i, cap);
                }
            }
            // (3) admit managed flows due this epoch (batched, like the
            // scheduler tick would).
            let due_idx: Vec<usize> = (0..self.flows.len())
                .filter(|&i| !started[i] && self.flows[i].start_epoch <= e)
                .collect();
            let due: Vec<FlowRequest> = due_idx
                .iter()
                .map(|&i| {
                    started[i] = true;
                    FlowRequest {
                        label: self.flows[i].label.clone(),
                        tos: 32u8.wrapping_mul(i as u8 + 1),
                        demand_mbps: self.flows[i].demand_mbps,
                        start_ms: e * 1000,
                        pair: PairId(self.flows[i].pair),
                    }
                })
                .collect();
            if !due.is_empty() {
                sdn.admit_under(policy, &due)?;
            }
            // (4) advance one epoch.
            let mut packet_goodput: BTreeMap<String, f64> = BTreeMap::new();
            match self.plane {
                PlaneMode::Fluid => sdn.advance((e + 1) * 1000)?,
                PlaneMode::Packet => {
                    let report = sdn.packet_epoch()?;
                    packet_goodput = report.flow_goodput.into_iter().collect();
                }
            }
            // (5) record per-flow rates + SLO, attributed per pair.
            let mut total = 0.0;
            let mut pair_total = vec![0.0f64; npairs];
            let mut violated_flows: Vec<usize> = Vec::new();
            for (i, plan) in self.flows.iter().enumerate() {
                if !started[i] {
                    continue;
                }
                let rate = match self.plane {
                    PlaneMode::Fluid => sdn.flow_rate(&plan.label).unwrap_or(0.0),
                    PlaneMode::Packet => packet_goodput.get(&plan.label).copied().unwrap_or(0.0),
                };
                total += rate;
                flow_samples.push(rate);
                pair_total[plan.pair] += rate;
                pair_samples[plan.pair].push(rate);
                if let Some(demand) = plan.demand_mbps {
                    // Two epochs of TCP-ramp grace after start.
                    if e >= plan.start_epoch + 2 && rate < self.slo_fraction * demand {
                        violated_flows.push(i);
                    }
                }
            }
            aggregate.push(total);
            for (p, t) in pair_total.into_iter().enumerate() {
                pair_series[p].push(t);
            }
            if !violated_flows.is_empty() {
                slo_violations += 1;
                // Root-cause attribution: join the scripted timeline
                // (links down / drained), the metric deltas since the
                // last epoch boundary, and the violated flows' current
                // tunnel capacities into one classified blame line.
                let window = bundle.metrics.snapshot().delta(&blame_prev);
                let link_name = |lid: usize| {
                    let (a, b) = &link_names[lid];
                    format!("{a}-{b}")
                };
                let mut squeezed: Vec<(String, String, f64)> = Vec::new();
                for &i in &violated_flows {
                    let plan = &self.flows[i];
                    let (Some(demand), Some(tname)) = (
                        plan.demand_mbps,
                        sdn.flow_tunnel(&plan.label).map(str::to_string),
                    ) else {
                        continue;
                    };
                    let Some(tunnel) = sdn.tunnel(&tname) else {
                        continue;
                    };
                    // Tightest hop on the flow's current tunnel.
                    let worst = tunnel
                        .node_path
                        .windows(2)
                        .filter_map(|hop| {
                            let a = sdn.sim.topo.node_name(hop[0]);
                            let b = sdn.sim.topo.node_name(hop[1]);
                            link_index(&link_names, a, b).ok()
                        })
                        .map(|lid| (lid, applied.get(&lid).copied().unwrap_or(raw_caps[lid])))
                        .min_by(|(_, x), (_, y)| x.total_cmp(y));
                    if let Some((lid, cap)) = worst {
                        if cap < self.slo_fraction * demand {
                            squeezed.push((plan.label.clone(), link_name(lid), cap));
                        }
                    }
                }
                let evidence = obsv_analyze::EpochEvidence {
                    epoch: e,
                    violated_flows: violated_flows
                        .iter()
                        .map(|&i| self.flows[i].label.clone())
                        .collect(),
                    down_links: down_since
                        .iter()
                        .map(|(&lid, &since)| (link_name(lid), e.saturating_sub(since)))
                        .collect(),
                    drained_links: drain.iter().map(|(&lid, &f)| (link_name(lid), f)).collect(),
                    packet_drops: window.counter("dataplane.packet.drops"),
                    pot_rejects: window.counter("dataplane.packet.pot_rejects"),
                    waterfill_solves: window.counter("netsim.waterfill.incremental_solves")
                        + window.counter("netsim.waterfill.full_solves"),
                    cache_refits: window.counter("hecate.cache.refits"),
                    squeezed,
                };
                blames.push(obsv_analyze::attribute(&evidence));
                // Post-mortem material: mark the epoch in the trace and
                // capture the flight-recorder tail (bounded — a
                // persistently-violating run keeps only the first few).
                bundle.tracer.instant(
                    "scenario",
                    "scenario.slo_violation",
                    sdn.sim.now_ns(),
                    || vec![("epoch", obsv::Value::U64(e))],
                );
                if let Some(fr) = &flight {
                    if slo_dumps.len() < MAX_SLO_DUMPS {
                        slo_dumps.push((e, fr.dump_jsonl()));
                    }
                }
            }
            // (6) policy consultation at the decision interval.
            let decision_due = self.decision_every > 0
                && (e + 1) % self.decision_every == 0
                && e + 1 < self.horizon_epochs;
            if decision_due {
                let consult_span =
                    bundle
                        .tracer
                        .span("scenario", "scenario.consult", sdn.sim.now_ns());
                let moved_pairs = sdn.steer(policy);
                for p in &moved_pairs {
                    pair_migrations[p.index()] += 1;
                }
                let moved = moved_pairs.len() as u64;
                migrations += moved;
                consult_span.end(sdn.sim.now_ns(), || {
                    vec![("migrations", obsv::Value::U64(moved))]
                });
            }
            epoch_span.end(sdn.sim.now_ns(), || vec![("epoch", obsv::Value::U64(e))]);
            // Next epoch's blame window starts here — after the
            // consult, so refit/solve activity from the freshest
            // decision lands in the epoch it affects.
            blame_prev = bundle.metrics.snapshot();
            if let Some(prev) = &mut last_snap {
                let now = bundle.metrics.snapshot();
                let delta = now.delta(prev);
                per_epoch.push(
                    delta
                        .entries
                        .iter()
                        .filter_map(|(n, v)| {
                            v.as_counter().filter(|&c| c > 0).map(|c| (n.clone(), c))
                        })
                        .collect(),
                );
                *prev = now;
            }
        }

        // Score recoveries on the aggregate series.
        let recoveries = failures
            .iter()
            .map(|&f| {
                let lo = f.saturating_sub(3) as usize;
                let pre: Vec<f64> = aggregate[lo..f as usize].to_vec();
                let pre_mean = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
                let recovered_after_epochs = if pre_mean <= 1e-9 {
                    Some(0) // nothing was flowing; nothing to recover
                } else {
                    (f..self.horizon_epochs)
                        .find(|&r| aggregate[r as usize] >= 0.8 * pre_mean)
                        .map(|r| r - f)
                };
                Recovery {
                    failed_at_epoch: f,
                    recovered_after_epochs,
                }
            })
            .collect();
        let active: Vec<f64> = aggregate
            .iter()
            .copied()
            .skip(self.flows.iter().map(|f| f.start_epoch).min().unwrap_or(0) as usize)
            .collect();
        let per_pair: Vec<PairScore> = (0..npairs)
            .map(|p| {
                let first_start = self
                    .flows
                    .iter()
                    .filter(|f| f.pair == p)
                    .map(|f| f.start_epoch)
                    .min()
                    .unwrap_or(0);
                let active: Vec<f64> = pair_series[p]
                    .iter()
                    .copied()
                    .skip(first_start as usize)
                    .collect();
                PairScore {
                    pair: format!("p{p}"),
                    route: format!("{}-{}", pair_names[p].0, pair_names[p].1),
                    mean_goodput_mbps: active.iter().sum::<f64>() / active.len().max(1) as f64,
                    p50_flow_mbps: percentile(&pair_samples[p], 0.50),
                    p99_flow_mbps: percentile(&pair_samples[p], 0.99),
                    migrations: pair_migrations[p],
                }
            })
            .collect();
        let final_snap = opts.snapshots.then(|| bundle.metrics.snapshot());
        let metrics = final_snap.as_ref().map(|snap| MetricsSection {
            totals: snap
                .entries
                .iter()
                .filter_map(|(n, v)| v.as_counter().map(|c| (n.clone(), c)))
                .collect(),
            per_epoch,
        });
        let artifacts = ObsvArtifacts {
            records: recording.map(|r| r.take()).unwrap_or_default(),
            metrics: final_snap,
            slo_dumps,
        };
        Ok((
            Scorecard {
                scenario: self.name.clone(),
                policy: policy.name().to_string(),
                seed: self.seed,
                epochs: self.horizon_epochs,
                mean_aggregate_mbps: active.iter().sum::<f64>() / active.len().max(1) as f64,
                p50_flow_mbps: percentile(&flow_samples, 0.50),
                p99_flow_mbps: percentile(&flow_samples, 0.99),
                slo_violation_epochs: slo_violations,
                blames,
                migrations,
                sim_events: sdn.sim.events_processed(),
                recoveries,
                aggregate_series: aggregate,
                per_pair,
                metrics,
            },
            artifacts,
        ))
    }

    /// Runs the scenario under every policy, in [`Policy::all`] order.
    pub fn run_matrix(&self) -> Result<Vec<Scorecard>, ScenarioError> {
        Policy::all().iter().map(|p| self.run(*p)).collect()
    }
}

/// Index of the link between two named endpoints in the raw link list.
fn link_index(names: &[(String, String)], a: &str, b: &str) -> Result<usize, ScenarioError> {
    names
        .iter()
        .position(|(x, y)| (x == a && y == b) || (x == b && y == a))
        .ok_or_else(|| ScenarioError::Config(format!("no link {a}-{b}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, LinkPick};

    fn tiny(policy_seed: u64) -> Scenario {
        Scenario {
            name: "tiny-ring".into(),
            topology: TopologySpec::RingChords {
                n: 10,
                chord_every: 2,
            },
            traffic: TrafficSpec::Gravity {
                pairs: 6,
                total_mbps: 40.0,
            },
            events: vec![EventSpec {
                at_epoch: 16,
                kind: EventKind::LinkDown {
                    link: LinkPick::PrimaryHop(1),
                    restore_after: Some(6),
                },
            }],
            flows: vec![
                FlowPlan {
                    label: "f1".into(),
                    demand_mbps: None,
                    start_epoch: 0,
                    pair: 0,
                },
                FlowPlan {
                    label: "f2".into(),
                    demand_mbps: Some(4.0),
                    start_epoch: 2,
                    pair: 0,
                },
            ],
            pairs: 1,
            horizon_epochs: 26,
            decision_every: 5,
            k_tunnels: 3,
            slo_fraction: 0.9,
            plane: PlaneMode::Fluid,
            elastic: None,
            seed: policy_seed,
        }
    }

    #[test]
    fn fluid_run_produces_a_complete_scorecard() {
        let card = tiny(7).run(Policy::Hecate).unwrap();
        assert_eq!(card.epochs, 26);
        assert_eq!(card.aggregate_series.len(), 26);
        assert!(card.mean_aggregate_mbps > 0.0);
        assert!(card.p99_flow_mbps >= card.p50_flow_mbps);
        assert_eq!(card.recoveries.len(), 1);
        assert_eq!(card.recoveries[0].failed_at_epoch, 16);
    }

    #[test]
    fn static_policy_never_migrates() {
        let card = tiny(7).run(Policy::StaticShortest).unwrap();
        assert_eq!(card.migrations, 0);
    }

    #[test]
    fn adaptive_beats_static_under_permanent_primary_failure() {
        let mut s = tiny(11);
        s.events = vec![EventSpec {
            at_epoch: 12,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: None,
            },
        }];
        s.horizon_epochs = 30;
        let hecate = s.run(Policy::Hecate).unwrap();
        let last = s.run(Policy::LastSample).unwrap();
        let fixed = s.run(Policy::StaticShortest).unwrap();
        // Adaptive policies route around the dead primary; static
        // parks on it and starves.
        assert!(
            hecate.mean_aggregate_mbps > fixed.mean_aggregate_mbps + 1.0,
            "hecate {} vs static {}",
            hecate.mean_aggregate_mbps,
            fixed.mean_aggregate_mbps
        );
        assert!(last.mean_aggregate_mbps > fixed.mean_aggregate_mbps + 1.0);
        assert!(hecate.migrations >= 1);
        // Static never recovers; the adaptive policies do.
        assert_eq!(fixed.recoveries[0].recovered_after_epochs, None);
        assert!(hecate.recoveries[0].recovered_after_epochs.is_some());
    }

    #[test]
    fn scaled_shrinks_horizon_and_events() {
        let s = tiny(1).scaled(0.5);
        assert_eq!(s.horizon_epochs, 13);
        assert_eq!(s.decision_every, 3);
        assert_eq!(s.events[0].at_epoch, 8);
        assert_eq!(s.flows[1].start_epoch, 1);
    }

    #[test]
    fn empty_scenarios_are_rejected() {
        let mut s = tiny(1);
        s.flows.clear();
        assert!(s.run(Policy::Hecate).is_err());
    }

    #[test]
    fn flows_on_undeclared_pairs_are_rejected() {
        let mut s = tiny(1);
        s.flows[1].pair = 3; // scenario declares 1 pair
        assert!(s.run(Policy::Hecate).is_err());
    }

    #[test]
    fn single_pair_scorecard_mirrors_the_aggregate() {
        let card = tiny(7).run(Policy::Hecate).unwrap();
        assert_eq!(card.per_pair.len(), 1);
        let p = &card.per_pair[0];
        assert_eq!(p.pair, "p0");
        assert!((p.mean_goodput_mbps - card.mean_aggregate_mbps).abs() < 1e-12);
        assert_eq!(p.migrations, card.migrations);
    }

    fn tiny_multipair(seed: u64) -> Scenario {
        let mut s = tiny(seed);
        s.name = "tiny-multipair".into();
        s.pairs = 3;
        s.flows = vec![
            FlowPlan {
                label: "f1".into(),
                demand_mbps: None,
                start_epoch: 0,
                pair: 0,
            },
            FlowPlan {
                label: "f2".into(),
                demand_mbps: Some(4.0),
                start_epoch: 1,
                pair: 1,
            },
            FlowPlan {
                label: "f3".into(),
                demand_mbps: None,
                start_epoch: 2,
                pair: 2,
            },
        ];
        s
    }

    #[test]
    fn multi_pair_run_scores_every_pair() {
        let card = tiny_multipair(7).run(Policy::Hecate).unwrap();
        assert_eq!(card.per_pair.len(), 3);
        // Every pair's flows actually carried traffic, attributed to
        // the right rows, and the rows sum to the aggregate.
        let sum: f64 = card.per_pair.iter().map(|p| p.mean_goodput_mbps).sum();
        for p in &card.per_pair {
            assert!(p.mean_goodput_mbps > 0.0, "{p:?}");
            assert!(p.route.contains('-'));
        }
        // (pair means skip each pair's own warm-up epochs, so they can
        // only exceed the aggregate mean, never undershoot the sum.)
        assert!(sum >= card.mean_aggregate_mbps - 1e-9, "{card:?}");
        let migration_sum: u64 = card.per_pair.iter().map(|p| p.migrations).sum();
        assert_eq!(migration_sum, card.migrations);
    }

    #[test]
    fn observed_run_matches_plain_run_and_traces_every_phase() {
        let s = tiny(7);
        let plain = s.run(Policy::Hecate).unwrap();
        let (card, art) = s
            .run_observed(Policy::Hecate, &crate::observe::ObsvOptions::full())
            .unwrap();
        // Observation adds the metrics section and changes nothing else.
        let mut stripped = card.clone();
        stripped.metrics = None;
        assert_eq!(stripped, plain);
        // Every control-loop phase shows up as a span at least once.
        let names = art.span_names();
        for expect in [
            "decide.consult",
            "decide.forecast",
            "decide.place",
            "decide.solve",
            "ml.fit",
            "scenario.consult",
            "scenario.epoch",
            "sim.dispatch",
            "sim.waterfill",
        ] {
            assert!(names.contains(&expect), "missing span {expect}: {names:?}");
        }
        let m = card.metrics.as_ref().unwrap();
        assert_eq!(m.per_epoch.len() as u64, card.epochs);
        assert!(
            m.total("netsim.waterfill.incremental_solves")
                + m.total("netsim.waterfill.full_solves")
                > 0
        );
        assert!(m.total("hecate.cache.hits") + m.total("hecate.cache.refits") > 0);
        assert!(!art.records.is_empty());
        assert!(art.metrics.is_some());
    }

    #[test]
    fn unobserved_run_carries_no_metrics_section() {
        let card = tiny(7).run(Policy::Hecate).unwrap();
        assert!(card.metrics.is_none());
    }

    #[test]
    fn multi_pair_observed_run_attributes_cache_per_pair() {
        let opts = crate::observe::ObsvOptions {
            snapshots: true,
            ..Default::default()
        };
        let (card, art) = tiny_multipair(7)
            .run_observed(Policy::Hecate, &opts)
            .unwrap();
        // No sink requested: nothing traced, but metrics folded.
        assert!(art.records.is_empty());
        let m = card.metrics.as_ref().unwrap();
        // Scoped counters exist for every declared pair and sum to the
        // global ones.
        for stat in ["hits", "updates", "refits"] {
            let scoped: u64 = (0..3)
                .map(|p| m.total(&format!("hecate.cache.p{p}.{stat}")))
                .sum();
            assert_eq!(
                scoped,
                m.total(&format!("hecate.cache.{stat}")),
                "per-pair {stat} must sum to the global counter"
            );
        }
        assert!(m.total("hecate.cache.hits") + m.total("hecate.cache.refits") > 0);
    }

    #[test]
    fn every_slo_violation_epoch_carries_a_blame() {
        // Permanent primary failure under the static policy: the demand
        // flow parks on the dead path and violates every epoch after.
        let mut s = tiny(11);
        s.events = vec![EventSpec {
            at_epoch: 12,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: None,
            },
        }];
        s.horizon_epochs = 30;
        let card = s.run(Policy::StaticShortest).unwrap();
        assert!(card.slo_violation_epochs > 0, "{card:?}");
        assert_eq!(card.blames.len() as u64, card.slo_violation_epochs);
        // Violations after the failure blame the scripted link-down.
        let post = card
            .blames
            .iter()
            .filter(|b| b.epoch >= 12)
            .collect::<Vec<_>>();
        assert!(!post.is_empty());
        for b in post {
            assert_eq!(b.cause, obsv_analyze::BlameCause::LinkFailure, "{b:?}");
            assert!(b.flows.contains(&"f2".to_string()), "{b:?}");
            assert!(b.detail.contains("down"), "{b:?}");
        }
        // Blames are scorecard data: plain and observed runs agree.
        let (observed, _) = s
            .run_observed(Policy::StaticShortest, &crate::observe::ObsvOptions::full())
            .unwrap();
        assert_eq!(observed.blames, card.blames);
    }

    #[test]
    fn slo_dump_cap_is_honored() {
        // Same persistently-violating scenario: more violation epochs
        // than the cap.
        let mut s = tiny(11);
        s.events = vec![EventSpec {
            at_epoch: 12,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: None,
            },
        }];
        s.horizon_epochs = 30;
        let opts = crate::observe::ObsvOptions {
            flight_capacity: 512,
            ..Default::default()
        };
        let (card, art) = s.run_observed(Policy::StaticShortest, &opts).unwrap();
        assert!(card.slo_violation_epochs > MAX_SLO_DUMPS as u64);
        assert_eq!(
            art.slo_dumps.len(),
            MAX_SLO_DUMPS,
            "cap must bound the dumps"
        );
        // First violations win, in order, and each dump names its epoch.
        let dumped: Vec<u64> = art.slo_dumps.iter().map(|(e, _)| *e).collect();
        let first: Vec<u64> = card.blames[..MAX_SLO_DUMPS]
            .iter()
            .map(|b| b.epoch)
            .collect();
        assert_eq!(dumped, first);
        assert!(art.slo_dumps.iter().all(|(_, dump)| !dump.is_empty()));
    }

    #[test]
    fn multi_pair_replays_bit_identically_per_policy() {
        for policy in Policy::all() {
            let a = tiny_multipair(11).run(policy).unwrap();
            let b = tiny_multipair(11).run(policy).unwrap();
            assert_eq!(a, b, "{policy:?}");
        }
    }
}
