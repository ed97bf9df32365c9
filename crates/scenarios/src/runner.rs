//! The scenario runner: executes one `(topology × traffic × events)`
//! description end-to-end through `framework::SelfDrivingNetwork` under
//! a routing policy, and scores the outcome.
//!
//! One epoch is one simulated second (the paper's telemetry cadence).
//! [`Scenario::run_observed`] builds the run's state (`Run::build`),
//! then calls one phase method per step of each epoch:
//!
//! 1. `events` applies the scripted link actions that are due;
//! 2. `capacities` folds background traffic and drains into effective
//!    link capacities on both planes;
//! 3. `admit` admits the managed flows that are due;
//! 4. `advance` advances the fluid plane — or forwards a packet window
//!    when the scenario runs the packet plane;
//! 5. `score` records per-flow rates and SLO violations, and `blame`s
//!    each violation epoch on a root cause;
//! 6. `consult` lets the policy re-decide at its decision interval;
//! 7. `snapshot` closes the epoch's metric window.
//!
//! `finish` then folds the series into the [`Scorecard`]. Admission
//! and re-decision are the network's
//! ([`SelfDrivingNetwork::admit_under`] / [`SelfDrivingNetwork::steer`]);
//! the runner only schedules and scores them. Everything downstream of
//! the scenario's `u64` seed is deterministic.

use crate::elastic::compile_elastic;
use crate::events::{compile_events, CompiledAction, EventSpec, LinkAction};
use crate::observe::{ObsvArtifacts, ObsvOptions, MAX_SLO_DUMPS};
use crate::scorecard::{percentile, MetricsSection, PairScore, Recovery, Scorecard};
use crate::traffic::{headroom_scale, link_load, TrafficSpec};
use crate::zoo::{endpoint_pairs, endpoints, TopologySpec};
use crate::ScenarioError;
use framework::dataloop::DataplaneConfig;
use framework::scheduler::FlowRequest;
use framework::{PairId, Policy, SelfDrivingNetwork};
use netsim::{LinkId, Topology};
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::sync::Arc;

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
        let mut run = Run::build(self, policy, opts)?;
        for e in 0..self.horizon_epochs {
            let now_ns = run.sdn.sim.now_ns();
            let epoch_span = run.obsv.tracer.span("scenario", "scenario.epoch", now_ns);
            run.events(e)?;
            run.capacities(e)?;
            run.admit(e)?;
            let packet_goodput = run.advance(e)?;
            run.score(e, &packet_goodput);
            run.consult(e);
            epoch_span.end(run.sdn.sim.now_ns(), || {
                vec![("epoch", obsv::Value::U64(e))]
            });
            run.snapshot();
        }
        Ok(run.finish())
    }

    /// Runs the scenario under every policy, in [`Policy::all`] order.
    pub fn run_matrix(&self) -> Result<Vec<Scorecard>, ScenarioError> {
        Policy::all().iter().map(|p| self.run(*p)).collect()
    }
}

/// One run's loop state: built by `build`, stepped one phase method at
/// a time per epoch, folded into a scorecard by `finish`.
struct Run<'s> {
    scenario: &'s Scenario,
    policy: Policy,
    sdn: SelfDrivingNetwork,
    /// Each managed pair's endpoints, by router name.
    pair_names: Vec<(String, String)>,
    /// The compiled event timeline, from the next action due.
    actions: Peekable<std::vec::IntoIter<CompiledAction>>,
    /// Scaled background load per link and epoch (empty: none).
    bg_mbps: Vec<Vec<f64>>,
    /// Per-link state, indexed by `LinkId`: the built capacity, the
    /// capacity last applied, the scripted drain factor and the epoch
    /// the link went down.
    raw_caps: Vec<f64>,
    applied: Vec<f64>,
    drain: Vec<Option<f64>>,
    down_since: Vec<Option<u64>>,
    /// Whether each managed flow has been admitted.
    started: Vec<bool>,
    obsv: obsv::Obsv,
    recording: Option<Arc<obsv::RecordingSink>>,
    flight: Option<Arc<obsv::FlightRecorder>>,
    /// The registry at the last epoch boundary: the base of the next
    /// epoch's blame window and metric row.
    snap: obsv::MetricsSnapshot,
    /// Per-epoch counter increments; `None` unless `opts.snapshots`.
    per_epoch: Option<Vec<Vec<(String, u64)>>>,
    slo_dumps: Vec<(u64, String)>,
    /// One blame per SLO-violation epoch.
    blames: Vec<obsv_analyze::Blame>,
    /// Epochs at which a scripted failure started.
    failures: Vec<u64>,
    /// Goodput per epoch: the aggregate, then each pair's share.
    aggregate: Vec<f64>,
    pair_series: Vec<Vec<f64>>,
    /// Each pair's per-flow, per-epoch rate samples.
    pair_samples: Vec<Vec<f64>>,
    pair_migrations: Vec<u64>,
}

impl<'s> Run<'s> {
    /// Validates the scenario, builds the network over its topology
    /// and managed pairs (pair 0 is the classic farthest pair),
    /// compiles background traffic and events, and attaches the
    /// observability bundle.
    fn build(
        scenario: &'s Scenario,
        policy: Policy,
        opts: &ObsvOptions,
    ) -> Result<Self, ScenarioError> {
        let s = scenario;
        if s.horizon_epochs == 0 || s.flows.is_empty() {
            return Err(ScenarioError::Config(
                "scenario needs a horizon and at least one managed flow".into(),
            ));
        }
        let npairs = s.pairs.max(1);
        if let Some(f) = s.flows.iter().find(|f| f.pair >= npairs) {
            return Err(ScenarioError::Config(format!(
                "flow {} rides pair {} but the scenario declares {npairs} pair(s)",
                f.label, f.pair
            )));
        }
        let topo = s.topology.build(s.seed);
        let pair_nodes = endpoint_pairs(&topo, npairs);
        debug_assert_eq!(pair_nodes[0], endpoints(&topo));
        let pair_names: Vec<(String, String)> = pair_nodes
            .iter()
            .map(|&(a, b)| (topo.node_name(a).to_string(), topo.node_name(b).to_string()))
            .collect();
        let bg_seed = s.seed.wrapping_mul(0x9e3779b97f4a7c15);
        let bg = s.traffic.background(&topo, s.horizon_epochs, bg_seed);
        let loads = link_load(&topo, &bg, s.horizon_epochs);
        let scale = headroom_scale(&topo, &loads);
        let mut bg_mbps = vec![Vec::new(); topo.link_count()];
        for (lid, series) in loads {
            bg_mbps[lid.0 as usize] = series.into_iter().map(|l| l * scale).collect();
        }
        let raw_caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_mbps).collect();
        let endpoint_refs: Vec<(&str, &str)> = pair_names
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let mut sdn =
            SelfDrivingNetwork::over_topology_pairs(topo, &endpoint_refs, s.k_tunnels, s.seed)?;
        // Events target pair 0's primary tunnel (the shortest path of
        // the classic farthest pair) — `tunnel1` on single-pair
        // scenarios, `p0/tunnel1` otherwise.
        let primary = sdn
            .pair_tunnel_names(PairId(0))
            .and_then(|names| sdn.tunnel(names.first()?))
            .ok_or_else(|| ScenarioError::Config("pair 0 has no primary tunnel".into()))?
            .node_path
            .clone();
        let actions = compile_events(&s.events, &sdn.sim.topo, &primary)?;
        // Elastic background rides the raw event queue: schedule every
        // compiled arrival/departure up front.
        if let Some(spec) = &s.elastic {
            if s.plane != PlaneMode::Fluid {
                return Err(ScenarioError::Config(
                    "elastic background flows require the fluid plane".into(),
                ));
            }
            let seed = bg_seed.wrapping_add(1);
            for (at_ms, ev) in compile_elastic(&sdn.sim.topo, spec, s.horizon_epochs, seed) {
                sdn.sim.schedule(at_ms, ev)?;
            }
        }
        if s.plane == PlaneMode::Packet {
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
        // the run is exactly the un-observed one. The registry is live
        // either way (plain runs get a fresh one through `set_obsv`),
        // so blames — scorecard data — come out identical.
        let recording = opts.trace.then(obsv::RecordingSink::shared);
        let flight =
            (opts.flight_capacity > 0).then(|| obsv::FlightRecorder::new(opts.flight_capacity));
        let mut sinks: Vec<Arc<dyn obsv::TraceSink>> = Vec::new();
        sinks.extend(recording.clone().map(|r| r as _));
        sinks.extend(flight.clone().map(|fr| fr as _));
        sinks.extend(opts.extra_sink.clone());
        let tracer = if sinks.len() > 1 {
            obsv::Tracer::to(Arc::new(obsv::Fanout(sinks)))
        } else {
            sinks.pop().map_or_else(obsv::Tracer::off, obsv::Tracer::to)
        };
        let obsv = obsv::Obsv {
            tracer,
            metrics: obsv::Registry::default(),
        };
        sdn.set_obsv(obsv.clone());
        // Taken after registration, so the first epoch's window covers
        // exactly that epoch's increments.
        let snap = obsv.metrics.snapshot();
        Ok(Run {
            scenario,
            policy,
            sdn,
            pair_names,
            actions: actions.into_iter().peekable(),
            bg_mbps,
            applied: raw_caps.clone(),
            drain: vec![None; raw_caps.len()],
            down_since: vec![None; raw_caps.len()],
            raw_caps,
            started: vec![false; s.flows.len()],
            obsv,
            recording,
            flight,
            snap,
            per_epoch: opts.snapshots.then(Vec::new),
            slo_dumps: Vec::new(),
            blames: Vec::new(),
            failures: Vec::new(),
            aggregate: Vec::with_capacity(s.horizon_epochs as usize),
            pair_series: vec![Vec::new(); npairs],
            pair_samples: vec![Vec::new(); npairs],
            pair_migrations: vec![0; npairs],
        })
    }

    /// Applies the scripted link actions due by epoch `e`.
    fn events(&mut self, e: u64) -> Result<(), ScenarioError> {
        while let Some(act) = self.actions.next_if(|a| a.epoch <= e) {
            let lid = act.link.0 as usize;
            match act.action {
                LinkAction::SetUp(up) => {
                    let (a, b) = link_ends(&self.sdn.sim.topo, act.link);
                    self.sdn.set_link_state(&a, &b, up)?;
                    let since = &mut self.down_since[lid];
                    *since = since.or(Some(e)).filter(|_| !up);
                    if act.starts_failure {
                        self.failures.push(e);
                    }
                }
                LinkAction::SetScale(f) => {
                    self.drain[lid] = ((f - 1.0).abs() >= 1e-12).then_some(f);
                }
            }
        }
        Ok(())
    }

    /// Applies each link's effective capacity for epoch `e` — raw
    /// minus background (floored at 5 % of raw), times its drain —
    /// on both planes, where it changed.
    fn capacities(&mut self, e: u64) -> Result<(), ScenarioError> {
        for (i, &raw) in self.raw_caps.iter().enumerate() {
            let bg = self.bg_mbps[i].get(e as usize).copied().unwrap_or(0.0);
            let cap = (raw - bg).max(raw * 0.05) * self.drain[i].unwrap_or(1.0);
            if (cap - self.applied[i]).abs() > 1e-9 {
                let (a, b) = link_ends(&self.sdn.sim.topo, LinkId(i as u32));
                self.sdn.set_link_capacity(&a, &b, cap)?;
                self.applied[i] = cap;
            }
        }
        Ok(())
    }

    /// Admits the managed flows due by epoch `e` in one batch, as the
    /// scheduler tick would.
    fn admit(&mut self, e: u64) -> Result<(), ScenarioError> {
        let mut due = Vec::new();
        for (i, plan) in self.scenario.flows.iter().enumerate() {
            if self.started[i] || plan.start_epoch > e {
                continue;
            }
            self.started[i] = true;
            due.push(FlowRequest {
                label: plan.label.clone(),
                tos: ((i + 1) as u8).wrapping_mul(32),
                demand_mbps: plan.demand_mbps,
                start_ms: e * 1000,
                pair: PairId(plan.pair),
            });
        }
        if !due.is_empty() {
            self.sdn.admit_under(self.policy, &due)?;
        }
        Ok(())
    }

    /// Advances the fluid plane through epoch `e`, or forwards one
    /// packet window and returns its per-flow goodput.
    fn advance(&mut self, e: u64) -> Result<BTreeMap<String, f64>, ScenarioError> {
        Ok(match self.scenario.plane {
            PlaneMode::Fluid => {
                self.sdn.advance((e + 1) * 1000)?;
                BTreeMap::new()
            }
            PlaneMode::Packet => self.sdn.packet_epoch()?.flow_goodput.into_iter().collect(),
        })
    }

    /// Records every admitted flow's rate, attributed per pair, and
    /// blames the epoch if a flow missed its SLO.
    fn score(&mut self, e: u64, packet_goodput: &BTreeMap<String, f64>) {
        let s = self.scenario;
        let mut total = 0.0;
        let mut pair_total = vec![0.0f64; self.pair_series.len()];
        let mut violated: Vec<usize> = Vec::new();
        for (i, plan) in s.flows.iter().enumerate() {
            if !self.started[i] {
                continue;
            }
            let rate = match s.plane {
                PlaneMode::Fluid => self.sdn.flow_rate(&plan.label),
                PlaneMode::Packet => packet_goodput.get(&plan.label).copied(),
            }
            .unwrap_or(0.0);
            total += rate;
            pair_total[plan.pair] += rate;
            self.pair_samples[plan.pair].push(rate);
            // Two epochs of TCP-ramp grace after start.
            let grace_over = e >= plan.start_epoch + 2;
            if grace_over && plan.demand_mbps.is_some_and(|d| rate < s.slo_fraction * d) {
                violated.push(i);
            }
        }
        self.aggregate.push(total);
        for (series, t) in self.pair_series.iter_mut().zip(pair_total) {
            series.push(t);
        }
        if !violated.is_empty() {
            self.blame(e, &violated);
        }
    }

    /// Root-cause attribution of violation epoch `e`: joins the
    /// scripted timeline (links down / drained), the metric deltas
    /// since the last epoch boundary and the violated flows' tightest
    /// hops into one classified blame. Marks the epoch in the trace
    /// and keeps the flight-recorder tail (bounded — a persistently
    /// violating run keeps only the first few).
    fn blame(&mut self, e: u64, violated: &[usize]) {
        let s = self.scenario;
        let topo = &self.sdn.sim.topo;
        let window = self.obsv.metrics.snapshot().delta(&self.snap);
        let name = |lid: usize| {
            let (a, b) = link_ends(topo, LinkId(lid as u32));
            format!("{a}-{b}")
        };
        let mut squeezed: Vec<(String, String, f64)> = Vec::new();
        for &i in violated {
            let plan = &s.flows[i];
            let tunnel = self.sdn.flow_tunnel(&plan.label);
            let (Some(demand), Some(tunnel)) =
                (plan.demand_mbps, tunnel.and_then(|t| self.sdn.tunnel(t)))
            else {
                continue;
            };
            // Tightest hop on the flow's current tunnel, failed or not.
            let worst = tunnel
                .node_path
                .windows(2)
                .filter_map(|hop| topo.neighbors(hop[0]).iter().find(|(n, _)| *n == hop[1]))
                .map(|&(_, lid)| (lid.0 as usize, self.applied[lid.0 as usize]))
                .min_by(|(_, x), (_, y)| x.total_cmp(y));
            if let Some((lid, cap)) = worst.filter(|&(_, cap)| cap < s.slo_fraction * demand) {
                squeezed.push((plan.label.clone(), name(lid), cap));
            }
        }
        let evidence = obsv_analyze::EpochEvidence {
            epoch: e,
            violated_flows: violated.iter().map(|&i| s.flows[i].label.clone()).collect(),
            down_links: (self.down_since.iter().enumerate())
                .filter_map(|(lid, since)| Some((name(lid), e.saturating_sub((*since)?))))
                .collect(),
            drained_links: (self.drain.iter().enumerate())
                .filter_map(|(lid, f)| Some((name(lid), (*f)?)))
                .collect(),
            packet_drops: window.counter("dataplane.packet.drops"),
            pot_rejects: window.counter("dataplane.packet.pot_rejects"),
            waterfill_solves: window.counter("netsim.waterfill.incremental_solves")
                + window.counter("netsim.waterfill.full_solves"),
            cache_refits: window.counter("hecate.cache.refits"),
            squeezed,
        };
        self.blames.push(obsv_analyze::attribute(&evidence));
        let epoch_arg = || vec![("epoch", obsv::Value::U64(e))];
        let now_ns = self.sdn.sim.now_ns();
        (self.obsv.tracer).instant("scenario", "scenario.slo_violation", now_ns, epoch_arg);
        if let Some(fr) = &self.flight {
            if self.slo_dumps.len() < MAX_SLO_DUMPS {
                self.slo_dumps.push((e, fr.dump_jsonl()));
            }
        }
    }

    /// Lets the policy re-decide when a decision interval ends with
    /// epoch `e`, but not after the last epoch (nor ever when
    /// `decision_every` is 0).
    fn consult(&mut self, e: u64) {
        let (every, horizon) = (self.scenario.decision_every, self.scenario.horizon_epochs);
        if !(e + 1).is_multiple_of(every) || e + 1 >= horizon {
            return;
        }
        let now_ns = self.sdn.sim.now_ns();
        let span = (self.obsv.tracer).span("scenario", "scenario.consult", now_ns);
        let moved = self.sdn.steer(self.policy);
        for p in &moved {
            self.pair_migrations[p.index()] += 1;
        }
        span.end(self.sdn.sim.now_ns(), || {
            vec![("migrations", obsv::Value::U64(moved.len() as u64))]
        });
    }

    /// Closes the epoch's metric window. It runs after the consult, so
    /// refit/solve activity from the freshest decision lands in the
    /// epoch it affects.
    fn snapshot(&mut self) {
        let now = self.obsv.metrics.snapshot();
        if let Some(rows) = &mut self.per_epoch {
            let delta = now.delta(&self.snap);
            rows.push(delta.entries.into_iter().filter(|&(_, c)| c > 0).collect());
        }
        self.snap = now;
    }

    /// Scores the run: means over each series' active epochs, per-flow
    /// percentiles, recoveries after each scripted failure, per-pair
    /// attribution and the metrics section.
    fn finish(self) -> (Scorecard, ObsvArtifacts) {
        let s = self.scenario;
        let first_start = |pair: Option<usize>| {
            let flows = s.flows.iter().filter(|f| pair.is_none_or(|p| f.pair == p));
            flows.map(|f| f.start_epoch).min().unwrap_or(0) as usize
        };
        let mean_from = |series: &[f64], from: usize| {
            let active = series.get(from..).unwrap_or_default();
            active.iter().sum::<f64>() / active.len().max(1) as f64
        };
        let aggregate = &self.aggregate;
        let recoveries = (self.failures.iter())
            .map(|&f| {
                let pre = &aggregate[f.saturating_sub(3) as usize..f as usize];
                let pre_mean = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
                let recovered_after_epochs = if pre_mean <= 1e-9 {
                    Some(0) // nothing was flowing; nothing to recover
                } else {
                    (f..s.horizon_epochs)
                        .find(|&r| aggregate[r as usize] >= 0.8 * pre_mean)
                        .map(|r| r - f)
                };
                Recovery {
                    failed_at_epoch: f,
                    recovered_after_epochs,
                }
            })
            .collect();
        let per_pair = (self.pair_names.iter().enumerate())
            .map(|(p, (a, b))| PairScore {
                pair: format!("p{p}"),
                route: format!("{a}-{b}"),
                mean_goodput_mbps: mean_from(&self.pair_series[p], first_start(Some(p))),
                p50_flow_mbps: percentile(&self.pair_samples[p], 0.50),
                p99_flow_mbps: percentile(&self.pair_samples[p], 0.99),
                migrations: self.pair_migrations[p],
            })
            .collect();
        let samples = self.pair_samples.concat();
        let totals = self.snap.entries.clone();
        let metrics = (self.per_epoch).map(|per_epoch| MetricsSection { totals, per_epoch });
        let final_snap = metrics.is_some().then_some(self.snap);
        let card = Scorecard {
            scenario: s.name.clone(),
            policy: self.policy.name().to_string(),
            seed: s.seed,
            epochs: s.horizon_epochs,
            mean_aggregate_mbps: mean_from(aggregate, first_start(None)),
            p50_flow_mbps: percentile(&samples, 0.50),
            p99_flow_mbps: percentile(&samples, 0.99),
            slo_violation_epochs: self.blames.len() as u64,
            blames: self.blames,
            migrations: self.pair_migrations.iter().sum(),
            sim_events: self.sdn.sim.events_processed(),
            queue_peak_events: self.sdn.sim.queue_peak_events(),
            queue_list_steps: self.sdn.sim.queue_list_steps(),
            telemetry_runs: self.sdn.telemetry.stamp_runs(),
            packet_work: (self.sdn.dataplane())
                .map(|plane| plane.net().work().clone())
                .unwrap_or_default(),
            recoveries,
            aggregate_series: self.aggregate,
            per_pair,
            metrics,
        };
        let artifacts = ObsvArtifacts {
            records: self.recording.map(|r| r.take()).unwrap_or_default(),
            metrics: final_snap,
            slo_dumps: self.slo_dumps,
        };
        (card, artifacts)
    }
}

/// The router names at a link's ends, as the framework's by-name link
/// hooks take them.
fn link_ends(topo: &Topology, lid: LinkId) -> (String, String) {
    let l = topo.link(lid);
    let name = |n| topo.node_name(n).to_string();
    (name(l.a), name(l.b))
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
    fn per_epoch_metric_windows_tile_the_run() {
        let (card, _) = tiny_multipair(7)
            .run_observed(Policy::Hecate, &crate::observe::ObsvOptions::full())
            .unwrap();
        let m = card.metrics.as_ref().unwrap();
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for window in &m.per_epoch {
            for (name, c) in window {
                *sums.entry(name).or_default() += c;
            }
        }
        assert!(!m.totals.is_empty());
        for (name, total) in &m.totals {
            assert_eq!(sums.remove(name.as_str()).unwrap_or(0), *total, "{name}");
        }
        assert!(sums.is_empty(), "windows count unknown counters: {sums:?}");
    }

    #[test]
    fn two_hundred_fifty_six_flows_get_a_tos_each() {
        let mut s = tiny(7);
        s.horizon_epochs = 2;
        s.flows = (0..256)
            .map(|i| FlowPlan {
                label: format!("f{i}"),
                demand_mbps: None,
                start_epoch: 0,
                pair: 0,
            })
            .collect();
        let card = s.run(Policy::Hecate).unwrap();
        assert_eq!(card.aggregate_series.len(), 2);
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
