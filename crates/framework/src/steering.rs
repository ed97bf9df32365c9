//! The network's routing policy and the moves it makes: admission under
//! a [`Policy`], one decision interval of steering, re-optimization
//! through the admission consult, flow migration, and the standing
//! water-fill that re-optimization patches.

use crate::optimizer::{assign_flows_shared_with, FlowDemand, Objective, SharedLinkModel};
use crate::scheduler::FlowRequest;
use crate::sdn::{edge_slot, EdgeOps, SelfDrivingNetwork};
use crate::waterfill::SharedWaterfill;
use crate::{FrameworkError, PairId};
use freertr::agent::ConfigOp;
use netsim::Event;

/// The network's routing policy: where admitted flows land and how they
/// are re-steered at each decision interval. The one definition of its
/// arms; callers hand it to [`SelfDrivingNetwork::admit_under`] and
/// [`SelfDrivingNetwork::steer`] and never branch on it themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The framework's mode: Hecate capacity forecasts + the assignment
    /// search, one consultation per decision interval.
    Hecate,
    /// Reactive baseline: each pair re-assigned on its tunnels' *last
    /// observed* capacity samples — no forecasting, and blind to links
    /// its tunnels share with other pairs.
    LastSample,
    /// Static shortest-path: every flow pinned to its pair's first
    /// (shortest) tunnel forever.
    StaticShortest,
}

impl Policy {
    /// All policies, in scorecard order.
    pub fn all() -> [Policy; 3] {
        [Policy::Hecate, Policy::LastSample, Policy::StaticShortest]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Hecate => "hecate",
            Policy::LastSample => "last-sample",
            Policy::StaticShortest => "static-shortest",
        }
    }
}

impl SelfDrivingNetwork {
    /// Migrates one managed flow to a different tunnel **of its own
    /// pair**: one PBR rewrite on the pair's ingress edge plus the
    /// data-plane path swap.
    pub fn migrate_flow(&mut self, label: &str, tunnel: &str) -> Result<(), FrameworkError> {
        let flow = self
            .flows
            .iter()
            .position(|f| f.label == label)
            .ok_or(FrameworkError::NoFeasiblePath)?;
        let row = *self
            .row_of
            .get(tunnel)
            .ok_or(FrameworkError::NoFeasiblePath)?;
        self.migrate_flows(&[(flow, row)])
    }

    /// Moves `self.flows[i]` onto tunnel row `row` for every `(i, row)`:
    /// one edge transaction of PBR rewrites per ingress, then the
    /// data-plane path swaps, in `moves` order.
    ///
    /// Every move is resolved (a row of the flow's own pair, its host
    /// path, a live link under each hop) before the first rewrite, and a
    /// flow changes tunnel only after its edge accepted. A move that
    /// does not resolve and a move whose edge refuses are alike: that
    /// flow stays where it is, the other moves are carried out, and the
    /// first error is returned (a resolution error before a refusal).
    pub(crate) fn migrate_flows(&mut self, moves: &[(usize, usize)]) -> Result<(), FrameworkError> {
        let mut edges = EdgeOps::new();
        let mut resolved = Vec::with_capacity(moves.len());
        let mut unresolved = None;
        for &(i, row) in moves {
            let flow = &self.flows[i];
            // A tunnel of a *different* pair connects the wrong
            // endpoints — refuse rather than misroute.
            let path = if self.rows[row].pair == flow.pair {
                self.host_path(row)
            } else {
                Err(FrameworkError::NoFeasiblePath)
            };
            let path = match path {
                Ok(path) => path,
                Err(e) => {
                    unresolved.get_or_insert(e);
                    continue;
                }
            };
            let edge = edge_slot(&mut edges, &self.pairs[flow.pair.index()]);
            edges[edge].1.push(ConfigOp::SetPbr {
                acl: flow.label.clone(),
                tunnel: self.rows[row].tunnel.id.clone(),
            });
            resolved.push((i, row, edge, path));
        }
        let acks: Vec<_> = edges
            .into_iter()
            .map(|(edge, ops)| edge.transact(ops))
            .collect();
        let now = self.sim.now_ms();
        for (i, row, edge, path) in resolved {
            if acks[edge].is_err() {
                continue;
            }
            let flow = &mut self.flows[i];
            self.sim
                .schedule(now, Event::SetFlowPath(flow.id, path.into()))?;
            let from = std::mem::replace(&mut flow.tunnel, row);
            let (label, rows) = (&flow.label, &self.rows);
            self.obsv
                .tracer
                .instant("decide", "decide.migrate", self.sim.now_ns(), || {
                    vec![
                        ("flow", obsv::Value::Str(label.clone())),
                        ("from", obsv::Value::Str(rows[from].tunnel.id.clone())),
                        ("to", obsv::Value::Str(rows[row].tunnel.id.clone())),
                    ]
                });
            self.log.record("configureTunnel");
        }
        if let Some(e) = unresolved {
            return Err(e);
        }
        acks.into_iter().collect::<Result<(), _>>()?;
        Ok(())
    }

    /// Re-optimizes the assignment of all managed flows ("the controller
    /// consults an optimization engine that is able to improve the
    /// previous allocation decision"): one consult, as at admission, of
    /// every managed flow with the max-bandwidth objective, then one
    /// round of migrations for the flows whose tunnel changed. Returns
    /// the new (label, tunnel) pairs.
    ///
    /// The consult runs on [`SelfDrivingNetwork::link_model`]`(true)`,
    /// so the joint reassignment never oversubscribes a link that
    /// candidate tunnels of different pairs have in common. A cold
    /// consult (no series forecastable yet) is
    /// [`FrameworkError::NoFeasiblePath`] and moves nothing; a warm one
    /// patches the standing [`SelfDrivingNetwork::waterfill`] to the
    /// new placement under the caps the consult placed it under.
    pub fn reoptimize_bandwidth(&mut self) -> Result<Vec<(String, String)>, FrameworkError> {
        if self.flows.is_empty() {
            return Ok(Vec::new());
        }
        let flows: Vec<FlowDemand> = self
            .flows
            .iter()
            .map(|f| FlowDemand {
                pair: f.pair,
                demand: f.demand,
            })
            .collect();
        let model = self.link_model(true);
        let out = self.consult(&flows, &model, Objective::MaxBandwidth)?;
        if out.solver.is_none() {
            return Err(FrameworkError::NoFeasiblePath);
        }
        self.patch_waterfill(&model.with_tunnel_caps(&out.caps), &out.rows);
        let (mut moves, mut changed) = (Vec::with_capacity(flows.len()), Vec::new());
        for (i, (f, &t)) in self.flows.iter().zip(&out.rows).enumerate() {
            moves.push((f.label.clone(), self.rows[t].tunnel.id.clone()));
            if f.tunnel != t {
                changed.push((i, t));
            }
        }
        self.migrate_flows(&changed)?;
        Ok(moves)
    }

    /// Admits a batch under `policy`: [`SelfDrivingNetwork::admit_flows`]
    /// with the max-bandwidth objective, after which
    /// [`Policy::StaticShortest`] moves each new flow not on its pair's
    /// first tunnel onto it.
    pub fn admit_under(
        &mut self,
        policy: Policy,
        reqs: &[FlowRequest],
    ) -> Result<(), FrameworkError> {
        self.admit_flows(reqs, Objective::MaxBandwidth)?;
        if policy != Policy::StaticShortest {
            return Ok(());
        }
        let admitted = self.flows.len() - reqs.len();
        let pins: Vec<(usize, usize)> = self
            .flows
            .iter()
            .enumerate()
            .skip(admitted)
            .filter_map(|(i, f)| {
                let first = *self.pairs[f.pair.index()].rows.first()?;
                (first != f.tunnel).then_some((i, first))
            })
            .collect();
        self.migrate_flows(&pins)
    }

    /// One decision interval under `policy`; returns the pair of every
    /// flow it moved, in move order.
    ///
    /// - [`Policy::StaticShortest`] moves nothing.
    /// - [`Policy::Hecate`] runs [`SelfDrivingNetwork::reoptimize_bandwidth`].
    ///   A consult that errs (too little telemetry during warm-up, an
    ///   edge refusing) is skipped, but the moves its other edges
    ///   accepted still count: a flow counts exactly when its
    ///   tunnel changed.
    /// - [`Policy::LastSample`] re-assigns each pair on its own, in pair
    ///   order, with [`assign_flows_shared_with`] over the pair's flows
    ///   (in admission order) on a caps-only model: one tunnel per cap,
    ///   each cap its tunnel's last available-bandwidth sample (a
    ///   missing sample reads 0), no physical link — so the policy is
    ///   blind to links its tunnels share. Each move is its own edge
    ///   transaction; a refused one is skipped and the pair's other
    ///   moves still go.
    pub fn steer(&mut self, policy: Policy) -> Vec<PairId> {
        match policy {
            Policy::StaticShortest => Vec::new(),
            Policy::Hecate => {
                let before: Vec<usize> = self.flows.iter().map(|f| f.tunnel).collect();
                // An error may follow moves already made: read them off
                // the flows either way.
                let _ = self.reoptimize_bandwidth();
                self.flows
                    .iter()
                    .zip(before)
                    .filter(|(f, b)| f.tunnel != *b)
                    .map(|(f, _)| f.pair)
                    .collect()
            }
            Policy::LastSample => (0..self.pairs.len())
                .flat_map(|p| self.steer_on_last_samples(PairId(p)))
                .collect(),
        }
    }

    /// [`Policy::LastSample`]'s re-assignment of one pair; returns the
    /// pair once per flow moved.
    fn steer_on_last_samples(&mut self, pair: PairId) -> Vec<PairId> {
        let rows = self.pairs[pair.index()].rows.clone();
        let caps: Vec<f64> = rows
            .iter()
            .map(|&r| {
                let last = self.telemetry.last_of(self.rows[r].series.0);
                last.unwrap_or(0.0).max(0.0)
            })
            .collect();
        // Tunnel `t` of the model is row `rows[t]`, and its one pair is
        // this one.
        let model = SharedLinkModel::one_pair(caps.len()).with_tunnel_caps(&caps);
        let mine: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].pair == pair)
            .collect();
        let flows: Vec<FlowDemand> = mine
            .iter()
            .map(|&i| FlowDemand {
                pair: PairId(0),
                demand: self.flows[i].demand,
            })
            .collect();
        let Ok((assignment, _)) = assign_flows_shared_with(&model, &flows, &self.opt) else {
            return Vec::new();
        };
        let mut moved = Vec::new();
        for (&i, &t) in mine.iter().zip(&assignment.tunnel_of_flow) {
            let target = rows[t];
            // A move of one flow errs exactly when it did not happen.
            if self.flows[i].tunnel != target && self.migrate_flows(&[(i, target)]).is_ok() {
                moved.push(pair);
            }
        }
        moved
    }

    /// Patches the standing incremental engine to the just-decided
    /// placement: headroom diffs (bitwise no-op per unchanged link),
    /// then flow arrivals / departures / reroutes / demand changes,
    /// then one batched resolve. The engine is rebuilt from scratch
    /// only when the link universe itself changed (tunnel discovery
    /// added links). Counters land in
    /// `framework.waterfill.incremental.*`; the debug audit pins the
    /// standing solution to the from-scratch recompute bit for bit.
    fn patch_waterfill(&mut self, model: &SharedLinkModel, placement: &[usize]) {
        if self.waterfill.as_ref().is_some_and(|wf| {
            wf.link_count() != model.headroom.len() || wf.tunnel_count() != model.tunnel_links.len()
        }) {
            self.waterfill = None;
        }
        let wf = self.waterfill.get_or_insert_with(|| {
            let wf = SharedWaterfill::new(model);
            wf.metrics()
                .register(&self.obsv.metrics, "framework.waterfill.incremental");
            wf
        });
        for (l, &h) in model.headroom.iter().enumerate() {
            wf.set_headroom(l, h);
        }
        for (f, &t) in self.flows.iter().zip(placement) {
            let id = f.id.0;
            match wf.tunnel_of(id) {
                None => wf.insert(id, t, f.demand),
                Some(cur) => {
                    if cur != t {
                        wf.set_tunnel(id, t);
                    }
                    if wf.demand_of(id) != Some(f.demand) {
                        wf.set_demand(id, f.demand);
                    }
                }
            }
        }
        // Every managed flow is in the engine now, so a departed one
        // can linger only when the engine holds more flows than that.
        if wf.flow_count() > self.flows.len() {
            let keep: std::collections::BTreeSet<u64> = self.flows.iter().map(|f| f.id.0).collect();
            let stale_ids: Vec<u64> = wf
                .rates()
                .into_iter()
                .map(|(id, _)| id)
                .filter(|id| !keep.contains(id))
                .collect();
            for id in stale_ids {
                wf.remove(id);
            }
        }
        wf.resolve();
        debug_assert!(wf.audit(), "incremental waterfill diverged from recompute");
    }
}
