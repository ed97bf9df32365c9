//! The closed loop: one driver thread issues epoch `e + 1` only when
//! epoch `e` has returned (1 epoch = 1 simulated second). Every layer
//! is reached through its public functions and timed from outside.

use crate::clock::{now_ns, timed};
use crate::trace::Recorder;
use crate::workload::{
    build_topology, demand_batch, link_waves, stream, substream_seed, LinkWave, Modulate, Plane,
    Shape, CONSULT_EVERY, SLO_FRACTION, SLO_GRACE_EPOCHS, STREAM_DEMANDS, STREAM_ELASTIC,
};
use framework::dataloop::{DataplaneConfig, PacketEpochReport};
use framework::optimizer::FlowDemand;
use framework::telemetry::SeriesKey;
use framework::{FlowRequest, HecateService, Metric, Objective, PairId, SelfDrivingNetwork};
use netsim::NodeIdx;
use rand::rngs::StdRng;
use scenarios::elastic::compile_elastic;
use scenarios::zoo::endpoint_pairs;
use std::collections::{BTreeMap, BTreeSet};

/// What the driver knows about one managed flow it asked for.
#[derive(Debug, Clone)]
struct FlowState {
    label: String,
    rate_key: SeriesKey,
    demand: f64,
    pair: PairId,
    admitted_epoch: u64,
    tunnel: String,
}

/// Everything counted over the timed window. The deterministic fields
/// (all but the `*_ms` samples and `wall_ns`) depend only on shape,
/// seed and epoch count.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub epochs: u64,
    /// The timed window on the benchmark clock.
    pub start_ns: u64,
    pub wall_ns: u64,
    /// Epochs + admit batches + consults issued…
    pub attempted: u64,
    /// …and how many of them returned `Err`.
    pub failed: u64,
    pub admit_ms: Vec<f64>,
    pub consult_ms: Vec<f64>,
    /// Σ over epochs of Σ managed-flow rate (Mbps).
    pub goodput_sum: f64,
    pub flow_epochs: u64,
    pub slo_violations: u64,
    pub admitted_flows: u64,
    pub migrations: u64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
    pub pot_rejected: u64,
    pub ingress_rewrites: u64,
    /// Output checks that did not hold (empty on a correct run).
    pub check_failures: Vec<String>,
}

impl Tally {
    fn op<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        epoch: u64,
        r: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("loopbench: {what} failed at epoch {epoch}: {e}");
                None
            }
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok && self.check_failures.len() < 16 {
            self.check_failures.push(msg());
        }
    }

    pub fn goodput_mbps(&self) -> f64 {
        self.goodput_sum / self.epochs.max(1) as f64
    }

    pub fn slo_violation_ratio(&self) -> f64 {
        self.slo_violations as f64 / self.flow_epochs.max(1) as f64
    }

    pub fn packet_loss_ratio(&self) -> f64 {
        let sent = self.packets_delivered + self.packets_dropped;
        self.packets_dropped as f64 / sent.max(1) as f64
    }

    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One assembled network plus the generated inputs that drive it.
pub struct Loop {
    pub net: SelfDrivingNetwork,
    pub shape: Shape,
    /// Shares the network's model cache; lets the traced run time
    /// `forecast_all` on its own.
    hecate: HecateService,
    tunnel_names: Vec<String>,
    waves: Vec<LinkWave>,
    /// `(a, b, down_epoch, up_epoch)` in absolute epochs.
    flap: Option<(String, String, u64, u64)>,
    flows: Vec<FlowState>,
    demand_rng: StdRng,
    /// Next epoch to run, warm-up included.
    epoch: u64,
    /// A consult ran at the end of the previous epoch, so this epoch's
    /// rates must respect the link capacities.
    placement_fresh: bool,
}

impl Loop {
    /// Set-up: topology, network, initial flows, warm-up epochs and one
    /// consult — everything before the timed window. `timed_epochs`
    /// sizes the elastic schedule and places the link flap.
    pub fn setup(shape: &Shape, seed: u64, timed_epochs: u64) -> Result<Loop, String> {
        let topo = build_topology(shape.topo);
        let pair_names: Vec<(String, String)> = endpoint_pairs(&topo, shape.pairs)
            .iter()
            .map(|&(s, d)| (topo.node_name(s).to_string(), topo.node_name(d).to_string()))
            .collect();
        let endpoints: Vec<(&str, &str)> = pair_names
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let mut waves = link_waves(&topo, seed);
        let mut net = SelfDrivingNetwork::over_topology_pairs(topo, &endpoints, shape.k, seed)
            .map_err(|e| format!("assembling the network: {e}"))?;
        net.hecate.refit_after = shape.refit_after;
        if shape.modulate == Modulate::TunnelLinks {
            let on_tunnel: BTreeSet<(&str, &str)> = net
                .tunnel_names()
                .iter()
                .flat_map(|t| {
                    net.tunnel(t)
                        .expect("registered tunnel")
                        .node_path
                        .windows(2)
                })
                .flat_map(|hop| {
                    let (a, b) = (
                        net.sim.topo.node_name(hop[0]),
                        net.sim.topo.node_name(hop[1]),
                    );
                    [(a, b), (b, a)]
                })
                .collect();
            waves.retain(|w| on_tunnel.contains(&(w.a.as_str(), w.b.as_str())));
        }
        let horizon = shape.warmup_epochs + timed_epochs;
        if let Some(spec) = &shape.elastic {
            let schedule = compile_elastic(
                &net.sim.topo,
                spec,
                horizon,
                substream_seed(seed, STREAM_ELASTIC),
            );
            for (at_ms, ev) in schedule {
                if let netsim::Event::StartFlow { id, .. } = &ev {
                    net.sim.mark_background(*id);
                }
                net.sim
                    .schedule(at_ms, ev)
                    .map_err(|e| format!("scheduling elastic flows: {e}"))?;
            }
        }
        if shape.plane == Plane::Packet {
            // Smallest packets everywhere: per-packet cost dominates.
            net.attach_dataplane(DataplaneConfig {
                probe_bytes: 250,
                flow_bytes: 250,
                ..DataplaneConfig::default()
            })
            .map_err(|e| format!("attaching the packet plane: {e}"))?;
        }
        let flap = if shape.flap {
            let primary = &net.pair_tunnel_names(PairId(0)).expect("pair 0 exists")[0];
            let path = &net.tunnel(primary).expect("primary tunnel").node_path;
            let mid = (path.len() - 1) / 2;
            let name = |n: NodeIdx| net.sim.topo.node_name(n).to_string();
            Some((
                name(path[mid]),
                name(path[mid + 1]),
                shape.warmup_epochs + timed_epochs / 3,
                shape.warmup_epochs + timed_epochs / 2,
            ))
        } else {
            None
        };
        let mut lp = Loop {
            hecate: net.hecate.clone(),
            tunnel_names: net.tunnel_names(),
            net,
            shape: shape.clone(),
            waves,
            flap,
            flows: Vec::new(),
            demand_rng: stream(seed, STREAM_DEMANDS),
            epoch: 0,
            placement_fresh: false,
        };
        let mut rec = Recorder::new(false);
        let mut tally = Tally::default();
        lp.admit(shape.initial_flows, &mut rec, &mut tally);
        for _ in 0..shape.warmup_epochs {
            lp.step(false, &mut rec, &mut tally);
        }
        lp.consult(&mut rec, &mut tally);
        if tally.failed > 0 || !tally.check_failures.is_empty() {
            return Err(format!(
                "set-up: {} failed operations, checks: {:?}",
                tally.failed, tally.check_failures
            ));
        }
        Ok(lp)
    }

    /// Runs the timed window.
    pub fn run(&mut self, epochs: u64, rec: &mut Recorder) -> Tally {
        let mut tally = Tally {
            start_ns: now_ns(),
            ..Tally::default()
        };
        for _ in 0..epochs {
            self.step(true, rec, &mut tally);
        }
        tally.wall_ns = now_ns() - tally.start_ns;
        tally
    }

    /// One epoch: inputs → arrivals → advance → score → (consult).
    fn step(&mut self, timed_window: bool, rec: &mut Recorder, tally: &mut Tally) {
        let e = self.epoch;
        let inputs = rec.span("netsim.schedule", e, || self.apply_inputs(e));
        let arrivals = if timed_window {
            self.shape.arrivals_per_epoch
        } else {
            0
        };
        self.admit(arrivals, rec, tally);
        let until_ms = (e + 1) * 1000;
        let advanced: Result<Option<PacketEpochReport>, String> = inputs.and_then(|()| {
            match self.shape.plane {
                // `advance(until_ms)` is exactly these two public halves
                // when one sample period is requested.
                Plane::Fluid => {
                    let sample_ms = self.net.sample_ms;
                    rec.span("netsim.run", e, || {
                        self.net.sim.run_until(until_ms, sample_ms)
                    });
                    rec.span("telemetry.collect", e, || self.net.collect_telemetry())
                        .map(|()| None)
                        .map_err(|err| err.to_string())
                }
                Plane::Packet => rec
                    .span("dataloop.packet_epoch", e, || self.net.packet_epoch())
                    .map(Some)
                    .map_err(|err| err.to_string()),
            }
        });
        let report = tally.op("epoch", e, advanced).flatten();
        rec.span("bench.score", e, || self.score(e, report.as_ref(), tally));
        tally.epochs += 1;
        self.epoch += 1;
        if timed_window && (e + 1).is_multiple_of(CONSULT_EVERY) {
            self.consult(rec, tally);
        }
    }

    /// This epoch's capacity events: every link re-rated, plus the flap.
    fn apply_inputs(&mut self, epoch: u64) -> Result<(), String> {
        if let Some((a, b, down, up)) = &self.flap {
            if epoch == *down || epoch == *up {
                self.net
                    .set_link_state(a, b, epoch == *up)
                    .map_err(|e| e.to_string())?;
            }
        }
        for w in &self.waves {
            self.net
                .set_link_capacity(&w.a, &w.b, w.capacity_at(epoch))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Traced run only: takes the tunnel forecasts on their own span, so
    /// the admit or consult that follows finds them cached and times as
    /// that layer's own remainder.
    fn prefetch_forecasts(&self, rec: &mut Recorder, epoch: u64) {
        if rec.enabled() {
            rec.span("hecate.forecast_all", epoch, || {
                self.hecate.forecast_all(
                    &self.net.telemetry,
                    &self.tunnel_names,
                    Metric::AvailableBandwidth,
                )
            });
        }
    }

    /// Admits `n` new flows as one batch (newFlow → flowStarted).
    fn admit(&mut self, n: usize, rec: &mut Recorder, tally: &mut Tally) {
        if n == 0 {
            return;
        }
        let e = self.epoch;
        let first = self.flows.len();
        let reqs: Vec<FlowRequest> = demand_batch(&mut self.demand_rng, n, self.shape.demand_mbps)
            .into_iter()
            .enumerate()
            .map(|(i, demand)| FlowRequest {
                label: format!("f{}", first + i),
                tos: ((first + i) % 250) as u8 + 1,
                demand_mbps: Some(demand),
                start_ms: e * 1000,
                pair: PairId((first + i) % self.shape.pairs),
            })
            .collect();
        let (decisions, ms) = timed(|| {
            let span = rec.begin("controller.admit", e);
            self.prefetch_forecasts(rec, e);
            let out = self.net.admit_flows(&reqs, Objective::MaxBandwidth);
            rec.end(span);
            out
        });
        tally.admit_ms.push(ms);
        let Some(decisions) = tally.op("admit", e, decisions) else {
            return;
        };
        tally.admitted_flows += decisions.len() as u64;
        for (req, d) in reqs.into_iter().zip(decisions) {
            self.flows.push(FlowState {
                rate_key: SeriesKey::new(&req.label, Metric::FlowRate),
                label: req.label,
                demand: req.demand_mbps.expect("every request declares a demand"),
                pair: req.pair,
                admitted_epoch: e,
                tunnel: d.tunnel,
            });
        }
    }

    /// One consult: telemetry → forecasts → joint assignment → PBR
    /// rewrites installed.
    fn consult(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let e = self.epoch;
        let (moves, ms) = timed(|| {
            let span = rec.begin("consult", e);
            self.prefetch_forecasts(rec, e);
            let out = rec.span("optimizer.reoptimize", e, || {
                self.net.reoptimize_bandwidth()
            });
            rec.end(span);
            out
        });
        tally.consult_ms.push(ms);
        let Some(moves) = tally.op("consult", e, moves) else {
            return;
        };
        rec.span("bench.score", e, || {
            tally.check(moves.len() == self.flows.len(), || {
                format!(
                    "consult placed {} of {} flows",
                    moves.len(),
                    self.flows.len()
                )
            });
            for (flow, (label, tunnel)) in self.flows.iter_mut().zip(moves) {
                debug_assert_eq!(flow.label, label);
                if flow.tunnel != tunnel {
                    flow.tunnel = tunnel;
                    tally.migrations += 1;
                }
            }
        });
        self.placement_fresh = true;
    }

    /// Reads this epoch's per-flow rates the way a dashboard would (the
    /// telemetry store on the fluid plane, the measured report on the
    /// packet plane) and scores goodput and SLO.
    fn score(&mut self, epoch: u64, report: Option<&PacketEpochReport>, tally: &mut Tally) {
        let check_links = std::mem::take(&mut self.placement_fresh) && report.is_none();
        let mut link_load: BTreeMap<(NodeIdx, NodeIdx), f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, flow) in self.flows.iter().enumerate() {
            let rate = match report {
                Some(r) => r.flow_goodput.get(i).map_or(0.0, |(_, g)| *g),
                None => self.net.telemetry.last(&flow.rate_key).unwrap_or(0.0),
            };
            total += rate;
            if epoch >= flow.admitted_epoch + SLO_GRACE_EPOCHS {
                tally.flow_epochs += 1;
                if rate < SLO_FRACTION * flow.demand {
                    tally.slo_violations += 1;
                }
            }
            if check_links {
                if let Some(t) = self.net.tunnel(&flow.tunnel) {
                    for hop in t.node_path.windows(2) {
                        *link_load.entry((hop[0], hop[1])).or_insert(0.0) += rate;
                    }
                }
            }
        }
        tally.goodput_sum += total;
        if let Some(r) = report {
            tally.check(r.flow_goodput.len() == self.flows.len(), || {
                format!(
                    "epoch {epoch}: packet report covers {} flows",
                    r.flow_goodput.len()
                )
            });
            tally.packets_delivered += r.delivered;
            tally.packets_dropped += r.dropped;
            tally.pot_rejected += r.pot_rejected;
            tally.ingress_rewrites += r.rewrites;
        }
        // After a consult the managed flows on a directed link must fit
        // in it (failed links carry nothing and are skipped).
        for ((a, b), load) in link_load {
            if let Ok(lid) = self.net.sim.topo.link_between(a, b) {
                let cap = self.net.sim.topo.link(lid).capacity_mbps;
                tally.check(load <= cap + 1e-6, || {
                    format!("epoch {epoch}: managed load {load} Mbps on a {cap} Mbps link")
                });
            }
        }
    }

    /// The live managed flows as the optimizer sees them.
    pub fn demands(&self) -> Vec<FlowDemand> {
        self.flows
            .iter()
            .map(|f| FlowDemand {
                pair: f.pair,
                demand: Some(f.demand),
            })
            .collect()
    }

    pub fn tunnel_names(&self) -> &[String] {
        &self.tunnel_names
    }

    /// The optimizer's standing water-fill equals a from-scratch solve
    /// (vacuously so before the first multi-pair consult builds one).
    pub fn waterfill_audit_ok(&self) -> bool {
        self.net.waterfill().is_none_or(|wf| wf.audit())
    }

    /// End-of-run output checks; returns what did not hold.
    pub fn final_checks(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let topo = &self.net.sim.topo;
        // Every tunnel's routeID yields the next hop's port at each node.
        for name in &self.tunnel_names {
            let t = self.net.tunnel(name).expect("registered tunnel");
            let hops = &t.node_path[1..];
            let ids: Option<Vec<polka::NodeId>> = hops
                .iter()
                .map(|&n| self.net.allocator().get(topo.node_name(n)).cloned())
                .collect();
            let Some(ids) = ids else {
                bad.push(format!("{name}: a hop has no nodeID"));
                continue;
            };
            let ports = polka::route::trace_route(&t.route, &ids);
            for (k, (node, port)) in ports.iter().enumerate() {
                let want = match hops.get(k + 1) {
                    Some(&next) => topo.neighbor_port(hops[k], next),
                    None => Some(0),
                };
                if want != Some(port.0) {
                    bad.push(format!(
                        "{name}: {node} forwards to port {}, want {want:?}",
                        port.0
                    ));
                }
            }
        }
        if !self.waterfill_audit_ok() {
            bad.push("standing water-fill diverged from a from-scratch solve".into());
        }
        if let Some(plane) = self.net.dataplane() {
            for f in &self.flows {
                if plane.stamped_tunnel(&f.label) != self.net.flow_tunnel(&f.label) {
                    bad.push(format!("{}: stamped routeID is not its tunnel's", f.label));
                }
            }
        }
        bad
    }
}
