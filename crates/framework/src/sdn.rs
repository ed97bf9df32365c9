//! The assembled self-driving network: netsim substrate, freeRtr agents,
//! compiled PolKA tunnels and the Telemetry/Hecate/Optimizer services.
//!
//! This module holds the tunnel table (its rows and their registration),
//! telemetry collection and admission. The routing [`crate::Policy`]
//! and the moves it makes (steering, re-optimization, migration) live in
//! `steering.rs`, the packet plane in [`crate::dataloop`]; both extend
//! [`SelfDrivingNetwork`] with their own `impl` blocks. The paper's
//! experiments (Figs 11 and 12, the trace-driven steering extension)
//! run on this public API from the `bench` crate's `figures` module.

use crate::controller::{decide_flows, BatchDecision, PathDecision, SequenceLog};
use crate::dataloop::PROBE_PREFIX;
use crate::hecate::HecateService;
use crate::optimizer::{FlowDemand, Objective, OptimizerConfig, SharedLinkModel};
use crate::scheduler::{FlowRequest, Scheduler};
use crate::telemetry::{scoped_target, Metric, SeriesId, SeriesKey, TelemetryService};
use crate::waterfill::SharedWaterfill;
use crate::{FrameworkError, PairId};
use freertr::agent::{ConfigOp, RouterHandle};
use freertr::config::fig10_mia_config;
use freertr::resolve::{allocator_for, compile_tunnel, CompiledTunnel};
use netsim::topo::global_p4_lab;
use netsim::{Event, FlowId, FlowSpec, NodeIdx, Simulation};
use polka::NodeIdAllocator;
use std::collections::BTreeMap;

/// One candidate tunnel: a row of the network's tunnel table
/// ([`SelfDrivingNetwork::rows`]). The row's index is the optimizer's
/// tunnel index, Hecate's candidate position and a [`ManagedFlow`]'s
/// tunnel.
#[derive(Debug, Clone)]
pub(crate) struct TunnelRow {
    /// The compiled PolKA route; its `id` is the tunnel's (pair-scoped)
    /// name.
    pub(crate) tunnel: CompiledTunnel,
    /// The pair the tunnel is a candidate of.
    pub(crate) pair: PairId,
    /// The tunnel's ([`Metric::AvailableBandwidth`], [`Metric::Rtt`])
    /// series in [`SelfDrivingNetwork::telemetry`], resolved at
    /// registration.
    pub(crate) series: (SeriesId, SeriesId),
}

impl TunnelRow {
    /// The tunnel's name: its edge interface and its series target.
    pub(crate) fn name(&self) -> &str {
        &self.tunnel.id
    }
}

/// One managed flow's bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct ManagedFlow {
    pub(crate) id: FlowId,
    pub(crate) label: String,
    /// The row of the tunnel the flow runs on; always a row of its own
    /// pair.
    pub(crate) tunnel: usize,
    pub(crate) demand: Option<f64>,
    pub(crate) pair: PairId,
    /// The flow's [`Metric::FlowRate`] series, resolved at install.
    pub(crate) rate_series: SeriesId,
}

/// One managed ingress/egress pair: its traffic endpoints, its edge
/// agent and its candidate tunnel set (disjoint *within* the pair,
/// possibly overlapping other pairs' tunnels on shared links).
#[derive(Clone)]
pub(crate) struct ManagedPair {
    /// Telemetry/tunnel namespace: `""` on single-pair networks (bare
    /// names, as the Fig 10 configuration declares them), `"p{i}"`
    /// otherwise.
    pub(crate) scope: String,
    /// Ingress router name (where the freeRtr agent runs).
    pub(crate) ingress: String,
    /// Egress router name.
    pub(crate) egress: String,
    /// Traffic source node (the ingress router, or a measurement host
    /// on the paper testbed).
    pub(crate) src_node: NodeIdx,
    /// Traffic sink node.
    pub(crate) dst_node: NodeIdx,
    /// Handle of this pair's ingress router (pairs sharing an ingress
    /// share one router — the handle is a clone).
    pub(crate) edge: RouterHandle,
    /// This pair's candidate tunnels in discovery (delay) order, as
    /// rows of [`SelfDrivingNetwork::rows`].
    pub(crate) rows: Vec<usize>,
}

/// The edge transactions of one admit batch or one round of
/// migrations: one op list per distinct ingress router, in the order
/// the edges first appear, each list in request order — so every edge
/// applies exactly the op sequence per-flow calls would have.
pub(crate) type EdgeOps<'a> = Vec<(&'a RouterHandle, Vec<ConfigOp>)>;

/// The slot of `pair`'s ingress edge in `edges` (pairs sharing an
/// ingress share it), added on first use.
pub(crate) fn edge_slot<'a>(edges: &mut EdgeOps<'a>, pair: &'a ManagedPair) -> usize {
    let known = edges.iter().position(|(e, _)| e.name() == pair.ingress);
    known.unwrap_or_else(|| {
        edges.push((&pair.edge, Vec::new()));
        edges.len() - 1
    })
}

/// The assembled system.
pub struct SelfDrivingNetwork {
    /// The network emulator.
    pub sim: Simulation,
    /// The time-series store.
    pub telemetry: TelemetryService,
    /// The forecasting service.
    pub hecate: HecateService,
    /// The flow-request queue.
    pub scheduler: Scheduler,
    /// The Fig 4 interaction log.
    pub log: SequenceLog,
    pub(crate) alloc: NodeIdAllocator,
    /// The tunnel table: every candidate tunnel of every pair, in
    /// registration (pair-then-discovery) order, append-only. Inside the
    /// crate a tunnel is its row index; names are resolved only at the
    /// public API. [`SelfDrivingNetwork::register_tunnel`] is its only
    /// writer.
    pub(crate) rows: Vec<TunnelRow>,
    /// Tunnel name -> row, for the public by-name lookups; written only
    /// by [`SelfDrivingNetwork::register_tunnel`].
    pub(crate) row_of: BTreeMap<String, usize>,
    pub(crate) flows: Vec<ManagedFlow>,
    /// The managed ingress/egress pairs; single-pair deployments (the
    /// paper testbed, [`SelfDrivingNetwork::over_topology_pairs`] with
    /// one pair) have exactly one entry with the legacy un-scoped
    /// namespace.
    pub(crate) pairs: Vec<ManagedPair>,
    next_flow: u64,
    /// Telemetry sampling period (ms); the paper samples at 1 Hz. 0
    /// counts as 1.
    pub sample_ms: u64,
    /// The attached packet-level data plane, once
    /// [`SelfDrivingNetwork::attach_dataplane`] has been called.
    pub(crate) packet_plane: Option<crate::dataloop::PacketPlane>,
    /// Observability bundle (off by default): a sim-time tracer over
    /// the decision tick plus the metrics registry the sim's
    /// water-fill and Hecate's cache counters are exposed through. Set
    /// via [`SelfDrivingNetwork::set_obsv`].
    pub(crate) obsv: obsv::Obsv,
    /// Shared sim-time cell handed to Hecate so `ml.fit`/`ml.roll`
    /// spans carry decision-time stamps (the ML pipeline has no clock
    /// of its own); refreshed at every decision entry point.
    pub(crate) ml_clock: obsv::SimClock,
    /// Optimizer knobs: the exhaustive-vs-greedy cutoff.
    pub(crate) opt: OptimizerConfig,
    /// The standing incremental water-fill engine: patched with
    /// headroom and flow diffs at every re-optimization instead of
    /// being rebuilt. Its counters are the
    /// `framework.waterfill.incremental.*` metrics. `None` until the
    /// first re-optimization.
    pub(crate) waterfill: Option<SharedWaterfill>,
}

impl SelfDrivingNetwork {
    /// Builds the paper's testbed: Fig 9 topology, the Fig 10 MIA edge
    /// configuration, and the three PolKA tunnels compiled against the
    /// emulated topology.
    pub fn testbed(seed: u64) -> Result<Self, FrameworkError> {
        let topo = global_p4_lab();
        let alloc = allocator_for(&topo);
        let edge = RouterHandle::new("MIA");
        edge.apply_text(&fig10_mia_config().emit())?;
        let cfg = edge.running_config();
        let mut sdn = Self::assemble(topo, seed, alloc);
        sdn.pairs.push(ManagedPair {
            scope: String::new(),
            ingress: "MIA".to_string(),
            egress: "AMS".to_string(),
            src_node: sdn.sim.topo.node("host1")?,
            dst_node: sdn.sim.topo.node("host2")?,
            edge,
            rows: Vec::new(),
        });
        for t in &cfg.tunnels {
            let compiled = compile_tunnel(t, &sdn.sim.topo, &mut sdn.alloc)?;
            sdn.register_tunnel(0, compiled);
        }
        Ok(sdn)
    }

    /// The services around `topo`, with no pair and no tunnel yet.
    fn assemble(topo: netsim::Topology, seed: u64, alloc: NodeIdAllocator) -> Self {
        SelfDrivingNetwork {
            sim: Simulation::new(topo, seed),
            telemetry: TelemetryService::new(4096),
            hecate: HecateService::new(),
            scheduler: Scheduler::new(),
            log: SequenceLog::default(),
            alloc,
            rows: Vec::new(),
            row_of: BTreeMap::new(),
            flows: Vec::new(),
            pairs: Vec::new(),
            next_flow: 1,
            sample_ms: 1000,
            packet_plane: None,
            obsv: obsv::Obsv::off(),
            ml_clock: obsv::SimClock::new(),
            opt: OptimizerConfig::default(),
            waterfill: None,
        }
    }

    /// Registers a compiled tunnel as pair `owner`'s next candidate: a
    /// new row of the tunnel table, with its telemetry series, appended
    /// to the pair's rows and indexed by name.
    fn register_tunnel(&mut self, owner: usize, tunnel: CompiledTunnel) {
        let row = self.rows.len();
        let mut series = |metric| {
            self.telemetry
                .series_id(&SeriesKey::new(&tunnel.id, metric))
        };
        let series = (series(Metric::AvailableBandwidth), series(Metric::Rtt));
        self.pairs[owner].rows.push(row);
        self.row_of.insert(tunnel.id.clone(), row);
        self.rows.push(TunnelRow {
            tunnel,
            pair: PairId(owner),
            series,
        });
    }

    /// Assembles the self-driving network over **N managed
    /// ingress/egress pairs** on an arbitrary topology: the same control
    /// loop as [`SelfDrivingNetwork::testbed`], minus the hand-written
    /// Fig 10 configuration. This is the constructor the scenario engine
    /// drives; managed flows run router-to-router (ingress to egress).
    ///
    /// Per pair, up to `k` **link-disjoint** candidate tunnels are
    /// discovered with [`netsim::Topology::k_disjoint_shortest_paths`]
    /// and compiled to PolKA routeIDs, in increasing delay order (so a
    /// pair's first tunnel is its shortest path, the static-routing
    /// baseline; fewer than `k` come back when the cut is smaller).
    /// They are disjoint *within* each pair (mirroring the paper's
    /// hand-built testbed tunnels) but freely **overlapping across
    /// pairs** — which is why the optimizer reasons about shared
    /// directed links instead of per-tunnel bottlenecks. Each *distinct*
    /// ingress router gets one freeRtr agent; pairs sharing an ingress
    /// share it.
    ///
    /// Namespaces: with one pair, tunnels keep the legacy names
    /// `tunnel1..k`; with more, pair `i`'s tunnels are scoped
    /// `p{i}/tunnel1..k`, so telemetry series read `pair/tunnel/metric`
    /// and two pairs can never alias each other's measurements.
    pub fn over_topology_pairs(
        topo: netsim::Topology,
        endpoints: &[(&str, &str)],
        k: usize,
        seed: u64,
    ) -> Result<Self, FrameworkError> {
        if endpoints.is_empty() {
            return Err(FrameworkError::NoFeasiblePath);
        }
        let alloc = allocator_for(&topo);
        let mut sdn = Self::assemble(topo, seed, alloc);
        for (i, &(ingress, egress)) in endpoints.iter().enumerate() {
            let scope = if endpoints.len() == 1 {
                String::new()
            } else {
                format!("p{i}")
            };
            let topo = &sdn.sim.topo;
            let src_node = topo.node(ingress)?;
            let dst_node = topo.node(egress)?;
            let paths = topo.k_disjoint_shortest_paths(src_node, dst_node, k.max(1));
            if paths.is_empty() {
                return Err(FrameworkError::NoFeasiblePath);
            }
            let edge = sdn
                .pairs
                .iter()
                .find(|p| p.ingress == ingress)
                .map_or_else(|| RouterHandle::new(ingress), |p| p.edge.clone());
            sdn.pairs.push(ManagedPair {
                scope: scope.clone(),
                ingress: ingress.to_string(),
                egress: egress.to_string(),
                src_node,
                dst_node,
                edge,
                rows: Vec::with_capacity(paths.len()),
            });
            for (j, path) in paths.iter().enumerate() {
                sdn.add_tunnel(i, scoped_target(&scope, &format!("tunnel{}", j + 1)), path)?;
            }
        }
        Ok(sdn)
    }

    /// Compiles `path` as tunnel `id`, a candidate of pair `owner`,
    /// installs it on the pair's edge and registers it.
    fn add_tunnel(
        &mut self,
        owner: usize,
        id: String,
        path: &[NodeIdx],
    ) -> Result<(), FrameworkError> {
        let topo = &self.sim.topo;
        let cfg = freertr::TunnelCfg {
            id,
            destination: None,
            domain_path: path.iter().map(|&n| topo.node_name(n).into()).collect(),
        };
        let compiled = compile_tunnel(&cfg, topo, &mut self.alloc)?;
        self.pairs[owner].edge.ensure_tunnel(cfg)?;
        self.register_tunnel(owner, compiled);
        Ok(())
    }

    /// Candidate tunnel names, all pairs, in pair-then-config order.
    pub fn tunnel_names(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.tunnel.id.clone()).collect()
    }

    /// Number of managed ingress/egress pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// One pair's candidate tunnel names (pair-scoped), in discovery
    /// order — `None` for an unknown pair index.
    pub fn pair_tunnel_names(&self, pair: PairId) -> Option<Vec<&str>> {
        let p = self.pairs.get(pair.index())?;
        Some(p.rows.iter().map(|&r| self.rows[r].name()).collect())
    }

    /// One pair's `(ingress, egress)` router names.
    pub fn pair_endpoints(&self, pair: PairId) -> Option<(&str, &str)> {
        self.pairs
            .get(pair.index())
            .map(|p| (p.ingress.as_str(), p.egress.as_str()))
    }

    /// One pair's telemetry namespace: `""` (the legacy bare names) on
    /// a single-pair network, `"p{i}"` otherwise — see
    /// [`crate::telemetry::SeriesKey::scoped`].
    pub fn pair_scope(&self, pair: PairId) -> Option<&str> {
        self.pairs.get(pair.index()).map(|p| p.scope.as_str())
    }

    /// The managed flow labelled `label`.
    fn flow(&self, label: &str) -> Option<&ManagedFlow> {
        self.flows.iter().find(|f| f.label == label)
    }

    /// The pair a managed flow belongs to.
    pub fn flow_pair(&self, label: &str) -> Option<PairId> {
        self.flow(label).map(|f| f.pair)
    }

    /// A compiled tunnel.
    pub fn tunnel(&self, name: &str) -> Option<&CompiledTunnel> {
        self.row_of.get(name).map(|&r| &self.rows[r].tunnel)
    }

    /// The node-ID allocator (exposed for data-plane validation in tests).
    pub fn allocator(&self) -> &NodeIdAllocator {
        &self.alloc
    }

    /// The first pair's edge router handle (the MIA edge on the paper
    /// testbed). Multi-pair networks have one agent per distinct
    /// ingress; see [`SelfDrivingNetwork::pair_edge`].
    pub fn edge(&self) -> &RouterHandle {
        &self.pairs[0].edge
    }

    /// One pair's ingress edge router handle.
    pub fn pair_edge(&self, pair: PairId) -> Option<&RouterHandle> {
        self.pairs.get(pair.index()).map(|p| &p.edge)
    }

    /// Endpoint-to-endpoint node path through tunnel `row`, between its
    /// pair's traffic endpoints: the compiled router path, extended by
    /// the access hops when the endpoints sit outside the tunnel (the
    /// testbed's hosts). The path is checked as [`Simulation::schedule`]
    /// checks a flow path (every hop a live link), so scheduling it
    /// cannot fail.
    pub(crate) fn host_path(&self, row: usize) -> Result<Vec<NodeIdx>, FrameworkError> {
        let row = &self.rows[row];
        let (tunnel, p) = (&row.tunnel.node_path, &self.pairs[row.pair.index()]);
        let mut path = Vec::with_capacity(tunnel.len() + 2);
        if tunnel.first() != Some(&p.src_node) {
            path.push(p.src_node);
        }
        path.extend_from_slice(tunnel);
        if tunnel.last() != Some(&p.dst_node) {
            path.push(p.dst_node);
        }
        self.sim.topo.check_path(&path)?;
        Ok(path)
    }

    /// Attaches an observability bundle to the whole stack: the sim
    /// core and any attached packet plane get the tracer; the
    /// water-fill audit counters and Hecate's cache counters (global +
    /// per-pair-scope) are exposed in the bundle's registry. Call with
    /// [`obsv::Obsv::off`] to detach tracing (metrics stay live — they
    /// are the same atomics the accessors snapshot).
    pub fn set_obsv(&mut self, bundle: obsv::Obsv) {
        self.sim.set_tracer(bundle.tracer.clone());
        self.sim.register_metrics(&bundle.metrics);
        let scopes: Vec<String> = self.pairs.iter().map(|p| p.scope.clone()).collect();
        self.hecate
            .register_metrics(&bundle.metrics, "hecate.cache", &scopes);
        self.hecate
            .set_trace(bundle.tracer.clone(), self.ml_clock.clone());
        if let Some(pp) = &mut self.packet_plane {
            pp.set_tracer(bundle.tracer.clone());
            pp.register_metrics(&bundle.metrics);
        }
        if let Some(wf) = &self.waterfill {
            wf.metrics()
                .register(&bundle.metrics, "framework.waterfill.incremental");
        }
        self.obsv = bundle;
    }

    /// The attached observability bundle (off/default unless
    /// [`SelfDrivingNetwork::set_obsv`] was called).
    pub fn obsv(&self) -> &obsv::Obsv {
        &self.obsv
    }

    /// Advances the simulation to `until_ms`, sampling per-tunnel
    /// telemetry (available bandwidth + RTT) and per-flow rates every
    /// [`SelfDrivingNetwork::sample_ms`], and starting scheduled flows.
    pub fn advance(&mut self, until_ms: u64) -> Result<(), FrameworkError> {
        while self.sim.now_ms() < until_ms {
            // start due flow requests (Fig 4: Scheduler -> Controller);
            // all flows due in this tick share one batched decision
            let due = self.scheduler.due(self.sim.now_ms());
            if !due.is_empty() {
                for _ in &due {
                    self.log.record("newFlow");
                }
                self.admit_flows(&due, Objective::MaxBandwidth)?;
            }
            // A zero interval steps 1 ms at a time, never in place.
            let step = self.sample_ms.max(1);
            let next = (self.sim.now_ms() + step).min(until_ms);
            self.sim.run_until(next, step);
            self.collect_telemetry()?;
        }
        Ok(())
    }

    /// One telemetry collection round over all tunnels and flows
    /// ("createTelemetry" in Fig 4).
    pub fn collect_telemetry(&mut self) -> Result<(), FrameworkError> {
        let t = self.sim.now_ms();
        // Each managed flow's rate is read once, for both its own series
        // and its tunnel's sum (in `self.flows` order: the fold's bits
        // depend on it).
        let mut samples = Vec::with_capacity(2 * self.rows.len() + self.flows.len());
        let mut usage_per_tunnel = vec![0.0; self.rows.len()];
        for f in &self.flows {
            let rate = self.sim.flow_rate(f.id).ok();
            usage_per_tunnel[f.tunnel] += rate.unwrap_or(0.0);
            samples.extend(rate.map(|rate| (f.rate_series, rate)));
        }
        // Per-tunnel metrics measured on the router-to-router path.
        for (row, own) in self.rows.iter().zip(usage_per_tunnel) {
            let (compiled, (avail_series, rtt_series)) = (&row.tunnel, row.series);
            // A tunnel crossing a failed link is honestly worth zero —
            // telemetry keeps flowing so the optimizer can route around
            // the failure instead of the whole loop erroring out.
            let avail = self
                .sim
                .path_available_mbps(&compiled.node_path)
                .unwrap_or(0.0);
            // Capacity visible to the optimizer: residual plus what our
            // own managed flows already occupy on this tunnel.
            samples.push((avail_series, avail + own));
            if let Ok(rtt) = self.sim.ping(&compiled.node_path) {
                samples.push((rtt_series, rtt));
            }
        }
        self.telemetry.insert_batch(t, &samples)?;
        Ok(())
    }

    /// Admits one flow per the Fig 4 sequence and starts it in the
    /// emulator. Returns the decision.
    ///
    /// [`SelfDrivingNetwork::admit_flows`] with a batch of one, on the
    /// shared-link engine like any batch — on a multi-pair network a
    /// lone arrival must not double-book a trunk that another pair's
    /// flows already occupy.
    pub fn admit_flow(
        &mut self,
        req: &FlowRequest,
        objective: Objective,
    ) -> Result<PathDecision, FrameworkError> {
        let mut decisions = self.admit_flows(std::slice::from_ref(req), objective)?;
        decisions.pop().ok_or(FrameworkError::NoFeasiblePath)
    }

    /// Admits a whole batch of flows with one amortized consultation:
    /// the per-path forecasts are computed once — in parallel, against
    /// the trained-model cache — and shared by every flow due in the
    /// tick. Returns one decision per request, in request order.
    ///
    /// Every network, one pair or many, decides via
    /// [`crate::controller::decide_flows_pairs`] against the shared-link
    /// capacity model, so a batch spanning pairs never oversubscribes a
    /// link two candidate tunnels have in common, and forecasts only the
    /// batch's pairs' tunnels.
    ///
    /// A batch with a label that repeats, is already managed or starts
    /// with `probe:` is refused before anything happens
    /// ([`FrameworkError::FlowLabel`]), and so is one declaring a demand
    /// that is NaN, infinite or negative ([`FrameworkError::FlowDemand`]).
    ///
    /// The batch installs all or nothing, with one edge transaction per
    /// ingress router: on `Err` no flow of it is managed or running and
    /// an edge that refused keeps its configuration as found. ACL/PBR
    /// entries that *another* edge had already accepted stay there —
    /// inert without a flow — and admitting the same requests again
    /// rewrites them in place.
    pub fn admit_flows(
        &mut self,
        reqs: &[FlowRequest],
        objective: Objective,
    ) -> Result<Vec<PathDecision>, FrameworkError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        if reqs.iter().any(|r| r.pair.index() >= self.pairs.len()) {
            return Err(FrameworkError::NoFeasiblePath);
        }
        self.check_labels(reqs)?;
        // One NaN demand would stall the whole batch's fill at rate 0.
        if let Some(r) = reqs
            .iter()
            .find(|r| r.demand_mbps.is_some_and(|d| !(d.is_finite() && d >= 0.0)))
        {
            return Err(FrameworkError::FlowDemand(r.label.clone()));
        }
        let flows: Vec<FlowDemand> = reqs.iter().map(FlowRequest::flow_demand).collect();
        // New flows are placed on top of the running assignment:
        // headroom is what the current flows leave behind.
        let model = self.link_model(false);
        let out = self.consult(&flows, &model, objective)?;
        let place = self
            .obsv
            .tracer
            .span("decide", "decide.place", self.sim.now_ns());
        self.install_flows(reqs, &out.rows)?;
        let placed = out.decisions.len() as u64;
        place.end(self.sim.now_ns(), move || {
            vec![("flows", obsv::Value::U64(placed))]
        });
        Ok(out.decisions)
    }

    /// One consult: [`crate::controller::decide_flows_pairs`] for
    /// `flows` on `model` over every row, on the rows' resolved series,
    /// at the current sim time. Admission and re-optimization decide
    /// through it. The `decide.consult` span
    /// covers the call (`batch`); inside it, `decide.forecast`
    /// attributes the batch to cache hits, updates and refits, diffed
    /// around the call, and the zero-width `decide.solve` names the
    /// series forecast and the solver run.
    /// Stamps are pure sim time: traces are part of the bit-replay
    /// contract.
    pub(crate) fn consult(
        &mut self,
        flows: &[FlowDemand],
        model: &SharedLinkModel,
        objective: Objective,
    ) -> Result<BatchDecision, FrameworkError> {
        let now_ns = self.sim.now_ns();
        self.ml_clock.set(now_ns);
        let tracer = &self.obsv.tracer;
        let consult = tracer.span("decide", "decide.consult", now_ns);
        let forecast = tracer.span("decide", "decide.forecast", now_ns);
        let before = self.hecate.cache_stats();
        let names: Vec<&str> = self.rows.iter().map(TunnelRow::name).collect();
        let rows = &self.rows;
        let series = |t: usize, metric| match metric {
            Metric::AvailableBandwidth => Some(rows[t].series.0),
            Metric::Rtt => Some(rows[t].series.1),
            Metric::FlowRate => None,
        };
        let out = decide_flows(
            &self.hecate,
            &self.telemetry,
            flows,
            &names,
            series,
            model,
            objective,
            &self.opt,
            &mut self.log,
        )?;
        forecast.end(now_ns, || {
            let after = self.hecate.cache_stats();
            let delta = |now: u64, then: u64| obsv::Value::U64(now - then);
            vec![
                ("cache_hits", delta(after.hits, before.hits)),
                ("cache_updates", delta(after.updates, before.updates)),
                ("cache_refits", delta(after.refits, before.refits)),
            ]
        });
        let solve = tracer.span("decide", "decide.solve", now_ns);
        solve.end(now_ns, || {
            let mut args = vec![("series", obsv::Value::U64(out.series as u64))];
            if let Some(kind) = out.solver {
                args.push(("solver", obsv::Value::Str(kind.label().to_string())));
            }
            args
        });
        consult.end(now_ns, || {
            vec![("batch", obsv::Value::U64(flows.len() as u64))]
        });
        Ok(out)
    }

    /// Refuses a batch whose labels would break flow identity: a label
    /// that repeats in the batch, is already managed, or lies in the
    /// packet plane's probe namespace. A flow's label keys its ACL/PBR
    /// entry, its rate series and its packet-plane stream, so two flows
    /// under one label would share all three.
    fn check_labels(&self, reqs: &[FlowRequest]) -> Result<(), FrameworkError> {
        let mut batch = std::collections::BTreeSet::new();
        for r in reqs {
            if r.label.starts_with(PROBE_PREFIX) || !batch.insert(r.label.as_str()) {
                return Err(FrameworkError::FlowLabel(r.label.clone()));
            }
        }
        match self.flows.iter().find(|f| batch.contains(f.label.as_str())) {
            Some(f) => Err(FrameworkError::FlowLabel(f.label.clone())),
            None => Ok(()),
        }
    }

    /// SR-service + data-plane half of admission: installs each flow's
    /// ACL/PBR on its pair's ingress edge and starts it on the decided
    /// tunnel — one edge transaction per ingress, whatever the batch
    /// size.
    ///
    /// All or nothing. Every lookup that can fail (pair, host path, a
    /// live link under each hop) is resolved before the first side
    /// effect; an edge that refuses its transaction keeps its
    /// configuration exactly as found, and the edges after it are not
    /// touched; and no flow is started or recorded unless every edge
    /// accepted. What an *earlier* edge accepted in the same batch
    /// stays installed: an ACL/PBR entry without a flow matches no
    /// traffic the controller started, and re-admitting the same
    /// requests rewrites it in place (`EnsureAcl` skips the existing
    /// rule, `SetPbr` rebinds the existing entry).
    fn install_flows(
        &mut self,
        reqs: &[FlowRequest],
        rows: &[usize],
    ) -> Result<(), FrameworkError> {
        let src = freertr::Ipv4Prefix::new(u32::from_be_bytes([40, 40, 1, 0]), 24);
        let dst = freertr::Ipv4Prefix::new(u32::from_be_bytes([40, 40, 2, 2]), 32);
        let mut edges = EdgeOps::new();
        let mut paths = Vec::with_capacity(reqs.len());
        for (req, &row) in reqs.iter().zip(rows) {
            paths.push(self.host_path(row)?);
            // SR service: install the flow's ACL if this is a new flow,
            // then bind it to the chosen tunnel.
            let edge = edge_slot(&mut edges, &self.pairs[req.pair.index()]);
            edges[edge].1.extend([
                ConfigOp::EnsureAcl(freertr::AclRule {
                    name: req.label.clone(),
                    proto: Some(freertr::packet::PROTO_TCP),
                    src,
                    dst,
                    tos: Some(req.tos),
                }),
                ConfigOp::SetPbr {
                    acl: req.label.clone(),
                    tunnel: self.rows[row].tunnel.id.clone(),
                },
            ]);
        }
        for (edge, ops) in edges {
            edge.transact(ops)?;
        }
        // Data plane: start each flow on its tunnel's host path.
        let now = self.sim.now_ms();
        for ((req, &row), path) in reqs.iter().zip(rows).zip(paths) {
            self.log.record("configureTunnel");
            let pair = &self.pairs[req.pair.index()];
            let id = FlowId(self.next_flow);
            self.next_flow += 1;
            let spec = FlowSpec {
                src: pair.src_node,
                dst: pair.dst_node,
                demand_mbps: req.demand_mbps,
                tos: req.tos,
                label: req.label.clone(),
            };
            self.sim.schedule(
                now,
                Event::StartFlow {
                    spec,
                    path: path.into(),
                    id,
                },
            )?;
            self.flows.push(ManagedFlow {
                id,
                label: req.label.clone(),
                tunnel: row,
                demand: req.demand_mbps,
                pair: req.pair,
                rate_series: self
                    .telemetry
                    .series_id(&SeriesKey::new(&req.label, Metric::FlowRate)),
            });
            self.log.record("flowStarted");
        }
        Ok(())
    }

    /// The optimizer configuration in force (the solver cutoff).
    pub fn optimizer_config(&self) -> &OptimizerConfig {
        &self.opt
    }

    /// The standing incremental water-fill engine, if one is live (at
    /// least one re-optimization behind it). Its
    /// from-scratch recompute is [`SharedWaterfill::full_rates`] /
    /// [`SharedWaterfill::audit`].
    pub fn waterfill(&self) -> Option<&SharedWaterfill> {
        self.waterfill.as_ref()
    }

    /// Builds the shared-link capacity model over every directed link
    /// the candidate tunnels cross: per-link residual headroom from the
    /// control plane (zero across failures), plus — when
    /// `include_managed` is set, i.e. the whole assignment is being
    /// redone — the capacity our own managed flows currently occupy on
    /// that link if it is live. A failed link keeps its zero: a flow
    /// stranded on it still reports a decaying rate, but no placement
    /// may count on that capacity. Link indexing is first-seen in tunnel
    /// order, so the model is deterministic.
    pub fn link_model(&self, include_managed: bool) -> SharedLinkModel {
        let mut index: BTreeMap<(NodeIdx, NodeIdx), usize> = BTreeMap::new();
        let mut headroom: Vec<f64> = Vec::new();
        let mut live: Vec<bool> = Vec::new();
        let mut tunnel_links: Vec<Vec<usize>> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let path = &row.tunnel.node_path;
            let mut links = Vec::with_capacity(path.len().saturating_sub(1));
            for hop in path.windows(2) {
                let key = (hop[0], hop[1]);
                let idx = *index.entry(key).or_insert_with(|| {
                    // Residual capacity on the directed link right now;
                    // a failed link is honestly worth zero.
                    let residual = self.sim.path_available_mbps(&[hop[0], hop[1]]);
                    live.push(residual.is_ok());
                    headroom.push(residual.unwrap_or(0.0).max(0.0));
                    headroom.len() - 1
                });
                links.push(idx);
            }
            tunnel_links.push(links);
        }
        if include_managed {
            for f in &self.flows {
                let Ok(rate) = self.sim.flow_rate(f.id) else {
                    continue;
                };
                for &link in &tunnel_links[f.tunnel] {
                    if live[link] {
                        headroom[link] += rate;
                    }
                }
            }
        }
        let candidates = self.pairs.iter().map(|p| p.rows.clone()).collect();
        SharedLinkModel::new(headroom, tunnel_links, candidates)
    }

    /// Discovers up to `k` candidate tunnels between two routers with
    /// Yen's k-shortest paths, compiles each to a PolKA label, installs
    /// it on the owning pair's edge router, and registers it as a
    /// candidate for the optimizer. Paths that already exist as tunnels
    /// are skipped. Returns the names of newly created tunnels.
    ///
    /// On a multi-pair network `(src, dst)` must be a managed pair's
    /// exact `(ingress, egress)` — the discovered tunnels join *that*
    /// pair's candidate set under its namespace; any other endpoints
    /// error, since no pair could route flows onto them.
    ///
    /// This automates what the paper's testbed does by hand in Fig 10 —
    /// the step toward the "continent-wide topology scenario" of Sec VII
    /// where pre-declaring every tunnel stops scaling.
    pub fn discover_tunnels(
        &mut self,
        src: &str,
        dst: &str,
        k: usize,
    ) -> Result<Vec<String>, FrameworkError> {
        // On a single-pair network every discovered tunnel becomes a
        // candidate for the (one) pair, as before. On a multi-pair
        // network the tunnels must land in the candidate set of the
        // pair that actually owns the (src, dst) endpoints — a tunnel
        // in a foreign pair's set would later let the optimizer splice
        // wrong endpoints around it.
        let owner = if self.pairs.len() == 1 {
            0
        } else {
            self.pairs
                .iter()
                .position(|p| p.ingress == src && p.egress == dst)
                .ok_or(FrameworkError::NoFeasiblePath)?
        };
        let s = self.sim.topo.node(src)?;
        let d = self.sim.topo.node(dst)?;
        let paths = self.sim.topo.k_shortest_paths(s, d, k);
        let mut created = Vec::new();
        for path in paths {
            if self.rows.iter().any(|r| r.tunnel.node_path == path) {
                continue; // already declared (e.g. the Fig 10 tunnels)
            }
            let id = format!("auto{}", self.rows.len() + 1);
            let id = scoped_target(&self.pairs[owner].scope, &id);
            self.add_tunnel(owner, id.clone(), &path)?;
            created.push(id);
        }
        Ok(created)
    }

    /// The current tunnel of a managed flow.
    pub fn flow_tunnel(&self, label: &str) -> Option<&str> {
        self.flow(label).map(|f| self.rows[f.tunnel].name())
    }

    /// A managed flow's current fluid-plane goodput (Mbps), by label.
    pub fn flow_rate(&self, label: &str) -> Option<f64> {
        self.flow(label).and_then(|f| self.sim.flow_rate(f.id).ok())
    }

    /// A flow-rate telemetry series in seconds/Mbps.
    pub fn flow_series(&self, label: &str) -> Vec<(f64, f64)> {
        self.telemetry
            .series(&SeriesKey::new(label, Metric::FlowRate))
            .into_iter()
            .map(|(t, v)| (t as f64 / 1000.0, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;

    #[test]
    fn testbed_builds_with_three_tunnels() {
        let sdn = SelfDrivingNetwork::testbed(1).unwrap();
        assert_eq!(sdn.tunnel_names(), vec!["tunnel1", "tunnel2", "tunnel3"]);
        // Every tunnel's PolKA route walks the emulated data plane.
        for name in sdn.tunnel_names() {
            let compiled = sdn.tunnel(&name).unwrap();
            let visited =
                freertr::resolve::walk_route(compiled, &sdn.sim.topo, sdn.allocator()).unwrap();
            assert_eq!(visited, compiled.node_path, "{name}");
        }
    }

    #[test]
    fn telemetry_accumulates_during_advance() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        sdn.advance(15_000).unwrap();
        let key = SeriesKey::new("tunnel1", Metric::AvailableBandwidth);
        assert!(
            sdn.telemetry.len(&key) >= 14,
            "have {}",
            sdn.telemetry.len(&key)
        );
        let rtt = SeriesKey::new("tunnel1", Metric::Rtt);
        assert!(sdn.telemetry.last(&rtt).unwrap() > 50.0); // ~58 ms idle
    }

    #[test]
    fn zero_sample_interval_advances_one_ms_per_sample() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        sdn.sample_ms = 0;
        sdn.advance(50).unwrap();
        assert_eq!(sdn.sim.now_ms(), 50);
        let key = SeriesKey::new("tunnel1", Metric::AvailableBandwidth);
        assert_eq!(sdn.telemetry.len(&key), 50);
    }

    #[test]
    fn cold_start_flow_lands_on_first_tunnel() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        let d = sdn
            .admit_flow(
                &FlowRequest {
                    label: "flow1".into(),
                    tos: 32,
                    demand_mbps: None,
                    start_ms: 0,
                    pair: PairId::default(),
                },
                Objective::MaxBandwidth,
            )
            .unwrap();
        assert_eq!(d.tunnel, "tunnel1");
        assert!(!d.used_forecast);
        assert_eq!(sdn.flow_tunnel("flow1"), Some("tunnel1"));
    }

    #[test]
    fn warm_decision_uses_hecate() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        sdn.advance(30_000).unwrap(); // accumulate telemetry
        let d = sdn
            .admit_flow(
                &FlowRequest {
                    label: "flow1".into(),
                    tos: 32,
                    demand_mbps: None,
                    start_ms: 0,
                    pair: PairId::default(),
                },
                Objective::MaxBandwidth,
            )
            .unwrap();
        assert!(d.used_forecast);
        assert_eq!(d.tunnel, "tunnel1", "tunnel1 has the most capacity");
        // PBR on the edge router reflects the decision.
        let cfg = sdn.edge().running_config();
        let entry = cfg.pbr.iter().find(|e| e.acl == "flow1").unwrap();
        assert_eq!(entry.tunnel, "tunnel1");
    }

    #[test]
    fn discovery_dedupes_declared_tunnels() {
        // The Fig 10 config already declares all three MIA->AMS paths,
        // so discovery finds nothing new...
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        let created = sdn.discover_tunnels("MIA", "AMS", 3).unwrap();
        assert!(created.is_empty(), "created {created:?}");
        assert_eq!(sdn.tunnel_names().len(), 3);
    }

    #[test]
    fn discovery_creates_walkable_tunnels_elsewhere() {
        // ...but MIA->PAR has no declared tunnels: discovery builds them,
        // compiles PolKA labels and installs them on the edge.
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        let created = sdn.discover_tunnels("MIA", "PAR", 2).unwrap();
        assert_eq!(created.len(), 2, "{created:?}");
        for name in &created {
            let compiled = sdn.tunnel(name).unwrap();
            let visited =
                freertr::resolve::walk_route(compiled, &sdn.sim.topo, sdn.allocator()).unwrap();
            assert_eq!(visited, compiled.node_path, "{name}");
            // the edge router knows the tunnel (PBR to it is now legal)
            assert!(sdn.edge().running_config().tunnel(name).is_some());
        }
        assert_eq!(sdn.tunnel_names().len(), 5);
    }

    #[test]
    fn discovering_zero_tunnels_installs_none() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        let before = sdn.edge().running_config();
        let created = sdn.discover_tunnels("MIA", "PAR", 0).unwrap();
        assert!(created.is_empty(), "created {created:?}");
        assert_eq!(sdn.tunnel_names().len(), 3);
        assert_eq!(sdn.edge().running_config(), before);
    }

    #[test]
    fn over_topology_builds_on_a_generic_mesh() {
        // The generic constructor must discover, compile and install
        // walkable tunnels on a topology the Fig 10 config knows
        // nothing about — and admit router-to-router flows on them.
        let topo = netsim::topo::mesh(12, 3, 10.0);
        let mut sdn = SelfDrivingNetwork::over_topology_pairs(topo, &[("n0", "n6")], 3, 1).unwrap();
        assert_eq!(sdn.tunnel_names(), vec!["tunnel1", "tunnel2", "tunnel3"]);
        // tunnel1 is the shortest by delay; delays are non-decreasing.
        let delays: Vec<f64> = sdn
            .tunnel_names()
            .iter()
            .map(|n| {
                let p = &sdn.tunnel(n).unwrap().node_path;
                sdn.sim.topo.path_delay_ms(p).unwrap()
            })
            .collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        for name in sdn.tunnel_names() {
            let compiled = sdn.tunnel(&name).unwrap();
            let visited =
                freertr::resolve::walk_route(compiled, &sdn.sim.topo, sdn.allocator()).unwrap();
            assert_eq!(visited, compiled.node_path, "{name}");
            assert!(sdn.edge().running_config().tunnel(&name).is_some());
        }
        // A flow admitted cold lands on tunnel1 and ramps.
        sdn.admit_flow(
            &FlowRequest {
                label: "f".into(),
                tos: 32,
                demand_mbps: None,
                start_ms: 0,
                pair: PairId::default(),
            },
            Objective::MaxBandwidth,
        )
        .unwrap();
        sdn.advance(20_000).unwrap();
        assert_eq!(sdn.flow_tunnel("f"), Some("tunnel1"));
        let rate = sdn.flow_series("f").last().unwrap().1;
        assert!(rate > 5.0, "rate {rate}");
    }

    #[test]
    fn over_topology_rejects_disconnected_endpoints() {
        let mut topo = netsim::Topology::new();
        topo.add_node("a", netsim::topo::NodeKind::Core);
        topo.add_node("b", netsim::topo::NodeKind::Core);
        assert!(SelfDrivingNetwork::over_topology_pairs(topo, &[("a", "b")], 2, 1).is_err());
    }

    #[test]
    fn admission_refuses_labels_that_break_flow_identity() {
        let mut sdn = SelfDrivingNetwork::testbed(11).unwrap();
        let flow = |label: &str| FlowRequest {
            label: label.into(),
            tos: 32,
            demand_mbps: None,
            start_ms: 0,
            pair: PairId::default(),
        };
        sdn.admit_flow(&flow("f"), Objective::MaxBandwidth).unwrap();
        let (config, log) = (sdn.edge().running_config(), sdn.log.steps().len());
        let taken = [
            vec![flow("f")],
            vec![flow("g"), flow("g")],
            vec![flow("g"), flow("probe:tunnel1")],
        ];
        for batch in taken {
            let err = sdn
                .admit_flows(&batch, Objective::MaxBandwidth)
                .unwrap_err();
            assert!(matches!(err, FrameworkError::FlowLabel(_)), "{err:?}");
            assert_eq!(sdn.edge().running_config(), config);
            assert_eq!(sdn.flows.len(), 1);
            assert_eq!(sdn.log.steps().len(), log);
        }
        // One `f`: one rate sample per round, and the packet plane's
        // probe namespace stays free.
        sdn.migrate_flow("f", "tunnel2").unwrap();
        sdn.advance(3_000).unwrap();
        assert_eq!(sdn.flow_series("f").len(), 3);
        sdn.attach_dataplane(crate::dataloop::DataplaneConfig::default())
            .unwrap();
        sdn.packet_epoch().unwrap();
    }

    #[test]
    fn admission_refuses_demands_no_placement_can_honour() {
        let mut sdn = SelfDrivingNetwork::testbed(11).unwrap();
        let flow = |label: &str, demand_mbps| FlowRequest {
            label: label.into(),
            tos: 32,
            demand_mbps,
            start_ms: 0,
            pair: PairId::default(),
        };
        sdn.advance(1_000).unwrap();
        let live = sdn.sim.live_flow_count();
        let (config, log) = (sdn.edge().running_config(), sdn.log.steps().len());
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY, f64::INFINITY] {
            let batch = [flow("ok", Some(1.0)), flow("bad", Some(bad))];
            let err = sdn
                .admit_flows(&batch, Objective::MaxBandwidth)
                .unwrap_err();
            assert!(
                matches!(&err, FrameworkError::FlowDemand(l) if l == "bad"),
                "{bad}: {err:?}"
            );
            assert_eq!(sdn.edge().running_config(), config, "{bad}");
            assert!(sdn.flows.is_empty(), "{bad}");
            sdn.advance(1_000).unwrap();
            assert_eq!(sdn.sim.live_flow_count(), live, "{bad}");
            assert_eq!(sdn.log.steps().len(), log, "{bad}");
        }
        // A zero demand is a demand.
        let batch = [flow("ok", Some(1.0)), flow("idle", Some(0.0))];
        assert_eq!(
            sdn.admit_flows(&batch, Objective::MaxBandwidth)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn migrate_flow_updates_edge_and_data_plane() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        sdn.admit_flow(
            &FlowRequest {
                label: "flow1".into(),
                tos: 32,
                demand_mbps: None,
                start_ms: 0,
                pair: PairId::default(),
            },
            Objective::MaxBandwidth,
        )
        .unwrap();
        sdn.advance(10_000).unwrap();
        sdn.migrate_flow("flow1", "tunnel2").unwrap();
        sdn.advance(30_000).unwrap();
        assert_eq!(sdn.flow_tunnel("flow1"), Some("tunnel2"));
        // Rate converges to tunnel2's 10 Mbps * efficiency.
        let rate = sdn.flow_series("flow1").last().unwrap().1;
        assert!((rate - 10.0 * 0.86).abs() < 0.5, "rate {rate}");
    }

    // ---- batched edge transactions vs per-flow calls ----

    /// Four pairs on two ingress routers (`n0`, `n3`), two tunnels each.
    fn four_pairs_two_ingresses() -> SelfDrivingNetwork {
        let topo = netsim::topo::mesh(12, 3, 10.0);
        let ends = [("n0", "n6"), ("n3", "n9"), ("n0", "n4"), ("n3", "n7")];
        SelfDrivingNetwork::over_topology_pairs(topo, &ends, 2, 1).unwrap()
    }

    /// A batch interleaving the pairs, hence the two edges.
    fn batch(demands: &[Option<f64>]) -> Vec<FlowRequest> {
        demands
            .iter()
            .enumerate()
            .map(|(i, &demand_mbps)| FlowRequest {
                label: format!("f{i}"),
                tos: 8 + i as u8,
                demand_mbps,
                start_ms: 0,
                pair: PairId(i % 4),
            })
            .collect()
    }

    /// Everything the installers and migrations write, after running
    /// the flows for another ten seconds: each ingress's config text,
    /// each flow's tunnel, rate bits and rate series.
    #[allow(clippy::type_complexity)]
    fn installed(
        sdn: &mut SelfDrivingNetwork,
    ) -> (
        Vec<String>,
        Vec<(String, String, Option<u64>, Vec<(f64, f64)>)>,
    ) {
        sdn.advance(sdn.sim.now_ms() + 10_000).unwrap();
        let configs = [0, 1]
            .map(|p| sdn.pair_edge(PairId(p)).unwrap().running_config().emit())
            .to_vec();
        let flows = sdn
            .flows
            .iter()
            .map(|f| {
                (
                    f.label.clone(),
                    sdn.rows[f.tunnel].name().to_string(),
                    sdn.flow_rate(&f.label).map(f64::to_bits),
                    sdn.flow_series(&f.label),
                )
            })
            .collect();
        (configs, flows)
    }

    /// The installer `install_flows` replaced — two edge transactions
    /// per flow — kept as the reference the batched one is compared
    /// with.
    fn install_flow_by_round_trips(
        sdn: &mut SelfDrivingNetwork,
        req: &FlowRequest,
        decision: &PathDecision,
    ) -> Result<(), FrameworkError> {
        sdn.log.record("configureTunnel");
        let pair = &sdn.pairs[req.pair.index()];
        pair.edge.ensure_acl(freertr::AclRule {
            name: req.label.clone(),
            proto: Some(freertr::packet::PROTO_TCP),
            src: freertr::Ipv4Prefix::parse("40.40.1.0/24").unwrap(),
            dst: freertr::Ipv4Prefix::parse("40.40.2.2/32").unwrap(),
            tos: Some(req.tos),
        })?;
        pair.edge.set_pbr(&req.label, &decision.tunnel)?;
        let (src, dst) = (pair.src_node, pair.dst_node);
        let row = sdn.row_of[&decision.tunnel];
        let path = sdn.host_path(row)?;
        let id = FlowId(sdn.next_flow);
        sdn.next_flow += 1;
        let spec = FlowSpec {
            src,
            dst,
            demand_mbps: req.demand_mbps,
            tos: req.tos,
            label: req.label.clone(),
        };
        let now = sdn.sim.now_ms();
        sdn.sim.schedule(
            now,
            Event::StartFlow {
                spec,
                path: path.into(),
                id,
            },
        )?;
        let rate_key = SeriesKey::new(&req.label, Metric::FlowRate);
        sdn.flows.push(ManagedFlow {
            id,
            label: req.label.clone(),
            tunnel: row,
            demand: req.demand_mbps,
            pair: req.pair,
            rate_series: sdn.telemetry.series_id(&rate_key),
        });
        sdn.log.record("flowStarted");
        Ok(())
    }

    /// `whole`'s log is its consult steps, then exactly `installs`.
    fn assert_log_ends_with(whole: &SequenceLog, installs: &SequenceLog) {
        let (whole, installs) = (whole.steps(), installs.steps());
        assert!(!installs.is_empty());
        let consult = whole.len() - installs.len();
        assert_eq!(&whole[consult..], installs);
        assert!(whole[..consult]
            .iter()
            .all(|&s| s != "configureTunnel" && s != "flowStarted"));
    }

    #[test]
    fn batched_admit_installs_what_per_flow_round_trips_did() {
        let reqs = batch(&[Some(3.0), None, Some(1.5), Some(2.0), None, Some(4.0)]);
        let (mut batched, mut reference) = (four_pairs_two_ingresses(), four_pairs_two_ingresses());
        batched.advance(30_000).unwrap();
        reference.advance(30_000).unwrap();
        let decisions = batched.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        assert!(decisions.iter().all(|d| d.used_forecast));
        for (req, decision) in reqs.iter().zip(&decisions) {
            install_flow_by_round_trips(&mut reference, req, decision).unwrap();
        }
        assert_log_ends_with(&batched.log, &reference.log);
        let got = installed(&mut batched);
        assert_eq!(got, installed(&mut reference));
        // Both edges took part, and the flows run.
        assert!(got.0.iter().all(|config| config.contains("pbr f")));
        assert!(got.1.iter().all(|(.., rate, _)| rate.is_some()));
    }

    #[test]
    fn batched_consult_migrates_what_per_flow_round_trips_did() {
        // Cold admits pile each pair's flows on its first tunnel; the
        // warm consult spreads them, moving flows on both edges.
        let reqs = batch(&[None; 12]);
        let (mut batched, mut reference) = (four_pairs_two_ingresses(), four_pairs_two_ingresses());
        for sdn in [&mut batched, &mut reference] {
            sdn.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
            sdn.advance(30_000).unwrap();
            sdn.log = SequenceLog::default();
        }
        let moves = batched.reoptimize_bandwidth().unwrap();
        let mut moved_on = std::collections::BTreeSet::new();
        for (label, tunnel) in &moves {
            if reference.flow_tunnel(label) != Some(tunnel) {
                let pair = reference.flow_pair(label).unwrap();
                moved_on.insert(reference.pair_endpoints(pair).unwrap().0.to_string());
                reference.migrate_flow(label, tunnel).unwrap();
            }
        }
        assert_eq!(
            moved_on.len(),
            2,
            "the consult must move flows on both edges"
        );
        assert!(
            reference.log.steps().len() > 2,
            "and several of them: {:?}",
            reference.log.steps()
        );
        assert_log_ends_with(&batched.log, &reference.log);
        assert_eq!(installed(&mut batched), installed(&mut reference));
    }

    /// Appends a row the controller knows and no edge has: row `of`
    /// under another name, a candidate of no pair.
    fn ghost_of(sdn: &mut SelfDrivingNetwork, of: usize, name: &str) -> usize {
        let mut ghost = sdn.rows[of].clone();
        ghost.tunnel.id = name.into();
        sdn.rows.push(ghost);
        sdn.rows.len() - 1
    }

    #[test]
    fn a_refused_batch_leaves_nothing_half_installed() {
        let reqs = batch(&[Some(3.0), Some(2.0), Some(1.5), Some(1.0)]);
        let (mut clean, mut refused) = (four_pairs_two_ingresses(), four_pairs_two_ingresses());
        clean.advance(30_000).unwrap();
        refused.advance(30_000).unwrap();
        let decisions = clean.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        // The controller knows a tunnel the `n3` edge was never given:
        // its transaction — the second one — is refused at the last
        // flow's SetPbr, after that edge applied `f1`'s ops.
        let rows: Vec<usize> = decisions
            .iter()
            .map(|d| refused.row_of[&d.tunnel])
            .collect();
        let ghost = ghost_of(&mut refused, rows[3], "p3/ghost");
        let mut crafted = rows.clone();
        crafted[3] = ghost;
        let n3_before = refused.pair_edge(PairId(1)).unwrap().running_config();
        let log_before = refused.log.steps().len();
        let err = refused.install_flows(&reqs, &crafted).unwrap_err();
        assert!(
            matches!(&err, FrameworkError::Freertr(freertr::FreertrError::Unknown(what))
                if what == "interface p3/ghost"),
            "{err:?}"
        );
        assert_eq!(
            refused.pair_edge(PairId(1)).unwrap().running_config(),
            n3_before
        );
        assert!(refused.flows.is_empty());
        assert_eq!(refused.next_flow, 1);
        assert_eq!(refused.log.steps().len(), log_before);
        // A host path that fails is caught before any edge is touched.
        let n0_now = refused.pair_edge(PairId(0)).unwrap().running_config();
        let n3 = refused.pairs[3].src_node;
        refused.rows[ghost].tunnel.node_path = vec![n3, n3];
        assert!(refused.install_flows(&reqs, &crafted).is_err());
        assert_eq!(
            refused.pair_edge(PairId(0)).unwrap().running_config(),
            n0_now
        );
        refused.rows.pop();
        // Admitting the same requests now succeeds, over what the `n0`
        // edge kept of the refused batch, and ends where a clean admit
        // does.
        let again = refused.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        assert_eq!(again, decisions);
        assert_eq!(installed(&mut refused), installed(&mut clean));
        // Nothing of the refused batch ever started in the simulator.
        assert_eq!(refused.sim.live_flow_count(), reqs.len());
    }

    #[test]
    fn a_refusing_edge_keeps_its_flows_where_they_were() {
        let reqs = batch(&[Some(3.0), Some(2.0)]);
        let mut sdn = four_pairs_two_ingresses();
        sdn.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        sdn.advance(5_000).unwrap();
        // A tunnel of pair 1 that its edge (`n3`) does not have.
        let p1_tunnel2 = sdn.row_of["p1/tunnel2"];
        let ghost = ghost_of(&mut sdn, p1_tunnel2, "p1/ghost");
        let n3_before = sdn.pair_edge(PairId(1)).unwrap().running_config();
        // One round of moves over both edges: `n0` accepts, `n3` refuses.
        let err = sdn
            .migrate_flows(&[(0, sdn.row_of["p0/tunnel2"]), (1, ghost)])
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Freertr(_)), "{err:?}");
        assert_eq!(sdn.flow_tunnel("f0"), Some("p0/tunnel2"));
        assert_eq!(sdn.flow_tunnel("f1"), Some("p1/tunnel1"));
        assert_eq!(
            sdn.pair_edge(PairId(1)).unwrap().running_config(),
            n3_before
        );
        sdn.advance(6_000).unwrap();
        for (i, tunnel) in [(0, "p0/tunnel2"), (1, "p1/tunnel1")] {
            let want = sdn.host_path(sdn.row_of[tunnel]).unwrap();
            assert_eq!(sdn.sim.flow_path(sdn.flows[i].id).unwrap(), want);
        }
        let n0 = sdn.pair_edge(PairId(0)).unwrap().running_config();
        let bound = n0.pbr.iter().find(|e| e.acl == "f0").unwrap();
        assert_eq!(bound.tunnel, "p0/tunnel2");
    }

    // ---- the routing policy ----

    /// Twelve greedy flows admitted cold, so each pair's pile on its
    /// first tunnel, then 30 s of telemetry: a consult now spreads them
    /// on both edges.
    fn piled_up() -> SelfDrivingNetwork {
        let mut sdn = four_pairs_two_ingresses();
        sdn.admit_flows(&batch(&[None; 12]), Objective::MaxBandwidth)
            .unwrap();
        sdn.advance(30_000).unwrap();
        sdn
    }

    /// Points the `n3` pairs at a fresh router, which has none of their
    /// ACLs or tunnels and so refuses every `SetPbr`.
    fn stop_the_n3_edge(sdn: &mut SelfDrivingNetwork) {
        let blank = RouterHandle::new("n3");
        for pair in sdn.pairs.iter_mut().filter(|p| p.ingress == "n3") {
            pair.edge = blank.clone();
        }
    }

    /// The pair of every flow whose tunnel differs, in flow order.
    fn moved(before: &[ManagedFlow], after: &[ManagedFlow]) -> Vec<PairId> {
        before
            .iter()
            .zip(after)
            .filter(|(b, a)| b.tunnel != a.tunnel)
            .map(|(b, _)| b.pair)
            .collect()
    }

    /// The entries of `moves` whose pair enters at `n0`.
    fn on_n0(sdn: &SelfDrivingNetwork, moves: &[PairId]) -> Vec<PairId> {
        let n0 = |p: &&PairId| sdn.pairs[p.index()].ingress == "n0";
        moves.iter().filter(n0).copied().collect()
    }

    #[test]
    fn a_hecate_consult_that_errs_still_reports_the_moves_it_made() {
        let (mut clean, mut refused) = (piled_up(), piled_up());
        let start = clean.flows.clone();
        clean.reoptimize_bandwidth().unwrap();
        let all = moved(&start, &clean.flows);
        let want = on_n0(&clean, &all);
        assert!(!want.is_empty() && want.len() < all.len(), "{all:?}");
        // The `n3` transaction is refused, so the consult errs — after
        // the `n0` edge accepted its moves.
        stop_the_n3_edge(&mut refused);
        assert_eq!(refused.steer(Policy::Hecate), want);
        assert_eq!(moved(&start, &refused.flows), want);
        for (r, c) in refused.flows.iter().zip(&clean.flows) {
            if refused.pairs[r.pair.index()].ingress == "n0" {
                assert_eq!(r.tunnel, c.tunnel, "{}", r.label);
            }
        }
    }

    #[test]
    fn last_sample_skips_refused_moves_and_makes_the_others() {
        let (mut clean, mut refused) = (piled_up(), piled_up());
        let all = clean.steer(Policy::LastSample);
        let want = on_n0(&clean, &all);
        assert!(!want.is_empty() && want.len() < all.len(), "{all:?}");
        stop_the_n3_edge(&mut refused);
        let start = refused.flows.clone();
        assert_eq!(refused.steer(Policy::LastSample), want);
        // `steer` lists pair by pair, `moved` flow by flow.
        let mut made = moved(&start, &refused.flows);
        made.sort();
        assert_eq!(made, want);
    }

    #[test]
    fn last_sample_steers_a_pair_of_thirteen_greedy_flows() {
        // 3^13 placements of one pair's flows: past the exhaustive
        // bound, so the pair is placed greedily rather than aborting.
        let topo = netsim::topo::mesh(12, 3, 10.0);
        let mut sdn = SelfDrivingNetwork::over_topology_pairs(topo, &[("n0", "n6")], 3, 1).unwrap();
        assert_eq!(sdn.tunnel_names().len(), 3);
        let reqs: Vec<FlowRequest> = (0..13)
            .map(|i| FlowRequest {
                label: format!("f{i}"),
                tos: 8 + i as u8,
                demand_mbps: None,
                start_ms: 0,
                pair: PairId::default(),
            })
            .collect();
        // Admitted cold, all thirteen pile on tunnel1.
        sdn.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        sdn.advance(5_000).unwrap();
        let moved = sdn.steer(Policy::LastSample);
        assert!(!moved.is_empty(), "the last samples spread the pile");
        assert!(moved.iter().all(|&p| p == PairId::default()));
        let on = |t: &str| {
            sdn.flows
                .iter()
                .filter(|f| sdn.rows[f.tunnel].name() == t)
                .count()
        };
        assert_eq!(on("tunnel1") + on("tunnel2") + on("tunnel3"), 13);
        assert!(on("tunnel1") < 13, "{:?}", moved);
    }

    #[test]
    fn static_shortest_pins_admissions_to_the_first_tunnel() {
        let reqs = batch(&[None; 8]);
        let first = |sdn: &SelfDrivingNetwork, f: &ManagedFlow| sdn.pairs[f.pair.index()].rows[0];
        let mut free = four_pairs_two_ingresses();
        free.advance(30_000).unwrap();
        free.admit_under(Policy::Hecate, &reqs).unwrap();
        assert!(
            free.flows.iter().any(|f| f.tunnel != first(&free, f)),
            "a warm admit spreads the batch"
        );
        let mut pinned = four_pairs_two_ingresses();
        pinned.advance(30_000).unwrap();
        pinned.admit_under(Policy::StaticShortest, &reqs).unwrap();
        assert!(pinned.steer(Policy::StaticShortest).is_empty());
        pinned.advance(31_000).unwrap();
        for f in &pinned.flows {
            let want = first(&pinned, f);
            assert_eq!(f.tunnel, want);
            let cfg = pinned.pairs[f.pair.index()].edge.running_config();
            let bound = cfg.pbr.iter().find(|e| e.acl == f.label).unwrap();
            assert_eq!(bound.tunnel, pinned.rows[want].name());
            let path = pinned.host_path(want).unwrap();
            assert_eq!(pinned.sim.flow_path(f.id).unwrap(), path);
        }
    }

    #[test]
    fn a_single_pair_admit_is_traced_at_its_sim_time() {
        let mut sdn = SelfDrivingNetwork::testbed(1).unwrap();
        sdn.advance(30_000).unwrap();
        let sink = obsv::RecordingSink::shared();
        sdn.set_obsv(obsv::Obsv {
            tracer: obsv::Tracer::to(sink.clone()),
            metrics: obsv::Registry::default(),
        });
        let now_ns = sdn.sim.now_ns();
        let req = FlowRequest {
            label: "flow1".into(),
            tos: 32,
            demand_mbps: None,
            start_ms: 0,
            pair: PairId::default(),
        };
        assert!(
            sdn.admit_flow(&req, Objective::MaxBandwidth)
                .unwrap()
                .used_forecast
        );
        let records = sink.take();
        let consults: Vec<_> = records
            .iter()
            .filter(|r| r.name == "decide.consult" && r.kind == obsv::RecordKind::End)
            .collect();
        assert_eq!(consults.len(), 1);
        assert!(consults[0].args.contains(&("batch", obsv::Value::U64(1))));
        let fits: Vec<u64> = records
            .iter()
            .filter(|r| r.name == "ml.fit")
            .map(|r| r.at_ns)
            .collect();
        assert!(!fits.is_empty());
        assert!(fits.iter().all(|&at| at == now_ns), "{fits:?} vs {now_ns}");
        // The single pair solves on the shared engine, like any network:
        // the admit's solve names its series and its solver...
        let exhaustive = ("solver", obsv::Value::Str("exhaustive".into()));
        let solve_args = |records: &[obsv::TraceRecord]| -> Vec<_> {
            records
                .iter()
                .filter(|r| r.name == "decide.solve" && r.kind == obsv::RecordKind::End)
                .map(|r| r.args.clone())
                .collect()
        };
        let admit = solve_args(&records);
        assert_eq!(admit.len(), 1);
        assert!(admit[0].contains(&("series", obsv::Value::U64(3))));
        assert!(admit[0].contains(&exhaustive), "{admit:?}");
        // ...and so does a re-optimization's.
        sdn.reoptimize_bandwidth().unwrap();
        let reopt = solve_args(&sink.take());
        assert_eq!(reopt.len(), 1);
        assert!(reopt[0].contains(&exhaustive), "{reopt:?}");
        assert!(sdn.waterfill().is_some(), "the standing fill is patched");
    }

    #[test]
    fn link_model_candidates_are_the_pairs_tunnels_by_global_index() {
        // The indices kept at registration are what a lookup by name
        // finds — also for tunnels discovered later, which land behind
        // every pair's first ones in the global order.
        let mut sdn = four_pairs_two_ingresses();
        assert!(!sdn.discover_tunnels("n3", "n9", 3).unwrap().is_empty());
        assert!(!sdn.discover_tunnels("n0", "n6", 3).unwrap().is_empty());
        let names = sdn.tunnel_names();
        let by_name: Vec<Vec<usize>> = (0..sdn.pair_count())
            .map(|p| {
                let mine = sdn.pair_tunnel_names(PairId(p)).unwrap();
                let at = |t: &&str| names.iter().position(|n| n == t).unwrap();
                mine.iter().map(at).collect()
            })
            .collect();
        assert!(by_name[1].iter().any(|&t| t >= 8), "{by_name:?}");
        assert_eq!(sdn.link_model(false).candidates, by_name);
    }

    // ---- control plane vs data plane under random operations ----

    /// What the control plane records agrees with the edges, the
    /// simulator and the optimizer's model: each flow's PBR entry names
    /// its row, the simulator runs it on that row's path, the row is of
    /// the flow's pair, and pair `p`'s candidates are exactly its rows.
    /// Flushes the events scheduled at this instant first (one
    /// millisecond of simulation), so migrations have reached the
    /// simulator.
    fn assert_planes_agree(sdn: &mut SelfDrivingNetwork, step: &str) {
        let now = sdn.sim.now_ms();
        sdn.sim.run_until(now + 1, sdn.sample_ms);
        for f in &sdn.flows {
            let row = &sdn.rows[f.tunnel];
            assert_eq!(row.pair, f.pair, "{step}: {} off its pair", f.label);
            let cfg = sdn.pairs[f.pair.index()].edge.running_config();
            let bound = cfg.pbr.iter().find(|e| e.acl == f.label).unwrap();
            assert_eq!(bound.tunnel, row.name(), "{step}: {}'s PBR", f.label);
            // Router-to-router flows: the host path is the tunnel's.
            let path = sdn.sim.flow_path(f.id).unwrap();
            assert_eq!(path, row.tunnel.node_path, "{step}: {}'s path", f.label);
        }
        let candidates = sdn.link_model(false).candidates;
        assert_eq!(candidates.len(), sdn.pairs.len());
        for (p, cands) in candidates.iter().enumerate() {
            let mine: Vec<usize> = (0..sdn.rows.len())
                .filter(|&r| sdn.rows[r].pair == PairId(p))
                .collect();
            assert_eq!(*cands, mine, "{step}: pair {p}'s candidates");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        #[test]
        fn control_and_data_plane_agree_under_random_operations(
            ops in proptest::collection::vec((0u8..8, proptest::arbitrary::any::<u64>()), 8..24)
        ) {
            let mut sdn = four_pairs_two_ingresses();
            sdn.advance(12_000).unwrap();
            let mut admitted = 0;
            let mut down = std::collections::BTreeSet::new();
            for (step, &(op, seed)) in ops.iter().enumerate() {
                let mut rng = proptest::test_runner::TestRng::from_seed(seed);
                let mut pick = |n: usize| rng.below(n as u64) as usize;
                let step = format!("step {step} (op {op})");
                match op {
                    0 => {
                        // A batch of one to three flows with fresh labels.
                        let reqs: Vec<FlowRequest> = (0..1 + pick(3))
                            .map(|i| FlowRequest {
                                label: format!("f{}", admitted + i),
                                tos: 8,
                                demand_mbps: [None, Some(1.0), Some(3.0)][pick(3)],
                                start_ms: 0,
                                pair: PairId(pick(4)),
                            })
                            .collect();
                        admitted += reqs.len();
                        // Refused when a chosen tunnel crosses a failed link.
                        let _ = sdn.admit_flows(&reqs, Objective::MaxBandwidth);
                    }
                    1 | 2 if !sdn.flows.is_empty() => {
                        // A move within the flow's pair, or to a foreign
                        // pair's tunnel, which must be refused.
                        let f = &sdn.flows[pick(sdn.flows.len())];
                        let (label, pair, from) = (f.label.clone(), f.pair, f.tunnel);
                        let foreign = op == 2;
                        let rows: Vec<usize> = (0..sdn.rows.len())
                            .filter(|&r| (sdn.rows[r].pair == pair) != foreign)
                            .collect();
                        let to = sdn.rows[rows[pick(rows.len())]].name().to_string();
                        let moved = sdn.migrate_flow(&label, &to);
                        if foreign {
                            assert!(moved.is_err(), "{step}: {label} moved to {to}");
                            assert_eq!(sdn.flow(&label).unwrap().tunnel, from);
                        }
                    }
                    3 => {
                        // New rows for one pair, behind every other pair's.
                        let pair = &sdn.pairs[pick(4)];
                        let (a, b) = (pair.ingress.clone(), pair.egress.clone());
                        sdn.discover_tunnels(&a, &b, 3).unwrap();
                    }
                    4 => {
                        // Fail, or restore, one hop of some tunnel.
                        let path = &sdn.rows[pick(sdn.rows.len())].tunnel.node_path;
                        let hop = pick(path.len() - 1);
                        let name = |n: NodeIdx| sdn.sim.topo.node_name(n).to_string();
                        let mut link = [name(path[hop]), name(path[hop + 1])];
                        link.sort();
                        let up = down.remove(&link);
                        sdn.set_link_state(&link[0], &link[1], up).unwrap();
                        if !up {
                            down.insert(link);
                        }
                    }
                    5 => {
                        let until = sdn.sim.now_ms() + 1_000 * (1 + pick(4) as u64);
                        sdn.advance(until).unwrap();
                    }
                    6 => drop(sdn.steer(Policy::Hecate)),
                    7 => drop(sdn.steer(Policy::LastSample)),
                    _ => {}
                }
                assert_planes_agree(&mut sdn, &step);
            }
        }
    }
}
