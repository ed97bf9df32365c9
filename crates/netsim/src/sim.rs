//! The discrete-event simulation engine: events, TCP dynamics and
//! probes. It keeps no telemetry: the loop's samples live in
//! `framework::TelemetryService`, fed from these probes and rates.
//!
//! # Event core
//!
//! Simulated time does not march in fixed `dt` ticks. The simulator
//! keeps one priority queue of timestamped external events (flow
//! arrival/departure, reroute, link capacity change, link up/down),
//! ordered by `(at, seq)` so ties break deterministically in
//! scheduling order (the queue is a [`crate::timeq`] of 1-ms buckets:
//! a pre-loaded schedule's far future waits in unsorted windows until
//! its ring reaches them). [`Simulation::run_until`] jumps straight to
//! the next event or sample point, applies everything due at that
//! instant, and re-solves fair shares once per touched timestamp via
//! the incremental [`FairShareEngine`]. Between events every flow's
//! rate is advanced *analytically* ([`Flow::rate_at`]): the closed-form
//! exponential replaces the old per-tick `step_rate`, and is exactly
//! the same trajectory (per-tick composition of `(1 - alpha)^k` equals
//! `exp(-k dt / tau)`), so a quiescent network costs nothing to
//! simulate. Convergence is flow state, not an event: a share change
//! stores the instant the flow's residual decays below 1 neV
//! (1e-9 Mbps) in [`Flow::conv_at_ms`], and every rate read returns
//! the share exactly once the drained-instant watermark has reached
//! it. The next share change overwrites the instant, so no stale
//! completion can outlive its trajectory.

#[cfg(test)]
use crate::fairness::directed_links;
use crate::fairness::{dense_link, directed_hop, directed_link, Direction, FairShareEngine};
use crate::flow::{Flow, FlowId, FlowSpec};
use crate::maxmin::WaterfillStats;
use crate::timeq::TimeQ;
use crate::topo::{LinkId, NodeIdx, Topology};
use crate::NetsimError;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Simulation time in integer milliseconds (deterministic ordering).
pub type SimTimeMs = u64;

/// The event queue: 1-ms buckets, keyed by scheduling sequence number.
type EventQueue = TimeQ<u64, Queued, 0>;

/// Residual (Mbps) below which a converging rate snaps to its share.
const CONV_EPS_MBPS: f64 = 1e-9;

/// A capacity or demand the fair-share fill can use: finite and not
/// negative (zero is legal).
fn is_rate(mbps: f64) -> bool {
    mbps.is_finite() && mbps >= 0.0
}

fn check_demand(id: FlowId, demand_mbps: Option<f64>) -> Result<(), NetsimError> {
    match demand_mbps {
        Some(mbps) if !is_rate(mbps) => Err(NetsimError::BadDemand(id.0, mbps)),
        _ => Ok(()),
    }
}

/// Scheduled events.
///
/// The queue does not hold an `Event` (80 bytes: one label-carrying
/// [`Event::StartFlow`] sizes them all) but a private 40-byte form of
/// it, converted in [`Simulation::schedule`] and back at dispatch, so a
/// queued entry with its `(at, seq)` key is 56 bytes (64 in the ring,
/// with its list link). Only a start with a non-empty label — a managed
/// flow, a few thousand per run at most — or with endpoints other than
/// its path's ends leaves its spec on the heap; a pre-loaded elastic
/// schedule queues none.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Start a flow on an explicit node path.
    StartFlow {
        /// The flow description.
        spec: FlowSpec,
        /// Explicit path (hosts/edges included), shared: the flow keeps
        /// this allocation, so flows started on one route share one.
        path: Arc<[NodeIdx]>,
        /// Id to assign (caller-chosen so tests/controllers can refer to it).
        id: FlowId,
    },
    /// Stop (and remove) a flow.
    StopFlow(FlowId),
    /// Atomically reroute a flow onto a new path — the PolKA path
    /// migration: one PBR rewrite at the ingress edge.
    SetFlowPath(FlowId, Arc<[NodeIdx]>),
    /// Change a link's capacity (trace-driven modulation).
    SetLinkCapacity(LinkId, f64),
    /// Fail or restore a link.
    SetLinkUp(LinkId, bool),
    /// Change a flow's elastic demand in place (`None` = greedy): a
    /// mouse ramping up mid-life, an elephant backing off. The flow
    /// keeps its path and identity; only the fair-share fill reflows.
    SetFlowDemand(FlowId, Option<f64>),
}

/// An [`Event`] as the queue holds it: 40 bytes, where `Event` is 80.
/// A plain start — no label, and its spec's `src` and `dst` are its
/// path's ends — keeps only what the path does not already say, the
/// demand as an `f64` plus a greedy flag in place of the 16-byte
/// `Option<f64>`; any other start boxes its spec. Every other variant
/// is `Event`'s own.
#[derive(Debug)]
pub(crate) enum Queued {
    /// A plain start (every elastic flow).
    Start {
        id: FlowId,
        path: Arc<[NodeIdx]>,
        /// The demand's bits; meaningless when `greedy`.
        demand_mbps: f64,
        tos: u8,
        /// `demand_mbps: None`.
        greedy: bool,
    },
    /// A start with a label (a managed flow) or with endpoints other
    /// than its path's ends.
    Boxed {
        id: FlowId,
        path: Arc<[NodeIdx]>,
        spec: Box<FlowSpec>,
    },
    StopFlow(FlowId),
    SetFlowPath(FlowId, Arc<[NodeIdx]>),
    SetLinkCapacity(LinkId, f64),
    SetLinkUp(LinkId, bool),
    SetFlowDemand(FlowId, Option<f64>),
}

impl From<Event> for Queued {
    fn from(event: Event) -> Self {
        match event {
            Event::StartFlow { spec, path, id }
                if spec.label.is_empty()
                    && path.first() == Some(&spec.src)
                    && path.last() == Some(&spec.dst) =>
            {
                Queued::Start {
                    id,
                    path,
                    demand_mbps: spec.demand_mbps.unwrap_or(0.0),
                    tos: spec.tos,
                    greedy: spec.demand_mbps.is_none(),
                }
            }
            Event::StartFlow { spec, path, id } => Queued::Boxed {
                id,
                path,
                spec: Box::new(spec),
            },
            Event::StopFlow(id) => Queued::StopFlow(id),
            Event::SetFlowPath(id, path) => Queued::SetFlowPath(id, path),
            Event::SetLinkCapacity(lid, cap) => Queued::SetLinkCapacity(lid, cap),
            Event::SetLinkUp(lid, up) => Queued::SetLinkUp(lid, up),
            Event::SetFlowDemand(id, demand) => Queued::SetFlowDemand(id, demand),
        }
    }
}

impl From<Queued> for Event {
    fn from(queued: Queued) -> Self {
        match queued {
            Queued::Start {
                id,
                path,
                demand_mbps,
                tos,
                greedy,
            } => Event::StartFlow {
                spec: FlowSpec {
                    src: path[0],
                    dst: path[path.len() - 1],
                    demand_mbps: (!greedy).then_some(demand_mbps),
                    tos,
                    label: String::new(),
                },
                path,
                id,
            },
            Queued::Boxed { id, path, spec } => Event::StartFlow {
                spec: *spec,
                path,
                id,
            },
            Queued::StopFlow(id) => Event::StopFlow(id),
            Queued::SetFlowPath(id, path) => Event::SetFlowPath(id, path),
            Queued::SetLinkCapacity(lid, cap) => Event::SetLinkCapacity(lid, cap),
            Queued::SetLinkUp(lid, up) => Event::SetLinkUp(lid, up),
            Queued::SetFlowDemand(id, demand) => Event::SetFlowDemand(id, demand),
        }
    }
}

/// A live flow plus its dense link list.
#[derive(Debug)]
struct Tracked {
    flow: Flow,
    /// The path as the engine's dense directed-link indices — the same
    /// `Arc` the kernel holds, kept current across reroutes and link
    /// flips; `None` while the path crosses a failed link.
    links: Option<Arc<[usize]>>,
}

/// `flow_index`'s hasher: one multiply and a fold of the high half
/// into the low, in place of SipHash, for a table the simulator probes
/// on every start, stop, demand change and share change. It is never
/// iterated, so the hash decides no order.
#[derive(Debug, Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        let x = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 32)
    }
}

/// Per-directed-link utilization at one `(now, drained_ms,
/// state_version)`, indexed by the engine's dense link index
/// (`2·LinkId + dir`). The buffers are reused from instant to instant.
#[derive(Debug, Default)]
struct LinkLoads {
    /// `(now, drained_ms, state_version)` the fold was taken at.
    at: Option<(SimTimeMs, SimTimeMs, u64)>,
    /// Utilization in `[0, 1]`; 0 for links no live flow crosses.
    util: Vec<f64>,
    /// Links some live flow crosses, in first-touch order.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
}

impl LinkLoads {
    fn util(&self, lid: LinkId, dir: Direction) -> f64 {
        self.util.get(dense_link(lid, dir)).copied().unwrap_or(0.0)
    }
}

/// The simulator.
#[derive(Debug)]
pub struct Simulation {
    /// The network graph (public: controllers read topology state).
    pub topo: Topology,
    /// Live flows in insertion order with swap-remove on departure.
    /// Any permutation is fine as long as it is a pure function of the
    /// event sequence — float folds over it must replay bit-for-bit.
    flows: Vec<Tracked>,
    /// Position of each live flow in `flows` (lookup only, never
    /// iterated), so `StopFlow` is O(1) instead of an O(n) retain.
    flow_index: HashMap<FlowId, usize, BuildHasherDefault<FlowIdHasher>>,
    events: EventQueue,
    seq: u64,
    now_ms: SimTimeMs,
    /// The last instant whose events are all applied: `now` after each
    /// instant's drain, `until − 1` once `run_until(until)` returns
    /// (events due at the horizon wait for the next call). A flow
    /// whose `conv_at_ms` it has reached reads its share exactly.
    drained_ms: SimTimeMs,
    rng: StdRng,
    engine: FairShareEngine,
    /// External events popped and applied, for throughput reporting.
    events_processed: u64,
    /// Bumped by every external event; with `now` and `drained_ms`,
    /// keys the utilization cache.
    state_version: u64,
    /// Memoized `link_utilization` for the current
    /// `(now, drained_ms, version)` — probes at one instant borrow one
    /// computation.
    loads: RefCell<LinkLoads>,
    /// Sim-time trace facade (off by default; every record is stamped
    /// with the event clock, so traces replay bit-identically).
    tracer: obsv::Tracer,
}

/// TCP convergence time constant (seconds).
const TCP_TAU_S: f64 = 1.2;
/// Protocol efficiency: goodput = efficiency * fair share. Calibrated
/// so three saturated tunnels (20+10+5 Mbps raw) yield the ≈30 Mbps
/// aggregate the paper measures in Fig 12.
const EFFICIENCY: f64 = 0.86;
/// Queueing delay scale (ms of queue at 50% utilization).
const QUEUE_MS_AT_HALF_UTIL: f64 = 1.0;

/// Nanoseconds per simulation millisecond — the sim core keeps time in
/// ms; traces are stamped in ns to share a clock with the packet plane.
pub const NS_PER_MS: u64 = 1_000_000;

impl Simulation {
    /// A simulation over a topology.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Simulation {
            topo,
            flows: Vec::new(),
            flow_index: HashMap::default(),
            events: EventQueue::default(),
            seq: 0,
            now_ms: 0,
            drained_ms: 0,
            rng: StdRng::seed_from_u64(seed),
            engine: FairShareEngine::new(),
            events_processed: 0,
            state_version: 0,
            loads: RefCell::default(),
            tracer: obsv::Tracer::off(),
        }
    }

    /// Current simulation time (ms).
    pub fn now_ms(&self) -> SimTimeMs {
        self.now_ms
    }

    /// Current simulation time (ns) — the trace clock.
    pub fn now_ns(&self) -> u64 {
        self.now_ms * NS_PER_MS
    }

    /// Attaches (or detaches, with [`obsv::Tracer::off`]) the sim-time
    /// tracer instrumenting the event loop and the water-fill.
    pub fn set_tracer(&mut self, tracer: obsv::Tracer) {
        self.tracer = tracer;
    }

    /// Exposes the water-fill audit counters in `registry` under
    /// `netsim.waterfill.*`.
    pub fn register_metrics(&self, registry: &obsv::Registry) {
        self.engine.metrics().register(registry, "netsim.waterfill");
    }

    /// Schedules an event at an absolute time.
    ///
    /// Flow-path events ([`Event::StartFlow`], [`Event::SetFlowPath`])
    /// are validated against the topology *as of now*: every
    /// consecutive pair must be adjacent over a live link, otherwise
    /// the event is rejected with a [`NetsimError`] instead of silently
    /// simulating an impossible path (a later link failure can still
    /// invalidate an admitted path — that shows up as a stalled flow,
    /// which is the physical behavior).
    ///
    /// The other fields are checked too, so no event can fault the run
    /// it is applied in:
    /// * a [`Event::SetLinkCapacity`] or [`Event::SetLinkUp`] on a link
    ///   the topology does not have is [`NetsimError::UnknownLink`];
    /// * a capacity that is NaN, infinite or negative is
    ///   [`NetsimError::BadCapacity`];
    /// * a demand ([`Event::StartFlow`]'s spec, [`Event::SetFlowDemand`])
    ///   that is NaN, infinite or negative is [`NetsimError::BadDemand`].
    ///
    /// Zero capacity and zero demand are legal.
    pub fn schedule(&mut self, at_ms: SimTimeMs, event: Event) -> Result<(), NetsimError> {
        match &event {
            Event::StartFlow { spec, path, id } => {
                // Only live links count, so this checks both adjacency
                // and link state.
                self.topo.check_path(path)?;
                check_demand(*id, spec.demand_mbps)?;
            }
            Event::SetFlowPath(_, path) => self.topo.check_path(path)?,
            Event::SetFlowDemand(id, demand) => check_demand(*id, *demand)?,
            Event::SetLinkCapacity(lid, cap) => {
                self.check_link(*lid)?;
                if !is_rate(*cap) {
                    return Err(NetsimError::BadCapacity(lid.0 as usize, *cap));
                }
            }
            Event::SetLinkUp(lid, _) => self.check_link(*lid)?,
            Event::StopFlow(_) => {}
        }
        let at = at_ms.max(self.now_ms);
        self.seq += 1;
        self.events.push(at, self.seq, event.into());
        Ok(())
    }

    fn check_link(&self, lid: LinkId) -> Result<(), NetsimError> {
        if (lid.0 as usize) < self.topo.link_count() {
            Ok(())
        } else {
            Err(NetsimError::UnknownLink(lid.0 as usize))
        }
    }

    /// Runs the simulation until `until_ms`, stopping at every multiple
    /// of `sample_ms` (0 counts as 1). Time jumps between events: each
    /// iteration applies everything due at the current instant (events
    /// fire at their *exact* timestamps), re-solves fair shares once if
    /// any event was applied, emits the `sim.queue_depth` counter on a
    /// sample point, and then leaps to the earliest of next event /
    /// next sample point / the horizon. A sample point is an instant
    /// like any other: it drains the rates it passes. Events scheduled
    /// at `until_ms` or later stay queued for the next call, and no
    /// sample point is visited at `until_ms` itself — the same boundary
    /// convention as the historical tick loop, minus its skew: events
    /// that used to land strictly between tick boundaries are no longer
    /// applied up to one tick late. Rate convergence follows the same
    /// convention: on return, flows converge at instants before
    /// `until_ms`, not at it.
    pub fn run_until(&mut self, until_ms: SimTimeMs, sample_ms: u64) {
        let sample_ms = sample_ms.max(1);
        if self.now_ms >= until_ms {
            return;
        }
        let mut next_sample = if self.now_ms == 0 {
            0
        } else {
            self.now_ms.div_ceil(sample_ms) * sample_ms
        };
        loop {
            // The dispatch span covers every event due at this instant;
            // queue depth is sampled before the batch drains. All of it
            // is behind the tracer's inline `None` check.
            let depth = self.events.len() as u64;
            let dispatch = if self.tracer.enabled()
                && self.events.peek_time().is_some_and(|at| at <= self.now_ms)
            {
                Some(self.tracer.span("sim", "sim.dispatch", self.now_ns()))
            } else {
                None
            };
            let mut batch: u64 = 0;
            while let Some((_, _, due)) = self.events.pop_through(self.now_ms) {
                self.events_processed += 1;
                batch += 1;
                self.apply_external(due.into());
            }
            self.drained_ms = self.now_ms;
            if let Some(span) = dispatch {
                span.end(self.now_ns(), || {
                    vec![
                        ("events", obsv::Value::U64(batch)),
                        ("queue_depth", obsv::Value::U64(depth)),
                    ]
                });
            }
            if batch > 0 {
                if self.tracer.enabled() {
                    let before = self.engine.stats();
                    let span = self.tracer.span("sim", "sim.waterfill", self.now_ns());
                    self.resolve_shares();
                    let after = self.engine.stats();
                    if after.full_solves > before.full_solves {
                        // Escalation to the audited full recompute is
                        // exactly the event a trace reader hunts for.
                        self.tracer.instant(
                            "sim",
                            "sim.waterfill.full_recompute",
                            self.now_ns(),
                            Vec::new,
                        );
                    }
                    span.end(self.now_ns(), || {
                        vec![
                            (
                                "incremental",
                                obsv::Value::U64(
                                    after.incremental_solves - before.incremental_solves,
                                ),
                            ),
                            (
                                "full",
                                obsv::Value::U64(after.full_solves - before.full_solves),
                            ),
                            (
                                "expansions",
                                obsv::Value::U64(after.expansions - before.expansions),
                            ),
                        ]
                    });
                } else {
                    self.resolve_shares();
                }
            }
            if self.now_ms >= next_sample {
                self.tracer.counter(
                    "sim",
                    "sim.queue_depth",
                    self.now_ns(),
                    self.events.len() as u64,
                );
                next_sample += sample_ms;
            }
            let mut next = until_ms.min(next_sample);
            if let Some(at) = self.events.peek_time() {
                next = next.min(at);
            }
            if next >= until_ms {
                self.now_ms = until_ms;
                self.drained_ms = until_ms - 1;
                return;
            }
            self.now_ms = next;
        }
    }

    fn apply_external(&mut self, event: Event) {
        self.state_version += 1;
        match event {
            Event::StartFlow { spec, path, id } => {
                let links = self
                    .engine
                    .insert_path(&self.topo, id, &path, spec.demand_mbps);
                let mut flow = Flow::new(id, spec, path);
                flow.rate_as_of_ms = self.now_ms;
                let tracked = Tracked { flow, links };
                // Re-starting a live id replaces it in place: fresh
                // flow, position in `flows` retained.
                match self.flow_index.get(&id) {
                    Some(&i) => self.flows[i] = tracked,
                    None => {
                        self.flow_index.insert(id, self.flows.len());
                        self.flows.push(tracked);
                    }
                }
            }
            Event::StopFlow(id) => {
                self.engine.remove_flow(id);
                if let Some(pos) = self.flow_index.remove(&id) {
                    self.flows.swap_remove(pos);
                    if let Some(moved) = self.flows.get(pos) {
                        self.flow_index.insert(moved.flow.id, pos);
                    }
                }
            }
            Event::SetFlowPath(id, path) => {
                if let Some(&i) = self.flow_index.get(&id) {
                    let f = &mut self.flows[i];
                    f.links = self.engine.set_path(&self.topo, id, &path);
                    f.flow.path = path;
                }
            }
            Event::SetLinkCapacity(lid, cap) => {
                if self.topo.link(lid).capacity_mbps != cap {
                    self.topo.link_mut(lid).capacity_mbps = cap;
                    self.engine.capacity_changed(&self.topo, lid);
                }
            }
            Event::SetFlowDemand(id, demand) => {
                if let Some(&i) = self.flow_index.get(&id) {
                    self.flows[i].flow.spec.demand_mbps = demand;
                    self.engine.set_demand(id, demand);
                }
            }
            Event::SetLinkUp(lid, up) => {
                if self.topo.link(lid).up != up {
                    self.topo.link_mut(lid).up = up;
                    let link = self.topo.link(lid);
                    let (a, b) = (link.a, link.b);
                    // Only flows with a hop over this node pair can
                    // gain or lose a live link set. Flips are rare, so
                    // they pay for a scan instead of every flow start
                    // and stop paying for an index; ascending id is the
                    // order the engine must be patched in.
                    let crosses = |f: &Tracked| {
                        f.flow
                            .path
                            .windows(2)
                            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
                    };
                    let mut hit: Vec<usize> = (0..self.flows.len())
                        .filter(|&i| crosses(&self.flows[i]))
                        .collect();
                    hit.sort_unstable_by_key(|&i| self.flows[i].flow.id);
                    for i in hit {
                        let f = &mut self.flows[i];
                        f.links = self.engine.set_path(&self.topo, f.flow.id, &f.flow.path);
                    }
                }
            }
        }
    }

    /// Applies the engine's batched share changes: each touched flow's
    /// trajectory is materialized at `now`, its share updated, and the
    /// instant the new exponential effectively flattens stored on it.
    fn resolve_shares(&mut self) {
        let (now, drained) = (self.now_ms, self.drained_ms);
        let (flows, index) = (&mut self.flows, &self.flow_index);
        self.engine.resolve_with(|id, raw| {
            let Some(&i) = index.get(&id) else {
                return;
            };
            let f = &mut flows[i].flow;
            f.materialize(now, drained, TCP_TAU_S);
            f.fair_share_mbps = raw * EFFICIENCY;
            f.conv_at_ms = now + f.convergence_in_ms(TCP_TAU_S, CONV_EPS_MBPS);
        });
    }

    /// A flow's goodput at the current instant.
    fn rate(&self, f: &Flow) -> f64 {
        f.rate_at(self.now_ms, self.drained_ms, TCP_TAU_S)
    }

    /// Per-directed-link utilization implied by current flow rates,
    /// borrowed from the per-instant memo.
    ///
    /// Folds flows in `flows` order (a deterministic function of the
    /// event sequence), **not** map order: float accumulation is
    /// order-sensitive at the ULP level, and hash-map iteration order
    /// varies per process — enough to flip a downstream
    /// forecast-driven routing decision and break bit-for-bit replay.
    /// Each flow adds its rate along the dense link list the engine
    /// already keeps for it, so no path is resolved against the
    /// topology here. The computation is memoized per
    /// `(now, drained_ms, state_version)` — probes at one instant share
    /// it.
    fn link_utilization(&self) -> Ref<'_, LinkLoads> {
        self.refresh_loads();
        self.loads.borrow()
    }

    /// Brings the memo behind [`Simulation::link_utilization`] up to
    /// `(now, drained_ms, state_version)`.
    fn refresh_loads(&self) {
        let at = Some((self.now_ms, self.drained_ms, self.state_version));
        let loads = &mut *self.loads.borrow_mut();
        if loads.at == at {
            return;
        }
        for l in loads.touched.drain(..) {
            loads.util[l] = 0.0;
            loads.is_touched[l] = false;
        }
        let dense_links = 2 * self.topo.link_count();
        if loads.util.len() < dense_links {
            loads.util.resize(dense_links, 0.0);
            loads.is_touched.resize(dense_links, false);
        }
        for f in &self.flows {
            if let Some(links) = &f.links {
                let r = self.rate(&f.flow);
                for &l in links.iter() {
                    loads.util[l] += r;
                    if !loads.is_touched[l] {
                        loads.is_touched[l] = true;
                        loads.touched.push(l);
                    }
                }
            }
        }
        for &l in &loads.touched {
            let cap = self.topo.link(directed_link(l).0).capacity_mbps.max(1e-9);
            loads.util[l] = (loads.util[l] / cap).min(1.0);
        }
        loads.at = at;
    }

    /// The sorted-map fold [`Simulation::link_utilization`] replaced,
    /// resolving every path against the topology — kept as the
    /// reference the dense fold is compared with bit for bit.
    #[cfg(test)]
    fn link_utilization_map(&self) -> std::collections::BTreeMap<(LinkId, Direction), f64> {
        let mut used = std::collections::BTreeMap::new();
        for f in &self.flows {
            if let Ok(links) = directed_links(&self.topo, &f.flow.path) {
                let r = self.rate(&f.flow);
                for (lid, dir) in links {
                    *used.entry((lid, dir)).or_insert(0.0) += r;
                }
            }
        }
        for ((lid, _), mbps) in used.iter_mut() {
            let cap = self.topo.link(*lid).capacity_mbps.max(1e-9);
            *mbps = (*mbps / cap).min(1.0);
        }
        used
    }

    /// Drives a link's capacity from a bandwidth trace: sample `i` of
    /// `values` becomes the link's capacity at
    /// `start_ms + i * interval_ms`. This is how the UQ wireless traces
    /// are attached to the emulated access links in the trace-driven
    /// steering extension. A negative or NaN sample is clamped to 0;
    /// an unknown link or an infinite sample is refused like
    /// [`Simulation::schedule`] refuses it, and the samples before it
    /// stay scheduled.
    pub fn schedule_capacity_trace(
        &mut self,
        link: LinkId,
        start_ms: SimTimeMs,
        interval_ms: u64,
        values: &[f64],
    ) -> Result<(), NetsimError> {
        for (i, &v) in values.iter().enumerate() {
            self.schedule(
                start_ms + i as u64 * interval_ms,
                Event::SetLinkCapacity(link, v.max(0.0)),
            )?;
        }
        Ok(())
    }

    /// Does nothing. It once kept a flow out of the simulator's own
    /// sample log, which is gone (the loop's telemetry is
    /// `framework::TelemetryService`); the method stays only because
    /// loopbench (`benchmark/`) still calls it.
    pub fn mark_background(&mut self, _id: FlowId) {}

    /// Number of external events ([`Event`]s) applied so far — the
    /// numerator of events/sec throughput reporting. Rate convergence
    /// is flow state, not an event, so it never counts.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The most events the queue has held at once: a pre-loaded
    /// schedule's length plus what was scheduled before it drained.
    pub fn queue_peak_events(&self) -> u64 {
        self.events.peak() as u64
    }

    /// Queued events that scheduling walked past to keep each 1-ms
    /// bucket of the queue in sequence order.
    pub fn queue_list_steps(&self) -> u64 {
        self.events.list_steps()
    }

    /// Live flow count (excluding flows stalled on failed links).
    pub fn live_flow_count(&self) -> usize {
        self.engine.live_flows()
    }

    /// Incremental-allocator audit counters.
    pub fn waterfill_stats(&self) -> WaterfillStats {
        self.engine.stats()
    }

    /// A live flow's current goodput.
    pub fn flow_rate(&self, id: FlowId) -> Result<f64, NetsimError> {
        self.tracked(id).map(|f| self.rate(&f.flow))
    }

    /// A live flow's current path.
    pub fn flow_path(&self, id: FlowId) -> Result<&[NodeIdx], NetsimError> {
        self.tracked(id).map(|f| &*f.flow.path)
    }

    fn tracked(&self, id: FlowId) -> Result<&Tracked, NetsimError> {
        self.flow_index
            .get(&id)
            .map(|&i| &self.flows[i])
            .ok_or(NetsimError::UnknownFlow(id.0))
    }

    /// ICMP-style round-trip time measurement along a path **right now**:
    /// propagation both ways plus utilization-dependent queueing and a
    /// small seeded jitter. Stands in for the paper's `ping` runs.
    pub fn ping(&mut self, path: &[NodeIdx]) -> Result<f64, NetsimError> {
        let links = self.topo.path_links(path)?;
        let mut rtt = 0.0;
        {
            let utils = self.link_utilization();
            for lid in links {
                let link = self.topo.link(lid);
                if !link.up {
                    return Err(NetsimError::BadPath(format!("link {:?} is down", lid)));
                }
                // both directions' propagation
                rtt += 2.0 * link.delay_ms;
                // queueing per direction: M/M/1-style growth u/(1-u),
                // normalized so u=0.5 costs `QUEUE_MS_AT_HALF_UTIL`.
                for dir in [Direction::Forward, Direction::Reverse] {
                    let u = utils.util(lid, dir).min(0.99);
                    rtt += QUEUE_MS_AT_HALF_UTIL * (u / (1.0 - u));
                }
            }
        }
        // measurement jitter: +/- 3%
        let jitter: f64 = self.rng.gen_range(-0.03..0.03);
        Ok(rtt * (1.0 + jitter))
    }

    /// Available bandwidth estimate for a path: bottleneck residual
    /// capacity given current flow rates (what the telemetry service
    /// feeds Hecate).
    pub fn path_available_mbps(&self, path: &[NodeIdx]) -> Result<f64, NetsimError> {
        let utils = self.link_utilization();
        let mut avail = f64::INFINITY;
        for hop in path.windows(2) {
            let (lid, dir) = directed_hop(&self.topo, hop[0], hop[1])?;
            let cap = self.topo.link(lid).capacity_mbps;
            let u = utils.util(lid, dir);
            avail = avail.min(cap * (1.0 - u));
        }
        Ok(avail)
    }
}

#[cfg(test)]
mod replay_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::global_p4_lab;

    fn tunnel1(t: &Topology) -> Arc<[NodeIdx]> {
        t.path_by_names(&["host1", "MIA", "SAO", "AMS", "host2"])
            .unwrap()
            .into()
    }
    fn tunnel2(t: &Topology) -> Arc<[NodeIdx]> {
        t.path_by_names(&["host1", "MIA", "CHI", "AMS", "host2"])
            .unwrap()
            .into()
    }

    fn greedy_spec(t: &Topology, label: &str, tos: u8) -> FlowSpec {
        FlowSpec {
            src: t.node("host1").unwrap(),
            dst: t.node("host2").unwrap(),
            demand_mbps: None,
            tos,
            label: label.to_string(),
        }
    }

    #[test]
    fn single_flow_ramps_to_bottleneck() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(20_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        // 20 Mbps bottleneck * 0.86 efficiency
        assert!((r - 20.0 * 0.86).abs() < 0.2, "rate {r}");
    }

    #[test]
    fn rate_ramps_gradually_not_instantly() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(500, 100);
        let early = sim.flow_rate(FlowId(1)).unwrap();
        sim.run_until(10_000, 1000);
        let late = sim.flow_rate(FlowId(1)).unwrap();
        assert!(
            early < late * 0.5,
            "early {early} should be well below {late}"
        );
    }

    #[test]
    fn migration_changes_rate_cap() {
        // Start on tunnel 2 (10 Mbps), migrate to tunnel 1 (20 Mbps).
        let topo = global_p4_lab();
        let p2 = tunnel2(&topo);
        let p1 = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path: p2,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.schedule(30_000, Event::SetFlowPath(FlowId(1), p1))
            .unwrap();
        sim.run_until(29_000, 1000);
        let before = sim.flow_rate(FlowId(1)).unwrap();
        sim.run_until(60_000, 1000);
        let after = sim.flow_rate(FlowId(1)).unwrap();
        assert!((before - 10.0 * 0.86).abs() < 0.2, "before {before}");
        assert!((after - 20.0 * 0.86).abs() < 0.2, "after {after}");
    }

    #[test]
    fn stop_flow_releases_capacity() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mut sim = Simulation::new(topo, 1);
        let s1 = greedy_spec(&sim.topo, "f1", 0);
        let s2 = greedy_spec(&sim.topo, "f2", 4);
        sim.schedule(
            0,
            Event::StartFlow {
                spec: s1,
                path: path.clone(),
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.schedule(
            0,
            Event::StartFlow {
                spec: s2,
                path,
                id: FlowId(2),
            },
        )
        .unwrap();
        sim.run_until(20_000, 1000);
        let shared = sim.flow_rate(FlowId(1)).unwrap();
        assert!((shared - 10.0 * 0.86).abs() < 0.3, "shared {shared}");
        sim.schedule(20_000, Event::StopFlow(FlowId(2))).unwrap();
        sim.run_until(45_000, 1000);
        let alone = sim.flow_rate(FlowId(1)).unwrap();
        assert!((alone - 20.0 * 0.86).abs() < 0.3, "alone {alone}");
    }

    #[test]
    fn ping_reflects_path_delay_and_load() {
        let topo = global_p4_lab();
        let p1 = topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let p2 = topo.path_by_names(&["MIA", "CHI", "AMS"]).unwrap();
        let mut sim = Simulation::new(topo, 7);
        let rtt1 = sim.ping(&p1).unwrap();
        let rtt2 = sim.ping(&p2).unwrap();
        // idle RTTs ~ 2*(20+9)=58 and 2*(3+5)=16, +-3% jitter
        assert!((rtt1 - 58.0).abs() < 3.0, "rtt1 {rtt1}");
        assert!((rtt2 - 16.0).abs() < 1.0, "rtt2 {rtt2}");
    }

    #[test]
    fn ping_grows_under_load() {
        let topo = global_p4_lab();
        let probe_path = topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let flow_path = tunnel1(&topo);
        let mut sim = Simulation::new(topo, 7);
        let idle: f64 = (0..20).map(|_| sim.ping(&probe_path).unwrap()).sum::<f64>() / 20.0;
        let spec = greedy_spec(&sim.topo, "f1", 0);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path: flow_path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(20_000, 1000);
        let loaded: f64 = (0..20).map(|_| sim.ping(&probe_path).unwrap()).sum::<f64>() / 20.0;
        assert!(loaded > idle + 2.0, "idle {idle} vs loaded {loaded}");
    }

    #[test]
    fn link_failure_stalls_flow_and_fails_ping() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mia = topo.node("MIA").unwrap();
        let sao = topo.node("SAO").unwrap();
        let lid = topo.link_between(mia, sao).unwrap();
        let mut sim = Simulation::new(topo, 1);
        let spec = greedy_spec(&sim.topo, "f1", 0);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path: path.clone(),
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(10_000, 1000);
        sim.schedule(10_000, Event::SetLinkUp(lid, false)).unwrap();
        sim.run_until(30_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert!(r < 0.1, "flow should stall, rate {r}");
        assert!(sim.ping(&path).is_err());
    }

    #[test]
    fn link_failure_stalls_demand_declared_flow_too() {
        // Regression: a failed link used to stall only greedy flows —
        // a demand-declared flow's dead path degenerated to an empty
        // link list, which the allocator reads as a zero-hop path that
        // delivers its demand.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mia = topo.node("MIA").unwrap();
        let sao = topo.node("SAO").unwrap();
        let lid = topo.link_between(mia, sao).unwrap();
        let mut sim = Simulation::new(topo, 1);
        let spec = FlowSpec {
            demand_mbps: Some(5.0),
            ..greedy_spec(&sim.topo, "f1", 0)
        };
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(10_000, 1000);
        assert!(sim.flow_rate(FlowId(1)).unwrap() > 3.0);
        sim.schedule(10_000, Event::SetLinkUp(lid, false)).unwrap();
        sim.run_until(30_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert!(r < 0.1, "demand flow must stall on failure, rate {r}");
        // Restoration recovers the demand.
        sim.schedule(30_000, Event::SetLinkUp(lid, true)).unwrap();
        sim.run_until(50_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert!((r - 5.0 * 0.86).abs() < 0.3, "recovered rate {r}");
    }

    #[test]
    fn telemetry_sampling_cadence() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mut sim = Simulation::new(topo, 1);
        let spec = greedy_spec(&sim.topo, "f1", 0);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        // the ramp is visible at every sample point
        let mut rates = Vec::new();
        for t in (1_000..=10_000).step_by(1000) {
            sim.run_until(t, 1000);
            rates.push(sim.flow_rate(FlowId(1)).unwrap());
        }
        assert!(rates.windows(2).all(|w| w[0] < w[1]), "{rates:?}");
    }

    #[test]
    fn available_bandwidth_shrinks_under_load() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let inner = topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let mut sim = Simulation::new(topo, 1);
        let before = sim.path_available_mbps(&inner).unwrap();
        let spec = greedy_spec(&sim.topo, "f1", 0);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(20_000, 1000);
        let after = sim.path_available_mbps(&inner).unwrap();
        assert_eq!(before, 20.0);
        assert!(after < 5.0, "loaded available {after}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let topo = global_p4_lab();
            let path = tunnel1(&topo);
            let mut sim = Simulation::new(topo, seed);
            let spec = greedy_spec(&sim.topo, "f1", 0);
            sim.schedule(
                0,
                Event::StartFlow {
                    spec,
                    path,
                    id: FlowId(1),
                },
            )
            .unwrap();
            sim.run_until(5_000, 1000);
            let p = sim.topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
            (sim.flow_rate(FlowId(1)).unwrap(), sim.ping(&p).unwrap())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1); // jitter differs across seeds
    }

    #[test]
    fn unknown_flow_is_error() {
        let sim = Simulation::new(global_p4_lab(), 1);
        assert!(sim.flow_rate(FlowId(99)).is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_queued_event_is_56_bytes() {
        // A pre-loaded elastic schedule is ~500k of these: the path is
        // one shared pointer, not a `Vec` per event, and the queue
        // holds the 40-byte form, not the 80-byte `Event`.
        assert_eq!(std::mem::size_of::<Event>(), 80);
        assert_eq!(std::mem::size_of::<Queued>(), 40);
        assert_eq!(EventQueue::ENTRY_BYTES, 56);
        assert_eq!(EventQueue::SLOT_BYTES, 64);
    }

    /// The bits of every rate an event carries: `PartialEq` reads
    /// `-0.0` and `0.0` as equal, the queue must not.
    fn rate_bits(event: &Event) -> Option<Option<u64>> {
        match event {
            Event::StartFlow { spec, .. } => Some(spec.demand_mbps.map(f64::to_bits)),
            Event::SetFlowDemand(_, demand) => Some(demand.map(f64::to_bits)),
            Event::SetLinkCapacity(_, cap) => Some(Some(cap.to_bits())),
            Event::StopFlow(_) | Event::SetFlowPath(..) | Event::SetLinkUp(..) => None,
        }
    }

    #[test]
    fn every_event_round_trips_through_the_queued_form() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let start = |id: u64, demand_mbps: Option<f64>, label: &str| Event::StartFlow {
            spec: FlowSpec {
                demand_mbps,
                ..greedy_spec(&topo, label, 46)
            },
            path: path.clone(),
            id: FlowId(id),
        };
        // A spec whose endpoints are not its path's ends keeps them.
        let inner = |id: u64, src: &str, dst: &str| Event::StartFlow {
            spec: FlowSpec {
                src: topo.node(src).unwrap(),
                dst: topo.node(dst).unwrap(),
                ..greedy_spec(&topo, "", 0)
            },
            path: path.clone(),
            id: FlowId(id),
        };
        let events = [
            start(1, None, ""),
            start(2, Some(-0.0), ""),
            start(3, Some(12.5), ""),
            start(4, Some(-0.0), "managed"),
            start(5, None, "managed"),
            inner(9, "MIA", "host2"),
            inner(10, "host1", "AMS"),
            Event::StopFlow(FlowId(6)),
            Event::SetFlowPath(FlowId(7), path.clone()),
            Event::SetLinkCapacity(LinkId(3), 0.1),
            Event::SetLinkCapacity(LinkId(3), -0.0),
            Event::SetLinkUp(LinkId(2), false),
            Event::SetLinkUp(LinkId(2), true),
            Event::SetFlowDemand(FlowId(8), None),
            Event::SetFlowDemand(FlowId(8), Some(-0.0)),
            Event::SetFlowDemand(FlowId(8), Some(2.75)),
        ];
        for event in events {
            let queued = Queued::from(event.clone());
            if let Event::StartFlow { spec, path, .. } = &event {
                let plain = spec.label.is_empty()
                    && (spec.src, spec.dst) == (path[0], path[path.len() - 1]);
                let boxed = matches!(queued, Queued::Boxed { .. });
                assert_eq!(boxed, !plain, "{event:?}");
            }
            let back = Event::from(queued);
            assert_eq!(back, event);
            assert_eq!(rate_bits(&back), rate_bits(&event), "{event:?}");
            match (&back, &event) {
                (Event::StartFlow { path: a, .. }, Event::StartFlow { path: b, .. })
                | (Event::SetFlowPath(_, a), Event::SetFlowPath(_, b)) => {
                    assert!(Arc::ptr_eq(a, b), "{event:?} copied its path");
                }
                _ => {}
            }
        }
    }

    /// Two hosts joined by one 100 Mbps link (`LinkId(0)`).
    fn one_link() -> (Simulation, Arc<[NodeIdx]>) {
        let mut topo = Topology::new();
        let a = topo.add_node("a", crate::topo::NodeKind::Host);
        let b = topo.add_node("b", crate::topo::NodeKind::Host);
        topo.add_link(a, b, 100.0, 1.0);
        (Simulation::new(topo, 1), [a, b].into())
    }

    fn start_on(path: &Arc<[NodeIdx]>, demand_mbps: Option<f64>) -> Event {
        Event::StartFlow {
            spec: FlowSpec {
                src: path[0],
                dst: path[1],
                demand_mbps,
                tos: 0,
                label: String::new(),
            },
            path: path.clone(),
            id: FlowId(1),
        }
    }

    #[test]
    fn events_on_an_unknown_link_are_rejected_at_schedule_time() {
        // Accepted, these used to panic in `run_until` (index out of
        // bounds in `Topology::link`).
        let (mut sim, _) = one_link();
        let err = sim.schedule(0, Event::SetLinkCapacity(LinkId(7), 10.0));
        assert_eq!(err, Err(NetsimError::UnknownLink(7)));
        let err = sim.schedule(0, Event::SetLinkUp(LinkId(1), false));
        assert_eq!(err, Err(NetsimError::UnknownLink(1)));
        assert!(sim
            .schedule_capacity_trace(LinkId(1), 0, 10, &[5.0])
            .is_err());
        sim.run_until(100, 10);
        assert_eq!(sim.events_processed(), 0);
        sim.schedule(0, Event::SetLinkUp(LinkId(0), false)).unwrap();
    }

    #[test]
    fn capacities_that_are_not_rates_are_rejected_at_schedule_time() {
        // Accepted, a NaN capacity left a greedy flow on the 100 Mbps
        // link reading a fraction of a megabit.
        let (mut sim, _) = one_link();
        for cap in [f64::NAN, f64::INFINITY, -1.0] {
            let err = sim.schedule(0, Event::SetLinkCapacity(LinkId(0), cap));
            assert!(
                matches!(err, Err(NetsimError::BadCapacity(0, c)) if c.to_bits() == cap.to_bits()),
                "{cap}: {err:?}"
            );
        }
        assert!(sim
            .schedule_capacity_trace(LinkId(0), 0, 10, &[f64::INFINITY])
            .is_err());
        // Zero (a dead link's capacity) stays legal, and so does -0.0.
        sim.schedule(0, Event::SetLinkCapacity(LinkId(0), 0.0))
            .unwrap();
        sim.schedule(0, Event::SetLinkCapacity(LinkId(0), -0.0))
            .unwrap();
        assert_eq!(sim.queue_peak_events(), 2);
    }

    #[test]
    fn demands_that_are_not_rates_are_rejected_at_schedule_time() {
        // Accepted, a `Some(NaN)` demand read as tens of megabits.
        let (mut sim, path) = one_link();
        for demand in [f64::NAN, f64::NEG_INFINITY, -0.5] {
            let err = sim.schedule(0, start_on(&path, Some(demand)));
            assert!(
                matches!(err, Err(NetsimError::BadDemand(1, d)) if d.to_bits() == demand.to_bits()),
                "{demand}: {err:?}"
            );
            let err = sim.schedule(0, Event::SetFlowDemand(FlowId(2), Some(demand)));
            assert!(
                matches!(err, Err(NetsimError::BadDemand(2, _))),
                "{demand}: {err:?}"
            );
        }
        // Zero demand and greedy flows stay legal.
        sim.schedule(0, start_on(&path, Some(0.0))).unwrap();
        sim.schedule(10, Event::SetFlowDemand(FlowId(1), None))
            .unwrap();
        sim.run_until(20_000, 1_000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert!((r - 100.0 * 0.86).abs() < 0.2, "greedy rate {r}");
    }

    #[test]
    fn the_queue_peak_counts_events_held_at_once() {
        let (mut sim, path) = one_link();
        for at in [0, 5_000, 9_000] {
            sim.schedule(at, Event::SetLinkUp(LinkId(0), true)).unwrap();
        }
        sim.run_until(6_000, 1_000);
        sim.schedule(7_000, start_on(&path, None)).unwrap();
        assert_eq!(sim.queue_peak_events(), 3);
        sim.schedule(8_000, Event::StopFlow(FlowId(1))).unwrap();
        sim.schedule(8_000, Event::StopFlow(FlowId(1))).unwrap();
        assert_eq!(sim.queue_peak_events(), 4);
        sim.run_until(10_000, 1_000);
        assert_eq!((sim.events_processed(), sim.queue_peak_events()), (6, 4));
    }

    #[test]
    fn impossible_paths_are_rejected_at_schedule_time() {
        let topo = global_p4_lab();
        let mia = topo.node("MIA").unwrap();
        let ams = topo.node("AMS").unwrap(); // not adjacent to MIA
        let sao = topo.node("SAO").unwrap();
        let mut sim = Simulation::new(topo, 1);
        let spec = greedy_spec(&sim.topo, "f1", 0);
        // Non-adjacent hop pair.
        assert!(sim
            .schedule(
                0,
                Event::StartFlow {
                    spec: spec.clone(),
                    path: [mia, ams].into(),
                    id: FlowId(1),
                },
            )
            .is_err());
        // Reroute onto a non-adjacent pair.
        assert!(sim
            .schedule(0, Event::SetFlowPath(FlowId(1), [mia, ams].into()))
            .is_err());
        // Degenerate single-node path.
        assert!(sim
            .schedule(0, Event::SetFlowPath(FlowId(1), [mia].into()))
            .is_err());
        // A path over a failed link is rejected too.
        let lid = sim.topo.link_between(mia, sao).unwrap();
        sim.topo.link_mut(lid).up = false;
        assert!(sim
            .schedule(
                0,
                Event::StartFlow {
                    spec,
                    path: [mia, sao].into(),
                    id: FlowId(1),
                },
            )
            .is_err());
        // Non-path events are untouched by validation.
        sim.schedule(0, Event::SetLinkUp(lid, true)).unwrap();
    }

    #[test]
    fn capacity_trace_modulates_flow_rate() {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mia = topo.node("MIA").unwrap();
        let sao = topo.node("SAO").unwrap();
        let lid = topo.link_between(mia, sao).unwrap();
        let mut sim = Simulation::new(topo, 1);
        // capacity drops to 4 Mbps between t=10s and t=20s, then recovers
        let trace = [20.0, 4.0, 20.0];
        sim.schedule_capacity_trace(lid, 0, 10_000, &trace).unwrap();
        let spec = greedy_spec(&sim.topo, "f1", 0);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(9_000, 1000);
        let high = sim.flow_rate(FlowId(1)).unwrap();
        sim.run_until(19_000, 1000);
        let low = sim.flow_rate(FlowId(1)).unwrap();
        sim.run_until(35_000, 1000);
        let recovered = sim.flow_rate(FlowId(1)).unwrap();
        assert!(high > 15.0, "high {high}");
        assert!(low < 5.0, "low {low}");
        assert!(recovered > 15.0, "recovered {recovered}");
    }

    #[test]
    fn events_fire_at_exact_timestamps() {
        // Regression for the tick-era skew: an event due strictly
        // between 100 ms tick boundaries was applied up to one tick
        // late. The event core must anchor the flow's trajectory at
        // exactly t = 12_345 ms.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            12_345,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(20_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        let expected = 17.2 * (1.0 - (-((20_000.0_f64 - 12_345.0) / 1000.0) / 1.2).exp());
        assert!((r - expected).abs() < 1e-9, "r {r} expected {expected}");
    }

    #[test]
    fn event_at_the_horizon_stays_queued() {
        // `run_until(t)` applies events strictly before `t`: one due at
        // exactly `t` waits for the next call.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        let start = Event::StartFlow {
            spec,
            path,
            id: FlowId(1),
        };
        sim.schedule(1_000, start).unwrap();
        sim.run_until(1_000, 100);
        assert_eq!((sim.now_ms(), sim.events_processed()), (1_000, 0));
        assert!(sim.flow_rate(FlowId(1)).is_err());
        sim.run_until(1_001, 100);
        assert_eq!(sim.events_processed(), 1);
        assert!(sim.flow_rate(FlowId(1)).is_ok());
    }

    #[test]
    fn past_dated_event_clamps_to_now() {
        // Scheduling into the past (here: behind the queue's loaded
        // window too) fires at the current instant, in the next batch.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.run_until(5_000, 1000);
        let start = Event::StartFlow {
            spec,
            path,
            id: FlowId(1),
        };
        sim.schedule(1_000, start).unwrap();
        sim.run_until(5_001, 1000);
        assert_eq!(sim.events_processed(), 1);
        sim.run_until(6_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        let expected = 17.2 * (1.0 - (-1.0_f64 / 1.2).exp());
        assert!((r - expected).abs() < 1e-9, "r {r} expected {expected}");
    }

    #[test]
    fn link_failure_fires_at_exact_timestamp() {
        // SetLinkUp at t = 13_371 ms (off any tick grid): the flow's
        // decay toward 0 must start exactly there.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let mia = topo.node("MIA").unwrap();
        let sao = topo.node("SAO").unwrap();
        let lid = topo.link_between(mia, sao).unwrap();
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.schedule(13_371, Event::SetLinkUp(lid, false)).unwrap();
        sim.run_until(15_000, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        let tau_ms = 1.2 * 1000.0;
        let at_down = 17.2 * (1.0 - (-13_371.0_f64 / tau_ms).exp());
        let expected = at_down * (-(15_000.0_f64 - 13_371.0) / tau_ms).exp();
        assert!((r - expected).abs() < 1e-9, "r {r} expected {expected}");
    }

    #[test]
    fn stop_flow_swap_remove_keeps_replay_deterministic() {
        // The flow table swap-removes on StopFlow; the resulting order
        // must be a pure function of the event sequence. Pin both the
        // exact order and bitwise replay equality across two identical
        // runs.
        let run = || {
            let topo = global_p4_lab();
            let path = tunnel1(&topo);
            let mut sim = Simulation::new(topo, 9);
            for i in 1..=8u64 {
                let spec = greedy_spec(&sim.topo, &format!("f{i}"), 0);
                sim.schedule(
                    0,
                    Event::StartFlow {
                        spec,
                        path: path.clone(),
                        id: FlowId(i),
                    },
                )
                .unwrap();
            }
            for (t, id) in [(1_000, 3u64), (2_000, 5), (3_000, 2)] {
                sim.schedule(t, Event::StopFlow(FlowId(id))).unwrap();
            }
            sim.run_until(5_000, 1000);
            sim.flows
                .iter()
                .map(|f| (f.flow.id.0, sim.rate(&f.flow).to_bits()))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "bitwise replay");
        let order: Vec<u64> = a.iter().map(|&(id, _)| id).collect();
        // [1..8], swap-remove 3 -> [1,2,8,4,5,6,7], 5 -> [1,2,8,4,7,6],
        // 2 -> [1,6,8,4,7]
        assert_eq!(order, vec![1, 6, 8, 4, 7]);
    }

    #[test]
    fn quiescent_network_processes_no_events() {
        // The point of the event core: idle spans cost nothing but the
        // sample points, regardless of horizon.
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        sim.schedule(
            0,
            Event::StartFlow {
                spec,
                path,
                id: FlowId(1),
            },
        )
        .unwrap();
        sim.run_until(3_600_000, 1_000_000);
        // one StartFlow, nothing else in an hour
        assert_eq!(sim.events_processed(), 1);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert_eq!(r, 17.2, "converged rate snaps exactly to the share");
    }

    /// Greedy `f1` alone on tunnel 1 from 0 ms: its share is 17.2 Mbps
    /// and its exponential flattens at 28 282 ms.
    fn lone_flow() -> Simulation {
        let topo = global_p4_lab();
        let path = tunnel1(&topo);
        let spec = greedy_spec(&topo, "f1", 0);
        let mut sim = Simulation::new(topo, 1);
        let start = Event::StartFlow {
            spec,
            path,
            id: FlowId(1),
        };
        sim.schedule(0, start).unwrap();
        sim
    }

    #[test]
    fn restarted_flow_ignores_its_predecessors_convergence() {
        // Regression: the restart replaced the flow in place, but the
        // first flow's convergence (due at 28 282 ms) used to snap the
        // second one to its share a full second early.
        let mut sim = lone_flow();
        let restart = Event::StartFlow {
            spec: greedy_spec(&sim.topo, "f1", 0),
            path: tunnel1(&sim.topo),
            id: FlowId(1),
        };
        sim.schedule(1_000, restart).unwrap();
        sim.run_until(28_500, 1000);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert_ne!(r.to_bits(), 17.2f64.to_bits(), "r {r}");
        let expected = 17.2 * (1.0 - (-27.5_f64 / 1.2).exp());
        assert!((r - expected).abs() < 1e-12, "r {r} expected {expected}");
        sim.run_until(29_283, 1000);
        assert_eq!(sim.flow_rate(FlowId(1)).unwrap(), 17.2);
    }

    #[test]
    fn convergence_at_the_horizon_waits_for_the_next_call() {
        // Convergence due exactly at `until` is not drained on return:
        // reads between calls see the exponential, and the next call's
        // first instant (a sample point here) sees the share; the probe
        // then folds the converged rate, not the memo the probe between
        // the calls left behind.
        let mut sim = lone_flow();
        sim.run_until(28_282, 14_141);
        let r = sim.flow_rate(FlowId(1)).unwrap();
        assert!(r < 17.2 && 17.2 - r < 1e-9, "r {r}");
        let inner = sim.topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let between = sim.path_available_mbps(&inner).unwrap();
        sim.run_until(28_283, 14_141);
        assert_eq!(sim.flow_rate(FlowId(1)).unwrap(), 17.2);
        let converged = 20.0 * (1.0 - 17.2 / 20.0);
        assert_eq!(sim.path_available_mbps(&inner).unwrap(), converged);
        assert!(between > converged, "between {between}");
    }

    #[test]
    fn zero_sample_interval_steps_like_one_ms() {
        // 0 is clamped, not refused: the loop visits every millisecond.
        let run = |sample_ms: u64| {
            let mut sim = lone_flow();
            let (mia, sao) = (sim.topo.node("MIA").unwrap(), sim.topo.node("SAO").unwrap());
            let lid = sim.topo.link_between(mia, sao).unwrap();
            sim.schedule(1_234, Event::SetLinkCapacity(lid, 4.0))
                .unwrap();
            sim.run_until(3_000, sample_ms);
            let inner = sim.topo.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
            (
                sim.now_ms(),
                sim.events_processed(),
                sim.flow_rate(FlowId(1)).unwrap().to_bits(),
                sim.path_available_mbps(&inner).unwrap().to_bits(),
            )
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn convergence_inside_the_horizon_reads_the_share_on_return() {
        // No event or sample point lands on 28 282 ms, so the loop never
        // stops there; the rate is the share once the call returns.
        let mut sim = lone_flow();
        sim.run_until(28_283, 1_000_000);
        assert_eq!(sim.flow_rate(FlowId(1)).unwrap(), 17.2);
    }
}
