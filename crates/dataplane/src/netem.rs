//! The deterministic packet-level emulator: periodic traffic sources,
//! per-directed-link drop-tail queues with transmission + propagation
//! delay, and egress proof-of-transit verification.
//!
//! Unlike the fluid model in [`netsim::Simulation`] (rates converging to
//! max-min fair shares), every packet here is individually stamped at
//! the ingress edge, individually forwarded at every core node (one
//! GF(2) remainder for PolKA), individually serialized onto links, and
//! individually dropped when a queue is full — so link counters and
//! flow goodput are *measured from forwarded packets*, not computed
//! from an allocation model. The whole machine is integer-nanosecond
//! and RNG-free: identical inputs produce identical counters.
//!
//! The event core is a k-way merge. A directed link is a FIFO — its
//! `busy_until_ns` never decreases and its propagation delay is
//! constant, so packets leave it in the order they entered — hence
//! packets in flight wait in one `VecDeque` per directed link, and the
//! queue of heads holds only each non-empty link's front packet plus
//! each source's next emission, keyed `(t_ns, seq)` with `seq` drawn
//! from one global counter. That is the order a single heap of every
//! packet would pop. The heads sit in a calendar of time buckets
//! (`crate::calendar`), which pops that order without a heap's sifts.

use crate::calendar::Calendar;
use crate::label::{PacketState, SourceRoute};
use crate::plane::{DropReason, ForwardingPlane, HopOutcome};
use crate::{DataplaneError, FlowRoute};
use netsim::{LinkId, NodeIdx, Topology};
use polka::NodeIdAllocator;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default drop-tail queue depth per directed link (bytes): ~25 ms at
/// 20 Mbps, the classic "small buffer" regime.
pub const DEFAULT_QUEUE_BYTES: u64 = 64 * 1024;

/// A periodic traffic source.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Flow name (telemetry key).
    pub name: String,
    /// The stamped route.
    pub route: FlowRoute,
    /// Payload bytes per packet (the shim header is added on top, per
    /// hop — the segment list shrinks, the PolKA label does not).
    pub payload_bytes: u32,
    /// Offered load in Mbps (payload basis).
    pub rate_mbps: f64,
}

/// Refuses a source the emulator cannot run: one without payload, or
/// one offered a rate that is NaN, negative or infinite. An infinite
/// rate or an empty packet would emit every nanosecond, and NaN or a
/// negative rate would silently emit at the floor. A zero rate is a
/// source that emits at the 1e-6 Mbps floor. `source` names it in the
/// error.
pub fn check_source(
    source: &str,
    payload_bytes: u32,
    rate_mbps: f64,
) -> Result<(), DataplaneError> {
    if payload_bytes == 0 {
        return Err(DataplaneError::Traffic(format!(
            "{source}: a packet needs a payload"
        )));
    }
    if !(0.0..f64::INFINITY).contains(&rate_mbps) {
        return Err(DataplaneError::Traffic(format!(
            "{source}: rate {rate_mbps} Mbps is not finite and non-negative"
        )));
    }
    Ok(())
}

/// Cumulative per-flow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowReport {
    /// Packets emitted by the source.
    pub emitted: u64,
    /// Packets delivered at egress with a verified PoT.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Delivered but rejected by the egress PoT check.
    pub pot_rejected: u64,
    /// Dropped: label undecodable.
    pub dropped_no_route: u64,
    /// Dropped: failed link on the path.
    pub dropped_link_down: u64,
    /// Dropped: TTL expired.
    pub dropped_ttl: u64,
    /// Dropped: a drop-tail queue was full.
    pub dropped_queue: u64,
    /// Sum of delivered packets' one-way latencies (ns).
    pub latency_sum_ns: u64,
}

impl FlowReport {
    /// Delivered payload goodput over a window (Mbps).
    pub fn goodput_mbps(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        // bytes * 8 bits over ns == bits/ns; * 1000 -> bits/us == Mbps.
        self.delivered_bytes as f64 * 8.0 * 1000.0 / window_ns as f64
    }

    fn sub(&self, earlier: &FlowReport) -> FlowReport {
        FlowReport {
            emitted: self.emitted - earlier.emitted,
            delivered: self.delivered - earlier.delivered,
            delivered_bytes: self.delivered_bytes - earlier.delivered_bytes,
            pot_rejected: self.pot_rejected - earlier.pot_rejected,
            dropped_no_route: self.dropped_no_route - earlier.dropped_no_route,
            dropped_link_down: self.dropped_link_down - earlier.dropped_link_down,
            dropped_ttl: self.dropped_ttl - earlier.dropped_ttl,
            dropped_queue: self.dropped_queue - earlier.dropped_queue,
            latency_sum_ns: self.latency_sum_ns - earlier.latency_sum_ns,
        }
    }
}

/// Cumulative per-directed-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Packets serialized onto the link.
    pub tx_pkts: u64,
    /// Bytes serialized onto the link (payload + shim header).
    pub tx_bytes: u64,
    /// Packets dropped at this link's queue (full or link down).
    pub drops: u64,
}

impl LinkReport {
    fn sub(&self, earlier: &LinkReport) -> LinkReport {
        LinkReport {
            tx_pkts: self.tx_pkts - earlier.tx_pkts,
            tx_bytes: self.tx_bytes - earlier.tx_bytes,
            drops: self.drops - earlier.drops,
        }
    }
}

/// One directed link's counters over a window, with its measured load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    /// Underlying (undirected) link.
    pub link: LinkId,
    /// Transmitting endpoint.
    pub from: NodeIdx,
    /// Receiving endpoint.
    pub to: NodeIdx,
    /// Counters accumulated in the window.
    pub report: LinkReport,
    /// Measured load in Mbps over the window.
    pub used_mbps: f64,
    /// Configured link rate in Mbps.
    pub rate_mbps: f64,
    /// Whether the link was up at window close.
    pub up: bool,
}

/// One flow's counters over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowWindow {
    /// Flow name.
    pub name: String,
    /// Counters accumulated in the window.
    pub report: FlowReport,
    /// Delivered payload goodput over the window (Mbps).
    pub goodput_mbps: f64,
}

/// Everything a telemetry collector needs from one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window length (ns).
    pub elapsed_ns: u64,
    /// Per-directed-link counters.
    pub links: Vec<LinkWindow>,
    /// Per-flow counters.
    pub flows: Vec<FlowWindow>,
}

/// A packet between two nodes. It carries the route it was *stamped*
/// with — an ingress rewrite never retroactively changes packets
/// already in flight.
#[derive(Debug)]
struct Packet {
    flow: usize,
    state: PacketState,
    emitted_ns: u64,
    route: Arc<FlowRoute>,
}

/// One directed link: a drop-tail queue feeding a constant-rate
/// transmitter with propagation delay.
#[derive(Debug)]
struct DirLink {
    from: NodeIdx,
    to: NodeIdx,
    link: LinkId,
    rate_kbps: u64,
    delay_ns: u64,
    queue_cap_bytes: u64,
    busy_until_ns: u64,
    report: LinkReport,
    /// Packets serialized and not yet arrived, each with the `(t_ns,
    /// seq)` it is due at the far end — ascending front to back.
    in_flight: VecDeque<(u64, u64, Packet)>,
}

impl DirLink {
    /// Serialization time of `bytes` at this link's rate.
    fn tx_ns(&self, bytes: u64) -> u64 {
        // bytes * 8 bits / (kbps) = ms-scale; *1e6 keeps ns integers.
        bytes * 8_000_000 / self.rate_kbps.max(1)
    }

    /// Enqueues a packet at time `t`; returns the arrival time at the
    /// far end, or `None` when the drop-tail queue is full.
    fn enqueue(&mut self, t_ns: u64, bytes: u64) -> Option<u64> {
        let backlog_ns = self.busy_until_ns.saturating_sub(t_ns);
        let backlog_bytes = backlog_ns * self.rate_kbps / 8_000_000;
        if backlog_bytes + bytes > self.queue_cap_bytes {
            self.report.drops += 1;
            return None;
        }
        let start = self.busy_until_ns.max(t_ns);
        self.busy_until_ns = start + self.tx_ns(bytes);
        self.report.tx_pkts += 1;
        self.report.tx_bytes += bytes;
        Some(self.busy_until_ns + self.delay_ns)
    }
}

/// Both directions of every link, link `l` at `2·l` (a→b) and `2·l + 1`
/// (b→a).
fn directed_links(topo: &Topology) -> Result<Vec<DirLink>, DataplaneError> {
    let mut dirs = Vec::with_capacity(topo.link_count() * 2);
    for (i, link) in topo.links().iter().enumerate() {
        // A link's two directions are told apart by their transmitting
        // end ([`PacketNet::dir`]).
        if link.a == link.b {
            return Err(DataplaneError::Topology(format!(
                "link {i} loops on {}",
                topo.node_name(link.a)
            )));
        }
        for (from, to) in [(link.a, link.b), (link.b, link.a)] {
            dirs.push(DirLink {
                from,
                to,
                link: LinkId(i as u32),
                rate_kbps: (link.capacity_mbps * 1000.0).round().max(1.0) as u64,
                delay_ns: (link.delay_ms * 1e6).round() as u64,
                queue_cap_bytes: DEFAULT_QUEUE_BYTES,
                busy_until_ns: 0,
                report: LinkReport::default(),
                in_flight: VecDeque::new(),
            });
        }
    }
    Ok(dirs)
}

/// Where a head comes from. Heads are keyed `(t_ns, seq)`, and `seq`
/// is unique, so the source never decides an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// A flow's next emission.
    Flow(u32),
    /// The front packet of a directed link's FIFO.
    Link(u32),
}

#[derive(Debug)]
struct FlowState {
    name: String,
    payload_bytes: u32,
    /// The route currently stamped at the ingress; packets snapshot it
    /// at emission time.
    route: Arc<FlowRoute>,
    interval_ns: u64,
    report: FlowReport,
    prev: FlowReport,
    ingress_dir: usize,
}

impl FlowState {
    fn new(spec: TrafficSpec, ingress_dir: usize) -> Self {
        let bits = spec.payload_bytes as f64 * 8.0;
        FlowState {
            name: spec.name,
            payload_bytes: spec.payload_bytes,
            route: Arc::new(spec.route),
            interval_ns: ((bits * 1000.0 / spec.rate_mbps.max(1e-6)).round() as u64).max(1),
            report: FlowReport::default(),
            prev: FlowReport::default(),
            ingress_dir,
        }
    }

    /// First emission of the `idx`-th registered source: a per-flow
    /// phase offset so sources do not burst in lockstep.
    fn first_emit_ns(&self, now_ns: u64, idx: usize) -> u64 {
        now_ns + (idx as u64 * 9973) % self.interval_ns + 1
    }
}

/// The packet network: a [`ForwardingPlane`] plus queued links, traffic
/// sources and counters.
#[derive(Debug)]
pub struct PacketNet {
    plane: ForwardingPlane,
    /// Link `l`'s two directions sit at `2·l` (a→b) and `2·l + 1`
    /// (b→a); see [`PacketNet::dir`].
    dirs: Vec<DirLink>,
    flows: Vec<FlowState>,
    by_name: HashMap<String, usize>,
    /// One entry per flow (its next emission) and one per directed link
    /// with packets in flight (its front packet).
    heads: Calendar<Source>,
    now_ns: u64,
    /// Event sequence counter, shared by emissions and packets.
    seq: u64,
    window_open_ns: u64,
    prev_links: Vec<LinkReport>,
    /// Ingress routeID rewrites performed via [`PacketNet::set_route`].
    pub ingress_rewrites: u64,
    /// Sim-time tracer for the packet plane (off by default). Drops
    /// and PoT rejections are instants; queue occupancy is sampled at
    /// window close. Stamps are the emulator's own `now_ns` clock.
    tracer: obsv::Tracer,
    /// Live total-drop counter (always on — one atomic add per drop).
    /// Adoptable into a metrics registry via
    /// [`PacketNet::register_metrics`], where per-epoch deltas feed
    /// SLO blame attribution.
    drops: obsv::Counter,
    /// Live PoT-rejection counter, same lifecycle as `drops`.
    pot_rejects: obsv::Counter,
}

impl PacketNet {
    /// Builds the packet network over a topology. `alloc` must be the
    /// same allocator the controller compiles routeIDs with.
    pub fn new(topo: &Topology, alloc: &mut NodeIdAllocator) -> Result<Self, DataplaneError> {
        let plane = ForwardingPlane::new(topo, alloc)?;
        let dirs = directed_links(topo)?;
        let prev_links = vec![LinkReport::default(); dirs.len()];
        Ok(PacketNet {
            plane,
            dirs,
            flows: Vec::new(),
            by_name: HashMap::new(),
            heads: Calendar::new(),
            now_ns: 0,
            seq: 0,
            window_open_ns: 0,
            prev_links,
            ingress_rewrites: 0,
            tracer: obsv::Tracer::off(),
            drops: obsv::Counter::default(),
            pot_rejects: obsv::Counter::default(),
        })
    }

    /// Current emulator time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Attaches (or detaches) the sim-time tracer.
    pub fn set_tracer(&mut self, tracer: obsv::Tracer) {
        self.tracer = tracer;
    }

    /// Exposes the packet plane's live loss counters in `registry`
    /// (`dataplane.packet.drops`, `dataplane.packet.pot_rejects`).
    /// The counters are the same atomics the per-flow reports already
    /// charge, so adopting them costs nothing on the hot path.
    pub fn register_metrics(&self, registry: &obsv::Registry) {
        registry.adopt_counter("dataplane.packet.drops", &self.drops);
        registry.adopt_counter("dataplane.packet.pot_rejects", &self.pot_rejects);
    }

    /// Charges the aggregate drop counter and emits a per-packet drop
    /// instant (the instant only when tracing).
    fn trace_drop(&self, flow: usize, reason: &'static str, link: Option<LinkId>) {
        self.drops.inc();
        if self.tracer.enabled() {
            let name = self.flows[flow].name.clone();
            self.tracer
                .instant("packet", "packet.drop", self.now_ns, move || {
                    let mut args = vec![
                        ("reason", obsv::Value::Str(reason.to_string())),
                        ("flow", obsv::Value::Str(name)),
                    ];
                    if let Some(lid) = link {
                        args.push(("link", obsv::Value::U64(lid.0 as u64)));
                    }
                    args
                });
        }
    }

    /// Registers a traffic source. The first packet is emitted with a
    /// per-flow phase offset so sources do not burst in lockstep. A
    /// source [`check_source`] refuses is not registered.
    pub fn add_flow(&mut self, spec: TrafficSpec) -> Result<(), DataplaneError> {
        check_source(&spec.name, spec.payload_bytes, spec.rate_mbps)?;
        if self.by_name.contains_key(&spec.name) {
            return Err(DataplaneError::Route(format!(
                "flow {:?} already exists",
                spec.name
            )));
        }
        let ingress_dir = self.resolve_ingress(&spec.route)?;
        let idx = self.flows.len();
        self.by_name.insert(spec.name.clone(), idx);
        let flow = FlowState::new(spec, ingress_dir);
        let first = flow.first_emit_ns(self.now_ns, idx);
        self.flows.push(flow);
        self.schedule_emit(first, idx);
        Ok(())
    }

    /// THE migration primitive: swaps one flow's stamped route at the
    /// ingress edge. Core nodes are untouched — this is the single
    /// policy rewrite the PolKA architecture promises.
    pub fn set_route(&mut self, name: &str, route: FlowRoute) -> Result<(), DataplaneError> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| DataplaneError::UnknownFlow(name.to_string()))?;
        let ingress_dir = self.resolve_ingress(&route)?;
        self.flows[idx].route = Arc::new(route);
        self.flows[idx].ingress_dir = ingress_dir;
        self.ingress_rewrites += 1;
        Ok(())
    }

    /// A flow's current route.
    pub fn route(&self, name: &str) -> Option<&FlowRoute> {
        self.by_name.get(name).map(|&i| &*self.flows[i].route)
    }

    /// Fails or restores a link (both directions).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.plane.set_link_up(link, up);
    }

    /// Re-rates a link (both directions) — trace-driven or scenario
    /// capacity modulation reaching the packet plane. Packets already
    /// queued keep their old serialization stamps; new arrivals drain at
    /// the new rate. Rates are floored at 1 kbps so a "zeroed" link
    /// degrades to queue overflow instead of dividing by zero.
    pub fn set_link_rate(&mut self, link: LinkId, mbps: f64) {
        let rate_kbps = (mbps * 1000.0).round().max(1.0) as u64;
        let base = link.0 as usize * 2;
        if let Some(pair) = self.dirs.get_mut(base..base + 2) {
            for d in pair {
                d.rate_kbps = rate_kbps;
            }
        }
    }

    /// Cumulative counters for one flow.
    pub fn flow_report(&self, name: &str) -> Option<FlowReport> {
        self.by_name.get(name).map(|&i| self.flows[i].report)
    }

    /// The directed-link index of `link` transmitting from `from`.
    fn dir(&self, link: LinkId, from: NodeIdx) -> usize {
        let base = link.0 as usize * 2;
        base + usize::from(self.dirs[base].from != from)
    }

    fn resolve_ingress(&self, route: &FlowRoute) -> Result<usize, DataplaneError> {
        self.plane
            .link_between(route.ingress, route.first_hop)
            .map(|link| self.dir(link, route.ingress))
            .ok_or_else(|| {
                DataplaneError::Topology(format!(
                    "ingress {:?} is not adjacent to first hop {:?}",
                    route.ingress, route.first_hop
                ))
            })
    }

    fn schedule_emit(&mut self, t_ns: u64, flow: usize) {
        self.seq += 1;
        self.heads.push(t_ns, self.seq, Source::Flow(flow as u32));
    }

    /// Puts a packet on directed link `dir`, due at the far end at
    /// `t_ns`.
    fn send(&mut self, dir: usize, t_ns: u64, packet: Packet) {
        self.seq += 1;
        let fifo = &mut self.dirs[dir].in_flight;
        debug_assert!(
            fifo.back()
                .is_none_or(|&(t, seq, _)| (t, seq) < (t_ns, self.seq)),
            "a directed link delivers in the order it was entered"
        );
        if fifo.is_empty() {
            self.heads.push(t_ns, self.seq, Source::Link(dir as u32));
        }
        fifo.push_back((t_ns, self.seq, packet));
    }

    /// Runs the packet machine for `window_ns`, then closes the window
    /// and returns its counters (per directed link with measured load,
    /// per flow with goodput). In-flight packets carry over to the next
    /// window.
    pub fn run_window(&mut self, window_ns: u64) -> WindowReport {
        let end = self.now_ns + window_ns;
        while let Some((t_ns, _, source)) = self.heads.pop_through(end) {
            self.now_ns = t_ns;
            match source {
                Source::Flow(flow) => self.emit(flow as usize),
                Source::Link(dir) => {
                    let link = &mut self.dirs[dir as usize];
                    let Some((_, _, packet)) = link.in_flight.pop_front() else {
                        continue;
                    };
                    if let Some(&(t_ns, seq, _)) = link.in_flight.front() {
                        self.heads.push(t_ns, seq, Source::Link(dir));
                    }
                    let at = link.to;
                    self.arrive(at, packet);
                }
            }
        }
        self.now_ns = end;
        self.close_window()
    }

    fn emit(&mut self, flow: usize) {
        let f = &mut self.flows[flow];
        f.report.emitted += 1;
        let state = PacketState::stamped();
        let route = Arc::clone(&f.route); // the packet's stamped route
        let bytes = f.payload_bytes as u64 + route.label.header_bytes(&state) as u64;
        let next_emit = self.now_ns + f.interval_ns;
        let dir = f.ingress_dir;
        let link = self.dirs[dir].link;
        if !self.plane.link_up(link) {
            self.flows[flow].report.dropped_link_down += 1;
            self.dirs[dir].report.drops += 1;
            self.trace_drop(flow, "link_down", Some(link));
        } else {
            match self.dirs[dir].enqueue(self.now_ns, bytes) {
                Some(arrival) => {
                    let packet = Packet {
                        flow,
                        state,
                        emitted_ns: self.now_ns,
                        route,
                    };
                    self.send(dir, arrival, packet);
                }
                None => {
                    self.flows[flow].report.dropped_queue += 1;
                    self.trace_drop(flow, "queue_full", Some(link));
                }
            }
        }
        self.schedule_emit(next_emit, flow);
    }

    fn arrive(&mut self, at: NodeIdx, mut packet: Packet) {
        let flow = packet.flow;
        let outcome = self.plane.hop(at, &packet.route.label, &mut packet.state);
        let f = &mut self.flows[flow];
        match outcome {
            HopOutcome::Delivered => {
                if packet.state.pot == packet.route.expected_pot {
                    f.report.delivered += 1;
                    f.report.delivered_bytes += f.payload_bytes as u64;
                    f.report.latency_sum_ns += self.now_ns - packet.emitted_ns;
                } else {
                    f.report.pot_rejected += 1;
                    self.pot_rejects.inc();
                    // The PoT verdict is the security-relevant event a
                    // trace reader wants pinpointed in sim time.
                    if self.tracer.enabled() {
                        let name = self.flows[flow].name.clone();
                        self.tracer.instant(
                            "packet",
                            "packet.pot_reject",
                            self.now_ns,
                            move || vec![("flow", obsv::Value::Str(name))],
                        );
                    }
                }
            }
            HopOutcome::Drop { reason, link } => {
                let reason_str = match reason {
                    DropReason::NoRoute => {
                        f.report.dropped_no_route += 1;
                        "no_route"
                    }
                    DropReason::LinkDown => {
                        f.report.dropped_link_down += 1;
                        "link_down"
                    }
                    DropReason::TtlExpired => {
                        f.report.dropped_ttl += 1;
                        "ttl_expired"
                    }
                    DropReason::QueueFull => {
                        f.report.dropped_queue += 1;
                        "queue_full"
                    }
                };
                self.trace_drop(flow, reason_str, link);
                // Charge the loss to the killing link's directed
                // counters too (mid-path failures must be visible in
                // per-link telemetry, not just per-flow).
                if let Some(lid) = link {
                    let dir = self.dir(lid, at);
                    self.dirs[dir].report.drops += 1;
                }
            }
            HopOutcome::Forwarded { link, .. } => {
                let header = packet.route.label.header_bytes(&packet.state);
                let bytes = f.payload_bytes as u64 + header as u64;
                let dir = self.dir(link, at);
                match self.dirs[dir].enqueue(self.now_ns, bytes) {
                    Some(arrival) => self.send(dir, arrival, packet),
                    None => {
                        self.flows[flow].report.dropped_queue += 1;
                        self.trace_drop(flow, "queue_full", Some(link));
                    }
                }
            }
        }
    }

    fn close_window(&mut self) -> WindowReport {
        let elapsed_ns = self.now_ns - self.window_open_ns;
        self.window_open_ns = self.now_ns;
        // Per-link queue occupancy, sampled at the window boundary
        // (only backlogged directions, so idle links cost nothing).
        if self.tracer.enabled() {
            for d in &self.dirs {
                let backlog_ns = d.busy_until_ns.saturating_sub(self.now_ns);
                let backlog_bytes = backlog_ns * d.rate_kbps / 8_000_000;
                if backlog_bytes > 0 {
                    self.tracer
                        .instant("packet", "packet.queue", self.now_ns, || {
                            vec![
                                ("link", obsv::Value::U64(d.link.0 as u64)),
                                ("from", obsv::Value::U64(d.from.0 as u64)),
                                ("bytes", obsv::Value::U64(backlog_bytes)),
                            ]
                        });
                }
            }
        }
        window_report(
            elapsed_ns,
            &self.dirs,
            &mut self.prev_links,
            &mut self.flows,
            &self.plane,
        )
    }
}

/// The counters accumulated since the previous close, per directed link
/// (with measured load) and per flow (with goodput).
fn window_report(
    elapsed_ns: u64,
    dirs: &[DirLink],
    prev_links: &mut [LinkReport],
    flows: &mut [FlowState],
    plane: &ForwardingPlane,
) -> WindowReport {
    let links = dirs
        .iter()
        .zip(prev_links.iter_mut())
        .map(|(d, prev)| {
            let report = d.report.sub(prev);
            *prev = d.report;
            let used_mbps = if elapsed_ns == 0 {
                0.0
            } else {
                report.tx_bytes as f64 * 8.0 * 1000.0 / elapsed_ns as f64
            };
            LinkWindow {
                link: d.link,
                from: d.from,
                to: d.to,
                report,
                used_mbps,
                rate_mbps: d.rate_kbps as f64 / 1000.0,
                up: plane.link_up(d.link),
            }
        })
        .collect();
    let flows = flows
        .iter_mut()
        .map(|f| {
            let report = f.report.sub(&f.prev);
            f.prev = f.report;
            FlowWindow {
                goodput_mbps: report.goodput_mbps(elapsed_ns),
                name: f.name.clone(),
                report,
            }
        })
        .collect();
    WindowReport {
        elapsed_ns,
        links,
        flows,
    }
}

/// The event core the per-link FIFOs replaced, kept as the test oracle:
/// every packet in flight is its own entry of one global heap, and
/// directed links are found by endpoint pair.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BinaryHeap;

    enum EvKind {
        Emit {
            flow: usize,
        },
        Arrive {
            flow: usize,
            at: NodeIdx,
            state: PacketState,
            emitted_ns: u64,
            route: Arc<FlowRoute>,
        },
    }

    struct Ev {
        t_ns: u64,
        seq: u64,
        kind: EvKind,
    }

    impl PartialEq for Ev {
        fn eq(&self, other: &Self) -> bool {
            (self.t_ns, self.seq) == (other.t_ns, other.seq)
        }
    }
    impl Eq for Ev {}
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // reversed for a min-heap
            (other.t_ns, other.seq).cmp(&(self.t_ns, self.seq))
        }
    }
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    pub(super) struct HeapNet {
        plane: ForwardingPlane,
        dirs: Vec<DirLink>,
        dir_of: HashMap<(NodeIdx, NodeIdx), usize>,
        flows: Vec<FlowState>,
        heap: BinaryHeap<Ev>,
        now_ns: u64,
        seq: u64,
        window_open_ns: u64,
        prev_links: Vec<LinkReport>,
    }

    impl HeapNet {
        pub(super) fn new(topo: &Topology, alloc: &mut NodeIdAllocator) -> Self {
            let dirs = directed_links(topo).unwrap();
            HeapNet {
                plane: ForwardingPlane::new(topo, alloc).unwrap(),
                dir_of: (dirs.iter().enumerate())
                    .map(|(i, d)| ((d.from, d.to), i))
                    .collect(),
                prev_links: vec![LinkReport::default(); dirs.len()],
                dirs,
                flows: Vec::new(),
                heap: BinaryHeap::new(),
                now_ns: 0,
                seq: 0,
                window_open_ns: 0,
            }
        }

        fn push(&mut self, t_ns: u64, kind: EvKind) {
            self.seq += 1;
            let seq = self.seq;
            self.heap.push(Ev { t_ns, seq, kind });
        }

        pub(super) fn add_flow(&mut self, spec: TrafficSpec) {
            let ingress_dir = self.dir_of[&(spec.route.ingress, spec.route.first_hop)];
            let idx = self.flows.len();
            let flow = FlowState::new(spec, ingress_dir);
            let first = flow.first_emit_ns(self.now_ns, idx);
            self.flows.push(flow);
            self.push(first, EvKind::Emit { flow: idx });
        }

        pub(super) fn set_route(&mut self, flow: usize, route: FlowRoute) {
            self.flows[flow].ingress_dir = self.dir_of[&(route.ingress, route.first_hop)];
            self.flows[flow].route = Arc::new(route);
        }

        pub(super) fn set_link_up(&mut self, link: LinkId, up: bool) {
            self.plane.set_link_up(link, up);
        }

        pub(super) fn set_link_rate(&mut self, link: LinkId, mbps: f64) {
            for d in self.dirs.iter_mut().filter(|d| d.link == link) {
                d.rate_kbps = (mbps * 1000.0).round().max(1.0) as u64;
            }
        }

        pub(super) fn run_window(&mut self, window_ns: u64) -> WindowReport {
            let end = self.now_ns + window_ns;
            while self.heap.peek().is_some_and(|top| top.t_ns <= end) {
                let ev = self.heap.pop().unwrap();
                self.now_ns = ev.t_ns;
                match ev.kind {
                    EvKind::Emit { flow } => self.emit(flow),
                    EvKind::Arrive {
                        flow,
                        at,
                        state,
                        emitted_ns,
                        route,
                    } => self.arrive(flow, at, state, emitted_ns, route),
                }
            }
            self.now_ns = end;
            let elapsed_ns = end - self.window_open_ns;
            self.window_open_ns = end;
            window_report(
                elapsed_ns,
                &self.dirs,
                &mut self.prev_links,
                &mut self.flows,
                &self.plane,
            )
        }

        fn emit(&mut self, flow: usize) {
            let f = &mut self.flows[flow];
            f.report.emitted += 1;
            let state = PacketState::stamped();
            let route = Arc::clone(&f.route);
            let bytes = f.payload_bytes as u64 + route.label.header_bytes(&state) as u64;
            let next_emit = self.now_ns + f.interval_ns;
            let dir = f.ingress_dir;
            if !self.plane.link_up(self.dirs[dir].link) {
                f.report.dropped_link_down += 1;
                self.dirs[dir].report.drops += 1;
            } else if let Some(arrival) = self.dirs[dir].enqueue(self.now_ns, bytes) {
                let (at, emitted_ns) = (route.first_hop, self.now_ns);
                self.push(
                    arrival,
                    EvKind::Arrive {
                        flow,
                        at,
                        state,
                        emitted_ns,
                        route,
                    },
                );
            } else {
                f.report.dropped_queue += 1;
            }
            self.push(next_emit, EvKind::Emit { flow });
        }

        fn arrive(
            &mut self,
            flow: usize,
            at: NodeIdx,
            mut state: PacketState,
            emitted_ns: u64,
            route: Arc<FlowRoute>,
        ) {
            let outcome = self.plane.hop(at, &route.label, &mut state);
            let f = &mut self.flows[flow];
            match outcome {
                HopOutcome::Delivered if state.pot == route.expected_pot => {
                    f.report.delivered += 1;
                    f.report.delivered_bytes += f.payload_bytes as u64;
                    f.report.latency_sum_ns += self.now_ns - emitted_ns;
                }
                HopOutcome::Delivered => f.report.pot_rejected += 1,
                HopOutcome::Drop { reason, link } => {
                    match reason {
                        DropReason::NoRoute => f.report.dropped_no_route += 1,
                        DropReason::LinkDown => f.report.dropped_link_down += 1,
                        DropReason::TtlExpired => f.report.dropped_ttl += 1,
                        DropReason::QueueFull => f.report.dropped_queue += 1,
                    }
                    if let Some(lid) = link {
                        let killer = (self.dirs.iter_mut())
                            .find(|d| d.link == lid && d.from == at)
                            .unwrap();
                        killer.report.drops += 1;
                    }
                }
                HopOutcome::Forwarded { next, .. } => {
                    let bytes = f.payload_bytes as u64 + route.label.header_bytes(&state) as u64;
                    let dir = self.dir_of[&(at, next)];
                    match self.dirs[dir].enqueue(self.now_ns, bytes) {
                        Some(arrival) => self.push(
                            arrival,
                            EvKind::Arrive {
                                flow,
                                at: next,
                                state,
                                emitted_ns,
                                route,
                            },
                        ),
                        None => f.report.dropped_queue += 1,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topo::{fat_tree, global_p4_lab};
    use proptest::test_runner::TestRng;

    fn route_for(topo: &Topology, alloc: &mut NodeIdAllocator, names: &[&str]) -> FlowRoute {
        let path: Vec<NodeIdx> = names.iter().map(|n| topo.node(n).unwrap()).collect();
        FlowRoute::along_path(topo, alloc, &path, true).unwrap()
    }

    fn lab_net() -> (Topology, NodeIdAllocator, PacketNet) {
        let topo = global_p4_lab();
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let net = PacketNet::new(&topo, &mut alloc).unwrap();
        (topo, alloc, net)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn delivers_at_offered_rate_under_capacity() {
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route,
            payload_bytes: 1250,
            rate_mbps: 8.0,
        })
        .unwrap();
        let w = net.run_window(1000 * MS);
        let f = &w.flows[0];
        assert!(f.report.dropped_queue == 0, "{:?}", f.report);
        assert!(
            (f.goodput_mbps - 8.0).abs() < 0.5,
            "goodput {}",
            f.goodput_mbps
        );
        assert_eq!(f.report.pot_rejected, 0);
        // Latency ~ serialization + 29 ms propagation on MIA-SAO-AMS.
        let r = net.flow_report("f1").unwrap();
        let lat = r.latency_sum_ns as f64 / r.delivered as f64 / 1e6;
        assert!((25.0..40.0).contains(&lat), "latency {lat}");
    }

    #[test]
    fn overload_is_shaved_by_drop_tail_queues() {
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "CHI", "AMS"]); // 10 Mbps bottleneck
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route,
            payload_bytes: 1250,
            rate_mbps: 30.0,
        })
        .unwrap();
        let w = net.run_window(1000 * MS);
        let f = &w.flows[0];
        assert!(f.report.dropped_queue > 0, "{:?}", f.report);
        // Goodput is capped near the 10 Mbps bottleneck (minus headers).
        assert!(
            f.goodput_mbps < 10.5 && f.goodput_mbps > 8.0,
            "goodput {}",
            f.goodput_mbps
        );
        // The bottleneck link reports near-full utilization.
        let mia = topo.node("MIA").unwrap();
        let chi = topo.node("CHI").unwrap();
        let lw = w
            .links
            .iter()
            .find(|l| l.from == mia && l.to == chi)
            .unwrap();
        assert!(lw.used_mbps > 9.5, "util {}", lw.used_mbps);
        assert!(lw.report.drops > 0, "the bottleneck queue sheds load");
    }

    #[test]
    fn link_failure_drops_everything_and_recovery_restores() {
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route,
            payload_bytes: 1250,
            rate_mbps: 4.0,
        })
        .unwrap();
        let mia = topo.node("MIA").unwrap();
        let sao = topo.node("SAO").unwrap();
        let lid = topo.link_between(mia, sao).unwrap();
        net.run_window(500 * MS);
        net.set_link_up(lid, false);
        let down = net.run_window(1000 * MS);
        // Packets serialized before the failure drain in flight (~30 ms
        // of propagation); everything emitted after the failure drops.
        assert!(
            down.flows[0].report.delivered < 20,
            "{:?}",
            down.flows[0].report
        );
        assert!(down.flows[0].report.dropped_link_down > 300);
        net.set_link_up(lid, true);
        let up = net.run_window(1000 * MS);
        assert!(up.flows[0].report.delivered > 0);
    }

    #[test]
    fn mid_path_failure_charges_the_links_loss_counter() {
        // Fail SAO->AMS (the second hop): drops happen *at SAO*, not at
        // the ingress queue, and must show up in that directed link's
        // counters, not only in the flow report.
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route,
            payload_bytes: 1250,
            rate_mbps: 4.0,
        })
        .unwrap();
        let sao = topo.node("SAO").unwrap();
        let ams = topo.node("AMS").unwrap();
        net.run_window(500 * MS);
        net.set_link_up(topo.link_between(sao, ams).unwrap(), false);
        let down = net.run_window(1000 * MS);
        assert!(down.flows[0].report.dropped_link_down > 300);
        let lw = down
            .links
            .iter()
            .find(|l| l.from == sao && l.to == ams)
            .unwrap();
        assert!(
            lw.report.drops > 300,
            "per-link loss must see the failure: {:?}",
            lw.report
        );
        // The upstream MIA->SAO link kept transmitting (packets die one
        // hop later), so its drop counter stays clean.
        let mia = topo.node("MIA").unwrap();
        let upstream = down
            .links
            .iter()
            .find(|l| l.from == mia && l.to == sao)
            .unwrap();
        assert_eq!(upstream.report.drops, 0);
        assert!(upstream.report.tx_pkts > 300);
    }

    #[test]
    fn ingress_route_swap_migrates_the_flow() {
        let (topo, mut alloc, mut net) = lab_net();
        let t1 = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        let t2 = route_for(&topo, &mut alloc, &["MIA", "CHI", "AMS"]);
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route: t1,
            payload_bytes: 1250,
            rate_mbps: 4.0,
        })
        .unwrap();
        net.run_window(500 * MS);
        assert_eq!(net.ingress_rewrites, 0);
        net.set_route("f1", t2).unwrap();
        assert_eq!(net.ingress_rewrites, 1);
        let w = net.run_window(1000 * MS);
        assert!(w.flows[0].report.delivered > 0);
        assert_eq!(w.flows[0].report.pot_rejected, 0, "new PoT verifies");
        // Traffic now crosses MIA->CHI, not MIA->SAO.
        let mia = topo.node("MIA").unwrap();
        let chi = topo.node("CHI").unwrap();
        let sao = topo.node("SAO").unwrap();
        let tx = |from, to| {
            w.links
                .iter()
                .find(|l| l.from == from && l.to == to)
                .unwrap()
                .report
                .tx_pkts
        };
        assert!(tx(mia, chi) > 0);
        assert_eq!(tx(mia, sao), 0);
    }

    #[test]
    fn detoured_packets_are_rejected_by_egress_pot() {
        // The adversary re-stamps the label with a different path to the
        // same egress; the expected PoT still describes the original
        // spec, so every delivered packet fails verification.
        let (topo, mut alloc, mut net) = lab_net();
        let t1 = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        let detour = route_for(&topo, &mut alloc, &["MIA", "CHI", "AMS"]);
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route: t1.clone(),
            payload_bytes: 1250,
            rate_mbps: 4.0,
        })
        .unwrap();
        let tampered = FlowRoute {
            expected_pot: t1.expected_pot, // claims the original path
            ..detour
        };
        net.set_route("f1", tampered).unwrap();
        let w = net.run_window(1000 * MS);
        assert_eq!(w.flows[0].report.delivered, 0);
        assert!(w.flows[0].report.pot_rejected > 0, "{:?}", w.flows[0]);
    }

    #[test]
    fn deterministic_counters() {
        let run = || {
            let (topo, mut alloc, mut net) = lab_net();
            for (i, names) in [["MIA", "SAO", "AMS"], ["MIA", "CHI", "AMS"]]
                .iter()
                .enumerate()
            {
                let route = route_for(&topo, &mut alloc, names);
                net.add_flow(TrafficSpec {
                    name: format!("f{i}"),
                    route,
                    payload_bytes: 1000,
                    rate_mbps: 12.0,
                })
                .unwrap();
            }
            net.run_window(700 * MS);
            let w = net.run_window(700 * MS);
            (
                w.flows.iter().map(|f| f.report).collect::<Vec<_>>(),
                w.links.iter().map(|l| l.report).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn duplicate_flow_names_and_unknown_flows_error() {
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        let spec = TrafficSpec {
            name: "f1".into(),
            route: route.clone(),
            payload_bytes: 100,
            rate_mbps: 1.0,
        };
        net.add_flow(spec.clone()).unwrap();
        assert!(net.add_flow(spec).is_err());
        assert!(net.set_route("ghost", route).is_err());
        assert!(net.flow_report("ghost").is_none());
    }

    /// Adds `f1` with the given payload and rate to a fresh lab net.
    fn add_source(payload_bytes: u32, rate_mbps: f64) -> (PacketNet, Result<(), DataplaneError>) {
        let (topo, mut alloc, mut net) = lab_net();
        let route = route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]);
        let added = net.add_flow(TrafficSpec {
            name: "f1".into(),
            route,
            payload_bytes,
            rate_mbps,
        });
        (net, added)
    }

    /// A refused source leaves nothing behind: no flow, no emission.
    fn assert_refused(payload_bytes: u32, rate_mbps: f64) {
        let (mut net, added) = add_source(payload_bytes, rate_mbps);
        assert!(
            matches!(added, Err(DataplaneError::Traffic(_))),
            "{payload_bytes} B at {rate_mbps} Mbps: {added:?}"
        );
        assert!(net.flow_report("f1").is_none());
        let w = net.run_window(10 * MS);
        assert!(w.flows.is_empty());
        assert!(w.links.iter().all(|l| l.report.tx_pkts == 0));
    }

    #[test]
    fn an_empty_payload_is_refused() {
        assert_refused(0, 8.0);
    }

    #[test]
    fn an_infinite_rate_is_refused() {
        assert_refused(1250, f64::INFINITY);
    }

    #[test]
    fn a_nan_rate_is_refused() {
        assert_refused(1250, f64::NAN);
    }

    #[test]
    fn a_negative_rate_is_refused() {
        assert_refused(1250, -2.0);
        assert_refused(1250, f64::NEG_INFINITY);
    }

    #[test]
    fn a_zero_rate_emits_at_the_floor() {
        // 1250 B at 1e-6 Mbps is one packet per 10^4 s: the first one
        // goes out within a second (its phase offset), then no more.
        let (mut net, added) = add_source(1250, 0.0);
        added.unwrap();
        let w = net.run_window(1000 * MS);
        assert_eq!(w.flows[0].report.emitted, 1);
        assert_eq!(net.run_window(1000 * MS).flows[0].report.emitted, 0);
    }

    /// The equivalence cases below are seeded, not sampled.
    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    /// A PolKA or segment-list route along one of the three shortest
    /// paths between two distinct routers.
    fn random_route(topo: &Topology, alloc: &mut NodeIdAllocator, rng: &mut TestRng) -> FlowRoute {
        let routers: Vec<NodeIdx> = (0..topo.node_count() as u32)
            .map(NodeIdx)
            .filter(|&n| topo.node_kind(n) != netsim::topo::NodeKind::Host)
            .collect();
        loop {
            let src = routers[below(rng, routers.len())];
            let dst = routers[below(rng, routers.len())];
            let paths = topo.k_shortest_paths(src, dst, 3);
            if src == dst || paths.is_empty() {
                continue;
            }
            let path = &paths[below(rng, paths.len())];
            return FlowRoute::along_path(topo, alloc, path, below(rng, 4) != 0).unwrap();
        }
    }

    fn random_spec(
        topo: &Topology,
        alloc: &mut NodeIdAllocator,
        rng: &mut TestRng,
        idx: usize,
    ) -> TrafficSpec {
        TrafficSpec {
            name: format!("f{idx}"),
            route: random_route(topo, alloc, rng),
            payload_bytes: [64, 250, 700, 1250, 1500][below(rng, 5)],
            rate_mbps: 0.2 + below(rng, 120) as f64 / 10.0,
        }
    }

    /// Drives the FIFO machine and the heap reference through one
    /// seeded script — flows of mixed size, rate and label, then
    /// windows of unequal length with re-routes, failures, restores,
    /// re-rates (down to the 1 kbps floor and back) and late flows
    /// landing while packets are in flight — and demands equal
    /// reports after every window.
    fn fifo_core_matches_heap_reference(topo: &Topology, seed: u64) {
        let rng = &mut TestRng::from_seed(seed);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let mut net = PacketNet::new(topo, &mut alloc).unwrap();
        let mut oracle = reference::HeapNet::new(topo, &mut alloc);
        for _ in 0..2 + below(rng, 5) {
            let spec = random_spec(topo, &mut alloc, rng, net.flows.len());
            net.add_flow(spec.clone()).unwrap();
            oracle.add_flow(spec);
        }
        for window in 0..4 + below(rng, 4) {
            let window_ns = (1 + below(rng, 90) as u64) * MS + below(rng, 1000) as u64;
            assert_eq!(
                net.run_window(window_ns),
                oracle.run_window(window_ns),
                "seed {seed}, window {window}"
            );
            let link = LinkId(below(rng, topo.link_count()) as u32);
            match below(rng, 8) {
                0 | 1 => {
                    let flow = below(rng, net.flows.len());
                    let route = random_route(topo, &mut alloc, rng);
                    net.set_route(&format!("f{flow}"), route.clone()).unwrap();
                    oracle.set_route(flow, route);
                }
                2 | 3 => {
                    let up = below(rng, 2) == 0;
                    net.set_link_up(link, up);
                    oracle.set_link_up(link, up);
                }
                4 | 5 => {
                    let mbps = [0.0, topo.link(link).capacity_mbps, 3.5][below(rng, 3)];
                    net.set_link_rate(link, mbps);
                    oracle.set_link_rate(link, mbps);
                }
                6 => {
                    let spec = random_spec(topo, &mut alloc, rng, net.flows.len());
                    net.add_flow(spec.clone()).unwrap();
                    oracle.add_flow(spec);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn fifo_core_matches_heap_reference_on_the_lab() {
        let topo = global_p4_lab();
        for seed in 0..128 {
            fifo_core_matches_heap_reference(&topo, seed);
        }
    }

    #[test]
    fn fifo_core_matches_heap_reference_on_a_fat_tree() {
        let topo = fat_tree(4);
        for seed in 1000..1128 {
            fifo_core_matches_heap_reference(&topo, seed);
        }
    }

    #[test]
    fn directed_links_pair_up_by_link_id() {
        let topo = fat_tree(4);
        let dirs = directed_links(&topo).unwrap();
        assert_eq!(dirs.len(), 2 * topo.link_count());
        for (i, link) in topo.links().iter().enumerate() {
            let (ab, ba) = (&dirs[2 * i], &dirs[2 * i + 1]);
            assert_eq!((ab.link, ba.link), (LinkId(i as u32), LinkId(i as u32)));
            assert_eq!((ab.from, ab.to), (link.a, link.b));
            assert_eq!((ba.from, ba.to), (link.b, link.a));
        }
    }

    #[test]
    fn self_loop_links_are_refused() {
        let mut topo = global_p4_lab();
        let mia = topo.node("MIA").unwrap();
        topo.add_link(mia, mia, 10.0, 1.0);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        assert!(matches!(
            PacketNet::new(&topo, &mut alloc),
            Err(DataplaneError::Topology(_))
        ));
    }

    #[test]
    fn fat_tree_8_counters_are_pinned() {
        // The loopbench `fattree-packet` shape — fat_tree(8), 8 pod
        // pairs × 3 tunnels, 250-byte packets, a probe per tunnel plus
        // 64 flows — squeezed and failed between windows. The totals
        // were captured on the global-heap machine.
        let topo = fat_tree(8);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let mut net = PacketNet::new(&topo, &mut alloc).unwrap();
        let mut tunnels = Vec::new();
        for pod in 0..8 {
            let src = topo.node(&format!("p{pod}e0")).unwrap();
            let dst = topo.node(&format!("p{}e1", (pod + 4) % 8)).unwrap();
            for path in topo.k_shortest_paths(src, dst, 3) {
                tunnels.push(FlowRoute::along_path(&topo, &mut alloc, &path, true).unwrap());
            }
        }
        assert_eq!(tunnels.len(), 24);
        for (i, route) in tunnels.iter().enumerate() {
            net.add_flow(TrafficSpec {
                name: format!("probe:{i}"),
                route: route.clone(),
                payload_bytes: 250,
                rate_mbps: 0.4,
            })
            .unwrap();
        }
        for f in 0..64 {
            net.add_flow(TrafficSpec {
                name: format!("f{f}"),
                route: tunnels[f * 7 % 24].clone(),
                payload_bytes: 250,
                rate_mbps: 2.0 + (f % 5) as f64 * 0.2,
            })
            .unwrap();
        }
        let mut windows = vec![net.run_window(1000 * MS)];
        for (i, link) in topo.links().iter().enumerate() {
            net.set_link_rate(LinkId(i as u32), link.capacity_mbps * 0.55);
        }
        windows.push(net.run_window(1000 * MS));
        let first_hop = topo.link_between(tunnels[0].ingress, tunnels[0].first_hop);
        net.set_link_up(first_hop.unwrap(), false);
        windows.push(net.run_window(1000 * MS));

        let flows = windows.iter().flat_map(|w| &w.flows).map(|f| f.report);
        let (delivered, dropped) = flows.fold((0, 0), |(ok, lost), r| {
            let drops = r.dropped_queue + r.dropped_link_down + r.dropped_no_route + r.dropped_ttl;
            (ok + r.delivered, lost + drops)
        });
        let mut tx_bytes = vec![0u64; 2 * topo.link_count()];
        for w in &windows {
            for (total, l) in tx_bytes.iter_mut().zip(&w.links) {
                *total += l.report.tx_bytes;
            }
        }
        // Per-link totals, order-sensitive.
        let fingerprint = (tx_bytes.iter()).fold(0u64, |h, &b| h.wrapping_mul(1_000_003) ^ b);
        assert_eq!(
            (
                delivered,
                dropped,
                tx_bytes.iter().sum::<u64>(),
                fingerprint
            ),
            (142_315, 97_863, 155_462_490, 926_488_733_534_887_822)
        );
    }
}
