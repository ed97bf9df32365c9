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
//! and RNG-free: identical inputs produce identical counters, on any
//! number of cores.
//!
//! The event core is a k-way merge. A directed link is a FIFO — its
//! `busy_until_ns` never decreases and its propagation delay is
//! constant, so packets leave it in the order they entered — hence
//! packets in flight wait in one `VecDeque` per directed link, and the
//! queue of heads holds only each non-empty link's front packet plus
//! each source's next emission. The heads sit in a [`netsim::timeq`]
//! of 4 096-ns buckets, which pops them without a heap's sifts.
//!
//! The nodes are dealt to shards. Links shorter than a cut join nodes
//! into clusters (on a fat tree: each pod, and each core alone), and
//! the clusters are dealt by size to [`linalg::par::worker_count`]
//! shards. A shard owns its nodes' send side (each outgoing link's
//! `busy_until_ns` and counters), its incoming links' FIFOs, their
//! heads and its sources' heads, and keeps per-flow counters that are
//! summed in shard order when the window closes. The shards run
//! concurrently on [`linalg::par::settle`] as conservative windows:
//! each publishes a clock, how far it has run, and pops only heads due
//! by the others' least clock plus the *lookahead* — the soonest a
//! packet sent across a link between two shards can arrive
//! (propagation plus the smallest packet's serialization; ≈ 0.6 ms on
//! the loopbench fat tree). A packet crossing shards is handed to its
//! receiver's mailbox, which it always reads before that packet can be
//! due. One shard (one core, an armed tracer, or a net whose links all
//! have zero delay, so that no shard could run ahead of another) runs
//! the same code with nothing to wait for.
//!
//! Heads due in the same nanosecond pop by the instant the event that
//! scheduled them ran — a packet's send time on its link, a source's
//! previous emission, or just after every event of the instant it was
//! registered at — then by the instant that event was scheduled at, and
//! the one before (three instants in all), then by origin
//! (source, then link index). The first instant is the `seq` word of
//! the queue key. A single counter bumped at every scheduling, which
//! a single heap of every packet would pop by, gives the same order
//! whenever those instants differ; events at different nodes touch
//! disjoint state, so only ties at one node can matter.
//! [`EventWork::tie_fallbacks`] counts the ties at one node whose
//! instants all agree, where origin order stands in for the counter's.

use crate::label::PacketState;
use crate::plane::{DropReason, ForwardingPlane, HopOutcome};
use crate::{DataplaneError, FlowRoute};
use linalg::par;
use netsim::timeq::TimeQ;
use netsim::{LinkId, NodeIdx, Topology};
use polka::NodeIdAllocator;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default drop-tail queue depth per directed link (bytes): ~25 ms at
/// 20 Mbps, the classic "small buffer" regime.
pub const DEFAULT_QUEUE_BYTES: u64 = 64 * 1024;

/// Heads a shard pops between publishing its clock to the others.
const PUBLISH_EVERY: u32 = 32;

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
/// source that emits at the 1e-6 Mbps floor; one whose interval runs
/// past the end of the clock emits once. `source` names it in the
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

    /// Moves a shard's counters into these.
    fn absorb(&mut self, shard: &mut FlowReport) {
        let d = std::mem::take(shard);
        self.emitted += d.emitted;
        self.delivered += d.delivered;
        self.delivered_bytes += d.delivered_bytes;
        self.pot_rejected += d.pot_rejected;
        self.dropped_no_route += d.dropped_no_route;
        self.dropped_link_down += d.dropped_link_down;
        self.dropped_ttl += d.dropped_ttl;
        self.dropped_queue += d.dropped_queue;
        self.latency_sum_ns += d.latency_sum_ns;
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

/// The event core's work since the net was built. The first five
/// counts are the same on any number of shards; the rest depend on how
/// many there were.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventWork {
    /// Source heads popped: one per emitted packet.
    pub emissions: u64,
    /// Link heads popped: one per packet reaching a node, each one
    /// forwarding decision.
    pub arrivals: u64,
    /// Arrivals forwarded onto a next link (delivered and dropped
    /// packets end their walk instead).
    pub hops: u64,
    /// Groups of two or more heads popped at one node in one
    /// nanosecond.
    pub tie_groups: u64,
    /// Heads tied at one node with the head before them down all the
    /// scheduling instants the tie rule reads, so popped in origin
    /// order.
    pub tie_fallbacks: u64,
    /// Lookaheads the runs spanned: how many windows as long as the
    /// lookahead would have covered them (one per run on one shard).
    pub windows: u64,
    /// Packets handed from one shard to another.
    pub handoffs: u64,
    /// Heads popped per shard, by shard index.
    pub shard_events: Vec<u64>,
}

impl EventWork {
    /// Moves shard `index`'s counts into these.
    fn absorb(&mut self, index: usize, shard: &mut EventWork) {
        let s = std::mem::take(shard);
        self.emissions += s.emissions;
        self.arrivals += s.arrivals;
        self.hops += s.hops;
        self.tie_groups += s.tie_groups;
        self.tie_fallbacks += s.tie_fallbacks;
        self.handoffs += s.handoffs;
        if self.shard_events.len() <= index {
            self.shard_events.resize(index + 1, 0);
        }
        self.shard_events[index] += s.emissions + s.arrivals;
    }
}

/// A packet between two nodes. It carries the route it was *stamped*
/// with, by its index in [`Shared::stamped`] — an ingress rewrite never
/// retroactively changes packets already in flight, and no shard
/// touches another's reference counts.
#[derive(Debug)]
struct Packet {
    flow: u32,
    route: u32,
    state: PacketState,
    emitted_ns: u64,
}

/// How many scheduling instants back a tie looks before it falls back
/// on origin order. Two on the loopbench fat tree are not enough: two
/// packets sent in one nanosecond from two aggregation switches, whose
/// edges sent them in one nanosecond, part only at their sources'
/// emission instants.
const TIE_DEPTH: usize = 3;

/// When a head is due, and how it ties with heads due in the same
/// nanosecond: `seq` is the instant the event that scheduled it ran
/// ([`scheduled_at`]), `earlier` that event's own `seq` and `earlier`,
/// shifted by one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    t_ns: u64,
    seq: u64,
    earlier: [u64; TIE_DEPTH - 1],
}

/// A packet crossing to another shard: its directed link, when it is
/// due at the far end, and the packet.
type Handoff = (u32, Due, Packet);

/// One directed link: a drop-tail queue feeding a constant-rate
/// transmitter with propagation delay.
#[derive(Debug, Clone)]
struct DirLink {
    from: NodeIdx,
    to: NodeIdx,
    link: LinkId,
    rate_kbps: u64,
    delay_ns: u64,
    queue_cap_bytes: u64,
    busy_until_ns: u64,
    report: LinkReport,
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
            });
        }
    }
    Ok(dirs)
}

/// Where a head comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// A flow's next emission.
    Flow(u32),
    /// The front packet of a directed link's FIFO.
    Link(u32),
}

/// A shard's heads, keyed past their time by their [`Due`]'s `seq` and
/// `earlier`, then their origin. 4 096-ns buckets rarely hold two on
/// the loopbench fat tree (16-µs ones held ≈ 2, and were slower).
type Heads = TimeQ<(u64, [u64; TIE_DEPTH - 1], Source), (), 12>;

/// The `seq` word of a head scheduled by an event at `t_ns`.
fn scheduled_at(t_ns: u64) -> u64 {
    2 * t_ns
}

/// The `seq` word of a source's first emission, registered between
/// windows at `t_ns`: after every event of that instant.
fn registered_at(t_ns: u64) -> u64 {
    2 * t_ns + 1
}

#[derive(Debug)]
struct FlowState {
    name: String,
    payload_bytes: u32,
    /// The route currently stamped at the ingress; packets snapshot it
    /// at emission time.
    route: Arc<FlowRoute>,
    /// Its index in [`Shared::stamped`].
    stamp: u32,
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
            stamp: 0,
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

/// What every shard reads and none writes while a window runs.
#[derive(Debug)]
struct Shared {
    plane: ForwardingPlane,
    flows: Vec<FlowState>,
    /// Every route stamped at an ingress that a flow or a packet in
    /// flight still carries, and slots [`PacketNet::reclaim`] freed.
    stamped: Vec<Arc<FlowRoute>>,
    /// The shard each node is dealt to.
    shard_of: Vec<u32>,
    /// Sim-time tracer for the packet plane (off by default). Drops
    /// and PoT rejections are instants; queue occupancy is sampled at
    /// window close. Stamps are the emulator's own clock. An armed
    /// tracer runs the net on one shard, so its records keep one order.
    tracer: obsv::Tracer,
    /// Live total-drop counter (always on — shards count their drops
    /// and add them when the window closes). Adoptable into a metrics
    /// registry via [`PacketNet::register_metrics`], where per-epoch
    /// deltas feed SLO blame attribution.
    drops: obsv::Counter,
    /// Live PoT-rejection counter, same lifecycle as `drops`.
    pot_rejects: obsv::Counter,
}

impl Shared {
    /// The shard a head belongs to: a source's ingress node's, a link
    /// head's receiving node's.
    fn owner(&self, dirs: &[DirLink], source: Source) -> usize {
        let node = match source {
            Source::Flow(flow) => dirs[self.flows[flow as usize].ingress_dir].from,
            Source::Link(dir) => dirs[dir as usize].to,
        };
        self.shard_of[node.0 as usize] as usize
    }
}

/// One shard of the event core: the nodes [`Shared::shard_of`] deals
/// it, their outgoing links' send side and their incoming links' FIFOs.
/// Aligned so that two shards' hot fields never share a cache line.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    index: u32,
    /// Every directed link. Only the shard that owns a link's `from`
    /// sends on it, so only its copy's `busy_until_ns` and `report`
    /// move; rates are set on every copy.
    dirs: Vec<DirLink>,
    /// Per directed link into one of this shard's nodes: the packets
    /// serialized and not yet arrived, each with when it is due at the
    /// far end — ascending front to back.
    in_flight: Vec<VecDeque<(Due, Packet)>>,
    /// One entry per source this shard emits for (its next emission)
    /// and one per directed link into it with packets in flight (its
    /// front packet).
    heads: Heads,
    /// Per flow: what befell its packets here since the last fold.
    flows: Vec<FlowReport>,
    /// The node of the last head popped, and the heads popped at the
    /// current instant with their nodes once two have been.
    last_at: NodeIdx,
    instant: Vec<(NodeIdx, Due)>,
    work: EventWork,
    /// Drops and PoT rejections since the last fold.
    drops: u64,
    pot_rejects: u64,
    /// The head being run.
    now: Due,
    /// Handoffs taken from the other shards, and bound for each of them.
    inbox: Vec<Handoff>,
    outboxes: Vec<Vec<Handoff>>,
}

impl Shard {
    fn new((index, shards): (usize, usize), dirs: Vec<DirLink>, flows: usize) -> Self {
        Shard {
            index: index as u32,
            last_at: NodeIdx(0),
            instant: Vec::new(),
            in_flight: (0..dirs.len()).map(|_| VecDeque::new()).collect(),
            dirs,
            heads: Heads::default(),
            flows: vec![FlowReport::default(); flows],
            work: EventWork::default(),
            drops: 0,
            pot_rejects: 0,
            now: Due::default(),
            inbox: Vec::new(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// When a head this event schedules for `t_ns` is due.
    fn due(&self, t_ns: u64) -> Due {
        let mut earlier = [self.now.seq; TIE_DEPTH - 1];
        earlier[1..].copy_from_slice(&self.now.earlier[..TIE_DEPTH - 2]);
        Due {
            t_ns,
            seq: scheduled_at(self.now.t_ns),
            earlier,
        }
    }

    /// The directed-link index of `link` transmitting from `from`.
    fn dir(&self, link: LinkId, from: NodeIdx) -> usize {
        let base = link.0 as usize * 2;
        base + usize::from(self.dirs[base].from != from)
    }

    /// Runs this shard as far as the others allow in a window that ends
    /// at `end`: lands the packets they handed over, pops every head due
    /// by their least clock plus `lookahead` (none of their packets
    /// still to come can be due sooner), and publishes how far it got.
    /// Returns whether it reached `end`.
    fn advance(
        &mut self,
        shared: &Shared,
        end: u64,
        lookahead: u64,
        peers: &par::Peers<'_, Handoff>,
    ) -> bool {
        let mut inbox = std::mem::take(&mut self.inbox);
        let horizon = peers.receive(&mut inbox);
        for (dir, due, packet) in inbox.drain(..) {
            self.land(dir as usize, due, packet);
        }
        self.inbox = inbox;
        let through = horizon.saturating_add(lookahead).min(end);
        let mut popped = 0u32;
        while let Some((t_ns, (seq, earlier, source), ())) = self.heads.pop_through(through) {
            self.run_head(shared, Due { t_ns, seq, earlier }, source);
            popped += 1;
            // Everything this shard sends from now on leaves at `t_ns`
            // or later: let the others run on meanwhile.
            if popped.is_multiple_of(PUBLISH_EVERY) {
                peers.publish(t_ns - 1, &mut self.outboxes);
            }
        }
        let done = through == end;
        peers.publish(if done { u64::MAX } else { through }, &mut self.outboxes);
        done
    }

    fn run_head(&mut self, shared: &Shared, due: Due, source: Source) {
        let prev = std::mem::replace(&mut self.now, due);
        match source {
            Source::Flow(flow) => {
                let at = self.dirs[shared.flows[flow as usize].ingress_dir].from;
                self.count_tie(at, prev, due);
                self.work.emissions += 1;
                self.emit(shared, flow as usize);
            }
            Source::Link(dir) => {
                let fifo = &mut self.in_flight[dir as usize];
                let Some((_, packet)) = fifo.pop_front() else {
                    return;
                };
                if let Some(&(next, _)) = fifo.front() {
                    self.push_head(next, Source::Link(dir));
                }
                let at = self.dirs[dir as usize].to;
                self.count_tie(at, prev, due);
                self.work.arrivals += 1;
                self.arrive(shared, at, packet);
            }
        }
    }

    fn push_head(&mut self, due: Due, source: Source) {
        self.heads
            .push(due.t_ns, (due.seq, due.earlier, source), ());
    }

    /// Counts a head popped at node `at` that ties with the one before
    /// it there; `prev` is the head the shard popped last, at
    /// `self.last_at`. A shard pops every head of one instant in a row,
    /// so only a run of pops at one instant needs remembering.
    fn count_tie(&mut self, at: NodeIdx, prev: Due, due: Due) {
        if prev.t_ns != due.t_ns {
            self.instant.clear();
        } else {
            if self.instant.is_empty() {
                self.instant.push((self.last_at, prev));
            }
            let mut before = (self.instant.iter().rev()).filter(|(n, _)| *n == at);
            if let Some((_, last)) = before.next() {
                self.work.tie_groups += u64::from(before.next().is_none());
                // Registrations at one instant pop in registration
                // order, which origin order is; only event-scheduled
                // heads can differ from the counter's order.
                let same = (last.seq, last.earlier) == (due.seq, due.earlier);
                self.work.tie_fallbacks += u64::from(same && due.seq.is_multiple_of(2));
            }
            self.instant.push((at, due));
        }
        self.last_at = at;
    }

    /// Puts a packet on directed link `dir`, due at the far end at
    /// `t_ns`: into this shard's FIFO, or out to the shard that owns
    /// the far end.
    fn send(&mut self, shared: &Shared, dir: usize, t_ns: u64, packet: Packet) {
        let due = self.due(t_ns);
        let owner = shared.shard_of[self.dirs[dir].to.0 as usize];
        if owner == self.index {
            self.land(dir, due, packet);
        } else {
            self.work.handoffs += 1;
            self.outboxes[owner as usize].push((dir as u32, due, packet));
        }
    }

    /// Queues a packet on the FIFO of `dir`, a link into this shard.
    fn land(&mut self, dir: usize, due: Due, packet: Packet) {
        let fifo = &mut self.in_flight[dir];
        debug_assert!(
            fifo.back().is_none_or(|(back, _)| *back <= due),
            "a directed link delivers in the order it was entered"
        );
        fifo.push_back((due, packet));
        if fifo.len() == 1 {
            self.push_head(due, Source::Link(dir as u32));
        }
    }

    /// Charges the aggregate drop counter and emits a per-packet drop
    /// instant (the instant only when tracing).
    fn trace_drop(
        &mut self,
        shared: &Shared,
        flow: usize,
        reason: &'static str,
        link: Option<LinkId>,
    ) {
        self.drops += 1;
        if shared.tracer.enabled() {
            let name = shared.flows[flow].name.clone();
            shared
                .tracer
                .instant("packet", "packet.drop", self.now.t_ns, move || {
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

    fn emit(&mut self, shared: &Shared, flow: usize) {
        let f = &shared.flows[flow];
        self.flows[flow].emitted += 1;
        let state = PacketState::stamped();
        let route = f.stamp; // the packet's stamped route
        let header = shared.stamped[route as usize].label.header_bytes(&state);
        let bytes = f.payload_bytes as u64 + header as u64;
        // An interval past the end of the clock never comes round.
        let next_emit = self.now.t_ns.saturating_add(f.interval_ns);
        let dir = f.ingress_dir;
        let link = self.dirs[dir].link;
        if !shared.plane.link_up(link) {
            self.flows[flow].dropped_link_down += 1;
            self.dirs[dir].report.drops += 1;
            self.trace_drop(shared, flow, "link_down", Some(link));
        } else {
            match self.dirs[dir].enqueue(self.now.t_ns, bytes) {
                Some(arrival) => {
                    let packet = Packet {
                        flow: flow as u32,
                        route,
                        state,
                        emitted_ns: self.now.t_ns,
                    };
                    self.send(shared, dir, arrival, packet);
                }
                None => {
                    self.flows[flow].dropped_queue += 1;
                    self.trace_drop(shared, flow, "queue_full", Some(link));
                }
            }
        }
        self.push_head(self.due(next_emit), Source::Flow(flow as u32));
    }

    fn arrive(&mut self, shared: &Shared, at: NodeIdx, mut packet: Packet) {
        let flow = packet.flow as usize;
        let route = &shared.stamped[packet.route as usize];
        let outcome = shared.plane.hop(at, &route.label, &mut packet.state);
        let payload_bytes = shared.flows[flow].payload_bytes as u64;
        let f = &mut self.flows[flow];
        match outcome {
            HopOutcome::Delivered => {
                if packet.state.pot == route.expected_pot {
                    f.delivered += 1;
                    f.delivered_bytes += payload_bytes;
                    f.latency_sum_ns += self.now.t_ns - packet.emitted_ns;
                } else {
                    f.pot_rejected += 1;
                    self.pot_rejects += 1;
                    // The PoT verdict is the security-relevant event a
                    // trace reader wants pinpointed in sim time.
                    if shared.tracer.enabled() {
                        let name = shared.flows[flow].name.clone();
                        shared.tracer.instant(
                            "packet",
                            "packet.pot_reject",
                            self.now.t_ns,
                            move || vec![("flow", obsv::Value::Str(name))],
                        );
                    }
                }
            }
            HopOutcome::Drop { reason, link } => {
                let reason_str = match reason {
                    DropReason::NoRoute => {
                        f.dropped_no_route += 1;
                        "no_route"
                    }
                    DropReason::LinkDown => {
                        f.dropped_link_down += 1;
                        "link_down"
                    }
                    DropReason::TtlExpired => {
                        f.dropped_ttl += 1;
                        "ttl_expired"
                    }
                    DropReason::QueueFull => {
                        f.dropped_queue += 1;
                        "queue_full"
                    }
                };
                self.trace_drop(shared, flow, reason_str, link);
                // Charge the loss to the killing link's directed
                // counters too (mid-path failures must be visible in
                // per-link telemetry, not just per-flow).
                if let Some(lid) = link {
                    let dir = self.dir(lid, at);
                    self.dirs[dir].report.drops += 1;
                }
            }
            HopOutcome::Forwarded { link, .. } => {
                self.work.hops += 1;
                let header = route.label.header_bytes(&packet.state);
                let bytes = payload_bytes + header as u64;
                let dir = self.dir(link, at);
                match self.dirs[dir].enqueue(self.now.t_ns, bytes) {
                    Some(arrival) => self.send(shared, dir, arrival, packet),
                    None => {
                        self.flows[flow].dropped_queue += 1;
                        self.trace_drop(shared, flow, "queue_full", Some(link));
                    }
                }
            }
        }
    }
}

/// Groups the nodes into clusters joined by links shorter than a cut,
/// largest first. The cut is the longest link delay that leaves no
/// cluster with more than half the nodes, so clusters can be dealt
/// evenly and windows run as long as possible.
fn clusters(dirs: &[DirLink], nodes: usize) -> Vec<Vec<u32>> {
    let mut cuts: Vec<u64> = dirs.iter().map(|d| d.delay_ns).filter(|&d| d > 0).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let joined = |cut: u64| {
        let mut root: Vec<u32> = (0..nodes as u32).collect();
        fn find(root: &mut [u32], mut n: u32) -> u32 {
            while root[n as usize] != n {
                root[n as usize] = root[root[n as usize] as usize];
                n = root[n as usize];
            }
            n
        }
        for d in dirs.iter().filter(|d| d.delay_ns < cut) {
            let (a, b) = (find(&mut root, d.from.0), find(&mut root, d.to.0));
            root[a.max(b) as usize] = a.min(b);
        }
        let mut by_root: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for n in 0..nodes as u32 {
            let r = find(&mut root, n);
            by_root[r as usize].push(n);
        }
        let mut clusters: Vec<Vec<u32>> = by_root.into_iter().filter(|c| !c.is_empty()).collect();
        // Largest first; equal sizes by their lowest node.
        clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
        clusters
    };
    (cuts.iter().rev())
        .map(|&cut| joined(cut))
        .find(|c| c.first().is_none_or(|big| 2 * big.len() <= nodes))
        .unwrap_or_else(|| joined(cuts.first().copied().unwrap_or(0)))
}

/// Deals node clusters to shards, largest first, each to the shard
/// with the fewest nodes (the lowest index among equals). Returns each
/// cluster's shard.
fn deal(clusters: &[Vec<u32>], shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(clusters[c].len()));
    let mut load = vec![0; shards.max(1)];
    let mut of = vec![0; clusters.len()];
    for c in order {
        let (s, _) = (load.iter().enumerate())
            .min_by_key(|&(s, &l)| (l, s))
            .unwrap_or((0, &0));
        load[s] += clusters[c].len();
        of[c] = s;
    }
    of
}

/// How far one shard may run ahead of another: the soonest a packet of
/// at least `min_bytes` can arrive over a link between two shards
/// after it is sent (serialization plus propagation). `u64::MAX` when
/// no link crosses.
fn lookahead(dirs: &[DirLink], shard_of: &[u32], min_bytes: u64) -> u64 {
    (dirs.iter())
        .filter(|d| shard_of[d.from.0 as usize] != shard_of[d.to.0 as usize])
        .map(|d| d.delay_ns + d.tx_ns(min_bytes))
        .min()
        .unwrap_or(u64::MAX)
}

/// The packet network: a [`ForwardingPlane`] plus queued links, traffic
/// sources and counters, run on node shards.
#[derive(Debug)]
pub struct PacketNet {
    shared: Shared,
    /// At least one; the first one's link copies stand for the whole
    /// net where any copy will do.
    shards: Vec<Shard>,
    by_name: HashMap<String, usize>,
    /// The node clusters the shards are dealt from, and each node's
    /// cluster.
    clusters: Vec<Vec<u32>>,
    cluster_of: Vec<usize>,
    /// How many shards the windows run on while no tracer is armed, and
    /// how many the nodes are dealt to now.
    wide: usize,
    dealt: usize,
    /// Stamps no flow carries any more, which packets in flight may,
    /// and the slots of [`Shared::stamped`] free to stamp again.
    retired: Vec<u32>,
    free: Vec<u32>,
    now_ns: u64,
    window_open_ns: u64,
    prev_links: Vec<LinkReport>,
    work: EventWork,
    /// Ingress routeID rewrites performed via [`PacketNet::set_route`].
    pub ingress_rewrites: u64,
}

impl PacketNet {
    /// Builds the packet network over a topology. `alloc` must be the
    /// same allocator the controller compiles routeIDs with.
    pub fn new(topo: &Topology, alloc: &mut NodeIdAllocator) -> Result<Self, DataplaneError> {
        Self::with_shards(topo, alloc, None)
    }

    /// [`PacketNet::new`] on `shards` shards, or on as many as
    /// [`par::worker_count`] gives the topology's clusters.
    pub(crate) fn with_shards(
        topo: &Topology,
        alloc: &mut NodeIdAllocator,
        shards: Option<usize>,
    ) -> Result<Self, DataplaneError> {
        let plane = ForwardingPlane::new(topo, alloc)?;
        let dirs = directed_links(topo)?;
        let clusters = clusters(&dirs, topo.node_count());
        let wide = shards.unwrap_or_else(|| par::worker_count(clusters.len()));
        let mut cluster_of = vec![0; topo.node_count()];
        for (c, cluster) in clusters.iter().enumerate() {
            for &n in cluster {
                cluster_of[n as usize] = c;
            }
        }
        let mut net = PacketNet {
            shared: Shared {
                plane,
                flows: Vec::new(),
                stamped: Vec::new(),
                shard_of: vec![0; topo.node_count()],
                tracer: obsv::Tracer::off(),
                drops: obsv::Counter::default(),
                pot_rejects: obsv::Counter::default(),
            },
            prev_links: vec![LinkReport::default(); dirs.len()],
            shards: vec![Shard::new((0, 1), dirs, 0)],
            by_name: HashMap::new(),
            clusters,
            cluster_of,
            wide,
            dealt: 1,
            retired: Vec::new(),
            free: Vec::new(),
            now_ns: 0,
            window_open_ns: 0,
            work: EventWork::default(),
            ingress_rewrites: 0,
        };
        net.reshard(wide);
        Ok(net)
    }

    /// Deals the clusters to `shards` shards by size.
    fn reshard(&mut self, shards: usize) {
        self.dealt = shards;
        self.move_to(&deal(&self.clusters, shards));
    }

    /// Moves every link's send side, every FIFO and every head to the
    /// shard its node's cluster is dealt to in `of` (all to one when a
    /// packet could cross between two in no time). Between windows
    /// no tie can straddle, so the tie memory starts afresh.
    fn move_to(&mut self, of: &[usize]) {
        self.fold();
        let nodes = self.shared.shard_of.len();
        let mut shard_of: Vec<u32> = (0..nodes).map(|n| of[self.cluster_of[n]] as u32).collect();
        if lookahead(&self.shards[0].dirs, &shard_of, 0) == 0 {
            shard_of = vec![0; nodes];
        }
        let count = shard_of.iter().max().map_or(1, |&s| s as usize + 1);
        let mut old = std::mem::take(&mut self.shards);
        let old_of = |n: NodeIdx| self.shared.shard_of[n.0 as usize] as usize;
        let dirs: Vec<DirLink> = (0..old[0].dirs.len())
            .map(|d| old[old_of(old[0].dirs[d].from)].dirs[d].clone())
            .collect();
        let in_flight: Vec<_> = (0..dirs.len())
            .map(|d| std::mem::take(&mut old[old_of(dirs[d].to)].in_flight[d]))
            .collect();
        let heads: Vec<_> = (old.into_iter())
            .flat_map(|s| s.heads.into_entries())
            .collect();
        self.shared.shard_of = shard_of;
        let flows = self.shared.flows.len();
        self.shards = (0..count)
            .map(|i| Shard::new((i, count), dirs.clone(), flows))
            .collect();
        for (d, fifo) in in_flight.into_iter().enumerate() {
            let owner = self.shared.shard_of[dirs[d].to.0 as usize] as usize;
            self.shards[owner].in_flight[d] = fifo;
        }
        for (t_ns, key, ()) in heads {
            let owner = self.shared.owner(&dirs, key.2);
            self.shards[owner].heads.push(t_ns, key, ());
        }
    }

    /// Moves every shard's per-flow counters into the flows' totals,
    /// its loss counts into the live counters and its work counts into
    /// the net's.
    fn fold(&mut self) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for (flow, counts) in self.shared.flows.iter_mut().zip(&mut shard.flows) {
                flow.report.absorb(counts);
            }
            self.shared.drops.add(std::mem::take(&mut shard.drops));
            (self.shared.pot_rejects).add(std::mem::take(&mut shard.pot_rejects));
            self.work.absorb(i, &mut shard.work);
        }
    }

    /// Current emulator time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The event core's work so far.
    pub fn work(&self) -> &EventWork {
        &self.work
    }

    /// Attaches (or detaches) the sim-time tracer. An armed tracer runs
    /// the net on one shard.
    pub fn set_tracer(&mut self, tracer: obsv::Tracer) {
        self.shared.tracer = tracer;
    }

    /// Exposes the packet plane's live loss counters in `registry`
    /// (`dataplane.packet.drops`, `dataplane.packet.pot_rejects`).
    /// The counters are the same atomics the per-flow reports already
    /// charge, so adopting them costs nothing on the hot path.
    pub fn register_metrics(&self, registry: &obsv::Registry) {
        registry.adopt_counter("dataplane.packet.drops", &self.shared.drops);
        registry.adopt_counter("dataplane.packet.pot_rejects", &self.shared.pot_rejects);
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
        let idx = self.shared.flows.len();
        self.by_name.insert(spec.name.clone(), idx);
        let mut flow = FlowState::new(spec, ingress_dir);
        let first = flow.first_emit_ns(self.now_ns, idx);
        flow.stamp = self.stamp(Arc::clone(&flow.route));
        self.shared.flows.push(flow);
        for shard in &mut self.shards {
            shard.flows.push(FlowReport::default());
        }
        let source = Source::Flow(idx as u32);
        let owner = self.shared.owner(&self.shards[0].dirs, source);
        let key = (registered_at(self.now_ns), [0; TIE_DEPTH - 1], source);
        self.shards[owner].heads.push(first, key, ());
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
        let source = Source::Flow(idx as u32);
        let was = self.shared.owner(&self.shards[0].dirs, source);
        let route = Arc::new(route);
        let stamp = self.stamp(Arc::clone(&route));
        let old = std::mem::replace(&mut self.shared.flows[idx].stamp, stamp);
        self.retired.push(old);
        self.shared.flows[idx].route = route;
        self.shared.flows[idx].ingress_dir = ingress_dir;
        self.ingress_rewrites += 1;
        // A new ingress in another shard takes the source's head there.
        if self.shared.owner(&self.shards[0].dirs, source) != was {
            self.reshard(self.dealt);
        }
        Ok(())
    }

    /// Stamps `route` into a free slot of [`Shared::stamped`], or a new
    /// one; returns the slot.
    fn stamp(&mut self, route: Arc<FlowRoute>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.shared.stamped[slot as usize] = route;
                slot
            }
            None => {
                self.shared.stamped.push(route);
                self.shared.stamped.len() as u32 - 1
            }
        }
    }

    /// Frees the retired stamps no packet in flight carries. Between
    /// windows every packet in flight is in a FIFO.
    fn reclaim(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        let mut carried = vec![false; self.shared.stamped.len()];
        let fifos = self.shards.iter().flat_map(|s| &s.in_flight);
        for (_, packet) in fifos.flatten() {
            carried[packet.route as usize] = true;
        }
        let (kept, freed) = (self.retired.iter()).partition(|&&s| carried[s as usize]);
        self.retired = kept;
        self.free.extend::<Vec<u32>>(freed);
    }

    /// A flow's current route.
    pub fn route(&self, name: &str) -> Option<&FlowRoute> {
        (self.by_name.get(name)).map(|&i| &*self.shared.flows[i].route)
    }

    /// Fails or restores a link (both directions).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.shared.plane.set_link_up(link, up);
    }

    /// Re-rates a link (both directions) — trace-driven or scenario
    /// capacity modulation reaching the packet plane. Packets already
    /// queued keep their old serialization stamps; new arrivals drain at
    /// the new rate. Rates are floored at 1 kbps so a "zeroed" link
    /// degrades to queue overflow instead of dividing by zero.
    pub fn set_link_rate(&mut self, link: LinkId, mbps: f64) {
        let rate_kbps = (mbps * 1000.0).round().max(1.0) as u64;
        let base = link.0 as usize * 2;
        for shard in &mut self.shards {
            if let Some(pair) = shard.dirs.get_mut(base..base + 2) {
                for d in pair {
                    d.rate_kbps = rate_kbps;
                }
            }
        }
    }

    /// Cumulative counters for one flow.
    pub fn flow_report(&self, name: &str) -> Option<FlowReport> {
        (self.by_name.get(name)).map(|&i| self.shared.flows[i].report)
    }

    fn resolve_ingress(&self, route: &FlowRoute) -> Result<usize, DataplaneError> {
        (self.shared.plane)
            .link_between(route.ingress, route.first_hop)
            .map(|link| self.shards[0].dir(link, route.ingress))
            .ok_or_else(|| {
                DataplaneError::Topology(format!(
                    "ingress {:?} is not adjacent to first hop {:?}",
                    route.ingress, route.first_hop
                ))
            })
    }

    /// Runs the packet machine for `window_ns`, then closes the window
    /// and returns its counters (per directed link with measured load,
    /// per flow with goodput). In-flight packets carry over to the next
    /// window.
    pub fn run_window(&mut self, window_ns: u64) -> WindowReport {
        let shards = match self.shared.tracer.enabled() {
            true => 1,
            false => self.wide,
        };
        if shards != self.dealt {
            self.reshard(shards);
        }
        let min_bytes = (self.shared.flows.iter()).map(|f| f.payload_bytes).min();
        let step = lookahead(
            &self.shards[0].dirs,
            &self.shared.shard_of,
            min_bytes.unwrap_or(0).into(),
        );
        let end = self.now_ns + window_ns;
        self.work.windows += window_ns.div_ceil(step).max(1);
        let shared = &self.shared;
        let handed = par::settle(&mut self.shards, self.now_ns, |shard, peers| {
            shard.advance(shared, end, step, peers)
        });
        // Handoffs no shard took are due after `end`.
        for (shard, mail) in self.shards.iter_mut().zip(handed) {
            for (dir, due, packet) in mail {
                shard.land(dir as usize, due, packet);
            }
        }
        self.now_ns = end;
        self.reclaim();
        self.close_window()
    }

    fn close_window(&mut self) -> WindowReport {
        self.fold();
        let elapsed_ns = self.now_ns - self.window_open_ns;
        self.window_open_ns = self.now_ns;
        // Per-link queue occupancy, sampled at the window boundary
        // (only backlogged directions, so idle links cost nothing).
        let tracer = &self.shared.tracer;
        if tracer.enabled() {
            for d in senders(&self.shards, &self.shared.shard_of) {
                let backlog_ns = d.busy_until_ns.saturating_sub(self.now_ns);
                let backlog_bytes = backlog_ns * d.rate_kbps / 8_000_000;
                if backlog_bytes > 0 {
                    tracer.instant("packet", "packet.queue", self.now_ns, || {
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
            senders(&self.shards, &self.shared.shard_of),
            &mut self.prev_links,
            &mut self.shared.flows,
            &self.shared.plane,
        )
    }
}

/// Every directed link as its sending shard keeps it.
fn senders<'a>(shards: &'a [Shard], shard_of: &'a [u32]) -> impl Iterator<Item = &'a DirLink> {
    (0..shards[0].dirs.len()).map(move |d| {
        let from = shards[0].dirs[d].from;
        &shards[shard_of[from.0 as usize] as usize].dirs[d]
    })
}

/// The counters accumulated since the previous close, per directed link
/// (with measured load) and per flow (with goodput).
fn window_report<'a>(
    elapsed_ns: u64,
    dirs: impl IntoIterator<Item = &'a DirLink>,
    prev_links: &mut [LinkReport],
    flows: &mut [FlowState],
    plane: &ForwardingPlane,
) -> WindowReport {
    let links = dirs
        .into_iter()
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
    use freertr::resolve::path_spec;
    use netsim::topo::{fat_tree, global_p4_lab};
    use proptest::test_runner::TestRng;

    fn route_for(topo: &Topology, alloc: &mut NodeIdAllocator, names: &[&str]) -> FlowRoute {
        let path: Vec<NodeIdx> = names.iter().map(|n| topo.node(n).unwrap()).collect();
        polka_along(topo, alloc, &path)
    }

    fn polka_along(topo: &Topology, alloc: &mut NodeIdAllocator, path: &[NodeIdx]) -> FlowRoute {
        let spec = path_spec(topo, alloc, path).unwrap();
        FlowRoute::polka(path[0], path[1], spec.compile().unwrap(), &spec)
    }

    fn lab_net() -> (Topology, NodeIdAllocator, PacketNet) {
        let topo = global_p4_lab();
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let net = PacketNet::new(&topo, &mut alloc).unwrap();
        (topo, alloc, net)
    }

    const MS: u64 = 1_000_000;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_queued_head_is_48_bytes() {
        assert_eq!(Heads::ENTRY_BYTES, 40);
        assert_eq!(Heads::SLOT_BYTES, 48);
    }

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
    fn route_swaps_reuse_the_stamps_no_packet_carries() {
        let (topo, mut alloc, mut net) = lab_net();
        let routes = [
            route_for(&topo, &mut alloc, &["MIA", "SAO", "AMS"]),
            route_for(&topo, &mut alloc, &["MIA", "CHI", "AMS"]),
        ];
        net.add_flow(TrafficSpec {
            name: "f1".into(),
            route: routes[0].clone(),
            payload_bytes: 1250,
            rate_mbps: 4.0,
        })
        .unwrap();
        for i in 0..200 {
            // Two swaps in one gap retire a stamp no packet ever carried.
            for route in [&routes[(i + 1) % 2], &routes[i % 2], &routes[(i + 1) % 2]] {
                net.set_route("f1", route.clone()).unwrap();
            }
            let w = net.run_window(10 * MS);
            assert_eq!(w.flows[0].report.pot_rejected, 0);
            // The current stamp, those packets in flight still carry,
            // and the slots freed for the next swaps: 5 here, not 601.
            let stamps = net.shared.stamped.len();
            assert!(stamps <= 8, "{stamps}");
        }
        assert_eq!(net.ingress_rewrites, 600);
        assert!(net.flow_report("f1").unwrap().delivered > 0);
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

    #[test]
    fn a_source_whose_interval_outruns_the_clock_emits_once() {
        // u32::MAX bytes at the 1e-6 Mbps floor: an interval past the
        // end of the clock. The first packet goes out (too big for any
        // queue); the next emission never comes round.
        let (mut net, added) = add_source(u32::MAX, 0.0);
        added.unwrap();
        let w = net.run_window(1000 * MS);
        assert_eq!(w.flows[0].report.emitted, 1);
        assert_eq!(w.flows[0].report.dropped_queue, 1);
        for _ in 0..3 {
            assert_eq!(net.run_window(1000 * MS).flows[0].report.emitted, 0);
        }
    }

    #[test]
    fn a_fat_tree_splits_into_pods_and_cores_half_a_millisecond_apart() {
        let topo = fat_tree(8);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let net = PacketNet::with_shards(&topo, &mut alloc, Some(2)).unwrap();
        let sizes: Vec<usize> = net.clusters.iter().map(Vec::len).collect();
        assert_eq!(sizes, [vec![8; 8], vec![1; 16]].concat());
        assert_eq!(net.shards.len(), 2);
        let first = net.shared.shard_of.iter().filter(|&&s| s == 0).count();
        assert_eq!(first, 40, "dealt by size");
        let dirs = &net.shards[0].dirs;
        assert_eq!(lookahead(dirs, &net.shared.shard_of, 0), 500_000);
        // A 250-byte packet adds its serialization at 20 Mbps.
        assert_eq!(lookahead(dirs, &net.shared.shard_of, 250), 600_000);
    }

    #[test]
    fn a_net_of_many_one_node_clusters_runs_alike_on_any_shard_count() {
        // 120 routers one delay apart: 120 one-node clusters.
        let topo = netsim::topo::mesh(120, 7, 10.0);
        let run = |shards| {
            let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
            let mut net = PacketNet::with_shards(&topo, &mut alloc, Some(shards)).unwrap();
            let rng = &mut TestRng::from_seed(7);
            for i in 0..6 {
                net.add_flow(random_spec(&topo, &mut alloc, rng, i))
                    .unwrap();
            }
            let windows: Vec<WindowReport> = (0..3).map(|_| net.run_window(50 * MS)).collect();
            assert_eq!(net.clusters.len(), 120);
            assert_eq!(net.shards.len(), shards);
            windows
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn lockstep_sources_tie_in_origin_order_alike_on_any_shard_count() {
        // MIA and CHI both reach CAL over 5 Mbps, 2 ms links. Two
        // sources there with one interval (9973 ns, which the phase
        // offset divides) emit in the same nanoseconds, so their packets
        // reach CAL in the same nanoseconds down identical histories,
        // and only origin order parts them.
        let topo = global_p4_lab();
        let run = |shards| {
            let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
            let mut net = PacketNet::with_shards(&topo, &mut alloc, Some(shards)).unwrap();
            for (i, names) in [["MIA", "CAL", "CHI"], ["CHI", "CAL", "MIA"]]
                .iter()
                .enumerate()
            {
                net.add_flow(TrafficSpec {
                    name: format!("f{i}"),
                    route: route_for(&topo, &mut alloc, names),
                    payload_bytes: 1250,
                    rate_mbps: 1e7 / 9973.0,
                })
                .unwrap();
            }
            let windows: Vec<WindowReport> = (0..3).map(|_| net.run_window(100 * MS)).collect();
            (windows, net.work().clone())
        };
        let (one, two) = (run(1), run(2));
        assert!(one.1.tie_fallbacks > 0, "{:?}", one.1);
        assert_eq!(one.0, two.0);
        let exact = |w: &EventWork| {
            [
                w.emissions,
                w.arrivals,
                w.hops,
                w.tie_groups,
                w.tie_fallbacks,
            ]
        };
        assert_eq!(exact(&one.1), exact(&two.1));
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
            if below(rng, 4) == 0 {
                let spec = path_spec(topo, alloc, path).unwrap();
                return FlowRoute::segments(path[0], path[1], &spec);
            }
            return polka_along(topo, alloc, path);
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

    /// Drives the FIFO machine on one and on two shards and the heap
    /// reference through one seeded script — flows of mixed size, rate
    /// and label, then windows of unequal length with re-routes (some
    /// to an ingress in the other shard), failures, restores, re-rates
    /// (down to the 1 kbps floor and back) and late flows landing while
    /// packets are in flight — and demands equal reports after every
    /// window, then equal flow totals and exact work counts.
    fn fifo_core_matches_heap_reference(topo: &Topology, seed: u64) {
        let rng = &mut TestRng::from_seed(seed);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let mut nets: Vec<PacketNet> = (1..=2)
            .map(|shards| PacketNet::with_shards(topo, &mut alloc, Some(shards)).unwrap())
            .collect();
        assert_eq!(nets[1].shards.len(), 2, "{} splits", topo.node_count());
        let mut oracle = reference::HeapNet::new(topo, &mut alloc);
        let add_flow = |nets: &mut [PacketNet], oracle: &mut reference::HeapNet, spec| {
            for net in nets.iter_mut() {
                net.add_flow(TrafficSpec::clone(&spec)).unwrap();
            }
            oracle.add_flow(spec);
        };
        for _ in 0..2 + below(rng, 5) {
            let spec = random_spec(topo, &mut alloc, rng, nets[0].shared.flows.len());
            add_flow(&mut nets, &mut oracle, spec);
        }
        for window in 0..4 + below(rng, 4) {
            let window_ns = (1 + below(rng, 90) as u64) * MS + below(rng, 1000) as u64;
            let want = oracle.run_window(window_ns);
            for net in &mut nets {
                let shards = net.shards.len();
                assert_eq!(
                    net.run_window(window_ns),
                    want,
                    "seed {seed}, window {window}, {shards} shards"
                );
            }
            let link = LinkId(below(rng, topo.link_count()) as u32);
            match below(rng, 8) {
                0 | 1 => {
                    let flow = below(rng, nets[0].shared.flows.len());
                    let route = random_route(topo, &mut alloc, rng);
                    for net in &mut nets {
                        net.set_route(&format!("f{flow}"), route.clone()).unwrap();
                    }
                    oracle.set_route(flow, route);
                }
                2 | 3 => {
                    let up = below(rng, 2) == 0;
                    for net in &mut nets {
                        net.set_link_up(link, up);
                    }
                    oracle.set_link_up(link, up);
                }
                4 | 5 => {
                    let mbps = [0.0, topo.link(link).capacity_mbps, 3.5][below(rng, 3)];
                    for net in &mut nets {
                        net.set_link_rate(link, mbps);
                    }
                    oracle.set_link_rate(link, mbps);
                }
                6 => {
                    let spec = random_spec(topo, &mut alloc, rng, nets[0].shared.flows.len());
                    add_flow(&mut nets, &mut oracle, spec);
                }
                _ => {}
            }
        }
        let totals = |net: &PacketNet| {
            let w = net.work();
            let flows: Vec<_> = (0..net.shared.flows.len())
                .map(|f| net.flow_report(&format!("f{f}")))
                .collect();
            (
                flows,
                [
                    w.emissions,
                    w.arrivals,
                    w.hops,
                    w.tie_groups,
                    w.tie_fallbacks,
                ],
            )
        };
        assert_eq!(totals(&nets[0]), totals(&nets[1]), "seed {seed}");
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
        // 64 flows — squeezed and failed between windows, on one shard
        // and on two. The totals were captured on the global-heap
        // machine; no tie there falls back on origin order.
        for shards in 1..=2 {
            let topo = fat_tree(8);
            let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
            let mut net = PacketNet::with_shards(&topo, &mut alloc, Some(shards)).unwrap();
            let mut tunnels = Vec::new();
            for pod in 0..8 {
                let src = topo.node(&format!("p{pod}e0")).unwrap();
                let dst = topo.node(&format!("p{}e1", (pod + 4) % 8)).unwrap();
                for path in topo.k_shortest_paths(src, dst, 3) {
                    tunnels.push(polka_along(&topo, &mut alloc, &path));
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
                let drops =
                    r.dropped_queue + r.dropped_link_down + r.dropped_no_route + r.dropped_ttl;
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
                (142_315, 97_863, 155_462_490, 926_488_733_534_887_822),
                "{shards} shards"
            );
            assert_eq!(net.work().tie_fallbacks, 0, "{shards} shards");
        }
    }
}
