//! The forwarding plane: per-node port tables precomputed from a
//! topology, one [`CoreNode`] per router, and the batch-of-packets-per-
//! hop fast path.
//!
//! The plane is the *engine* — pure forwarding with no notion of time.
//! Queueing, delay and drops-by-congestion live in [`crate::netem`];
//! sharding by ingress lives in [`crate::shard`]. Core nodes are stateless
//! (their entire forwarding state is one polynomial), so the plane is
//! `Clone` and shards share nothing.

use crate::label::{FlowLabel, FlowRoute, PacketState};
use crate::DataplaneError;
use netsim::topo::NodeKind;
use netsim::{LinkId, NodeIdx, Topology};
use polka::{CoreNode, NodeIdAllocator, PortId};

/// Why a packet died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The label did not decode to a usable port at some node.
    NoRoute,
    /// The output link is failed.
    LinkDown,
    /// The hop budget ran out (routing loop or tampered label).
    TtlExpired,
    /// The output link's drop-tail queue was full.
    QueueFull,
}

/// The outcome of one forwarding operation at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// Send out `port` towards `next` over `link`.
    Forwarded {
        /// Output port taken.
        port: PortId,
        /// Neighbor the port faces.
        next: NodeIdx,
        /// The traversed link.
        link: LinkId,
    },
    /// Port 0: decapsulate and deliver locally (packet at egress).
    Delivered,
    /// The packet is dropped here.
    Drop {
        /// Why the packet died.
        reason: DropReason,
        /// The output link that killed it, when one was resolved
        /// (`LinkDown` drops carry it so per-link loss counters can be
        /// charged; decode failures have no link).
        link: Option<LinkId>,
    },
}

#[derive(Debug, Clone)]
struct PlaneNode {
    /// The PolKA data-plane element; `None` for hosts.
    core: Option<CoreNode>,
    /// 1-based physical port → (neighbor, link). Index 0 is unused
    /// (port 0 means "deliver locally").
    ports: Vec<Option<(NodeIdx, LinkId)>>,
}

/// Counters from forwarding one batch through the plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Packets delivered at egress with a verified proof-of-transit.
    pub delivered: u64,
    /// Packets delivered at egress whose PoT accumulator did not match
    /// the route spec — rejected by the egress edge.
    pub pot_rejected: u64,
    /// Dropped: label failed to decode somewhere.
    pub dropped_no_route: u64,
    /// Dropped: a traversed link was down.
    pub dropped_link_down: u64,
    /// Dropped: TTL expired.
    pub dropped_ttl: u64,
    /// Total per-hop forwarding operations executed (the unit the
    /// throughput benches count).
    pub hop_ops: u64,
}

impl BatchReport {
    /// Merges another report into this one (used by the shard merger).
    pub fn merge(&mut self, other: &BatchReport) {
        self.delivered += other.delivered;
        self.pot_rejected += other.pot_rejected;
        self.dropped_no_route += other.dropped_no_route;
        self.dropped_link_down += other.dropped_link_down;
        self.dropped_ttl += other.dropped_ttl;
        self.hop_ops += other.hop_ops;
    }

    /// Every packet accounted for by this report.
    pub fn total(&self) -> u64 {
        self.delivered
            + self.pot_rejected
            + self.dropped_no_route
            + self.dropped_link_down
            + self.dropped_ttl
    }
}

/// The assembled plane: every router instantiated as a [`CoreNode`],
/// every physical port resolved to its neighbor and link.
#[derive(Debug, Clone)]
pub struct ForwardingPlane {
    nodes: Vec<PlaneNode>,
    link_up: Vec<bool>,
}

impl ForwardingPlane {
    /// Builds the plane for a topology. Every non-host node is assigned
    /// a nodeID from `alloc` — pass the same allocator the controller
    /// compiles routeIDs with, so labels and the plane agree (the
    /// allocator memoizes by name).
    pub fn new(topo: &Topology, alloc: &mut NodeIdAllocator) -> Result<Self, DataplaneError> {
        // Rebuild adjacency from the link list (the public topology API
        // only exposes up-link adjacency; the port numbering must be
        // static across failures).
        let mut neighbors: Vec<Vec<(NodeIdx, LinkId)>> = vec![Vec::new(); topo.node_count()];
        for (i, link) in topo.links().iter().enumerate() {
            let lid = LinkId(i as u32);
            neighbors[link.a.0 as usize].push((link.b, lid));
            neighbors[link.b.0 as usize].push((link.a, lid));
        }
        let mut nodes = Vec::with_capacity(topo.node_count());
        for (n, node_adj) in neighbors.iter().enumerate() {
            let idx = NodeIdx(n as u32);
            let core = if topo.node_kind(idx) == NodeKind::Host {
                None
            } else {
                Some(CoreNode::new(alloc.assign(topo.node_name(idx))?))
            };
            // Ports are numbered by ascending neighbor index, mirroring
            // `Topology::neighbor_port`.
            let mut adj = node_adj.clone();
            adj.sort_by_key(|(nb, _)| nb.0);
            let mut ports = vec![None; adj.len() + 1];
            for (p, (nb, lid)) in adj.into_iter().enumerate() {
                ports[p + 1] = Some((nb, lid));
            }
            nodes.push(PlaneNode { core, ports });
        }
        Ok(ForwardingPlane {
            nodes,
            link_up: topo.links().iter().map(|l| l.up).collect(),
        })
    }

    /// Fails or restores a link.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if let Some(slot) = self.link_up.get_mut(link.0 as usize) {
            *slot = up;
        }
    }

    /// Current link state.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.link_up.get(link.0 as usize).copied().unwrap_or(false)
    }

    /// The link `from`'s port table reaches neighbor `to` over (the
    /// highest-numbered one when links run in parallel).
    pub fn link_between(&self, from: NodeIdx, to: NodeIdx) -> Option<LinkId> {
        let ports = &self.nodes.get(from.0 as usize)?.ports;
        ports
            .iter()
            .rev()
            .flatten()
            .find(|(neighbor, _)| *neighbor == to)
            .map(|(_, link)| *link)
    }

    /// One forwarding operation: the packet (with mutable `state`) shows
    /// up at `at` carrying `label`.
    pub fn hop(&self, at: NodeIdx, label: &FlowLabel, state: &mut PacketState) -> HopOutcome {
        if state.ttl == 0 {
            return HopOutcome::Drop {
                reason: DropReason::TtlExpired,
                link: None,
            };
        }
        let node = &self.nodes[at.0 as usize];
        let Some(core) = node.core.as_ref() else {
            return HopOutcome::Drop {
                reason: DropReason::NoRoute,
                link: None,
            };
        };
        let Some(port) = label.next_port(state, core) else {
            return HopOutcome::Drop {
                reason: DropReason::NoRoute,
                link: None,
            };
        };
        if port == PortId(0) {
            return HopOutcome::Delivered;
        }
        let Some(Some((next, link))) = node.ports.get(port.0 as usize) else {
            return HopOutcome::Drop {
                reason: DropReason::NoRoute,
                link: None,
            };
        };
        if !self.link_up[link.0 as usize] {
            return HopOutcome::Drop {
                reason: DropReason::LinkDown,
                link: Some(*link),
            };
        }
        state.ttl -= 1;
        HopOutcome::Forwarded {
            port,
            next: *next,
            link: *link,
        }
    }

    /// Walks one packet from the route's first hop to its fate.
    /// Returns the nodes visited (starting at `route.first_hop`).
    pub fn walk(
        &mut self,
        route: &FlowRoute,
        state: &mut PacketState,
    ) -> (Vec<NodeIdx>, HopOutcome) {
        let mut at = route.first_hop;
        let mut visited = vec![at];
        loop {
            match self.hop(at, &route.label, state) {
                HopOutcome::Forwarded { next, .. } => {
                    at = next;
                    visited.push(at);
                }
                outcome => return (visited, outcome),
            }
        }
    }

    /// The hot path: forwards `count` packets of one flow, batched per
    /// hop — the whole batch is pushed through node *k* before any
    /// packet touches node *k+1*, so each hop's [`CoreNode`] and label
    /// stay cache-resident across the inner loop. Every packet still
    /// executes its own per-hop forwarding operation (one GF(2)
    /// remainder for PolKA, one pop for the segment list): batching
    /// amortizes lookups, never the per-packet work.
    pub fn forward_batch(&mut self, route: &FlowRoute, count: usize) -> BatchReport {
        let mut report = BatchReport::default();
        if count == 0 {
            return report;
        }
        let mut states = vec![PacketState::stamped(); count];
        // Packets of one flow share the label, hence the path: the batch
        // stays together and per-packet fates diverge only at the end
        // (PoT verification), so `alive` is a prefix length.
        let mut at = route.first_hop;
        loop {
            // Advance packet 0 to learn the batch's hop outcome, then
            // run the identical per-packet operation for the rest.
            let outcome = self.hop(at, &route.label, &mut states[0]);
            report.hop_ops += 1;
            match outcome {
                HopOutcome::Forwarded { next, .. } => {
                    for state in &mut states[1..] {
                        self.hop(at, &route.label, state);
                        report.hop_ops += 1;
                    }
                    at = next;
                }
                HopOutcome::Delivered => {
                    for state in &mut states[1..] {
                        self.hop(at, &route.label, state);
                        report.hop_ops += 1;
                    }
                    for state in &states {
                        if state.pot == route.expected_pot {
                            report.delivered += 1;
                        } else {
                            report.pot_rejected += 1;
                        }
                    }
                    return report;
                }
                HopOutcome::Drop { reason, .. } => {
                    for state in &mut states[1..] {
                        self.hop(at, &route.label, state);
                        report.hop_ops += 1;
                    }
                    let n = count as u64;
                    match reason {
                        DropReason::NoRoute => report.dropped_no_route += n,
                        DropReason::LinkDown => report.dropped_link_down += n,
                        DropReason::TtlExpired => report.dropped_ttl += n,
                        // detlint: allow(bare-panic) — DropReason is
                        // shared with the emulator, but this engine has
                        // no queues; hop() can only construct the three
                        // reasons above, so this arm is dead by local
                        // inspection, not by caller contract.
                        DropReason::QueueFull => unreachable!("the plane has no queues"),
                    }
                    return report;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freertr::resolve::path_spec;
    use netsim::topo::global_p4_lab;

    /// Compiles the MIA→SAO→AMS tunnel against the lab topology.
    fn tunnel1(topo: &Topology, alloc: &mut NodeIdAllocator) -> FlowRoute {
        route_for(topo, alloc, &["MIA", "SAO", "AMS"], true)
    }

    fn route_for(
        topo: &Topology,
        alloc: &mut NodeIdAllocator,
        names: &[&str],
        polka: bool,
    ) -> FlowRoute {
        let path: Vec<NodeIdx> = names.iter().map(|n| topo.node(n).unwrap()).collect();
        let spec = path_spec(topo, alloc, &path).unwrap();
        if polka {
            FlowRoute::polka(path[0], path[1], spec.compile().unwrap(), &spec)
        } else {
            FlowRoute::segments(path[0], path[1], &spec)
        }
    }

    fn lab() -> (Topology, NodeIdAllocator) {
        let topo = global_p4_lab();
        let alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        (topo, alloc)
    }

    #[test]
    fn walk_follows_the_compiled_path() {
        let (topo, mut alloc) = lab();
        let route = tunnel1(&topo, &mut alloc);
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let mut state = PacketState::stamped();
        let (visited, outcome) = plane.walk(&route, &mut state);
        assert_eq!(outcome, HopOutcome::Delivered);
        let names: Vec<&str> = visited.iter().map(|&n| topo.node_name(n)).collect();
        assert_eq!(names, vec!["SAO", "AMS"]);
        assert_eq!(state.pot, route.expected_pot, "egress PoT verifies");
    }

    #[test]
    fn batch_delivers_every_packet_with_pot() {
        let (topo, mut alloc) = lab();
        let route = tunnel1(&topo, &mut alloc);
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let r = plane.forward_batch(&route, 256);
        assert_eq!(r.delivered, 256);
        assert_eq!(r.pot_rejected, 0);
        assert_eq!(r.total(), 256);
        // 2 encoded hops (SAO, AMS) * 256 packets.
        assert_eq!(r.hop_ops, 512);
    }

    #[test]
    fn polka_and_segment_batches_agree() {
        let (topo, mut alloc) = lab();
        let names = ["MIA", "CAL", "CHI", "AMS"];
        let pk = route_for(&topo, &mut alloc, &names, true);
        let sl = route_for(&topo, &mut alloc, &names, false);
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let a = plane.forward_batch(&pk, 64);
        let b = plane.forward_batch(&sl, 64);
        assert_eq!(a, b, "same pipeline, same counters");
        assert_eq!(a.delivered, 64);
    }

    #[test]
    fn failed_link_drops_the_batch() {
        let (topo, mut alloc) = lab();
        let route = tunnel1(&topo, &mut alloc);
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let sao = topo.node("SAO").unwrap();
        let ams = topo.node("AMS").unwrap();
        plane.set_link_up(topo.link_between(sao, ams).unwrap(), false);
        let r = plane.forward_batch(&route, 32);
        assert_eq!(r.dropped_link_down, 32);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn tampered_label_never_panics_and_never_verifies() {
        // Corrupt the routeID: the packet either fails to decode, loops
        // until TTL death, or reaches some egress where PoT rejects it.
        let (topo, mut alloc) = lab();
        let mut route = tunnel1(&topo, &mut alloc);
        if let FlowLabel::Polka(r) = &route.label {
            let corrupted = r.poly() + &gf2poly::Poly::from_bits(0b1101);
            route.label = FlowLabel::Polka(polka::RouteId::from_poly(corrupted));
        }
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let r = plane.forward_batch(&route, 16);
        assert_eq!(r.delivered, 0, "tampered packets must not verify: {r:?}");
        assert_eq!(r.total(), 16);
    }

    #[test]
    fn host_nodes_do_not_forward() {
        let (topo, mut alloc) = lab();
        let mut route = tunnel1(&topo, &mut alloc);
        route.first_hop = topo.node("host1").unwrap();
        let mut plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        let r = plane.forward_batch(&route, 4);
        assert_eq!(r.dropped_no_route, 4);
    }
}
