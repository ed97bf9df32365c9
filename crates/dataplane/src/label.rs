//! Route labels: the two on-wire source-routing encodings behind one
//! type, so the PolKA routeID and the port-switching baseline drive the
//! exact same forwarding pipeline. Both are built from one
//! `RouteSpec`, which `freertr::resolve::path_spec` compiles from a
//! node path.
//!
//! Per-packet mutable state is deliberately tiny ([`PacketState`]): the
//! PolKA label itself is shared by every packet of a flow because core
//! nodes *never rewrite it* — that immutability is the whole point of
//! the architecture, and it is what makes the forwarding hot path
//! allocation-free.

use polka::header::PolkaHeader;
use polka::{pot, CoreNode, PortId, RouteId, RouteSpec};

/// Per-packet mutable forwarding state. Everything else (the label, the
/// expected proof-of-transit) is flow-level and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketState {
    /// Remaining hop budget, decremented per hop.
    pub ttl: u8,
    /// Proof-of-transit accumulator, folded at every core hop.
    pub pot: u64,
    /// Segment cursor ("segments left"); unused by PolKA.
    pub cursor: u16,
}

impl PacketState {
    /// The state an ingress edge stamps onto a fresh packet.
    pub fn stamped() -> Self {
        PacketState {
            ttl: 64,
            pot: 0,
            cursor: 0,
        }
    }
}

/// A flow's route label: either a PolKA routeID or the port-switching
/// segment list the PolKA papers compare against (paper, Sec. II-B:
/// every hop pops one label and rewrites the header, so the header
/// shrinks along the path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowLabel {
    /// One CRT polynomial; every hop computes `routeID mod nodeID`.
    Polka(RouteId),
    /// Ordered output ports; every hop reads `ports[cursor]` and
    /// advances the cursor (the header rewrite).
    Segments(Vec<PortId>),
}

impl FlowLabel {
    /// The per-hop operation: the output port at `core`, with the
    /// proof-of-transit fold (and the cursor advance for the segment
    /// list) applied to `state`. `None` means the label does not decode
    /// at this node, and the switch drops the packet.
    pub fn next_port(&self, state: &mut PacketState, core: &CoreNode) -> Option<PortId> {
        let port = match self {
            FlowLabel::Polka(route) => core.port(route)?,
            FlowLabel::Segments(ports) => {
                let port = *ports.get(state.cursor as usize)?;
                state.cursor += 1; // the per-hop header rewrite
                port
            }
        };
        state.pot = pot::fold_hop(state.pot, core.id(), port);
        Some(port)
    }

    /// On-wire label size in bits as stamped at ingress.
    pub fn label_bits(&self) -> usize {
        match self {
            FlowLabel::Polka(route) => route.label_bits(),
            // 16-bit port labels, the width PortId carries on the wire.
            FlowLabel::Segments(ports) => ports.len() * 16,
        }
    }

    /// Shim-header size in bytes at the packet's current hop: the
    /// segment list shrinks along the path, the PolKA label does not.
    pub fn header_bytes(&self, state: &PacketState) -> usize {
        match self {
            // The PolKA shim header is immutable and constant-size.
            FlowLabel::Polka(route) => PolkaHeader::wire_len_for(route),
            // version(1) + ttl(1) + count(2) + remaining 16-bit ports.
            FlowLabel::Segments(ports) => 4 + 2 * ports.len().saturating_sub(state.cursor as usize),
        }
    }

    /// True when forwarding mutates the packet header (the segment
    /// list); false for PolKA's read-only label.
    pub fn rewrites_header(&self) -> bool {
        matches!(self, FlowLabel::Segments(_))
    }
}

/// Everything the ingress edge needs to steer one flow: where packets
/// enter, the first encoded router, the label to stamp, and the
/// proof-of-transit value the egress will demand.
#[derive(Debug, Clone)]
pub struct FlowRoute {
    /// The edge node where packets are stamped (first element of the
    /// domain path; not encoded in the label).
    pub ingress: netsim::NodeIdx,
    /// The first router the label encodes (the edge forwards out its
    /// port towards it).
    pub first_hop: netsim::NodeIdx,
    /// The stamped label.
    pub label: FlowLabel,
    /// `pot::expected_pot` of the originating route spec — what the
    /// egress verifies.
    pub expected_pot: u64,
}

impl FlowRoute {
    /// A PolKA route: `route` is `spec` compiled (or reused), and the
    /// egress proof-of-transit is derived from the same spec.
    pub fn polka(
        ingress: netsim::NodeIdx,
        first_hop: netsim::NodeIdx,
        route: RouteId,
        spec: &RouteSpec,
    ) -> Self {
        FlowRoute {
            ingress,
            first_hop,
            label: FlowLabel::Polka(route),
            expected_pot: pot::expected_pot(spec),
        }
    }

    /// The same path expressed as the port-switching baseline.
    pub fn segments(
        ingress: netsim::NodeIdx,
        first_hop: netsim::NodeIdx,
        spec: &RouteSpec,
    ) -> Self {
        let ports = spec.hops().iter().map(|(_, p)| *p).collect();
        FlowRoute {
            ingress,
            first_hop,
            label: FlowLabel::Segments(ports),
            expected_pot: pot::expected_pot(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::Poly;
    use polka::NodeId;
    use proptest::prelude::*;

    fn polka3(spec: &RouteSpec) -> FlowRoute {
        let route = spec.compile().unwrap();
        FlowRoute::polka(netsim::NodeIdx(0), netsim::NodeIdx(1), route, spec)
    }

    fn spec3() -> RouteSpec {
        RouteSpec::new(vec![
            (NodeId::new("s1", Poly::from_binary_str("11")), PortId(1)),
            (NodeId::new("s2", Poly::from_binary_str("111")), PortId(2)),
            (NodeId::new("s3", Poly::from_binary_str("1011")), PortId(0)),
        ])
    }

    #[test]
    fn both_labels_drive_identical_ports_and_pot() {
        let spec = spec3();
        let polka = polka3(&spec);
        let segs = FlowRoute::segments(netsim::NodeIdx(0), netsim::NodeIdx(1), &spec);
        let mut sp = PacketState::stamped();
        let mut ss = PacketState::stamped();
        for (node, want) in spec.hops() {
            let core = CoreNode::new(node.clone());
            assert_eq!(polka.label.next_port(&mut sp, &core), Some(*want));
            assert_eq!(segs.label.next_port(&mut ss, &core), Some(*want));
        }
        assert_eq!(sp.pot, ss.pot);
        assert_eq!(sp.pot, polka.expected_pot);
        assert_eq!(segs.expected_pot, polka.expected_pot);
    }

    #[test]
    fn polka_label_is_read_only_segments_mutate() {
        let spec = spec3();
        let polka = polka3(&spec);
        let segs = FlowRoute::segments(netsim::NodeIdx(0), netsim::NodeIdx(1), &spec);
        assert!(!polka.label.rewrites_header());
        assert!(segs.label.rewrites_header());
        // Segment headers shrink along the path; PolKA headers do not.
        let mut state = PacketState::stamped();
        let at_ingress = segs.label.header_bytes(&state);
        let polka_at_ingress = polka.label.header_bytes(&state);
        state.cursor = 2;
        assert!(segs.label.header_bytes(&state) < at_ingress);
        assert_eq!(polka.label.header_bytes(&state), polka_at_ingress);
    }

    #[test]
    fn segment_list_exhaustion_is_none() {
        let spec = spec3();
        let segs = FlowRoute::segments(netsim::NodeIdx(0), netsim::NodeIdx(1), &spec);
        let mut state = PacketState::stamped();
        state.cursor = 3;
        let (node, _) = &spec.hops()[0];
        let core = CoreNode::new(node.clone());
        assert_eq!(segs.label.next_port(&mut state, &core), None);
    }

    #[test]
    fn stamped_header_carries_the_route() {
        let spec = spec3();
        let polka = polka3(&spec);
        let FlowLabel::Polka(route) = &polka.label else {
            panic!("a PolKA route carries a routeID: {:?}", polka.label);
        };
        let mut wire = PolkaHeader::new(route.clone()).encode();
        assert_eq!(
            wire.len(),
            polka.label.header_bytes(&PacketState::stamped())
        );
        let back = PolkaHeader::decode(&mut wire).unwrap();
        assert_eq!(FlowLabel::Polka(back.route), polka.label);
    }

    proptest! {
        #[test]
        fn segments_pop_every_port_in_order(ports in prop::collection::vec(0u16..1024, 0..32)) {
            let label = FlowLabel::Segments(ports.iter().copied().map(PortId).collect());
            let core = CoreNode::new(spec3().hops()[0].0.clone());
            let mut state = PacketState::stamped();
            for (k, &want) in ports.iter().enumerate() {
                prop_assert_eq!(label.header_bytes(&state), 4 + 2 * (ports.len() - k));
                prop_assert_eq!(label.next_port(&mut state, &core), Some(PortId(want)));
            }
            prop_assert_eq!(label.header_bytes(&state), 4);
            prop_assert_eq!(label.next_port(&mut state, &core), None);
        }
    }
}
