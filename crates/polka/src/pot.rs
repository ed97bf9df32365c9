//! Proof-of-transit for PolKA paths (PoT-PolKA, Borges et al., IEEE TNSM
//! 2024 — reference \[18\] of the paper).
//!
//! The edge wants evidence that a packet actually traversed the programmed
//! path. Each core node folds its locally-computed remainder (its output
//! port, which only the on-path CRT system predicts) into a running
//! accumulator carried in the header. The egress edge recomputes the
//! expected accumulator from the route spec and compares.
//!
//! The accumulator here is a 64-bit polynomial hash of the hop remainders —
//! a faithful functional model of the scheme (the hardware version uses the
//! same CRC datapath as forwarding).

use crate::route::port_by_division;
use crate::{NodeId, PortId, RouteId, RouteSpec};

/// Multiplier for the rolling polynomial hash (an irreducible pattern,
/// so collisions require structured adversarial input).
const FOLD_MULTIPLIER: u64 = 0x1B; // x^4 + x^3 + x + 1 folding constant

/// Folds one hop's port remainder into the accumulator.
#[inline]
pub fn fold(acc: u64, port: PortId) -> u64 {
    acc.rotate_left(8) ^ (acc.wrapping_mul(FOLD_MULTIPLIER)) ^ port.0 as u64 ^ 0xA5
}

/// Folds one hop's `(node, port)` pair: the node's polynomial identity
/// is mixed in before the port fold, standing in for the per-node keyed
/// function of the hardware scheme. Binding the node matters: two
/// disjoint paths can share a *port* sequence (e.g. "port 2 then
/// deliver" through different routers), and a port-only accumulator
/// would let a detour through look-alike ports verify.
#[inline]
pub fn fold_hop(acc: u64, node: &NodeId, port: PortId) -> u64 {
    fold(acc ^ node.poly().low_bits().rotate_left(17), port)
}

/// The expected proof-of-transit value for a compiled route, computed by
/// the controller/egress from the route spec.
pub fn expected_pot(spec: &RouteSpec) -> u64 {
    spec.hops()
        .iter()
        .fold(0u64, |acc, (node, port)| fold_hop(acc, node, *port))
}

/// Walks the route through the given data-plane nodes, updating the
/// accumulator exactly as in-network PoT would. Returns the final value.
pub fn accumulate_pot(route: &RouteId, nodes: &[NodeId]) -> u64 {
    nodes.iter().fold(0u64, |acc, n| {
        let port = port_by_division(route, n).unwrap_or(PortId(0));
        fold_hop(acc, n, port)
    })
}

/// Egress-side verification: did the packet visit exactly the programmed
/// hops, in order?
pub fn verify_pot(spec: &RouteSpec, observed: u64) -> bool {
    expected_pot(spec) == observed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::Poly;

    fn spec3() -> RouteSpec {
        RouteSpec::new(vec![
            (NodeId::new("s1", Poly::from_binary_str("11")), PortId(1)),
            (NodeId::new("s2", Poly::from_binary_str("111")), PortId(2)),
            (NodeId::new("s3", Poly::from_binary_str("1011")), PortId(6)),
        ])
    }

    #[test]
    fn on_path_packet_verifies() {
        let spec = spec3();
        let route = spec.compile().unwrap();
        let nodes: Vec<NodeId> = spec.hops().iter().map(|(n, _)| n.clone()).collect();
        let observed = accumulate_pot(&route, &nodes);
        assert!(verify_pot(&spec, observed));
    }

    #[test]
    fn skipped_hop_fails_verification() {
        let spec = spec3();
        let route = spec.compile().unwrap();
        let nodes: Vec<NodeId> = spec
            .hops()
            .iter()
            .skip(1) // packet "teleported" past s1
            .map(|(n, _)| n.clone())
            .collect();
        let observed = accumulate_pot(&route, &nodes);
        assert!(!verify_pot(&spec, observed));
    }

    #[test]
    fn reordered_hops_fail_verification() {
        let spec = spec3();
        let route = spec.compile().unwrap();
        let mut nodes: Vec<NodeId> = spec.hops().iter().map(|(n, _)| n.clone()).collect();
        nodes.swap(0, 2);
        let observed = accumulate_pot(&route, &nodes);
        assert!(!verify_pot(&spec, observed));
    }

    #[test]
    fn detour_through_foreign_node_fails() {
        let spec = spec3();
        let route = spec.compile().unwrap();
        let mut nodes: Vec<NodeId> = spec.hops().iter().map(|(n, _)| n.clone()).collect();
        nodes.insert(1, NodeId::new("evil", Poly::from_binary_str("11111")));
        let observed = accumulate_pot(&route, &nodes);
        assert!(!verify_pot(&spec, observed));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let a = fold(fold(0, PortId(1)), PortId(2));
        let b = fold(fold(0, PortId(2)), PortId(1));
        assert_ne!(a, b);
    }

    #[test]
    fn lookalike_port_sequences_through_different_nodes_differ() {
        // Two disjoint one-hop detours can present the *same* port
        // sequence; the node-bound fold must still tell them apart.
        let s2 = NodeId::new("s2", Poly::from_binary_str("111"));
        let s3 = NodeId::new("s3", Poly::from_binary_str("1011"));
        let egress = NodeId::new("e", Poly::from_binary_str("11111"));
        let via_s2 = RouteSpec::new(vec![(s2, PortId(2)), (egress.clone(), PortId(0))]);
        let via_s3 = RouteSpec::new(vec![(s3, PortId(2)), (egress, PortId(0))]);
        assert_ne!(expected_pot(&via_s2), expected_pot(&via_s3));
    }
}
