//! Property tests: every compiled route must forward every hop to exactly
//! the requested port, for arbitrary paths and port choices, and the
//! header codec must round-trip arbitrary labels.

use bytes::Buf;
use gf2poly::Poly;
use polka::header::PolkaHeader;
use polka::{CoreNode, NodeId, NodeIdAllocator, PortId, RouteId, RouteSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::OnceLock;

/// Every nodeID an allocator can hand out for a `u16` port space — all
/// irreducibles of degree 2..=16, which the position tables serve and
/// where a remainder is always a port — plus the first irreducible of a
/// few wider degrees, where the node divides and most remainders
/// overflow a port.
fn forwarding_nodes() -> &'static [NodeId] {
    static NODES: OnceLock<Vec<NodeId>> = OnceLock::new();
    NODES.get_or_init(|| {
        let small = (2..=16).flat_map(gf2poly::irreducibles_of_degree);
        let wide = [17, 24, 33, 48, 55, 56, 57, 64, 100].map(|d| {
            (0u64..)
                .map(|k| &Poly::monomial(d) + &Poly::from_bits(2 * k + 1))
                .find(gf2poly::is_irreducible)
                .unwrap()
        });
        small
            .chain(wide)
            .map(|poly| NodeId::new("n", poly))
            .collect()
    })
}

/// A 1 000-router ID space: degree 14, so an 8-hop label already
/// spills past one limb.
fn thousand_nodes() -> &'static [NodeId] {
    static NODES: OnceLock<Vec<NodeId>> = OnceLock::new();
    NODES.get_or_init(|| {
        let mut alloc = NodeIdAllocator::for_network(1000, 255);
        (0..1000)
            .map(|i| alloc.assign(&format!("r{i}")).unwrap())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_equals_long_division_at_every_node(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for node in forwarding_nodes() {
            let mut core = CoreNode::new(node.clone());
            // 0..=4 limbs (none = the zero routeID), the top one cut to
            // a random width so short labels and zero bytes show up.
            let mut limbs: Vec<u64> = (0..rng.below(5)).map(|_| rng.next_u64()).collect();
            if let Some(top) = limbs.last_mut() {
                *top >>= rng.below(64);
            }
            for route in [RouteId::from_poly(Poly::from_limbs(limbs)), RouteId::from_poly(Poly::zero())] {
                let rem = route.poly().rem_ref(node.poly()).unwrap();
                prop_assert_eq!(
                    core.forward(&route),
                    PortId::from_poly(&rem),
                    "{} mod {}", route, node
                );
            }
        }
    }

    #[test]
    fn crt_round_trips_on_multi_limb_labels(seed in any::<u64>(), n_hops in 6usize..14) {
        let nodes = thousand_nodes();
        let mut rng = TestRng::from_seed(seed);
        let mut hops: Vec<(NodeId, PortId)> = Vec::new();
        while hops.len() < n_hops {
            let node = &nodes[rng.below(1000) as usize];
            if hops.iter().all(|(n, _)| n != node) {
                hops.push((node.clone(), PortId(rng.below(1 << 14) as u16)));
            }
        }
        let route = RouteSpec::new(hops.clone()).compile().unwrap();
        prop_assert!(route.label_bits() <= n_hops * 14);
        prop_assert!(route.poly().limbs().len() > 1, "{} bits", route.label_bits());
        for (node, port) in &hops {
            prop_assert_eq!(CoreNode::new(node.clone()).forward(&route), Some(*port));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_routes_forward_exactly(
        n_hops in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut alloc = NodeIdAllocator::new(8); // 30 irreducibles, ports < 256
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u16
        };
        let hops: Vec<_> = (0..n_hops)
            .map(|i| {
                let node = alloc.assign(&format!("n{i}")).unwrap();
                let port = PortId(next() % 255 + 1);
                (node, port)
            })
            .collect();
        let route = RouteSpec::new(hops.clone()).compile().unwrap();
        for (node, port) in &hops {
            let mut core = polka::CoreNode::new(node.clone());
            prop_assert_eq!(core.forward(&route), Some(*port));
        }
        // The polynomial label never exceeds the sum of node degrees.
        prop_assert!(route.label_bits() <= n_hops * 8);
    }

    #[test]
    fn header_roundtrip_arbitrary_labels(limbs in prop::collection::vec(any::<u64>(), 0..8), ttl in any::<u8>(), pot in any::<u64>()) {
        let route = RouteId::from_poly(gf2poly::Poly::from_limbs(limbs));
        let mut hdr = PolkaHeader::new(route);
        hdr.ttl = ttl;
        hdr.pot = pot;
        let mut wire = hdr.encode();
        let back = PolkaHeader::decode(&mut wire).unwrap();
        prop_assert_eq!(back, hdr);
    }

    #[test]
    fn header_roundtrip_arbitrary_bit_lengths(
        bits in 0usize..1200,
        fill in any::<u64>(),
        ttl in any::<u8>(),
        pot in any::<u64>(),
    ) {
        // A routeID of *exactly* `bits` bits (top bit set), the rest
        // filled from a seeded pattern — exercises every limb-count
        // boundary the wire format can hit.
        let mut limbs = vec![0u64; bits.div_ceil(64)];
        let mut x = fill | 1;
        for l in limbs.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *l = x;
        }
        if bits > 0 {
            let top = bits - 1;
            let last = top / 64;
            limbs.truncate(last + 1);
            let keep = top % 64;
            limbs[last] &= u64::MAX >> (63 - keep); // clear above the top bit
            limbs[last] |= 1u64 << keep; // pin the exact degree
        } else {
            limbs.clear();
        }
        let route = RouteId::from_poly(gf2poly::Poly::from_limbs(limbs));
        if bits > 0 {
            prop_assert_eq!(route.label_bits(), bits);
        }
        let mut hdr = PolkaHeader::new(route);
        hdr.ttl = ttl;
        hdr.pot = pot;
        let mut wire = hdr.encode();
        let back = PolkaHeader::decode(&mut wire).unwrap();
        prop_assert_eq!(back, hdr);
        prop_assert!(!wire.has_remaining());
    }

    #[test]
    fn routeid_forwarding_visits_spec_ports_on_random_topologies(
        n in 6usize..32,
        chord in 2usize..6,
        seed in any::<u64>(),
        hops in 3usize..6,
    ) {
        // A random-ish mesh, a random walk through it, the walk
        // compiled to one routeID — forwarding at every hop must yield
        // exactly the port the spec encoded, and *following* those
        // ports through the physical topology must reproduce the walk.
        use netsim::topo::mesh;
        use netsim::NodeIdx;
        let topo = mesh(n, chord, 10.0);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // Random loop-free walk over live links.
        let mut path = vec![NodeIdx((next() % n) as u32)];
        while path.len() < hops + 1 {
            let cur = *path.last().unwrap();
            let neighbors: Vec<NodeIdx> = (1..=topo.max_port())
                .filter_map(|p| topo.neighbor_by_port(cur, p))
                .filter(|nb| !path.contains(nb))
                .collect();
            let Some(&step) = neighbors.get(next() % neighbors.len().max(1)) else {
                break; // walked into a corner; test what we have
            };
            path.push(step);
        }
        prop_assume!(path.len() >= 3);
        let mut alloc = NodeIdAllocator::for_network(n, topo.max_port().max(1));
        let mut hops_spec = Vec::new();
        for k in 1..path.len() {
            let node = alloc.assign(topo.node_name(path[k])).unwrap();
            let port = if k + 1 < path.len() {
                PortId(topo.neighbor_port(path[k], path[k + 1]).unwrap())
            } else {
                PortId(0)
            };
            hops_spec.push((node, port));
        }
        let spec = RouteSpec::new(hops_spec.clone());
        let route = spec.compile().unwrap();
        // (a) every hop's remainder is exactly the spec's port;
        for (node, port) in &hops_spec {
            let mut core = polka::CoreNode::new(node.clone());
            prop_assert_eq!(core.forward(&route), Some(*port));
        }
        // (b) steering by those remainders through the topology
        // reproduces the originating walk.
        let mut visited = vec![path[1]];
        let mut cur = path[1];
        loop {
            let id = alloc.get(topo.node_name(cur)).unwrap().clone();
            let mut core = polka::CoreNode::new(id);
            let port = core.forward(&route).unwrap();
            if port == PortId(0) {
                break;
            }
            cur = topo.neighbor_by_port(cur, port.0).unwrap();
            visited.push(cur);
            prop_assert!(visited.len() <= path.len(), "routing loop");
        }
        prop_assert_eq!(visited, path[1..].to_vec());
    }

    #[test]
    fn pot_verifies_iff_path_untampered(
        n_hops in 2usize..8,
        tamper in 0usize..8,
    ) {
        let mut alloc = NodeIdAllocator::new(8);
        let hops: Vec<_> = (0..n_hops)
            .map(|i| (alloc.assign(&format!("n{i}")).unwrap(), PortId(i as u16 + 1)))
            .collect();
        let spec = RouteSpec::new(hops.clone());
        let route = spec.compile().unwrap();
        let nodes: Vec<_> = hops.iter().map(|(n, _)| n.clone()).collect();

        // Clean traversal verifies.
        let clean = polka::pot::accumulate_pot(&route, &nodes);
        prop_assert!(polka::pot::verify_pot(&spec, clean));

        // Dropping any single hop breaks verification.
        let tamper = tamper % n_hops;
        let mut tampered_nodes = nodes.clone();
        tampered_nodes.remove(tamper);
        let bad = polka::pot::accumulate_pot(&route, &tampered_nodes);
        prop_assert!(!polka::pot::verify_pot(&spec, bad));
    }
}
