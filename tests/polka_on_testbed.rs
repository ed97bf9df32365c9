//! Integration test: PolKA forwarding across the emulated Global P4 Lab
//! topology, including migration agility and recovery — pure data-plane
//! properties the framework relies on.

use polka_hecate::dataplane::{FlowRoute, PacketState};
use polka_hecate::freertr::config::fig10_mia_config;
use polka_hecate::freertr::packet::PacketMeta;
use polka_hecate::freertr::prefix::Ipv4Prefix;
use polka_hecate::freertr::resolve::{allocator_for, compile_tunnel, walk_route};
use polka_hecate::netsim::topo::global_p4_lab;
use polka_hecate::polka::CoreNode;

fn addr(s: &str) -> u32 {
    Ipv4Prefix::parse_addr(s).unwrap()
}

#[test]
fn packet_classification_to_delivery() {
    // A ToS-96 TCP packet: ACL flow3 -> PBR -> tunnel -> routeID -> walk.
    let topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let mut cfg = fig10_mia_config();
    cfg.set_pbr("flow3", "tunnel3").unwrap();

    let packet = PacketMeta::tcp(addr("40.40.1.10"), addr("40.40.2.2"), 40000, 5001, 96);
    let tunnel_name = cfg.classify(&packet).expect("packet matches flow3");
    assert_eq!(tunnel_name, "tunnel3");

    let tunnel = cfg.tunnel(tunnel_name).unwrap();
    let compiled = compile_tunnel(tunnel, &topo, &mut alloc).unwrap();
    let visited = walk_route(&compiled, &topo, &alloc).unwrap();
    let names: Vec<&str> = visited.iter().map(|&n| topo.node_name(n)).collect();
    assert_eq!(names, vec!["MIA", "CAL", "CHI", "AMS"]);
}

#[test]
fn migration_swaps_one_label_core_untouched() {
    // The PolKA selling point: migrating flow3 from tunnel1 to tunnel3
    // changes nothing in the core — only the edge's PBR and the label
    // the edge stamps. Node IDs (core state) stay identical.
    let topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let cfg = fig10_mia_config();
    let before: Vec<_> = alloc
        .assignments()
        .map(|(n, id)| (n.to_string(), id.clone()))
        .collect();

    let t1 = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
    let t3 = compile_tunnel(cfg.tunnel("tunnel3").unwrap(), &topo, &mut alloc).unwrap();
    assert_ne!(t1.route, t3.route, "different labels");

    // Core state after compiling both tunnels = node IDs only; no
    // per-flow entries anywhere. Recompiling tunnel1 yields the same
    // label (pure function of topology + allocator).
    let t1_again = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
    assert_eq!(t1.route, t1_again.route);
    let _ = before; // assignments only grow; nothing per-flow
}

#[test]
fn polka_label_fixed_size_vs_segment_list_shrinking() {
    // Baseline comparison: the PolKA label is one immutable polynomial;
    // the port-switching label is a list that must be rewritten per hop.
    let topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let cfg = fig10_mia_config();
    let compiled = compile_tunnel(cfg.tunnel("tunnel3").unwrap(), &topo, &mut alloc).unwrap();

    // Same path expressed as a segment list, both as stamped at ingress.
    let (ingress, first_hop) = (compiled.node_path[0], compiled.node_path[1]);
    let polka = FlowRoute::polka(ingress, first_hop, compiled.route.clone(), &compiled.spec);
    let seglist = FlowRoute::segments(ingress, first_hop, &compiled.spec);

    // PolKA: same header at every hop. Segment list: shrinks.
    let (mut polka_state, mut seg_state) = (PacketState::stamped(), PacketState::stamped());
    let (mut polka_bytes, mut seg_bytes) = (Vec::new(), Vec::new());
    for (node, port) in compiled.spec.hops() {
        let core = CoreNode::new(node.clone());
        polka_bytes.push(polka.label.header_bytes(&polka_state));
        seg_bytes.push(seglist.label.header_bytes(&seg_state));
        assert_eq!(polka.label.next_port(&mut polka_state, &core), Some(*port));
        assert_eq!(seglist.label.next_port(&mut seg_state, &core), Some(*port));
    }
    assert!(!polka.label.rewrites_header() && seglist.label.rewrites_header());
    assert!(polka_bytes.windows(2).all(|w| w[0] == w[1]));
    assert!(seg_bytes.windows(2).all(|w| w[0] > w[1]), "{seg_bytes:?}");
}

#[test]
fn failure_recovery_has_a_precomputable_backup() {
    // Fail MIA-CHI: tunnel2 dies, but tunnel1 still walks — the edge can
    // migrate with a precomputed backup label, no recomputation in core.
    let mut topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let cfg = fig10_mia_config();
    let t1 = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
    let t2 = compile_tunnel(cfg.tunnel("tunnel2").unwrap(), &topo, &mut alloc).unwrap();

    let mia = topo.node("MIA").unwrap();
    let chi = topo.node("CHI").unwrap();
    let lid = topo.link_between(mia, chi).unwrap();
    topo.link_mut(lid).up = false;

    // tunnel2's physical path is broken…
    assert!(topo.path_by_names(&["MIA", "CHI", "AMS"]).is_err());
    // …but tunnel1's label still steers correctly (and was never touched).
    let visited = walk_route(&t1, &topo, &alloc).unwrap();
    assert_eq!(visited, t1.node_path);
    let _ = t2;
}

#[test]
fn labels_stay_compact_on_long_paths() {
    // Deep path through the European ring: label grows linearly with
    // hops * node degree, staying well under an MTU.
    let topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let tunnel = polka_hecate::freertr::config::TunnelCfg {
        id: "deep".into(),
        destination: None,
        domain_path: vec![
            "MIA".into(),
            "CAL".into(),
            "CHI".into(),
            "AMS".into(),
            "PAR".into(),
            "POZ".into(),
        ],
    };
    let compiled = compile_tunnel(&tunnel, &topo, &mut alloc).unwrap();
    let visited = walk_route(&compiled, &topo, &alloc).unwrap();
    assert_eq!(visited, compiled.node_path);
    assert!(compiled.label_bits() <= 5 * alloc.degree());
    assert!(compiled.label_bits() < 8 * 64, "fits a tiny header");
}
