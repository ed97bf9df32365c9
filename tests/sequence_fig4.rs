//! Integration test: the Fig 4 sequence diagram.
//!
//! "startTelemetry → createTelemetry → getTelemetry → insertNewFlow →
//! requestScheduler → newFlow → askHecatePath → configureTunnel" — the
//! framework must execute the interactions in that order, across the real
//! crates (netsim emulator, freeRtr agents, PolKA compilation, Hecate).

use polka_hecate::framework::optimizer::Objective;
use polka_hecate::framework::scheduler::FlowRequest;
use polka_hecate::framework::sdn::SelfDrivingNetwork;
use polka_hecate::framework::telemetry::{Metric, SeriesKey};

#[test]
fn fig4_sequence_order() {
    let mut sdn = SelfDrivingNetwork::testbed(4).unwrap();

    // startTelemetry / createTelemetry: the controller samples paths.
    sdn.advance(20_000).unwrap();
    assert!(
        sdn.telemetry
            .len(&SeriesKey::new("tunnel1", Metric::AvailableBandwidth))
            >= 12,
        "telemetry warm"
    );

    // insertNewFlow via the scheduler (the Dashboard -> Scheduler leg).
    sdn.scheduler.submit(FlowRequest {
        label: "flow1".into(),
        tos: 32,
        demand_mbps: None,
        start_ms: 21_000,
        pair: polka_hecate::framework::PairId::default(),
    });
    sdn.advance(25_000).unwrap();

    // The recorded interaction order must follow Fig 4.
    let steps = sdn.log.steps().to_vec();
    let idx = |name: &str| {
        steps
            .iter()
            .position(|&s| s == name)
            .unwrap_or_else(|| panic!("step {name} missing from {steps:?}"))
    };
    assert!(idx("newFlow") < idx("getTelemetry"));
    assert!(idx("getTelemetry") < idx("askHecatePath"));
    assert!(idx("askHecatePath") < idx("configureTunnel"));
    assert!(idx("configureTunnel") < idx("flowStarted"));

    // The decision was forecast-driven (telemetry was warm), and the SR
    // service really configured the edge router.
    let cfg = sdn.edge().running_config();
    let entry = cfg
        .pbr
        .iter()
        .find(|e| e.acl == "flow1")
        .expect("PBR entry installed");
    assert_eq!(entry.tunnel, "tunnel1", "max-bandwidth pick");
}

#[test]
fn decisions_are_executed_by_the_polka_data_plane() {
    // The chosen tunnel's routeID must actually steer a packet through
    // the emulated topology to the egress edge.
    let mut sdn = SelfDrivingNetwork::testbed(4).unwrap();
    sdn.advance(20_000).unwrap();
    let decision = sdn
        .admit_flow(
            &FlowRequest {
                label: "flow1".into(),
                tos: 32,
                demand_mbps: None,
                start_ms: 0,
                pair: polka_hecate::framework::PairId::default(),
            },
            Objective::MaxBandwidth,
        )
        .unwrap();
    let tunnel = sdn.tunnel(&decision.tunnel).unwrap();
    let visited =
        polka_hecate::freertr::resolve::walk_route(tunnel, &sdn.sim.topo, sdn.allocator()).unwrap();
    assert_eq!(visited, tunnel.node_path);
    let names: Vec<&str> = visited.iter().map(|&n| sdn.sim.topo.node_name(n)).collect();
    assert_eq!(names.first(), Some(&"MIA"));
    assert_eq!(names.last(), Some(&"AMS"));
}

#[test]
fn latency_objective_prefers_the_low_delay_tunnel() {
    let mut sdn = SelfDrivingNetwork::testbed(4).unwrap();
    sdn.advance(25_000).unwrap();
    let d = sdn
        .admit_flow(
            &FlowRequest {
                label: "icmp".into(),
                tos: 0,
                demand_mbps: Some(0.1),
                start_ms: 0,
                pair: polka_hecate::framework::PairId::default(),
            },
            Objective::MinLatency,
        )
        .unwrap();
    assert_eq!(d.tunnel, "tunnel2", "MIA-CHI-AMS is the low-latency path");
    assert!(d.used_forecast);
}
