//! End-to-end: the self-driving network driving the *packet-level* data
//! plane. The control loop under test is the paper's own:
//!
//!   decide → compile routeID → forward packets → observe telemetry
//!     → forecast → re-decide
//!
//! with failure recovery exercised exactly as PolKA promises: a link
//! failure is healed by **one ingress routeID swap**, and the
//! post-migration telemetry that feeds the next forecast comes from
//! forwarded packets, not from the fluid model.

use framework::dataloop::DataplaneConfig;
use framework::optimizer::Objective;
use framework::scheduler::FlowRequest;
use framework::telemetry::{Metric, SeriesKey};
use framework::SelfDrivingNetwork;

#[test]
fn failure_recovery_is_one_ingress_rewrite_and_refuels_the_forecast() {
    let mut sdn = SelfDrivingNetwork::testbed(11).unwrap();
    sdn.attach_dataplane(DataplaneConfig::default()).unwrap();

    // One managed flow, admitted cold: phase (i) lands it on tunnel1.
    sdn.admit_flow(
        &FlowRequest {
            label: "user".into(),
            tos: 32,
            demand_mbps: Some(6.0),
            start_ms: 0,
            pair: framework::PairId::default(),
        },
        Objective::MaxBandwidth,
    )
    .unwrap();
    assert_eq!(sdn.flow_tunnel("user"), Some("tunnel1"));

    // Warm-up: enough packet epochs that every tunnel's series can feed
    // a forecast (min history = lags + 2 = 12).
    for _ in 0..14 {
        let r = sdn.packet_epoch().unwrap();
        assert_eq!(r.pot_rejected, 0, "clean traffic must verify PoT");
    }
    let plane = sdn.dataplane().unwrap();
    assert_eq!(plane.ingress_rewrites(), 0, "no migration yet");
    let f1 = sdn
        .hecate
        .forecast_all(
            &sdn.telemetry,
            &["tunnel1".into()],
            Metric::AvailableBandwidth,
        )
        .pop()
        .expect("warm series forecasts");
    assert!(f1.mean() > 15.0, "tunnel1 forecast {}", f1.mean());

    // Fail tunnel1's bottleneck. The next epochs measure the outage
    // from dropped packets: tunnel1's series collapses to zero.
    sdn.set_link_state("MIA", "SAO", false).unwrap();
    for _ in 0..3 {
        let r = sdn.packet_epoch().unwrap();
        assert!(r.dropped > 0, "failed link must drop packets");
    }
    let key1 = SeriesKey::new("tunnel1", Metric::AvailableBandwidth);
    assert_eq!(sdn.telemetry.last(&key1), Some(0.0));

    // Re-decide: the optimizer moves the flow off the dead tunnel.
    let moves = sdn.reoptimize_bandwidth().unwrap();
    let after = moves.iter().find(|(l, _)| l == "user").unwrap().1.clone();
    assert_ne!(after, "tunnel1", "flow must leave the failed tunnel");
    assert_eq!(sdn.flow_tunnel("user"), Some(after.as_str()));

    // The migration reaches the data plane as exactly ONE ingress
    // routeID swap, performed at the next epoch's ingress sync.
    let r = sdn.packet_epoch().unwrap();
    assert_eq!(r.rewrites, 1, "one PBR rewrite, core nodes untouched");
    let plane = sdn.dataplane().unwrap();
    assert_eq!(plane.ingress_rewrites(), 1);
    assert_eq!(plane.stamped_tunnel("user"), Some(after.as_str()));

    // Post-migration: packets flow again and their counters feed a
    // successful re-forecast of the new tunnel.
    let mut delivered_after = 0;
    for _ in 0..14 {
        let r = sdn.packet_epoch().unwrap();
        assert_eq!(r.rewrites, 0, "no further rewrites");
        assert_eq!(r.pot_rejected, 0, "migrated packets verify PoT");
        delivered_after += r.delivered;
    }
    assert!(delivered_after > 1000, "delivered {delivered_after}");
    let goodput = sdn
        .telemetry
        .last(&SeriesKey::new("user", Metric::FlowRate))
        .unwrap();
    assert!((goodput - 6.0).abs() < 0.6, "post-migration {goodput}");
    let f2 = sdn
        .hecate
        .forecast_all(
            &sdn.telemetry,
            std::slice::from_ref(&after),
            Metric::AvailableBandwidth,
        )
        .pop()
        .expect("packet-fed series re-forecasts");
    assert!(f2.mean() > 5.0, "{} forecast {}", after, f2.mean());
}

#[test]
fn packet_and_fluid_telemetry_agree_on_idle_capacity() {
    // Same testbed measured two ways: the fluid collector's computed
    // available bandwidth and the packet plane's measured one must tell
    // the optimizer the same story (within header overhead).
    let mut fluid = SelfDrivingNetwork::testbed(3).unwrap();
    fluid.advance(5_000).unwrap();
    let mut packet = SelfDrivingNetwork::testbed(3).unwrap();
    packet.attach_dataplane(DataplaneConfig::default()).unwrap();
    for _ in 0..5 {
        packet.packet_epoch().unwrap();
    }
    for tunnel in ["tunnel1", "tunnel2", "tunnel3"] {
        let key = SeriesKey::new(tunnel, Metric::AvailableBandwidth);
        let a = fluid.telemetry.last(&key).unwrap();
        let b = packet.telemetry.last(&key).unwrap();
        assert!((a - b).abs() < 1.0, "{tunnel}: fluid {a} vs packet {b}");
    }
}
