//! Smoke test for the `polka-hecate` facade: one public entry point per
//! re-exported crate, exercised through the facade paths a downstream
//! user would write. Guards against a re-export or crate edge silently
//! rotting out of the workspace manifest.

use polka_hecate::freertr::config::{fig10_mia_config, parse_config};
use polka_hecate::gf2poly::Poly;
use polka_hecate::hecate_ml::model::Regressor;
use polka_hecate::hecate_ml::tree::DecisionTreeRegressor;
use polka_hecate::linalg::Matrix;
use polka_hecate::lp::te::min_max_utilization;
use polka_hecate::netsim::topo::global_p4_lab;
use polka_hecate::netsim::{Event, FlowSpec, Simulation};
use polka_hecate::polka::{CoreNode, NodeId, PortId, RouteSpec};
use polka_hecate::traces::UqDataset;

#[test]
fn gf2poly_multiplication_works_through_facade() {
    // (t + 1)(t^2 + t + 1) = t^3 + 1 over GF(2).
    let a = Poly::from_binary_str("11");
    let b = Poly::from_binary_str("111");
    assert_eq!(a.mul_ref(&b), Poly::from_binary_str("1001"));
}

#[test]
fn polka_route_compiles_and_forwards() {
    let s1 = NodeId::new("s1", Poly::from_binary_str("11"));
    let s2 = NodeId::new("s2", Poly::from_binary_str("111"));
    let spec = RouteSpec::new(vec![(s1.clone(), PortId(1)), (s2.clone(), PortId(2))]);
    let route = spec.compile().expect("routeID compiles");
    assert_eq!(CoreNode::new(s1).forward(&route), Some(PortId(1)));
    assert_eq!(CoreNode::new(s2).forward(&route), Some(PortId(2)));
}

#[test]
fn hecate_ml_regressor_fits() {
    let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
    let y: Vec<f64> = (0..60).map(|i| if i < 30 { 2.0 } else { 9.0 }).collect();
    let mut model = DecisionTreeRegressor::new();
    model.fit(&Matrix::from_rows(&rows), &y).expect("fit");
    let pred = model
        .predict(&Matrix::from_rows(&[vec![10.0]]))
        .expect("predict");
    assert!((pred[0] - 2.0).abs() < 1e-9);
}

#[test]
fn netsim_carries_one_flow() {
    let topo = global_p4_lab();
    let path = topo.path_by_names(&["MIA", "CHI", "AMS"]).expect("path");
    let mut sim = Simulation::new(topo, 7);
    sim.schedule(
        0,
        Event::StartFlow {
            id: polka_hecate::netsim::FlowId(1),
            spec: FlowSpec {
                src: path[0],
                dst: path[path.len() - 1],
                demand_mbps: Some(5.0),
                tos: 0,
                label: "smoke".into(),
            },
            path: path[..].into(),
        },
    )
    .expect("valid path schedules");
    sim.run_until(2_000, 500);
    let rate = sim
        .flow_rate(polka_hecate::netsim::FlowId(1))
        .expect("flow exists");
    assert!(rate > 0.0, "flow should carry traffic, rate = {rate}");
}

#[test]
fn freertr_config_roundtrips() {
    let cfg = fig10_mia_config();
    let back = parse_config(&cfg.emit()).expect("emitted config parses");
    assert_eq!(back, cfg);
}

#[test]
fn lp_te_allocates_within_capacity() {
    let alloc = min_max_utilization(12.0, &[10.0, 10.0]).expect("feasible");
    let total: f64 = alloc.flows.iter().sum();
    assert!((total - 12.0).abs() < 1e-6);
    assert!(alloc.max_utilization <= 1.0 + 1e-9);
}

#[test]
fn traces_generate_the_two_paths() {
    let d = UqDataset::default_dataset();
    assert_eq!(d.wifi.len(), 500);
    assert_eq!(d.lte.len(), 500);
}
