//! The canned scenario catalog: nine fixed-seed
//! `(topology × traffic × events)` combinations covering every traffic
//! model, every event type, single- and multi-pair traffic matrices,
//! and every topology family except Erdős–Rényi (exercised by the
//! determinism proptests instead) — the suite `repro scenarios` runs
//! and the determinism tests replay.
//!
//! Managed flows always start while the network is healthy (scripted
//! failures fire later); every scenario keeps at least one tunnel
//! alive at all times.

use crate::elastic::ElasticSpec;
use crate::events::{EventKind, EventSpec, LinkPick};
use crate::runner::{FlowPlan, PlaneMode, Scenario};
use crate::traffic::TrafficSpec;
use crate::zoo::TopologySpec;

fn flows3() -> Vec<FlowPlan> {
    vec![
        FlowPlan {
            label: "flow1".into(),
            demand_mbps: None,
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "flow2".into(),
            demand_mbps: Some(6.0),
            start_epoch: 2,
            pair: 0,
        },
        FlowPlan {
            label: "flow3".into(),
            demand_mbps: None,
            start_epoch: 4,
            pair: 0,
        },
    ]
}

fn base(name: &str, topology: TopologySpec, traffic: TrafficSpec, seed: u64) -> Scenario {
    Scenario {
        name: name.into(),
        topology,
        traffic,
        events: Vec::new(),
        flows: flows3(),
        pairs: 1,
        horizon_epochs: 60,
        decision_every: 10,
        k_tunnels: 3,
        // Below the fluid plane's 0.86 protocol efficiency: a healthy
        // demand-declared flow meets its SLO, a squeezed one does not.
        slo_fraction: 0.8,
        plane: PlaneMode::Fluid,
        elastic: None,
        seed,
    }
}

/// The full suite: 9 scenarios × (3 policies when run as a matrix),
/// including two multi-pair traffic matrices (fluid WAN with 4 pairs,
/// packet fat-tree with 3 pairs).
pub fn catalog() -> Vec<Scenario> {
    let mut out = Vec::new();

    // 1. Datacenter fabric, heavy-tailed traffic, mid-run failure of
    // the primary's aggregation uplink (restored after 15 epochs).
    let mut s = base(
        "fat-tree-elephants",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::ElephantMice {
            elephants: 2,
            mice: 10,
            elephant_mbps: 4.0,
            mouse_mbps: 1.0,
            mouse_epochs: 6,
        },
        101,
    );
    s.events = vec![EventSpec {
        at_epoch: 30,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(1),
            restore_after: Some(15),
        },
    }];
    out.push(s);

    // 2. US research backbone under diurnal load with a flap storm on
    // the primary's first backbone hop.
    let mut s = base(
        "esnet-diurnal-flaps",
        TopologySpec::EsnetLike,
        TrafficSpec::DiurnalGravity {
            pairs: 12,
            total_mbps: 400.0,
            amplitude: 0.6,
            period_epochs: 40.0,
        },
        102,
    );
    s.events = vec![EventSpec {
        at_epoch: 26,
        kind: EventKind::FlapStorm {
            link: LinkPick::PrimaryHop(1),
            flaps: 3,
            period_epochs: 6,
        },
    }];
    out.push(s);

    // 3. European backbone, gravity demands, a maintenance drain that
    // quarters the primary's capacity for 20 epochs.
    let mut s = base(
        "geant-gravity-drain",
        TopologySpec::GeantLike,
        TrafficSpec::Gravity {
            pairs: 14,
            total_mbps: 350.0,
        },
        103,
    );
    s.events = vec![EventSpec {
        at_epoch: 24,
        kind: EventKind::Drain {
            link: LinkPick::PrimaryHop(1),
            factor: 0.25,
            restore_after: Some(20),
        },
    }];
    out.push(s);

    // 4. Metro ring with express chords, bursty on/off cross-traffic,
    // and a *permanent* failure. Half the path capacity is genuinely
    // gone, so full 80% recovery may honestly read "never" — the
    // policies differentiate on how much goodput they salvage.
    let mut s = base(
        "ring-onoff-blackout",
        TopologySpec::RingChords {
            n: 24,
            chord_every: 4,
        },
        TrafficSpec::OnOff {
            sources: 10,
            rate_mbps: 5.0,
            p_on: 0.25,
            p_off: 0.35,
        },
        104,
    );
    s.events = vec![EventSpec {
        at_epoch: 28,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(2),
            restore_after: None,
        },
    }];
    out.push(s);

    // 5. Random Waxman WAN under gravity load with a cascading double
    // impairment: first hop 1 fails, then hop 2 drains while 1 is
    // still down.
    let mut s = base(
        "waxman-cascade",
        TopologySpec::Waxman {
            n: 24,
            alpha: 0.9,
            beta: 0.4,
        },
        TrafficSpec::Gravity {
            pairs: 16,
            total_mbps: 120.0,
        },
        105,
    );
    s.events = vec![
        EventSpec {
            at_epoch: 24,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: Some(16),
            },
        },
        EventSpec {
            at_epoch: 30,
            kind: EventKind::Drain {
                link: LinkPick::PrimaryHop(2),
                factor: 0.3,
                restore_after: Some(12),
            },
        },
    ];
    out.push(s);

    // 6. Two-tier WAN flooded with mice while the primary's core hop
    // flap-storms.
    let mut s = base(
        "twotier-mice-storm",
        TopologySpec::TwoTierWan {
            cores: 6,
            edges_per_core: 2,
        },
        TrafficSpec::ElephantMice {
            elephants: 1,
            mice: 18,
            elephant_mbps: 6.0,
            mouse_mbps: 1.5,
            mouse_epochs: 5,
        },
        106,
    );
    s.events = vec![EventSpec {
        at_epoch: 22,
        kind: EventKind::FlapStorm {
            link: LinkPick::PrimaryHop(1),
            flaps: 4,
            period_epochs: 5,
        },
    }];
    out.push(s);

    // 7. The packet-plane scenario: real PolKA forwarding with queues
    // and routeID swaps on the fat-tree, light gravity background, a
    // transient failure. Shorter horizon — packets cost more than
    // fluid.
    let mut s = base(
        "fat-tree-packet",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Gravity {
            pairs: 6,
            total_mbps: 18.0,
        },
        107,
    );
    s.plane = PlaneMode::Packet;
    s.horizon_epochs = 36;
    // Modest demands: the fat-tree edge has two 10 Mbps uplinks, and
    // packet queues shave anything greedy — declared demands keep the
    // SLO column meaningful.
    s.flows = vec![
        FlowPlan {
            label: "flow1".into(),
            demand_mbps: Some(2.5),
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "flow2".into(),
            demand_mbps: Some(2.5),
            start_epoch: 2,
            pair: 0,
        },
        FlowPlan {
            label: "flow3".into(),
            demand_mbps: None,
            start_epoch: 4,
            pair: 0,
        },
    ];
    s.events = vec![EventSpec {
        at_epoch: 18,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(1),
            restore_after: Some(8),
        },
    }];
    out.push(s);

    // 8. The multi-pair WAN: a true traffic matrix of four managed
    // ingress/egress pairs over the US backbone (gravity-spread
    // endpoints from the zoo's farthest-pair generalization), whose
    // candidate tunnels overlap on shared trunks. Mid-run the primary
    // pair's first backbone hop fails, so the shared-link-aware
    // optimizer has to re-pack all four pairs without oversubscribing
    // the surviving trunks.
    let mut s = base(
        "wan-multipair",
        TopologySpec::EsnetLike,
        TrafficSpec::Gravity {
            pairs: 10,
            total_mbps: 300.0,
        },
        108,
    );
    s.pairs = 4;
    s.k_tunnels = 2;
    s.flows = vec![
        FlowPlan {
            label: "m0".into(),
            demand_mbps: None,
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "m1".into(),
            demand_mbps: Some(12.0),
            start_epoch: 1,
            pair: 1,
        },
        FlowPlan {
            label: "m2".into(),
            demand_mbps: None,
            start_epoch: 2,
            pair: 2,
        },
        FlowPlan {
            label: "m3".into(),
            demand_mbps: Some(8.0),
            start_epoch: 3,
            pair: 3,
        },
        FlowPlan {
            label: "m0b".into(),
            demand_mbps: Some(10.0),
            start_epoch: 4,
            pair: 0,
        },
    ];
    s.events = vec![EventSpec {
        at_epoch: 26,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(1),
            restore_after: None,
        },
    }];
    out.push(s);

    // 9. The multi-pair packet-plane scenario: three managed pairs on
    // the fat-tree forwarding real PolKA packets (per-pair probes +
    // sources), with a transient failure on pair 0's primary uplink.
    let mut s = base(
        "fat-tree-packet-multipair",
        TopologySpec::FatTree { k: 4 },
        TrafficSpec::Gravity {
            pairs: 4,
            total_mbps: 12.0,
        },
        109,
    );
    s.pairs = 3;
    s.k_tunnels = 2;
    s.plane = PlaneMode::Packet;
    s.horizon_epochs = 30;
    s.flows = vec![
        FlowPlan {
            label: "q0".into(),
            demand_mbps: Some(2.0),
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "q1".into(),
            demand_mbps: Some(2.0),
            start_epoch: 1,
            pair: 1,
        },
        FlowPlan {
            label: "q2".into(),
            demand_mbps: None,
            start_epoch: 2,
            pair: 2,
        },
    ];
    s.events = vec![EventSpec {
        at_epoch: 14,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(1),
            restore_after: Some(8),
        },
    }];
    out.push(s);

    out
}

/// The event-core scale-out scenario: a 1000-node Waxman WAN carrying
/// ~100k elastic background flows (400 long-lived greedy elephants +
/// 1,660 mice/epoch churning with 3-epoch lifetimes) alongside two
/// managed pairs, with a transient mid-run failure on the primary's
/// first hop. Not part of [`catalog`] — the tick-priced debug suites
/// iterate that; this one is sized for the release-mode
/// `repro sim` / `repro scenarios` runs and the throughput benchmark,
/// and must replay bit-identically like everything else.
pub fn scale_1k() -> Scenario {
    let mut s = base(
        "scale-1k",
        TopologySpec::Waxman {
            n: 1000,
            alpha: 0.15,
            beta: 0.15,
        },
        // Background load is carried by real elastic flows below, not
        // by the capacity-folding traffic models.
        TrafficSpec::Gravity {
            pairs: 0,
            total_mbps: 0.0,
        },
        110,
    );
    s.pairs = 2;
    s.k_tunnels = 2;
    s.flows = vec![
        FlowPlan {
            label: "m0".into(),
            demand_mbps: None,
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "m1".into(),
            demand_mbps: Some(4.0),
            start_epoch: 2,
            pair: 1,
        },
    ];
    s.events = vec![EventSpec {
        at_epoch: 30,
        kind: EventKind::LinkDown {
            link: LinkPick::PrimaryHop(1),
            restore_after: Some(15),
        },
    }];
    s.elastic = Some(ElasticSpec {
        elephants: 400,
        mice_per_epoch: 1660,
        mouse_mbps: 0.75,
        mouse_lifetime_epochs: 3,
        routes: 800,
        // A quarter of the mice double their demand mid-life: scripted
        // SetFlowDemand churn for the incremental water-fill.
        mouse_ramp: Some(2.0),
    });
    s
}

/// The CI-sized cut of [`scale_1k`]: same 1000-node graph and flow
/// churn *rate*, 40% horizon (the flow population scales along because
/// mice are per-epoch).
pub fn scale_1k_smoke() -> Scenario {
    scale_1k().scaled(0.4)
}

/// The CI smoke subset: every catalog scenario at 40% horizon —
/// small topologies are unchanged (they are already small), event
/// epochs scale along.
pub fn catalog_smoke() -> Vec<Scenario> {
    catalog().into_iter().map(|s| s.scaled(0.4)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_axes() {
        let cat = catalog();
        assert!(cat.len() >= 6, "acceptance: >= 6 distinct scenarios");
        // Distinct names, distinct seeds.
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), cat.len());
        // Every event kind appears somewhere.
        let kinds: Vec<&EventSpec> = cat.iter().flat_map(|s| &s.events).collect();
        assert!(kinds
            .iter()
            .any(|e| matches!(e.kind, EventKind::LinkDown { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e.kind, EventKind::FlapStorm { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e.kind, EventKind::Drain { .. })));
        // At least one packet-plane scenario.
        assert!(cat.iter().any(|s| s.plane == PlaneMode::Packet));
        // The multi-pair axis: a fluid WAN matrix with 4 pairs and a
        // packet fat-tree matrix with 3 pairs, flows on every pair.
        for (name, pairs, plane) in [
            ("wan-multipair", 4, PlaneMode::Fluid),
            ("fat-tree-packet-multipair", 3, PlaneMode::Packet),
        ] {
            let s = cat.iter().find(|s| s.name == name).expect(name);
            assert_eq!(s.pairs, pairs);
            assert_eq!(s.plane, plane);
            for p in 0..pairs {
                assert!(
                    s.flows.iter().any(|f| f.pair == p),
                    "{name}: pair {p} has no managed flow"
                );
            }
            assert!(s.flows.iter().all(|f| f.pair < pairs));
        }
        // Flows start before the first impairment everywhere.
        for s in &cat {
            let first_event = s
                .events
                .iter()
                .map(|e| e.at_epoch)
                .min()
                .unwrap_or(u64::MAX);
            for f in &s.flows {
                assert!(
                    f.start_epoch + 2 < first_event,
                    "{}: flow starts too late",
                    s.name
                );
            }
        }
    }

    #[test]
    fn scale_1k_is_shaped_for_the_event_core() {
        let s = scale_1k();
        assert_eq!(s.name, "scale-1k");
        assert!(s.elastic.is_some());
        assert_eq!(s.plane, PlaneMode::Fluid);
        // Deliberately not in the tick-priced debug suites.
        assert!(catalog().iter().all(|c| c.name != s.name));
        let smoke = scale_1k_smoke();
        assert!(smoke.horizon_epochs < s.horizon_epochs / 2 + 1);
        assert_eq!(smoke.elastic, s.elastic, "churn rate survives scaling");
    }

    #[test]
    fn elastic_background_replays_bit_identically() {
        use crate::elastic::ElasticSpec;
        use crate::Policy;
        // A debug-sized cut of scale-1k: same mechanism, small numbers.
        let mut s = scale_1k();
        s.topology = TopologySpec::Waxman {
            n: 40,
            alpha: 0.9,
            beta: 0.4,
        };
        s.horizon_epochs = 12;
        s.decision_every = 4;
        s.events = vec![EventSpec {
            at_epoch: 6,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: Some(4),
            },
        }];
        s.elastic = Some(ElasticSpec {
            elephants: 6,
            mice_per_epoch: 30,
            mouse_mbps: 0.5,
            mouse_lifetime_epochs: 2,
            routes: 40,
            mouse_ramp: Some(2.0),
        });
        let a = s.run(Policy::Hecate).unwrap();
        let b = s.run(Policy::Hecate).unwrap();
        assert_eq!(a, b, "elastic background must not break determinism");
        assert!(a.mean_aggregate_mbps > 0.0);
    }

    #[test]
    fn elastic_background_is_fluid_only() {
        use crate::elastic::ElasticSpec;
        use crate::Policy;
        let mut s = catalog()
            .into_iter()
            .find(|s| s.plane == PlaneMode::Packet)
            .expect("catalog has a packet scenario");
        s.elastic = Some(ElasticSpec {
            elephants: 1,
            mice_per_epoch: 1,
            mouse_mbps: 0.5,
            mouse_lifetime_epochs: 1,
            routes: 4,
            mouse_ramp: None,
        });
        assert!(s.run(Policy::Hecate).is_err());
    }

    #[test]
    fn smoke_subset_is_short() {
        for (full, smoke) in catalog().iter().zip(catalog_smoke()) {
            assert!(smoke.horizon_epochs <= full.horizon_epochs / 2);
            assert_eq!(smoke.name, full.name);
        }
    }
}
