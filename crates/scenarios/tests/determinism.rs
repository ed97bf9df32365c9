//! The scenario engine's two contracts:
//!
//! 1. **Determinism** — any `(seed, scenario-config, policy)` triple
//!    replays to a *bit-identical* `Scorecard` (every float compared
//!    exactly). This is what makes scorecards comparable across
//!    machines and policy rows comparable to each other.
//! 2. **Recovery** — on `fat_tree(4)` with no background traffic, a
//!    scripted single-link failure of the primary tunnel is always
//!    routed around within one policy decision interval (plus the TCP
//!    ramp), for both adaptive policies.

use proptest::prelude::*;
use scenarios::events::{EventKind, EventSpec, LinkPick};
use scenarios::{
    catalog_smoke, FlowPlan, ObsvOptions, PlaneMode, Policy, Scenario, TopologySpec, TrafficSpec,
};

fn replayable(
    seed: u64,
    horizon: u64,
    topology: TopologySpec,
    traffic: TrafficSpec,
    pair_count: usize,
) -> Scenario {
    // Managed flows spread round-robin across the declared pairs, so
    // every pair of a multi-pair matrix actually carries traffic.
    let flows = vec![
        FlowPlan {
            label: "a".into(),
            demand_mbps: None,
            start_epoch: 0,
            pair: 0,
        },
        FlowPlan {
            label: "b".into(),
            demand_mbps: Some(3.0),
            start_epoch: 1,
            pair: 1 % pair_count,
        },
        FlowPlan {
            label: "c".into(),
            demand_mbps: None,
            start_epoch: 2,
            pair: 2 % pair_count,
        },
        FlowPlan {
            label: "d".into(),
            demand_mbps: Some(2.0),
            start_epoch: 3,
            pair: 3 % pair_count,
        },
    ];
    Scenario {
        name: "prop".into(),
        topology,
        traffic,
        events: vec![EventSpec {
            at_epoch: horizon / 2,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: Some(4),
            },
        }],
        flows,
        pairs: pair_count,
        horizon_epochs: horizon,
        decision_every: 5,
        k_tunnels: if pair_count > 1 { 2 } else { 3 },
        slo_fraction: 0.8,
        plane: PlaneMode::Fluid,
        elastic: None,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (seed, topology family, traffic family, pair count 1..=4,
    /// policy) replays to a bit-identical scorecard — the multi-pair
    /// generalization of the original single-pair contract.
    #[test]
    fn any_seed_and_config_replays_bit_identically(
        seed in 0u64..10_000,
        topo_pick in 0usize..4,
        traffic_pick in 0usize..4,
        pair_count in 1usize..=4,
        policy_pick in 0usize..3,
    ) {
        let topology = match topo_pick {
            0 => TopologySpec::FatTree { k: 4 },
            1 => TopologySpec::RingChords { n: 12, chord_every: 3 },
            2 => TopologySpec::Waxman { n: 14, alpha: 0.9, beta: 0.4 },
            _ => TopologySpec::ErdosRenyi { n: 14, link_prob: 0.25 },
        };
        let traffic = match traffic_pick {
            0 => TrafficSpec::Gravity { pairs: 6, total_mbps: 30.0 },
            1 => TrafficSpec::DiurnalGravity {
                pairs: 5, total_mbps: 25.0, amplitude: 0.5, period_epochs: 12.0,
            },
            2 => TrafficSpec::ElephantMice {
                elephants: 2, mice: 6, elephant_mbps: 3.0, mouse_mbps: 1.0, mouse_epochs: 3,
            },
            _ => TrafficSpec::OnOff { sources: 5, rate_mbps: 3.0, p_on: 0.3, p_off: 0.4 },
        };
        let policy = Policy::all()[policy_pick];
        let scenario = replayable(seed, 16, topology, traffic, pair_count);
        let first = scenario.run(policy).unwrap();
        let second = scenario.run(policy).unwrap();
        prop_assert_eq!(&first, &second, "scorecards must replay bit-identically");
        prop_assert_eq!(first.per_pair.len(), pair_count);
        // ... and the aggregate series is bitwise equal too (PartialEq
        // covers it, but make the contract explicit).
        prop_assert_eq!(
            first.aggregate_series.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.aggregate_series.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The trace contract: two fully observed runs of the same
    /// (seed, config, policy) serialize to **byte-identical** JSONL and
    /// Chrome traces — observability artifacts replay exactly like
    /// scorecards do, because records are stamped in sim time, never
    /// wall clock.
    #[test]
    fn traced_runs_serialize_byte_identically(
        seed in 0u64..10_000,
        policy_pick in 0usize..3,
        pair_count in 1usize..=3,
    ) {
        let scenario = replayable(
            seed,
            12,
            TopologySpec::FatTree { k: 4 },
            TrafficSpec::Gravity { pairs: 6, total_mbps: 30.0 },
            pair_count,
        );
        let policy = Policy::all()[policy_pick];
        let opts = ObsvOptions::full();
        let (card_a, art_a) = scenario.run_observed(policy, &opts).unwrap();
        let (card_b, art_b) = scenario.run_observed(policy, &opts).unwrap();
        prop_assert_eq!(&card_a, &card_b, "observed scorecards must replay bit-identically");
        prop_assert!(!art_a.records.is_empty(), "a traced run must emit records");
        prop_assert_eq!(art_a.jsonl(), art_b.jsonl(), "JSONL must be byte-identical");
        let chrome = art_a.chrome_trace();
        prop_assert_eq!(&chrome, &art_b.chrome_trace(), "Chrome traces must be byte-identical");
        // ... and the Chrome export is valid JSON with one event per record.
        let parsed = obsv::export::parse_json(&chrome).unwrap();
        let events = parsed.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        prop_assert_eq!(events.len(), art_a.records.len());
    }
}

/// Every canned catalog entry (smoke-scaled, including the packet-plane
/// one) replays bit-identically under the full policy matrix.
#[test]
fn smoke_catalog_matrix_replays_bit_identically() {
    for scenario in catalog_smoke() {
        let a = scenario.run_matrix().unwrap();
        let b = scenario.run_matrix().unwrap();
        assert_eq!(a, b, "{} must replay bit-identically", scenario.name);
        assert_eq!(a.len(), 3);
    }
}

/// Different seeds genuinely change the outcome (the engine is seeded,
/// not constant).
#[test]
fn different_seeds_differ() {
    let traffic = TrafficSpec::Gravity {
        pairs: 6,
        total_mbps: 30.0,
    };
    let a = replayable(1, 16, TopologySpec::FatTree { k: 4 }, traffic.clone(), 1)
        .run(Policy::Hecate)
        .unwrap();
    let b = replayable(2, 16, TopologySpec::FatTree { k: 4 }, traffic, 1)
        .run(Policy::Hecate)
        .unwrap();
    assert_ne!(a.aggregate_series, b.aggregate_series);
}

/// The multi-pair acceptance contract: the `wan-multipair` catalog
/// entry replays bit-identically, and the shared-link-aware Hecate
/// policy delivers at least static-shortest's aggregate goodput while
/// the optimizer's no-oversubscription invariant holds (unit-tested in
/// `framework::optimizer` and `tests/multipair.rs`).
#[test]
fn wan_multipair_catalog_replays_and_hecate_beats_static() {
    let scenario = scenarios::catalog()
        .into_iter()
        .find(|s| s.name == "wan-multipair")
        .expect("catalog has the multi-pair WAN");
    let a = scenario.run_matrix().unwrap();
    let b = scenario.run_matrix().unwrap();
    assert_eq!(a, b, "multi-pair matrix must replay bit-identically");
    let card = |p: Policy| a.iter().find(|c| c.policy == p.name()).unwrap();
    let hecate = card(Policy::Hecate);
    let fixed = card(Policy::StaticShortest);
    assert!(
        hecate.mean_aggregate_mbps >= fixed.mean_aggregate_mbps,
        "hecate {} must not lose to static {} on the traffic matrix",
        hecate.mean_aggregate_mbps,
        fixed.mean_aggregate_mbps
    );
    // The permanent primary failure is attributable: the aggregate
    // line decomposes into four per-pair rows.
    assert_eq!(hecate.per_pair.len(), 4);
    assert!(hecate.per_pair.iter().all(|p| p.mean_goodput_mbps > 0.0));
}

/// Regression: a scripted single-link failure on `fat_tree(4)` with no
/// background traffic is routed around within the policy's decision
/// interval plus a short TCP-ramp grace, for both adaptive policies.
/// Static routing, parked on the dead primary, must *not* recover —
/// that contrast is the point of the scenario engine.
///
/// The managed flows are demand-limited and sized so the surviving
/// tunnel can carry all of them: full recovery is physically possible,
/// so the only question is whether the policy gets there in time.
/// (The fat-tree edge has an uplink cut of 2, so greedy flows spread
/// over both disjoint tunnels could never regain 80% after losing one.)
#[test]
fn fat_tree_single_failure_recovers_within_decision_interval() {
    let decision_every = 5u64;
    let scenario = Scenario {
        name: "fat-tree-regression".into(),
        topology: TopologySpec::FatTree { k: 4 },
        traffic: TrafficSpec::Gravity {
            pairs: 0, // no background: the failure must do the damage
            total_mbps: 0.0,
        },
        events: vec![EventSpec {
            at_epoch: 20,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: None,
            },
        }],
        flows: vec![
            FlowPlan {
                label: "f1".into(),
                demand_mbps: Some(3.0),
                start_epoch: 0,
                pair: 0,
            },
            FlowPlan {
                label: "f2".into(),
                demand_mbps: Some(3.0),
                start_epoch: 0,
                pair: 0,
            },
            FlowPlan {
                label: "f3".into(),
                demand_mbps: Some(2.0),
                start_epoch: 0,
                pair: 0,
            },
        ],
        pairs: 1,
        horizon_epochs: 36,
        decision_every,
        k_tunnels: 3,
        slo_fraction: 0.8,
        plane: PlaneMode::Fluid,
        elastic: None,
        seed: 42,
    };
    for policy in [Policy::Hecate, Policy::LastSample] {
        let card = scenario.run(policy).unwrap();
        assert_eq!(card.recoveries.len(), 1, "{:?}", policy);
        let recovered = card.recoveries[0]
            .recovered_after_epochs
            .unwrap_or_else(|| panic!("{policy:?} never recovered: {card:?}"));
        // One decision interval to notice + migrate, ~3 epochs of TCP
        // ramp back to 80% of the pre-failure aggregate.
        assert!(
            recovered <= decision_every + 3,
            "{policy:?} took {recovered} epochs (> {} allowed): {card:?}",
            decision_every + 3
        );
        assert!(card.migrations >= 1, "{policy:?} must migrate: {card:?}");
    }
    let fixed = scenario.run(Policy::StaticShortest).unwrap();
    assert_eq!(
        fixed.recoveries[0].recovered_after_epochs, None,
        "static routing cannot recover from a dead primary: {fixed:?}"
    );
}
