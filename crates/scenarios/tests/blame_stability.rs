//! SLO blames under a maintenance drain.
//!
//! The scenario is the catalog's multi-pair WAN with its link failure
//! swapped for a permanent heavy maintenance drain: capacity collapses
//! under the primary pair's feet but no link is ever down, so the
//! violations classify as `waterfill-saturation` — exactly the blame
//! cause whose evidence joins the water-fill solve counters and the
//! squeezed-tunnel scan.

use scenarios::events::{EventKind, EventSpec, LinkPick};
use scenarios::{catalog, Policy, Scenario};

/// The catalog's `wan-multipair` at half horizon, with the scripted
/// failure replaced by a permanent 50x drain on the primary's first
/// backbone hop.
fn drained_multipair() -> Scenario {
    let mut s = catalog()
        .into_iter()
        .find(|s| s.name == "wan-multipair")
        .expect("catalog has the multi-pair WAN")
        .scaled(0.5);
    s.events = vec![EventSpec {
        at_epoch: 10,
        kind: EventKind::Drain {
            link: LinkPick::PrimaryHop(1),
            factor: 0.02,
            restore_after: None,
        },
    }];
    s
}

#[test]
fn the_drain_produces_waterfill_saturation_blames() {
    // Static routing parks the demand flow on the drained primary: it
    // violates persistently with no link down, so attribution lands on
    // the water-fill.
    let card = drained_multipair().run(Policy::StaticShortest).unwrap();
    let saturated: Vec<_> = card
        .blames
        .iter()
        .filter(|b| b.cause == obsv_analyze::BlameCause::WaterfillSaturation)
        .collect();
    assert!(
        !saturated.is_empty(),
        "permanent drain must saturate the water-fill: {:?}",
        card.blames
    );
    for b in &saturated {
        assert!(!b.flows.is_empty(), "{b:?}");
        // "<flow> needs more than <cap> Mb/s on <hop> (drain <link> x<f>)":
        // the squeezed hop is the drained link.
        let (_, tail) = b.detail.split_once(" on ").expect("names the hop");
        let (hop, drain) = tail.split_once(" (drain ").expect("names the drain");
        let (drained, _) = drain.split_once(" x").expect("names the factor");
        assert_eq!(hop, drained, "{b:?}");
    }
}
