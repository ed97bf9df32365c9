//! Integration test for the extension experiment: the framework steering
//! a flow over wireless-trace-driven links. The walk leaves the building
//! at t≈70 s: the WiFi path (tunnel 1) collapses while LTE (tunnel 2)
//! picks up — adaptive policies must follow, static must lose.

use bench::figures::{ext_steering, SteeringResult};
use framework::Policy;
use traces::{UqDataset, UqSpec};

fn traces() -> UqDataset {
    // The walk goes outdoors early, so most of the run happens where the
    // WiFi path is collapsed and LTE is strong — the regime a static
    // choice made indoors cannot survive.
    UqDataset::generate(&UqSpec {
        len: 200,
        outdoor_at: 40,
        arrival_at: 185,
        seed: 6,
    })
}

fn run(policy: Policy) -> SteeringResult {
    ext_steering(policy, &traces(), 180).unwrap()
}

#[test]
fn adaptive_steering_beats_static() {
    let hecate = run(Policy::Hecate);
    let last = run(Policy::LastSample);
    let fixed = run(Policy::StaticShortest);

    // Over the whole run (which includes the indoor prefix where all
    // policies ride the same good WiFi path) adaptive must still win.
    assert!(
        hecate.mean_goodput > fixed.mean_goodput,
        "hecate {} must beat static {}",
        hecate.mean_goodput,
        fixed.mean_goodput
    );
    assert!(
        last.mean_goodput > fixed.mean_goodput,
        "last-sample {} must beat static {}",
        last.mean_goodput,
        fixed.mean_goodput
    );

    // The decisive window is after the walk goes outdoors (t > 70 s):
    // the WiFi tunnel is collapsed, LTE is strong, and only adaptive
    // policies are on it.
    let outdoor_mean = |r: &SteeringResult| {
        let v: Vec<f64> = r
            .goodput
            .iter()
            .filter(|(s, _)| *s > 70.0)
            .map(|(_, v)| *v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let (h, f) = (outdoor_mean(&hecate), outdoor_mean(&fixed));
    assert!(
        h > f * 1.25,
        "outdoors, hecate {h} must clearly beat static {f}"
    );

    // Adaptive policies actually migrated; static never did.
    assert!(hecate.migrations >= 1);
    assert_eq!(fixed.migrations, 0);
}

#[test]
fn steering_keeps_goodput_above_collapsed_wifi() {
    let hecate = run(Policy::Hecate);
    // After the outdoor switch, the WiFi path is worth ~12 Mbps at best;
    // LTE runs near 18-24. A steered flow should average well above the
    // collapsed-WiFi level in the second half of the run.
    let second_half: Vec<f64> = hecate
        .goodput
        .iter()
        .filter(|(s, _)| *s > 110.0)
        .map(|(_, v)| *v)
        .collect();
    let mean = second_half.iter().sum::<f64>() / second_half.len().max(1) as f64;
    assert!(mean > 9.0, "steered second-half mean {mean}");
}
