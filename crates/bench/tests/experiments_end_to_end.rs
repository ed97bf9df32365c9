//! Integration tests: the paper's two testbed experiments, end to end.
//!
//! These assert the *shape* of Figs 11 and 12 — who wins, by roughly what
//! factor — not the authors' absolute numbers (our substrate is a
//! simulator, theirs was VirtualBox + freeRtr).

use bench::figures::{fig11, fig12};

#[test]
fn fig11_latency_migration_shape() {
    let r = fig11(40, 42).unwrap();

    // Migration happened, from tunnel1 to the low-latency tunnel2.
    assert_eq!(r.tunnel_before, "tunnel1");
    assert_eq!(r.tunnel_after, "tunnel2");

    // Phase 1 RTT ~ 2*(20+9) = 58 ms; phase 2 ~ 2*(3+5) = 16 ms.
    assert!(
        (r.mean_before_ms - 58.0).abs() < 6.0,
        "phase-1 RTT {} should sit near 58 ms",
        r.mean_before_ms
    );
    assert!(
        (r.mean_after_ms - 16.0).abs() < 4.0,
        "phase-2 RTT {} should sit near 16 ms",
        r.mean_after_ms
    );
    // The headline: a ~4x improvement from one PBR rewrite.
    let gain = r.mean_before_ms / r.mean_after_ms;
    assert!(gain > 2.5, "improvement {gain}x too small");

    // The series itself steps down at the migration point.
    let before_last = r.rtt_series[(r.migration_at_s as usize) - 1].1;
    let after_first = r.rtt_series[r.migration_at_s as usize].1;
    assert!(
        after_first < before_last * 0.6,
        "visible step in the series"
    );
}

#[test]
fn fig12_flow_aggregation_shape() {
    let r = fig12(40, 42).unwrap();

    // Phase 1: all three flows share tunnel1 -> total < 20 Mbps.
    assert!(
        r.total_before_mbps < 20.0,
        "phase-1 aggregate {} must stay under the 20 Mbps bottleneck",
        r.total_before_mbps
    );
    assert!(
        r.total_before_mbps > 13.0,
        "phase-1 aggregate {} should still near-saturate tunnel1",
        r.total_before_mbps
    );

    // Redistribution: one flow per tunnel.
    let mut tunnels: Vec<&str> = r.assignment.iter().map(|(_, t)| t.as_str()).collect();
    tunnels.sort_unstable();
    assert_eq!(tunnels, vec!["tunnel1", "tunnel2", "tunnel3"]);

    // Phase 2: aggregate rises to ~30 Mbps (0.86 * 35).
    assert!(
        (r.total_after_mbps - 30.0).abs() < 3.0,
        "phase-2 aggregate {} should approach 30 Mbps",
        r.total_after_mbps
    );
    assert!(r.total_after_mbps > r.total_before_mbps * 1.5);
}

#[test]
fn experiments_are_deterministic_given_seed() {
    let run = |seed| {
        let r = fig11(20, seed).unwrap();
        (r.mean_before_ms, r.mean_after_ms)
    };
    assert_eq!(run(9), run(9));
}
