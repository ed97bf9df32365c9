//! Experiment 2 (paper Fig 12): flow aggregation across multiple paths.
//!
//! Three greedy TCP flows (ToS 32/64/96) start on tunnel 1, sharing its
//! 20 Mbps bottleneck (< 20 Mbps total goodput). At t=60 s the optimizer
//! redistributes them — one flow per tunnel (20/10/5 Mbps bottlenecks) —
//! and aggregate goodput rises to ≈ 30 Mbps, matching the paper's
//! reported increase.
//!
//! Run with: `cargo run --release -p bench --example flow_aggregation`

use bench::figures::fig12;
use framework::dashboard::{flow_row, sparkline};

fn main() {
    let result = fig12(60, 42).expect("experiment completes");

    println!("per-flow goodput (1 Hz):");
    for (label, series) in &result.per_flow {
        let values: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
        let last = values.last().copied().unwrap_or(0.0);
        println!("  {}", flow_row(label, last, &values));
    }
    let totals: Vec<f64> = result.total.iter().map(|(_, v)| *v).collect();
    println!("  total      {}", sparkline(&totals));

    println!("\naggregate goodput samples:");
    for (t, v) in result.total.iter().step_by(10) {
        println!("  t={t:5.0}s total={v:6.2} Mbps");
    }

    println!(
        "\nredistribution at t={}s; final assignment:",
        result.redistribution_at_s
    );
    for (flow, tunnel) in &result.assignment {
        println!("  {flow} -> {tunnel}");
    }
    println!(
        "\nsteady aggregate before: {:5.2} Mbps   after: {:5.2} Mbps",
        result.total_before_mbps, result.total_after_mbps
    );
    assert!(
        result.total_before_mbps < 20.0,
        "phase 1 under the 20 Mbps cap"
    );
    assert!(result.total_after_mbps > 25.0, "phase 2 near 30 Mbps");
    println!("\nFig 12 shape reproduced: <20 Mbps on one tunnel, ~30 Mbps split.");
}
