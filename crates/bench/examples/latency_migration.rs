//! Experiment 1 (paper Fig 11): agile migration to a lower-latency path.
//!
//! An ICMP stream runs for 60 s on tunnel 1 (MIA-SAO-AMS, crossing the
//! 20 ms tc-delayed link). The optimizer is then consulted with the
//! min-latency objective; Hecate's RTT forecasts recommend tunnel 2
//! (MIA-CHI-AMS) and the flow migrates with a single PBR rewrite at the
//! MIA edge — no core-network change. The RTT drops ~4x.
//!
//! Run with: `cargo run --release -p bench --example latency_migration`

use bench::figures::fig11;
use framework::dashboard::sparkline;
use framework::sdn::SelfDrivingNetwork;

fn main() {
    let sdn = SelfDrivingNetwork::testbed(42).expect("testbed builds");
    println!("tunnels: {:?}", sdn.tunnel_names());
    for name in sdn.tunnel_names() {
        let t = sdn.tunnel(&name).unwrap();
        let hops: Vec<&str> = t
            .node_path
            .iter()
            .map(|&n| sdn.sim.topo.node_name(n))
            .collect();
        println!(
            "  {name}: {} (label {} bits)",
            hops.join("-"),
            t.label_bits()
        );
    }

    let result = fig11(60, 42).expect("experiment completes");

    println!("\nping host1 -> host2, 1 Hz:");
    let rtts: Vec<f64> = result.rtt_series.iter().map(|(_, v)| *v).collect();
    println!("  {}", sparkline(&rtts));
    for (t, rtt) in result.rtt_series.iter().step_by(10) {
        println!("  t={t:5.0}s rtt={rtt:6.2} ms");
    }
    println!(
        "\nmigration at t={}s: {} -> {}",
        result.migration_at_s, result.tunnel_before, result.tunnel_after
    );
    println!(
        "mean RTT before: {:6.2} ms   after: {:6.2} ms   improvement: {:.1}x",
        result.mean_before_ms,
        result.mean_after_ms,
        result.mean_before_ms / result.mean_after_ms
    );
    assert!(result.mean_after_ms < result.mean_before_ms / 2.0);
    println!("\nFig 11 shape reproduced: single PBR rewrite, large RTT drop.");
}
