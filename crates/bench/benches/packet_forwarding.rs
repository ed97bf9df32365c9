//! Bench: the packet-level forwarding plane (ISSUE 3's tentpole
//! artifact).
//!
//! Three layers:
//!
//! * `batch_per_hop` — the engine fast path: a 1024-packet batch pushed
//!   through a 4-hop route, PolKA (one GF(2) remainder per packet per
//!   hop, header immutable) vs the port-switching baseline (pop per
//!   hop, header rewritten). Cost per packet = reported time / 1024.
//! * `sharded` — the same workload through `forward_sharded` at 1 and
//!   4 shards (wall clock; scales with cores).
//! * `netem_window` — 100 ms of the queued deterministic emulator
//!   (drop-tail queues, PoT verification at egress).

use bench::figures::forwarding_workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataplane::{forward_sharded, PacketNet, TrafficSpec};
use std::hint::black_box;

fn bench_batch_per_hop(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_forwarding/batch_per_hop");
    for (mode, is_polka) in [("polka", true), ("seglist", false)] {
        let (plane, items, _) = forwarding_workload(is_polka, 1024);
        let route = items[0].route.clone();
        let mut local = plane.clone();
        group.bench_function(BenchmarkId::new(mode, "1024pkts_4hops"), |b| {
            b.iter(|| black_box(local.forward_batch(black_box(&route), 1024)))
        });
    }
    group.finish();
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_forwarding/sharded");
    let (plane, items, _) = forwarding_workload(true, 2048);
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("polka_8flows", shards),
            &shards,
            |b, &shards| b.iter(|| black_box(forward_sharded(&plane, &items, shards).0)),
        );
    }
    group.finish();
}

/// Compiles a PolKA route along a named path of the lab topology.
fn lab_route(
    topo: &netsim::Topology,
    alloc: &mut polka::NodeIdAllocator,
    names: &[&str],
) -> dataplane::FlowRoute {
    let path: Vec<netsim::NodeIdx> = names.iter().map(|n| topo.node(n).unwrap()).collect();
    dataplane::FlowRoute::along_path(topo, alloc, &path, true).unwrap()
}

fn bench_netem_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_forwarding/netem_window");
    group.bench_function("p4lab_2flows_100ms", |b| {
        let topo = netsim::topo::global_p4_lab();
        b.iter(|| {
            let mut alloc =
                polka::NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
            let routes = [
                lab_route(&topo, &mut alloc, &["MIA", "SAO", "AMS"]),
                lab_route(&topo, &mut alloc, &["MIA", "CHI", "AMS"]),
            ];
            let mut net = PacketNet::new(&topo, &mut alloc).unwrap();
            for (i, route) in routes.into_iter().enumerate() {
                net.add_flow(TrafficSpec {
                    name: format!("f{i}"),
                    route,
                    payload_bytes: 1250,
                    rate_mbps: 20.0,
                })
                .unwrap();
            }
            black_box(net.run_window(100_000_000))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_per_hop,
    bench_sharded,
    bench_netem_window
);
criterion_main!(benches);
