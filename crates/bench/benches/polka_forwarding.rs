//! Bench: the PolKA forwarding primitive vs the port-switching baseline.
//!
//! Measures (a) per-hop work: one polynomial `mod` (PolKA, the node's
//! position-table reduction) vs one list pop + header rewrite (segment list); and
//! (b) controller-side route compilation (CRT) as path length grows —
//! the ablation called out in DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2poly::Poly;
use polka::{CoreNode, NodeId, NodeIdAllocator, PortId, RouteId, RouteSpec, SegmentListRoute};
use std::hint::black_box;

fn routes_of_len(hops: usize) -> (RouteSpec, Vec<polka::NodeId>) {
    // Size the ID space to the path: 32 hops need more than the 30
    // degree-8 irreducibles.
    let mut alloc = NodeIdAllocator::for_network(hops, 255);
    let spec: Vec<_> = (0..hops)
        .map(|i| {
            let node = alloc.assign(&format!("n{i}")).unwrap();
            (node, PortId((i % 200 + 1) as u16))
        })
        .collect();
    let nodes = spec.iter().map(|(n, _)| n.clone()).collect();
    (RouteSpec::new(spec), nodes)
}

fn bench_per_hop_forwarding(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_hop_forwarding");
    for hops in [3usize, 8, 16, 32] {
        let (spec, nodes) = routes_of_len(hops);
        let route = spec.compile().unwrap();
        // PolKA: one mod at a middle node, no header mutation.
        let mut core = CoreNode::new(nodes[hops / 2].clone());
        group.bench_with_input(BenchmarkId::new("polka_mod", hops), &hops, |b, _| {
            b.iter(|| black_box(core.forward(black_box(&route))))
        });
        // Baseline: pop + (modelled) header rewrite at every hop.
        let ports: Vec<PortId> = spec.hops().iter().map(|(_, p)| *p).collect();
        group.bench_with_input(BenchmarkId::new("segment_pop", hops), &hops, |b, _| {
            b.iter(|| {
                let mut r = SegmentListRoute::new(black_box(ports.clone()));
                black_box(r.pop_forward())
            })
        });
    }
    group.finish();
}

fn bench_route_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_compilation_crt");
    for hops in [3usize, 8, 16, 32] {
        let (spec, _) = routes_of_len(hops);
        group.bench_with_input(BenchmarkId::from_parameter(hops), &hops, |b, _| {
            b.iter(|| black_box(spec.compile().unwrap()))
        });
    }
    group.finish();
}

fn bench_polynomial_mod_sizes(c: &mut Criterion) {
    // The raw kernel: remainder of a long routeID by a degree-8 nodeID.
    let mut group = c.benchmark_group("gf2_mod_kernel");
    for label_bits in [64usize, 256, 1024] {
        let route = RouteId::from_poly(Poly::monomial(label_bits - 1));
        // AES polynomial
        let mut core = CoreNode::new(NodeId::new("aes", Poly::from_bits(0b1_0001_1011)));
        group.bench_with_input(
            BenchmarkId::from_parameter(label_bits),
            &label_bits,
            |b, _| b.iter(|| black_box(core.forward(black_box(&route)))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_per_hop_forwarding,
    bench_route_compilation,
    bench_polynomial_mod_sizes
);
criterion_main!(benches);
