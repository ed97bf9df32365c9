//! Per-hop topology lookups are O(1)-ish: a 20× bigger topology must
//! not make `link_between` / `neighbor_port` meaningfully slower per
//! call. A regression to scanning the link list would blow this up
//! linearly; the prebuilt adjacency index keeps degree-local cost.

// Wall-clock timing is what this test measures.
#![allow(clippy::disallowed_methods)]

use netsim::topo::mesh;
use netsim::{NodeIdx, Topology};
use std::hint::black_box;
use std::time::Instant;

/// All adjacent (a, b) pairs of a topology, both directions.
fn adjacent_pairs(topo: &Topology) -> Vec<(NodeIdx, NodeIdx)> {
    (0..topo.node_count())
        .flat_map(|i| {
            let a = NodeIdx(i as u32);
            topo.neighbors(a).iter().map(move |(b, _)| (a, *b))
        })
        .collect()
}

/// Mean nanoseconds per `link_between` + `neighbor_port` lookup, best
/// of `reps` timed passes over every adjacent pair.
fn lookup_ns(topo: &Topology, reps: usize) -> f64 {
    let pairs = adjacent_pairs(topo);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &(a, b) in &pairs {
            if let Ok(l) = topo.link_between(a, b) {
                acc = acc.wrapping_add(l.0 as u64);
            }
            acc = acc.wrapping_add(topo.neighbor_port(a, b).unwrap_or(0) as u64);
        }
        black_box(acc);
        let per = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;
        best = best.min(per);
    }
    best
}

/// Lookups on a 20×-larger topology stay within 10× the per-call cost
/// of the small one (O(links) scans would scale with the factor-20
/// link count). Generous slack absorbs cache effects.
#[test]
fn adjacency_lookups_do_not_grow_with_topology_size() {
    let small = mesh(40, 5, 10.0);
    let large = mesh(800, 5, 10.0);
    assert!(large.link_count() >= 20 * small.link_count() * 8 / 10);
    // Warm up, then take best-of-5 per-lookup times.
    lookup_ns(&small, 1);
    lookup_ns(&large, 1);
    let small_ns = lookup_ns(&small, 5);
    let large_ns = lookup_ns(&large, 5);
    assert!(
        large_ns < small_ns * 10.0 + 50.0,
        "adjacency lookups degraded with topology size: {small_ns:.1} ns small vs {large_ns:.1} ns large"
    );
    println!("adjacency lookups: {small_ns:.1} ns @40 nodes, {large_ns:.1} ns @800 nodes");
}
