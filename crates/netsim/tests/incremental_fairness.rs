//! Pins incremental ≡ full: the [`FairShareEngine`]'s component-local
//! re-water-fill must land on the same allocation as a from-scratch
//! [`max_min_allocation`] after every event, over random arrival /
//! departure / reroute / capacity / failure sequences.
//!
//! The reference is the *independent* oracle — a different algorithm
//! (running residuals, decremented) from the kernel's canonical fill —
//! and the tolerance is 1e-6, not bitwise: max-min allocations are
//! unique, so the two can only differ by float accumulation order, but
//! on these integer-capacity meshes they do differ, and so does the
//! kernel against its own from-scratch recompute (`replay(423325, 11, 3,
//! 34)` leaves a flow at 3.8 where the recompute says
//! 3.8000000000000007 — two valid freeze orders, one ulp apart; about 3
//! cases in 1 000 do). What must never happen is a
//! *macroscopic* miss; [`whole_number_tie_keeps_its_peers`] pins the one
//! the kernel had before its at-level tests allowed an epsilon.

use netsim::fairness::{directed_links, max_min_allocation, AllocFlow, FairShareEngine};
use netsim::topo::mesh;
use netsim::{FlowId, NodeIdx, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministic xorshift so each proptest case derives its own event
/// sequence from one seed.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The oracle: full water-fill over the same flow set, dead paths
/// degraded exactly as the simulator does (empty links + zero demand).
fn reference_rates(
    topo: &Topology,
    paths: &BTreeMap<FlowId, (Vec<NodeIdx>, Option<f64>)>,
) -> BTreeMap<FlowId, f64> {
    let order: Vec<FlowId> = paths.keys().copied().collect();
    let alloc: Vec<AllocFlow> = order
        .iter()
        .map(|id| {
            let (path, demand) = &paths[id];
            match directed_links(topo, path) {
                Ok(links) => AllocFlow {
                    links,
                    demand: *demand,
                },
                Err(_) => AllocFlow {
                    links: Vec::new(),
                    demand: Some(0.0),
                },
            }
        })
        .collect();
    let rates = max_min_allocation(topo, &alloc);
    order.into_iter().zip(rates).collect()
}

/// After a link up/down flip, every flow re-derives its live link set —
/// the simulator does this only for flows crossing the flipped hop (via
/// its hop index), but `set_links` no-ops on unchanged link sets, so
/// sweeping everyone is behaviorally identical.
fn rederive_all(
    engine: &mut FairShareEngine,
    topo: &Topology,
    paths: &BTreeMap<FlowId, (Vec<NodeIdx>, Option<f64>)>,
) {
    for (id, (path, _)) in paths {
        engine.set_links(topo, *id, directed_links(topo, path).ok());
    }
}

/// Replays one random event sequence, checking the engine against the
/// oracle after every resolve.
fn replay(seed: u64, n: usize, stride: usize, ops: usize) {
    let mut topo = mesh(n, stride, 10.0);
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut engine = FairShareEngine::new();
    let mut paths: BTreeMap<FlowId, (Vec<NodeIdx>, Option<f64>)> = BTreeMap::new();
    let mut next_id = 0u64;
    let nodes = topo.node_count() as u64;
    let links = topo.link_count() as u64;

    for _ in 0..ops {
        match rng.below(10) {
            // arrival (weighted heaviest)
            0..=3 => {
                let src = NodeIdx(rng.below(nodes) as u32);
                let dst = NodeIdx(rng.below(nodes) as u32);
                if src == dst {
                    continue;
                }
                let Some(path) = topo.shortest_path_by_delay(src, dst) else {
                    continue;
                };
                let demand = match rng.below(3) {
                    0 => Some(rng.below(60) as f64 / 10.0 + 0.1),
                    _ => None,
                };
                next_id += 1;
                let id = FlowId(next_id);
                engine.insert_flow(&topo, id, directed_links(&topo, &path).ok(), demand);
                paths.insert(id, (path, demand));
            }
            // departure
            4..=5 => {
                let Some(&id) = paths
                    .keys()
                    .nth(rng.below(paths.len().max(1) as u64) as usize)
                else {
                    continue;
                };
                engine.remove_flow(id);
                paths.remove(&id);
            }
            // reroute onto a (possibly identical) shortest path
            6 => {
                let Some(&id) = paths.keys().next() else {
                    continue;
                };
                let (old, _) = &paths[&id];
                let (src, dst) = (old[0], *old.last().unwrap());
                let Some(path) = topo.shortest_path_by_delay(src, dst) else {
                    continue;
                };
                engine.set_links(&topo, id, directed_links(&topo, &path).ok());
                paths.get_mut(&id).unwrap().0 = path;
            }
            // capacity change
            7 => {
                let lid = netsim::LinkId(rng.below(links) as u32);
                let cap = rng.below(40) as f64 + 1.0;
                if topo.link(lid).capacity_mbps != cap {
                    topo.link_mut(lid).capacity_mbps = cap;
                    engine.capacity_changed(&topo, lid);
                }
            }
            // demand ramp: up, down, or to greedy
            8 => {
                let Some(&id) = paths
                    .keys()
                    .nth(rng.below(paths.len().max(1) as u64) as usize)
                else {
                    continue;
                };
                let demand = match rng.below(4) {
                    0 => None,
                    _ => Some(rng.below(60) as f64 / 10.0 + 0.1),
                };
                engine.set_demand(id, demand);
                paths.get_mut(&id).unwrap().1 = demand;
            }
            // link down / up
            _ => {
                let lid = netsim::LinkId(rng.below(links) as u32);
                let up = !topo.link(lid).up;
                topo.link_mut(lid).up = up;
                rederive_all(&mut engine, &topo, &paths);
            }
        }
        engine.resolve();

        let want = reference_rates(&topo, &paths);
        let got: BTreeMap<FlowId, f64> = engine.rates().into_iter().collect();
        assert_eq!(got.len(), want.len());
        for (id, w) in &want {
            let g = got[id];
            assert!(
                (g - w).abs() < 1e-6,
                "flow {id:?}: incremental {g} vs full {w} (seed {seed}, n {n}, stride {stride}, ops {ops})",
            );
        }
    }
    // the incremental path must actually be exercised, not just
    // fall back to full solves every time
    let stats = engine.stats();
    assert!(
        stats.incremental_solves + stats.fast_path_events > 0 || paths.len() < 3,
        "no incremental work at all: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_matches_full_recompute(
        seed in 1u64..5_000_000,
        n in 8usize..14,
        stride in 2usize..4,
        ops in 25usize..45,
    ) {
        replay(seed, n, stride, ops);
    }
}

/// Whole-number capacities put three flows at `10/3` and
/// `10 − 2·(10/3)` on one link — the same water level, one ulp apart.
/// A bitwise at-level test left the lower one out when a peer departed:
/// stuck at 3.33 Mbps where max-min is 5.0.
#[test]
fn whole_number_tie_keeps_its_peers() {
    replay(3658, 11, 2, 44);
}
