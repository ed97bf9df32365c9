//! Bench: the event-driven simulation core — external events applied per
//! second under a churning flow population, the tentpole metric of the
//! tick-to-event refactor.
//!
//! The workload mirrors the `scale-1k` scenario at bench size: a sparse
//! Waxman WAN, a greedy-elephant minority pinning its bottlenecks, and
//! a demand-limited mouse majority churning through. That shape keeps
//! the saturated-link components local, which is exactly what the
//! incremental water-fill exploits; a dense mesh where every flow
//! shares every trunk would degenerate to a global re-solve per event
//! on *any* allocator.
//!
//! On startup the bench *asserts* a throughput floor: the schedule must
//! process at ≥ 20k events/sec in release mode. The old tick core
//! priced this at O(ticks × flows) with a full water-fill per change;
//! a regression back to global recomputes blows the floor.

// Wall-clock timing is the point of a benchmark target.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{Event, FlowId, FlowSpec, NodeIdx, Simulation, Topology};
use scenarios::TopologySpec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic xorshift — the bench needs no statistical quality,
/// just a fixed schedule.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A churn schedule: `flows` arrivals over `horizon_ms` drawn from a
/// few hundred precomputed routes; 1-in-40 is a greedy stayer, the rest
/// are 0.5 Mbps mice departing after 2 simulated seconds.
fn churn_schedule(topo: &Topology, flows: usize, horizon_ms: u64) -> Vec<(u64, Event)> {
    let mut rng = Rng(0x5eed_cafe);
    let nodes = topo.node_count() as u64;
    let mut routes: Vec<(NodeIdx, NodeIdx, Arc<[NodeIdx]>)> = Vec::new();
    while routes.len() < 400 {
        let src = NodeIdx(rng.below(nodes) as u32);
        let dst = NodeIdx(rng.below(nodes) as u32);
        if src == dst {
            continue;
        }
        if let Some(path) = topo.shortest_path_by_delay(src, dst) {
            routes.push((src, dst, path.into()));
        }
    }
    let mut events = Vec::new();
    for id in 1..=(flows as u64) {
        let at = rng.below(horizon_ms * 3 / 4);
        let (src, dst, path) = routes[rng.below(routes.len() as u64) as usize].clone();
        let greedy = id % 40 == 0;
        events.push((
            at,
            Event::StartFlow {
                id: FlowId(id),
                spec: FlowSpec {
                    src,
                    dst,
                    demand_mbps: (!greedy).then_some(0.5),
                    tos: 0,
                    label: String::new(),
                },
                path,
            },
        ));
        if !greedy {
            events.push((at + 2_000, Event::StopFlow(FlowId(id))));
        }
    }
    events.sort_by_key(|(at, _)| *at);
    events
}

/// Builds a fresh sim, schedules the canned churn, runs it to the
/// horizon, and returns events processed.
fn run_once(topo: &Topology, schedule: &[(u64, Event)], horizon_ms: u64) -> u64 {
    let mut sim = Simulation::new(topo.clone(), 7);
    for (at, ev) in schedule {
        sim.mark_background(match ev {
            Event::StartFlow { id, .. } | Event::StopFlow(id) => *id,
            _ => unreachable!("churn schedule is starts/stops only"),
        });
        sim.schedule(*at, ev.clone()).expect("schedule is valid");
    }
    sim.run_until(horizon_ms, 1_000);
    sim.events_processed()
}

fn waxman(n: usize) -> Topology {
    TopologySpec::Waxman {
        n,
        alpha: 0.15,
        beta: 0.15,
    }
    .build(7)
}

/// Floor assertion: the event core must clear 20k events/sec on the
/// 250-node churn workload (it measures ~210k on the 2-core reference
/// container, so the floor leaves ~10× headroom for slow CI machines
/// while still catching an order-of-magnitude regression — the tick
/// core measured ~200).
fn assert_throughput_floor() {
    let topo = waxman(250);
    let horizon_ms = 20_000;
    let schedule = churn_schedule(&topo, 8_000, horizon_ms);
    run_once(&topo, &schedule, horizon_ms); // warm-up
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let events = run_once(&topo, &schedule, horizon_ms);
        let eps = events as f64 / t0.elapsed().as_secs_f64();
        best = best.max(eps);
    }
    assert!(
        best >= 20_000.0,
        "event core throughput regressed: {best:.0} events/sec < 20k floor"
    );
    println!("sim event throughput: {best:.0} events/sec (floor 20k)");
}

fn bench_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_event_throughput");
    for (nodes, flows) in [(100usize, 2_000usize), (250, 8_000)] {
        let topo = waxman(nodes);
        let horizon_ms = 20_000;
        let schedule = churn_schedule(&topo, flows, horizon_ms);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{flows}f")),
            &schedule,
            |b, s| b.iter(|| black_box(run_once(&topo, s, horizon_ms))),
        );
    }
    group.finish();
}

fn guarded(c: &mut Criterion) {
    assert_throughput_floor();
    bench_event_throughput(c);
}

criterion_group!(benches, guarded);
criterion_main!(benches);
