//! Equivalence oracle for the event-driven core: a self-contained
//! reimplementation of the retired tick-stepped simulator (full
//! water-fill recompute on every change, per-tick
//! `rate += (share - rate) * (1 - exp(-dt/tau))` stepping) is driven
//! over random small scenarios, and every flow rate it samples must
//! match the rate the event core reports at the same instant.
//!
//! All generated event timestamps are multiples of the legacy tick
//! (100 ms) so both cores apply them at the same instant — the event
//! core additionally fixes the sub-tick timing skew, which is covered
//! by dedicated unit tests in `sim.rs`, not here. Because
//! `(1 - alpha)^k` with `alpha = 1 - exp(-dt/tau)` is exactly
//! `exp(-k*dt/tau)`, the two cores agree to float rounding; the 1e-6
//! tolerance absorbs the event core's incremental water-fill and its
//! convergence snap (<= 1e-9 Mbps).
//!
//! Both sides sample the state *before* an instant's events apply: the
//! event core is stepped with `run_until(t)`, which leaves events due at
//! `t` queued, and the legacy core samples at the top of its tick. A
//! rate never jumps across an event (only its target share does), so
//! this is the same trajectory the cores compared after the events.

use netsim::fairness::{directed_links, max_min_allocation, AllocFlow};
use netsim::topo::mesh;
use netsim::{Event, FlowId, FlowSpec, NodeIdx, Simulation, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const TICK_MS: u64 = 100;
const TAU_S: f64 = 1.2;
const EFFICIENCY: f64 = 0.86;

struct LegacyFlow {
    spec: FlowSpec,
    path: Arc<[NodeIdx]>,
    rate: f64,
    share: f64,
}

/// The retired tick core, kept only as a test oracle: advance time in
/// fixed 100 ms ticks; sample, apply due events, rerun the full
/// water-fill, then step every flow one tick toward its share.
fn legacy_run(
    mut topo: Topology,
    events: &[(u64, Event)],
    until_ms: u64,
    sample_ms: u64,
) -> BTreeMap<(String, u64), f64> {
    let mut queue: Vec<(u64, usize, Event)> = events
        .iter()
        .enumerate()
        .map(|(i, (at, e))| (*at, i, e.clone()))
        .collect();
    queue.sort_by_key(|(at, seq, _)| (*at, *seq));
    let mut qi = 0;

    let mut flows: BTreeMap<FlowId, LegacyFlow> = BTreeMap::new();
    let mut order: Vec<FlowId> = Vec::new();
    let mut samples = BTreeMap::new();
    let mut now = 0u64;
    let mut next_sample = 0u64;
    let alpha = 1.0 - (-(TICK_MS as f64 / 1000.0) / TAU_S).exp();

    while now < until_ms {
        if now >= next_sample {
            for id in &order {
                let f = &flows[id];
                samples.insert((f.spec.label.clone(), now), f.rate);
            }
            next_sample += sample_ms;
        }
        let mut dirty = false;
        while qi < queue.len() && queue[qi].0 <= now {
            match queue[qi].2.clone() {
                Event::StartFlow { id, spec, path } => {
                    if !flows.contains_key(&id) {
                        order.push(id);
                    }
                    flows.insert(
                        id,
                        LegacyFlow {
                            spec,
                            path,
                            rate: 0.0,
                            share: 0.0,
                        },
                    );
                }
                Event::StopFlow(id) => {
                    flows.remove(&id);
                    order.retain(|f| *f != id);
                }
                Event::SetFlowPath(id, path) => {
                    if let Some(f) = flows.get_mut(&id) {
                        f.path = path;
                    }
                }
                Event::SetLinkCapacity(link, mbps) => {
                    topo.link_mut(link).capacity_mbps = mbps;
                }
                Event::SetLinkUp(link, up) => {
                    topo.link_mut(link).up = up;
                }
                Event::SetFlowDemand(id, demand) => {
                    if let Some(f) = flows.get_mut(&id) {
                        f.spec.demand_mbps = demand;
                    }
                }
            }
            dirty = true;
            qi += 1;
        }
        if dirty {
            let alloc: Vec<AllocFlow> = order
                .iter()
                .map(|id| {
                    let f = &flows[id];
                    match directed_links(&topo, &f.path) {
                        Ok(links) => AllocFlow {
                            links,
                            demand: f.spec.demand_mbps,
                        },
                        Err(_) => AllocFlow {
                            links: Vec::new(),
                            demand: Some(0.0),
                        },
                    }
                })
                .collect();
            let rates = max_min_allocation(&topo, &alloc);
            for (id, raw) in order.iter().zip(rates) {
                flows.get_mut(id).unwrap().share = raw * EFFICIENCY;
            }
        }
        for f in flows.values_mut() {
            f.rate += (f.share - f.rate) * alpha;
            f.rate = f.rate.max(0.0);
        }
        now += TICK_MS;
    }
    samples
}

fn event_run(
    topo: Topology,
    events: &[(u64, Event)],
    until_ms: u64,
    sample_ms: u64,
) -> BTreeMap<(String, u64), f64> {
    let mut sim = Simulation::new(topo, 7);
    let mut labels = Vec::new();
    for (at, e) in events {
        if let Event::StartFlow { id, spec, .. } = e {
            labels.push((*id, spec.label.clone()));
        }
        sim.schedule(*at, e.clone()).expect("generated event valid");
    }
    let mut samples = BTreeMap::new();
    for t in (0..until_ms).step_by(sample_ms as usize) {
        sim.run_until(t, sample_ms);
        for (id, label) in &labels {
            if let Ok(rate) = sim.flow_rate(*id) {
                samples.insert((label.clone(), t), rate);
            }
        }
    }
    samples
}

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

/// Random tick-aligned scenario on a mesh: staggered greedy and
/// demand-limited arrivals, some departures, one capacity change, one
/// link failure (and possible recovery).
fn generate(topo: &Topology, seed: u64, n_flows: usize, until_ms: u64) -> Vec<(u64, Event)> {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let nodes = topo.node_count() as u64;
    let mut events = Vec::new();
    let mut made = 0u64;
    while (made as usize) < n_flows {
        let src = NodeIdx(rng.below(nodes) as u32);
        let dst = NodeIdx(rng.below(nodes) as u32);
        if src == dst {
            continue;
        }
        let Some(path) = topo.shortest_path_by_delay(src, dst) else {
            continue;
        };
        made += 1;
        let id = FlowId(made);
        let start = rng.below(until_ms / (2 * TICK_MS)) * TICK_MS;
        let demand = if rng.below(3) == 0 {
            Some(rng.below(50) as f64 / 10.0 + 0.2)
        } else {
            None
        };
        events.push((
            start,
            Event::StartFlow {
                id,
                spec: FlowSpec {
                    src,
                    dst,
                    demand_mbps: demand,
                    tos: 0,
                    label: format!("f{made}"),
                },
                path: path.into(),
            },
        ));
        if rng.below(3) == 0 {
            let stop = start + TICK_MS + rng.below(until_ms / (2 * TICK_MS)) * TICK_MS;
            if stop < until_ms {
                events.push((stop, Event::StopFlow(id)));
            }
        }
        // Mid-life demand ramp: up, down, or to greedy. May land after
        // the flow stopped — both cores must ignore that identically.
        if rng.below(3) == 0 {
            let ramp = start + TICK_MS + rng.below(until_ms / (2 * TICK_MS)) * TICK_MS;
            let new_demand = if rng.below(4) == 0 {
                None
            } else {
                Some(rng.below(60) as f64 / 10.0 + 0.1)
            };
            if ramp < until_ms {
                events.push((ramp, Event::SetFlowDemand(id, new_demand)));
            }
        }
    }
    let links = topo.link_count() as u64;
    let victim = netsim::LinkId(rng.below(links) as u32);
    let down_at = (until_ms / 4 / TICK_MS) * TICK_MS;
    events.push((down_at, Event::SetLinkUp(victim, false)));
    if rng.below(2) == 0 {
        events.push((down_at * 2, Event::SetLinkUp(victim, true)));
    }
    let squeezed = netsim::LinkId(rng.below(links) as u32);
    events.push((
        (until_ms / 3 / TICK_MS) * TICK_MS,
        Event::SetLinkCapacity(squeezed, rng.below(15) as f64 + 1.0),
    ));
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn event_core_matches_legacy_tick_core(
        seed in 1u64..4_000,
        n in 6usize..10,
        stride in 2usize..4,
        n_flows in 2usize..7,
    ) {
        let until_ms = 8_000;
        let sample_ms = 500;
        let topo = mesh(n, stride, 10.0);
        let events = generate(&topo, seed, n_flows, until_ms);

        let legacy = legacy_run(mesh(n, stride, 10.0), &events, until_ms, sample_ms);
        let evented = event_run(topo, &events, until_ms, sample_ms);

        // Same sample grid: every (flow, time) the legacy core sampled
        // must be live in the event core and vice versa.
        let lk: Vec<_> = legacy.keys().collect();
        let ek: Vec<_> = evented.keys().collect();
        prop_assert_eq!(&lk, &ek, "sample keys diverge (seed {})", seed);

        for (key, want) in &legacy {
            let got = evented[key];
            prop_assert!(
                (got - want).abs() < 1e-6,
                "{:?}: event {} vs legacy {} (seed {})",
                key, got, want, seed
            );
        }
    }
}
