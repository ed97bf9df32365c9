//! Elastic background *flows*: unlike [`crate::traffic`], which folds
//! background load into per-link capacity series, this module compiles
//! a population of real simulator flows — long-lived greedy elephants
//! plus a steady churn of short demand-limited mice — that compete in
//! the max-min water-fill alongside the managed flows. This is the
//! workload that exercises the event-driven core at scale: the
//! `scale-1k` catalog scenario schedules ~100k such flows on a
//! 1000-node Waxman WAN.
//!
//! Everything is compiled into plain `netsim::Event`s from the scenario
//! seed, so a run replays bit-identically: same seed, same arrival
//! instants, same paths, same departures.
//!
//! The schedule is a stream, not a vector. [`compile_elastic`] resolves
//! each route's shortest path once and hands every flow on it the same
//! `Arc`, then [`ElasticSchedule`] draws the mice one epoch at a time
//! and yields the events in time order as soon as no later epoch can
//! precede them. It buffers only what is drawn and not yet due, so a
//! caller that schedules as it pulls never holds the whole horizon
//! twice.

use netsim::{Event, FlowId, FlowSpec, NodeIdx, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Elastic flow ids start here so they can never collide with the
/// framework's managed-flow ids (small integers).
pub const ELASTIC_ID_BASE: u64 = 1 << 40;

/// A population of background flows, compiled per scenario seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSpec {
    /// Long-lived greedy flows (demand `None`), started inside the
    /// first two epochs and never stopped.
    pub elephants: usize,
    /// Short demand-limited flows arriving per epoch, spread uniformly
    /// over the epoch's milliseconds.
    pub mice_per_epoch: usize,
    /// Each mouse's declared demand (Mbps).
    pub mouse_mbps: f64,
    /// Mouse lifetime in epochs (departure is scheduled at compile
    /// time).
    pub mouse_lifetime_epochs: u64,
    /// Distinct (src, dst) routes precomputed at compile time that the
    /// flow population draws from. More routes spread the load (and the
    /// saturated-link components the incremental water-fill re-solves)
    /// across the graph; shortest paths are computed once per route, so
    /// this also bounds compile cost for 100k flows.
    pub routes: usize,
    /// Optional mid-life demand ramp: when set, one mouse in four
    /// re-declares its demand as `mouse_mbps * ramp` halfway through
    /// its lifetime — a scripted [`Event::SetFlowDemand`] compiled up
    /// front like every other event, exercising the time-varying-demand
    /// path of the incremental water-fill. `None` keeps the schedule
    /// byte-identical to the pre-ramp compiler.
    pub mouse_ramp: Option<f64>,
}

/// Milliseconds per epoch.
const EPOCH_MS: u64 = 1000;

/// One precomputed route: its endpoints and the shortest path every
/// flow drawn on it shares.
type Route = (NodeIdx, NodeIdx, Arc<[NodeIdx]>);

/// Compiles the spec into a deterministic event schedule over
/// `horizon_epochs` (1 epoch = 1000 ms). The returned stream yields
/// start/stop/ramp events in schedule order — ascending time, ties in
/// draw order; flow ids count up from [`ELASTIC_ID_BASE`].
///
/// Paths are shortest-by-delay at compile time (the topology is
/// healthy at epoch 0; later scripted failures kill crossing flows in
/// the simulator, which is the point), computed once per route: every
/// flow on a route holds the same `Arc`. Endpoint pairs with no path or
/// identical src/dst are skipped deterministically.
///
/// The sequence equals the stable sort by time of every event in draw
/// order, without the sort: see [`ElasticSchedule`].
pub fn compile_elastic(
    topo: &Topology,
    spec: &ElasticSpec,
    horizon_epochs: u64,
    seed: u64,
) -> ElasticSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe1a5_71c0_f10b_a5e5);
    let n = topo.node_count();
    // Precompute the route table: `routes` distinct (src, dst) shortest
    // paths drawn uniformly over the node set (duplicate or pathless
    // draws are skipped deterministically, bounded attempts).
    let mut seen: BTreeSet<(NodeIdx, NodeIdx)> = BTreeSet::new();
    let mut routes: Vec<Route> = Vec::new();
    let max_attempts = spec.routes.max(1) * 8;
    for _ in 0..max_attempts {
        if routes.len() >= spec.routes.max(1) {
            break;
        }
        let src = NodeIdx(rng.gen_range(0..n) as u32);
        let dst = NodeIdx(rng.gen_range(0..n) as u32);
        if src == dst || !seen.insert((src, dst)) {
            continue;
        }
        if let Some(path) = topo.shortest_path_by_delay(src, dst) {
            routes.push((src, dst, path.into()));
        }
    }
    let lifetime_epochs = spec.mouse_lifetime_epochs.max(1);
    let mut schedule = ElasticSchedule {
        rng,
        routes,
        spec: spec.clone(),
        horizon_epochs,
        drawn_epochs: 0,
        next_id: ELASTIC_ID_BASE,
        ring: Vec::new(),
        pending: 0,
        cursor: 0,
        release_before: 0,
    };
    if schedule.routes.is_empty() {
        // Nothing to draw: the stream is empty.
        schedule.horizon_epochs = 0;
        return schedule;
    }
    schedule.ring = (0..(lifetime_epochs + 1) * EPOCH_MS)
        .map(|_| VecDeque::new())
        .collect();
    for _ in 0..spec.elephants {
        let at = schedule
            .rng
            .gen_range(0..2_000.min(horizon_epochs.max(1) * EPOCH_MS));
        schedule.start_flow(at, None);
    }
    schedule
}

/// The elastic schedule as a time-ordered stream of `(at_ms, event)`,
/// returned by [`compile_elastic`].
///
/// It draws from its RNG in the order an eager compile would: the
/// route table, the elephants, then each epoch's mice (start, stop and
/// the optional ramp, mouse by mouse). Drawn events wait in a ring of
/// per-millisecond buckets, each holding its events in draw order.
///
/// Once epoch `e` is drawn, every event due before `(e + 1)·1000` ms is
/// released, bucket by bucket. No later epoch can add to them: epoch
/// `e' > e` starts its mice at or after `e'·1000` and stops and ramps
/// them later still. So each released event precedes everything still
/// to come, and the sequence is exactly the stable sort by time of all
/// events in draw order — the order the eager compiler produced.
///
/// What waits is epoch `e`'s mice plus the stops and ramps of the
/// `max(mouse_lifetime_epochs, 1)` epochs before it, due no later than
/// `e·1000 + 999 + lifetime`. The ring spans those
/// `max(mouse_lifetime_epochs, 1) + 1` epochs, so the buckets of pending
/// events never collide. The elephants, due within the first two
/// epochs, fit the same span.
#[derive(Debug)]
pub struct ElasticSchedule {
    rng: StdRng,
    routes: Vec<Route>,
    spec: ElasticSpec,
    horizon_epochs: u64,
    /// Epochs whose mice have been drawn.
    drawn_epochs: u64,
    /// The last flow id handed out.
    next_id: u64,
    /// Per-millisecond buckets: an event due at `at` waits in
    /// `ring[at % ring.len()]`, behind those drawn before it.
    ring: Vec<VecDeque<Event>>,
    /// Events buffered in the ring.
    pending: usize,
    /// The next millisecond to release.
    cursor: u64,
    /// Events due before this instant may be released.
    release_before: u64,
}

impl ElasticSchedule {
    /// Draws a route and buffers a flow start on it at `at`.
    fn start_flow(&mut self, at: u64, demand_mbps: Option<f64>) -> FlowId {
        let (src, dst, path) = self.routes[self.rng.gen_range(0..self.routes.len())].clone();
        self.next_id += 1;
        let id = FlowId(self.next_id);
        let spec = FlowSpec {
            src,
            dst,
            demand_mbps,
            tos: 0,
            label: String::new(),
        };
        self.buffer(at, Event::StartFlow { id, spec, path });
        id
    }

    fn buffer(&mut self, at: u64, event: Event) {
        let slot = (at % self.ring.len() as u64) as usize;
        self.ring[slot].push_back(event);
        self.pending += 1;
    }

    /// Draws the next epoch's mice and opens its release window.
    fn draw_epoch(&mut self) {
        let epoch = self.drawn_epochs;
        let lifetime_ms = self.spec.mouse_lifetime_epochs.max(1) * EPOCH_MS;
        for _ in 0..self.spec.mice_per_epoch {
            let at = epoch * EPOCH_MS + self.rng.gen_range(0..EPOCH_MS);
            let id = self.start_flow(at, Some(self.spec.mouse_mbps));
            self.buffer(at + lifetime_ms, Event::StopFlow(id));
            // Mid-life ramp: drawn only when the spec asks for it, so a
            // `None` spec compiles the exact pre-ramp schedule.
            if let Some(ramp) = self.spec.mouse_ramp {
                if self.rng.gen_range(0..4u32) == 0 {
                    self.buffer(
                        at + lifetime_ms / 2,
                        Event::SetFlowDemand(id, Some(self.spec.mouse_mbps * ramp)),
                    );
                }
            }
        }
        self.drawn_epochs += 1;
        self.release_before = self.drawn_epochs * EPOCH_MS;
    }
}

impl Iterator for ElasticSchedule {
    type Item = (u64, Event);

    fn next(&mut self) -> Option<(u64, Event)> {
        loop {
            while self.cursor < self.release_before {
                if self.pending == 0 {
                    // Nothing buffered: skip the empty buckets at once.
                    self.cursor = self.release_before;
                    break;
                }
                let slot = (self.cursor % self.ring.len() as u64) as usize;
                if let Some(event) = self.ring[slot].pop_front() {
                    self.pending -= 1;
                    return Some((self.cursor, event));
                }
                self.cursor += 1;
            }
            if self.drawn_epochs < self.horizon_epochs {
                self.draw_epoch();
            } else if self.pending > 0 {
                // Every epoch is drawn: what is left is the tail of
                // stops and ramps past the horizon.
                self.release_before = u64::MAX;
            } else {
                return None;
            }
        }
    }
}

/// The eager compiler [`compile_elastic`] replaced: every event in one
/// `Vec`, each start with its own copy of its route's path, then one
/// stable sort by time — kept as the oracle the stream must equal.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn compile_elastic(
        topo: &Topology,
        spec: &ElasticSpec,
        horizon_epochs: u64,
        seed: u64,
    ) -> Vec<(u64, Event)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe1a5_71c0_f10b_a5e5);
        let n = topo.node_count();
        let mut seen: BTreeSet<(NodeIdx, NodeIdx)> = BTreeSet::new();
        let mut routes: Vec<(NodeIdx, NodeIdx, Vec<NodeIdx>)> = Vec::new();
        let max_attempts = spec.routes.max(1) * 8;
        for _ in 0..max_attempts {
            if routes.len() >= spec.routes.max(1) {
                break;
            }
            let src = NodeIdx(rng.gen_range(0..n) as u32);
            let dst = NodeIdx(rng.gen_range(0..n) as u32);
            if src == dst || !seen.insert((src, dst)) {
                continue;
            }
            if let Some(path) = topo.shortest_path_by_delay(src, dst) {
                routes.push((src, dst, path));
            }
        }
        let mut next_id = ELASTIC_ID_BASE;
        let mut events = Vec::new();
        if routes.is_empty() {
            return events;
        }
        for _ in 0..spec.elephants {
            let at = rng.gen_range(0..2_000.min(horizon_epochs.max(1) * 1000));
            let (src, dst, path) = routes[rng.gen_range(0..routes.len())].clone();
            next_id += 1;
            let spec = FlowSpec {
                src,
                dst,
                demand_mbps: None,
                tos: 0,
                label: String::new(),
            };
            let id = FlowId(next_id);
            let path = path.into();
            events.push((at, Event::StartFlow { id, spec, path }));
        }
        for epoch in 0..horizon_epochs {
            for _ in 0..spec.mice_per_epoch {
                let at = epoch * 1000 + rng.gen_range(0..1000u64);
                let (src, dst, path) = routes[rng.gen_range(0..routes.len())].clone();
                next_id += 1;
                let id = FlowId(next_id);
                let flow = FlowSpec {
                    src,
                    dst,
                    demand_mbps: Some(spec.mouse_mbps),
                    tos: 0,
                    label: String::new(),
                };
                let path = path.into();
                events.push((
                    at,
                    Event::StartFlow {
                        id,
                        spec: flow,
                        path,
                    },
                ));
                let lifetime_ms = spec.mouse_lifetime_epochs.max(1) * 1000;
                events.push((at + lifetime_ms, Event::StopFlow(id)));
                if let Some(ramp) = spec.mouse_ramp {
                    if rng.gen_range(0..4u32) == 0 {
                        let demand = Some(spec.mouse_mbps * ramp);
                        events.push((at + lifetime_ms / 2, Event::SetFlowDemand(id, demand)));
                    }
                }
            }
        }
        events.sort_by_key(|(at, _)| *at);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::TopologySpec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn spec() -> ElasticSpec {
        ElasticSpec {
            elephants: 5,
            mice_per_epoch: 20,
            mouse_mbps: 0.5,
            mouse_lifetime_epochs: 2,
            routes: 12,
            mouse_ramp: None,
        }
    }

    #[test]
    fn compile_is_deterministic_and_sized() {
        let topo = TopologySpec::Waxman {
            n: 30,
            alpha: 0.9,
            beta: 0.4,
        }
        .build(7);
        let a: Vec<_> = compile_elastic(&topo, &spec(), 10, 42).collect();
        let b: Vec<_> = compile_elastic(&topo, &spec(), 10, 42).collect();
        assert_eq!(a, b, "same seed must compile identically");
        // Every mouse has a matched stop; elephants never stop.
        let starts = a
            .iter()
            .filter(|(_, e)| matches!(e, Event::StartFlow { .. }))
            .count();
        let stops = a
            .iter()
            .filter(|(_, e)| matches!(e, Event::StopFlow(_)))
            .count();
        assert!(starts > stops, "elephants outlive the horizon");
        assert!(stops > 0, "mice depart");
        // Schedule is sorted and ids are in the elastic range.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        for (_, e) in &a {
            if let Event::StartFlow { id, .. } = e {
                assert!(id.0 > ELASTIC_ID_BASE);
            }
        }
    }

    #[test]
    fn mouse_ramps_compile_deterministically_and_mid_life() {
        let topo = TopologySpec::Waxman {
            n: 30,
            alpha: 0.9,
            beta: 0.4,
        }
        .build(7);
        let ramped = ElasticSpec {
            mouse_ramp: Some(3.0),
            ..spec()
        };
        let a: Vec<_> = compile_elastic(&topo, &ramped, 10, 42).collect();
        let b: Vec<_> = compile_elastic(&topo, &ramped, 10, 42).collect();
        assert_eq!(a, b, "ramped schedules replay bit-identically");
        // Ramps exist, target the declared demand, and land strictly
        // between each mouse's start and stop.
        let starts: BTreeMap<FlowId, u64> = a
            .iter()
            .filter_map(|(at, e)| match e {
                Event::StartFlow { id, .. } => Some((*id, *at)),
                _ => None,
            })
            .collect();
        let stops: BTreeMap<FlowId, u64> = a
            .iter()
            .filter_map(|(at, e)| match e {
                Event::StopFlow(id) => Some((*id, *at)),
                _ => None,
            })
            .collect();
        let ramps: Vec<(FlowId, u64, Option<f64>)> = a
            .iter()
            .filter_map(|(at, e)| match e {
                Event::SetFlowDemand(id, d) => Some((*id, *at, *d)),
                _ => None,
            })
            .collect();
        assert!(!ramps.is_empty(), "one mouse in four ramps");
        assert!(ramps.len() < stops.len(), "not every mouse ramps");
        for (id, at, demand) in &ramps {
            assert_eq!(*demand, Some(0.5 * 3.0));
            assert!(starts[id] < *at && *at < stops[id], "ramp is mid-life");
        }
        // The ramp-free spec stays byte-identical to the old compiler:
        // no SetFlowDemand events at all.
        let plain: Vec<_> = compile_elastic(&topo, &spec(), 10, 42).collect();
        assert!(plain
            .iter()
            .all(|(_, e)| !matches!(e, Event::SetFlowDemand(_, _))));
    }

    #[test]
    fn different_seeds_compile_different_schedules() {
        let topo = TopologySpec::Waxman {
            n: 30,
            alpha: 0.9,
            beta: 0.4,
        }
        .build(7);
        let a: Vec<_> = compile_elastic(&topo, &spec(), 10, 1).collect();
        let b: Vec<_> = compile_elastic(&topo, &spec(), 10, 2).collect();
        assert_ne!(a, b);
    }

    /// The graphs the oracle proptest draws from: a small dense Waxman,
    /// a sparse one, and nodes without a single link (no route at all).
    fn oracle_graph(kind: u8) -> Topology {
        match kind {
            0 => TopologySpec::Waxman {
                n: 30,
                alpha: 0.9,
                beta: 0.4,
            }
            .build(7),
            1 => crate::zoo::waxman(40, 0.15, 0.15, 3),
            _ => {
                let mut t = Topology::new();
                for i in 0..6 {
                    t.add_node(&format!("n{i}"), netsim::topo::NodeKind::Core);
                }
                t
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The stream yields exactly the eager compiler's sorted `Vec`,
        /// and never buffers more than its ring's
        /// `max(mouse_lifetime_epochs, 1) + 1` epochs of mice.
        #[test]
        fn stream_equals_the_eager_compiler(
            graph in 0u8..3,
            elephants in 0usize..8,
            mice_per_epoch in 0usize..40,
            mouse_lifetime_epochs in 0u64..=4,
            routes in 0usize..16,
            mouse_ramp in prop::option::of(0.5f64..4.0),
            horizon in 0u64..=12,
            seed in any::<u64>(),
        ) {
            let topo = oracle_graph(graph);
            let spec = ElasticSpec {
                elephants,
                mice_per_epoch,
                mouse_mbps: 0.5,
                mouse_lifetime_epochs,
                routes,
                mouse_ramp,
            };
            let want = reference::compile_elastic(&topo, &spec, horizon, seed);
            let mut stream = compile_elastic(&topo, &spec, horizon, seed);
            let lifetime_epochs = mouse_lifetime_epochs.max(1);
            let ring_len = if stream.routes.is_empty() {
                0
            } else {
                (lifetime_epochs + 1) * EPOCH_MS
            };
            prop_assert_eq!(stream.ring.len() as u64, ring_len);
            let most = elephants + (lifetime_epochs as usize + 1) * mice_per_epoch * 3;
            let mut got = Vec::with_capacity(want.len());
            while let Some(item) = stream.next() {
                prop_assert!(stream.pending < most, "{} buffered", stream.pending);
                got.push(item);
            }
            prop_assert_eq!(got, want);
            prop_assert!(stream.next().is_none());
        }
    }

    /// FNV-1a over every field of every `(at, event)`, with the count.
    fn fingerprint(schedule: impl Iterator<Item = (u64, Event)>) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let demand = |d: Option<f64>| d.map_or(u64::MAX, f64::to_bits);
        let mut count = 0;
        for (at, event) in schedule {
            count += 1;
            mix(at);
            match event {
                Event::StartFlow { spec, path, id } => {
                    mix(0);
                    mix(id.0);
                    mix(spec.src.0 as u64);
                    mix(spec.dst.0 as u64);
                    mix(demand(spec.demand_mbps));
                    mix(path.len() as u64);
                    path.iter().for_each(|n| mix(n.0 as u64));
                }
                Event::StopFlow(id) => {
                    mix(1);
                    mix(id.0);
                }
                Event::SetFlowDemand(id, d) => {
                    mix(2);
                    mix(id.0);
                    mix(demand(d));
                }
                other => panic!("an elastic schedule holds no {other:?}"),
            }
        }
        (count, h)
    }

    #[test]
    fn loopbench_schedule_is_pinned() {
        // loopbench's `waxman-elastic` at `--seed 11 --seconds 10`: its
        // graph, its spec, 15 warm-up + 120 timed epochs, and the seed
        // its driver derives for the elastic stream.
        let topo = crate::zoo::waxman(1000, 0.15, 0.15, 11);
        let spec = ElasticSpec {
            elephants: 400,
            mice_per_epoch: 1660,
            mouse_mbps: 0.75,
            mouse_lifetime_epochs: 3,
            routes: 800,
            mouse_ramp: Some(2.0),
        };
        let seed = 11u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 3;
        // Captured from the eager compiler (`reference`).
        assert_eq!(
            fingerprint(compile_elastic(&topo, &spec, 135, seed)),
            (504_457, 0x12283e4e6052d7fd)
        );
    }

    #[test]
    fn flows_on_one_route_share_one_path() {
        let topo = TopologySpec::Waxman {
            n: 30,
            alpha: 0.9,
            beta: 0.4,
        }
        .build(7);
        let schedule: Vec<_> = compile_elastic(&topo, &spec(), 6, 42).collect();
        let mut by_route: BTreeMap<(NodeIdx, NodeIdx), Arc<[NodeIdx]>> = BTreeMap::new();
        let mut starts = 0;
        for (_, event) in &schedule {
            if let Event::StartFlow { spec, path, .. } = event {
                starts += 1;
                let first = by_route
                    .entry((spec.src, spec.dst))
                    .or_insert_with(|| Arc::clone(path));
                assert!(Arc::ptr_eq(first, path), "one allocation per route");
            }
        }
        assert!(by_route.len() <= spec().routes && starts > 2 * by_route.len());
        // The simulator's flow keeps the event's allocation.
        let mut sim = netsim::Simulation::new(topo, 1);
        let mut live = BTreeMap::new();
        for (at, event) in schedule.into_iter().take_while(|(at, _)| *at < 2_500) {
            match &event {
                Event::StartFlow { id, path, .. } => {
                    live.insert(*id, Arc::clone(path));
                }
                Event::StopFlow(id) => {
                    live.remove(id);
                }
                _ => {}
            }
            sim.schedule(at, event).unwrap();
        }
        sim.run_until(2_500, 1_000);
        assert!(!live.is_empty());
        for (id, path) in &live {
            assert_eq!(sim.flow_path(*id).unwrap().as_ptr(), path.as_ptr());
        }
    }
}
