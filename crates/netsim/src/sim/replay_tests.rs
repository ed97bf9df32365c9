//! Seeded event scripts over four topologies, replayed step by step.
//!
//! Two contracts ride on the same scripts. The dense link-load fold
//! must equal the sorted-map fold it replaced **bit for bit** on every
//! touched link after every step; and the whole run — every live
//! flow's rate and every touched link's utilization after each step,
//! every probe, every final rate — must hash to pinned fingerprints,
//! with the count of applied events pinned beside them.

use super::*;
use crate::topo::{fat_tree, global_p4_lab, mesh, NodeKind};
use std::collections::BTreeSet;

const SCRIPTS_PER_TOPOLOGY: u64 = 32;
const STEPS: usize = 24;

struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.below(items.len() as u64) as usize)
        }
    }
}

/// FNV-1a over the run's observable outputs.
struct Fingerprint(u64);
impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// A probe or rate: the value's bits, or a marker for an error.
    fn measured<E>(&mut self, r: Result<f64, E>) {
        match r {
            Ok(v) => self.u64(v.to_bits()),
            Err(_) => self.u64(0xdead),
        }
    }
}

/// Four routers in a ring with a chord, where two of the hops are
/// *pairs* of parallel links of different capacity: a flow rides the
/// first live one, so failing it moves the flow's load to its twin.
fn parallel_links() -> Topology {
    let mut t = Topology::new();
    let n: Vec<NodeIdx> = ["a", "b", "c", "d"]
        .iter()
        .map(|name| t.add_node(name, NodeKind::Core))
        .collect();
    t.add_link(n[0], n[1], 10.0, 1.0);
    t.add_link(n[0], n[1], 4.0, 1.0);
    t.add_link(n[1], n[2], 8.0, 2.0);
    t.add_link(n[2], n[3], 6.0, 1.0);
    t.add_link(n[2], n[3], 12.0, 1.0);
    t.add_link(n[3], n[0], 9.0, 3.0);
    t.add_link(n[0], n[2], 5.0, 2.5);
    t
}

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("global_p4_lab", global_p4_lab()),
        ("parallel_links", parallel_links()),
        ("mesh_24_5", mesh(24, 5, 10.0)),
        ("fat_tree_4", fat_tree(4)),
    ]
}

/// Replays script `seed` on `topo` through the public API (the queue's
/// length is read once, at the end), calling `after_step` once the
/// simulator has advanced past each step's events, and returns the
/// run's fingerprint and event count.
fn run_script(topo: Topology, seed: u64, mut after_step: impl FnMut(&Simulation)) -> (u64, u64) {
    let mut rng = Rng::new(seed);
    let mut fp = Fingerprint::new();
    let nodes = topo.node_count() as u64;
    let link_count = topo.link_count() as u64;
    let mut sim = Simulation::new(topo, seed);
    let sample_ms = [100, 250, 1000][rng.below(3) as usize];
    let mut live: Vec<(FlowId, Vec<NodeIdx>)> = Vec::new();
    let mut down: Vec<LinkId> = Vec::new();
    let mut made = 0u64;
    let mut accepted = 0u64;

    for _ in 0..STEPS {
        let now = sim.now_ms();
        let step_ms = [137, 500, 1000, 1024, 2500][rng.below(5) as usize];
        for _ in 0..2 + rng.below(6) {
            let at = match rng.below(8) {
                0 => now,
                1 => now.saturating_sub(5), // past-dated: clamps to now
                2 => now + step_ms,         // first instant of the next step
                3 => now + 20_000 + rng.below(5_000), // many windows ahead
                _ => now + rng.below(step_ms),
            };
            let event = match rng.below(20) {
                0..=7 => {
                    let (src, dst) = (
                        NodeIdx(rng.below(nodes) as u32),
                        NodeIdx(rng.below(nodes) as u32),
                    );
                    let paths = sim.topo.k_shortest_paths(src, dst, 3);
                    let Some(path) = rng.pick(&paths).filter(|p| p.len() >= 2).cloned() else {
                        continue;
                    };
                    // One arrival in ten restarts a live id in place.
                    let id = match rng.pick(&live) {
                        Some((id, _)) if rng.below(10) == 0 => *id,
                        _ => {
                            made += 1;
                            FlowId(made)
                        }
                    };
                    // A retired draw (it once picked background flows),
                    // kept so every later draw — and the pinned event
                    // counts — stay where they were.
                    let _ = rng.below(4);
                    let demand_mbps =
                        (rng.below(3) == 0).then(|| rng.below(50) as f64 / 10.0 + 0.2);
                    live.retain(|(other, _)| *other != id);
                    live.push((id, path.clone()));
                    Event::StartFlow {
                        spec: FlowSpec {
                            src,
                            dst,
                            demand_mbps,
                            tos: 0,
                            label: format!("f{}", id.0),
                        },
                        path: path.into(),
                        id,
                    }
                }
                8..=10 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    Event::StopFlow(id)
                }
                11..=13 => {
                    let Some((id, path)) = rng.pick(&live).cloned() else {
                        continue;
                    };
                    let (src, dst) = (path[0], path[path.len() - 1]);
                    let paths = sim.topo.k_shortest_paths(src, dst, 4);
                    let Some(new_path) = rng.pick(&paths).cloned() else {
                        continue;
                    };
                    if let Some(entry) = live.iter_mut().find(|(other, _)| *other == id) {
                        entry.1 = new_path.clone();
                    }
                    Event::SetFlowPath(id, new_path.into())
                }
                14..=15 => {
                    let Some((id, _)) = rng.pick(&live) else {
                        continue;
                    };
                    let demand = (rng.below(4) != 0).then(|| rng.below(80) as f64 / 8.0 + 0.1);
                    Event::SetFlowDemand(*id, demand)
                }
                16..=17 => {
                    let lid = LinkId(rng.below(link_count) as u32);
                    Event::SetLinkCapacity(lid, rng.below(400) as f64 / 10.0 + 0.5)
                }
                18 => {
                    // Fail a link some live flow rides (else any link).
                    let on_path = rng.pick(&live).and_then(|(_, path)| {
                        let hop = rng.below(path.len() as u64 - 1) as usize;
                        sim.topo.link_between(path[hop], path[hop + 1]).ok()
                    });
                    let lid = on_path.unwrap_or(LinkId(rng.below(link_count) as u32));
                    down.push(lid);
                    Event::SetLinkUp(lid, false)
                }
                _ => {
                    if down.is_empty() {
                        continue;
                    }
                    let lid = down.swap_remove(rng.below(down.len() as u64) as usize);
                    Event::SetLinkUp(lid, true)
                }
            };
            // A path over a link that is down right now is refused;
            // that is part of the replayed behaviour.
            let ok = sim.schedule(at, event).is_ok();
            accepted += u64::from(ok);
            fp.u64(u64::from(ok));
        }
        sim.run_until(now + step_ms, sample_ms);
        if let Some((_, path)) = rng.pick(&live) {
            fp.measured(sim.ping(path));
            fp.measured(sim.path_available_mbps(path));
        }
        for f in &sim.flows {
            fp.u64(f.flow.id.0);
            fp.measured(sim.flow_rate(f.flow.id));
        }
        let loads = sim.link_utilization();
        let mut touched = loads.touched.clone();
        touched.sort_unstable();
        for l in touched {
            fp.u64(l as u64);
            fp.u64(loads.util[l].to_bits());
        }
        drop(loads);
        after_step(&sim);
    }

    for id in 1..=made {
        fp.measured(sim.flow_rate(FlowId(id)));
    }
    // Every event applied was scheduled; the rest is still queued.
    let queued = sim.events.len() as u64;
    assert_eq!(sim.events_processed() + queued, accepted, "seed {seed}");
    (fp.0, sim.events_processed())
}

/// Every script of one topology, folded into one fingerprint, and the
/// events they applied in total.
fn topology_fingerprint(topo: &Topology, after_step: impl Fn(&Simulation)) -> (u64, u64) {
    let mut fp = Fingerprint::new();
    let mut events = 0;
    for seed in 0..SCRIPTS_PER_TOPOLOGY {
        let (run, applied) = run_script(topo.clone(), seed, &after_step);
        fp.u64(run);
        events += applied;
    }
    (fp.0, events)
}

#[test]
fn dense_fold_equals_map_fold_bitwise() {
    for (name, topo) in topologies() {
        let steps = std::cell::Cell::new(0usize);
        topology_fingerprint(&topo, |sim| {
            steps.set(steps.get() + 1);
            let map = sim.link_utilization_map();
            let dense = sim.link_utilization();
            let touched: BTreeSet<(LinkId, Direction)> =
                dense.touched.iter().map(|&l| directed_link(l)).collect();
            let want: BTreeSet<(LinkId, Direction)> = map.keys().copied().collect();
            assert_eq!(touched, want, "{name}: touched links");
            for (&(lid, dir), u) in &map {
                assert_eq!(
                    dense.util(lid, dir).to_bits(),
                    u.to_bits(),
                    "{name}: {lid:?} {dir:?} at t={}",
                    sim.now_ms()
                );
            }
        });
        assert_eq!(steps.get(), SCRIPTS_PER_TOPOLOGY as usize * STEPS);
    }
}

#[test]
fn replay_matches_parent_commit_fingerprints() {
    // Computed by this test on the commit that still kept a sample log
    // in the simulator and still sorted the touched links: deleting the
    // log moved no rate, utilization or probe bit. (The earlier pins
    // hashed that log and carried over from the commit whose rate
    // convergence was still a queued event.)
    let pinned: [(&str, u64); 4] = [
        ("global_p4_lab", 5_498_659_339_589_922_150),
        ("parallel_links", 9_434_926_161_156_316_799),
        ("mesh_24_5", 7_624_027_803_533_049_363),
        ("fat_tree_4", 6_903_486_262_349_608_503),
    ];
    let got: Vec<(&str, u64)> = topologies()
        .iter()
        .map(|(name, topo)| (*name, topology_fingerprint(topo, |_| {}).0))
        .collect();
    assert_eq!(got, pinned, "replay drifted from the parent commit");
}

#[test]
fn replay_applies_only_the_scripted_events() {
    // External events only: a convergence is flow state, not an event.
    let pinned: [(&str, u64); 4] = [
        ("global_p4_lab", 2_604),
        ("parallel_links", 2_582),
        ("mesh_24_5", 2_899),
        ("fat_tree_4", 2_861),
    ];
    let got: Vec<(&str, u64)> = topologies()
        .iter()
        .map(|(name, topo)| (*name, topology_fingerprint(topo, |_| {}).1))
        .collect();
    assert_eq!(got, pinned, "events applied");
}
