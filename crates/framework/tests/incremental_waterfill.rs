//! Pins the million-flow control plane's core contract **bit for
//! bit**: after every patch (arrival / departure / reroute / demand
//! change / headroom change), [`SharedWaterfill::resolve`]'s standing
//! solution must equal [`SharedWaterfill::full_rates`] — the audited
//! from-scratch recompute — with `f64::to_bits` equality, under random
//! cross-pair interleavings.
//!
//! This is strictly stronger than the 1e-6 pin `netsim` holds the same
//! kernel to against the independent oracle: the canonical fill makes
//! every rate a function of the saturation structure (see the
//! `netsim::maxmin` module docs), so on tie-free arithmetic —
//! fractional headrooms and demands — incremental and full solves do
//! not differ even in the last ulp.
//!
//! Whole numbers are where real-arithmetic ties live, and the second
//! proptest draws them on purpose. Two kinds show up. Members of one
//! link at `10/3` and `10 − 2·(10/3)` are one water level an ulp apart:
//! the kernel's at-level tests must allow for that, and
//! [`whole_number_tie_keeps_its_peers`] pins the case a bitwise test got
//! macroscopically wrong (11 Mbps where max-min is 16). And two *links*
//! can offer a flow exactly the same share: which one freezes it is then
//! decided in the last ulp, and a standing solution may legitimately
//! keep `16.0` where a recompute picks the other link's
//! `15.999999999999996` (seed 4585536, step 59, found at 6 000 cases).
//! So the whole-number model is held to 1e-9 — three orders tighter than
//! the oracle pin, and nine below the bug — not to the bit.

use framework::waterfill::SharedWaterfill;
use framework::{optimizer::SharedLinkModel, PairId};
use proptest::prelude::*;

/// Deterministic xorshift so each proptest case derives its own event
/// sequence from one seed.
struct Rng {
    state: u64,
    /// Round every drawn headroom and demand to a whole number ≥ 1.
    whole: bool,
}
impl Rng {
    fn new(seed: u64, whole: bool) -> Self {
        Rng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            whole,
        }
    }
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn mbps(&mut self, lo: f64, hi: f64) -> f64 {
        let mbps = lo + (self.below(10_000) as f64 / 10_000.0) * (hi - lo);
        if self.whole {
            mbps.round().max(1.0)
        } else {
            mbps
        }
    }
}

/// A shared-trunk model across `pairs` pairs: every pair has a private
/// access link per tunnel plus a trunk link shared by a group of
/// pairs — so saturation sets genuinely couple across pairs, the case
/// the expansion scan must get right.
fn grid_model(pairs: usize, group: usize, rng: &mut Rng) -> SharedLinkModel {
    let trunks = pairs.div_ceil(group);
    let mut headroom = Vec::new();
    let mut tunnel_links = Vec::new();
    let mut candidates = Vec::new();
    // trunk links first
    for _ in 0..trunks {
        headroom.push(rng.mbps(8.0, 40.0));
    }
    for p in 0..pairs {
        let mut cand = Vec::new();
        for t in 0..2usize {
            let access = headroom.len();
            headroom.push(rng.mbps(4.0, 25.0));
            let trunk = (p / group + t) % trunks;
            cand.push(tunnel_links.len());
            tunnel_links.push(vec![trunk, access]);
        }
        candidates.push(cand);
    }
    SharedLinkModel::new(headroom, tunnel_links, candidates)
}

/// Standing solution vs from-scratch recompute: bitwise, or — on the
/// whole-number model — to 1e-9.
fn assert_equals_recompute(wf: &SharedWaterfill, step: usize, seed: u64, whole: bool) {
    let standing = wf.rates();
    let full = wf.full_rates();
    assert_eq!(standing.len(), full.len());
    for ((ia, ra), (ib, rb)) in standing.iter().zip(&full) {
        assert_eq!(ia, ib);
        assert!(
            ra.to_bits() == rb.to_bits() || (whole && (ra - rb).abs() < 1e-9),
            "step {step} (seed {seed}): flow {ia} incremental {ra:.17} != full {rb:.17}"
        );
    }
}

/// ≥4 pairs, random arrival/departure/reroute/demand/capacity
/// interleavings: incremental ≡ recompute at every step.
fn replay(seed: u64, whole: bool) {
    let mut rng = Rng::new(seed, whole);
    let pairs = 4 + rng.below(5) as usize; // 4..=8
    let model = grid_model(pairs, 3, &mut rng);
    let mut wf = SharedWaterfill::new(&model);
    let mut live: Vec<(u64, usize)> = Vec::new(); // (id, pair)
    let mut next_id = 0u64;
    let steps = 60 + rng.below(60) as usize;
    for step in 0..steps {
        match rng.below(10) {
            // Arrival (weighted heaviest, mixed greedy/demand).
            0..=3 => {
                let pair = rng.below(pairs as u64) as usize;
                let cand = &model.candidates[pair];
                let tunnel = cand[rng.below(cand.len() as u64) as usize];
                let demand = match rng.below(3) {
                    0 => None,
                    _ => Some(rng.mbps(0.2, 12.0)),
                };
                wf.insert(next_id, tunnel, demand);
                live.push((next_id, pair));
                next_id += 1;
            }
            // Departure.
            4..=5 => {
                if !live.is_empty() {
                    let i = rng.below(live.len() as u64) as usize;
                    let (id, _) = live.swap_remove(i);
                    wf.remove(id);
                }
            }
            // Reroute onto the pair's other candidate.
            6 => {
                if !live.is_empty() {
                    let i = rng.below(live.len() as u64) as usize;
                    let (id, pair) = live[i];
                    let cand = &model.candidates[pair];
                    let tunnel = cand[rng.below(cand.len() as u64) as usize];
                    wf.set_tunnel(id, tunnel);
                }
            }
            // Demand ramp (up, down, or to greedy).
            7..=8 => {
                if !live.is_empty() {
                    let i = rng.below(live.len() as u64) as usize;
                    let (id, _) = live[i];
                    let demand = match rng.below(4) {
                        0 => None,
                        _ => Some(rng.mbps(0.1, 15.0)),
                    };
                    wf.set_demand(id, demand);
                }
            }
            // Headroom change (trunk or access).
            _ => {
                let link = rng.below(wf.link_count() as u64) as usize;
                wf.set_headroom(link, rng.mbps(2.0, 40.0));
            }
        }
        wf.resolve();
        assert_equals_recompute(&wf, step, seed, whole);
    }
    // The point of the machinery: the interleaving must actually
    // have exercised the cheap paths, not escalated every event.
    let stats = wf.stats();
    assert!(
        stats.incremental_solves + stats.fast_path_events > 0,
        "no incremental work happened: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_equals_recompute_bitwise(seed in 1u64..5_000_000) {
        replay(seed, false);
    }

    #[test]
    fn whole_number_model_equals_recompute(seed in 1u64..5_000_000) {
        replay(seed, true);
    }
}

/// With bitwise at-level tests this sequence went wrong at step 74: a
/// flow an ulp under its link's level was neither seeded nor joined by
/// the scan, and kept 11.0 Mbps where the recompute gives 16.0.
#[test]
fn whole_number_tie_keeps_its_peers() {
    replay(1506546, true);
}

/// The `PairId` import is exercised by the optimizer-level smoke below
/// (and keeps the test aligned with the controller's vocabulary).
#[test]
fn standing_engine_matches_assign_flows_shared_totals() {
    use framework::optimizer::{assign_flows_shared, FlowDemand};
    let mut rng = Rng::new(77, false);
    let model = grid_model(4, 2, &mut rng);
    let flows: Vec<FlowDemand> = (0..6)
        .map(|i| FlowDemand {
            pair: PairId(i % 4),
            demand: if i % 2 == 0 { None } else { Some(3.0) },
        })
        .collect();
    let assignment = assign_flows_shared(&model, &flows).unwrap();
    // Mirror the chosen placement in the standing engine: totals agree
    // to float tolerance (different but equivalent max-min fills).
    let mut wf = SharedWaterfill::new(&model);
    for (i, (f, &t)) in flows.iter().zip(&assignment.tunnel_of_flow).enumerate() {
        wf.insert(i as u64, t, f.demand);
    }
    wf.resolve();
    assert!(wf.audit());
    let total: f64 = wf.rates().iter().map(|(_, r)| r).sum();
    assert!(
        (total - assignment.predicted_total).abs() < 1e-6,
        "engine total {total} vs assignment total {}",
        assignment.predicted_total
    );
}
