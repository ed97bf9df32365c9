//! An independent oracle for the max-min fill every admit is scored
//! by: on small random instances — shared links, zero headroom,
//! demand-limited and greedy flows — the optimizer's water-fill and the
//! simulator's [`MaxMinKernel`] must both land on the lexicographic
//! max-min optimum, computed here by progressive filling over
//! `lp::simplex`: maximise the common level of the unfrozen flows, then
//! freeze each flow that cannot exceed it, and repeat. The oracle shares
//! no code with either fill, nor with `netsim::fairness`'s
//! `max_min_allocation`.

use framework::optimizer::{assign_flows_shared, FlowDemand, SharedLinkModel};
use framework::PairId;
use lp::simplex::{Constraint, LinearProgram, Relation};
use netsim::MaxMinKernel;
use proptest::prelude::*;

/// Deterministic xorshift (the proptest files' idiom).
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

/// Link headroom plus, per flow, the links it crosses and its demand.
struct Instance {
    headroom: Vec<f64>,
    flows: Vec<(Vec<usize>, Option<f64>)>,
}

/// One to five links (one in five at zero headroom), one to six flows,
/// each over a non-empty link subset; half the flows are greedy.
fn instance(seed: u64) -> Instance {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let links = 1 + rng.below(5) as usize;
    let headroom = (0..links)
        .map(|_| match rng.below(5) {
            0 => 0.0,
            _ => (1 + rng.below(80)) as f64 / 4.0,
        })
        .collect();
    let flows = (0..1 + rng.below(6))
        .map(|_| {
            let mask = 1 + rng.below((1 << links) - 1);
            let crossed = (0..links).filter(|l| mask >> l & 1 == 1).collect();
            let demand = (rng.below(2) == 0).then(|| rng.below(60) as f64 / 8.0);
            (crossed, demand)
        })
        .collect();
    Instance { headroom, flows }
}

/// The feasible set over `vars` variables (flow `i` is variable `i`):
/// link capacities, demands, and every pinned rate in `fixed`.
fn feasible(inst: &Instance, fixed: &[Option<f64>], vars: usize) -> Vec<Constraint> {
    let unit = |i: usize| (0..vars).map(|j| f64::from(i == j)).collect::<Vec<f64>>();
    let on = |l: usize| {
        let crosses = |i: usize| inst.flows.get(i).is_some_and(|f| f.0.contains(&l));
        (0..vars).map(|i| f64::from(crosses(i))).collect()
    };
    let mut rows: Vec<Constraint> = (inst.headroom.iter().enumerate())
        .map(|(l, &cap)| Constraint::new(on(l), Relation::Le, cap))
        .collect();
    for (i, (_, demand)) in inst.flows.iter().enumerate() {
        rows.extend(demand.map(|d| Constraint::new(unit(i), Relation::Le, d)));
        rows.extend(fixed[i].map(|v| Constraint::new(unit(i), Relation::Eq, v)));
    }
    rows
}

/// Lexicographic max-min rates by progressive filling over LPs.
fn lp_max_min(inst: &Instance) -> Vec<f64> {
    let n = inst.flows.len();
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    while fixed.iter().any(Option::is_none) {
        // Variables x_0..x_{n-1}, then the common level t.
        let mut level =
            LinearProgram::maximize((0..=n).map(|i| if i == n { 1.0 } else { 0.0 }).collect());
        for c in feasible(inst, &fixed, n + 1) {
            level.add_constraint(c);
        }
        for i in (0..n).filter(|&i| fixed[i].is_none()) {
            let mut c = vec![0.0; n + 1];
            c[i] = 1.0;
            c[n] = -1.0;
            level.add_constraint(Constraint::new(c, Relation::Ge, 0.0));
        }
        let t = level.solve().expect("the level LP is feasible").objective;
        // Freeze every unfrozen flow that cannot exceed t while the
        // others keep at least t.
        let active: Vec<usize> = (0..n).filter(|&i| fixed[i].is_none()).collect();
        let mut froze = false;
        for &j in &active {
            let mut most = LinearProgram::maximize((0..n).map(|i| f64::from(i == j)).collect());
            for c in feasible(inst, &fixed, n) {
                most.add_constraint(c);
            }
            for &i in &active {
                let mut c = vec![0.0; n];
                c[i] = 1.0;
                most.add_constraint(Constraint::new(c, Relation::Ge, t));
            }
            let best = most.solve().expect("the level is feasible").objective;
            if best <= t + 1e-9 {
                fixed[j] = Some(t);
                froze = true;
            }
        }
        assert!(froze, "progressive filling stalled at level {t}");
    }
    fixed.into_iter().flatten().collect()
}

/// `optimizer::water_fill`, through the one placement it can make:
/// every flow its own pair with a single candidate tunnel.
fn optimizer_rates(inst: &Instance) -> Vec<f64> {
    let model = SharedLinkModel::new(
        inst.headroom.clone(),
        inst.flows.iter().map(|(links, _)| links.clone()).collect(),
        (0..inst.flows.len()).map(|i| vec![i]).collect(),
    );
    let flows: Vec<FlowDemand> = inst
        .flows
        .iter()
        .enumerate()
        .map(|(i, &(_, demand))| FlowDemand {
            pair: PairId(i),
            demand,
        })
        .collect();
    assign_flows_shared(&model, &flows).unwrap().rate_of_flow
}

fn kernel_rates(inst: &Instance) -> Vec<f64> {
    let mut kernel = MaxMinKernel::new(inst.headroom.clone());
    for (i, (links, demand)) in inst.flows.iter().enumerate() {
        kernel.insert(i as u64, links.clone(), *demand);
    }
    kernel.resolve();
    kernel.rates().into_iter().map(|(_, rate)| rate).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fills_reach_the_lexicographic_max_min_optimum(seed in 1u64..1_000_000_000) {
        let inst = instance(seed);
        let want = lp_max_min(&inst);
        for (name, got) in [("water_fill", optimizer_rates(&inst)), ("MaxMinKernel", kernel_rates(&inst))] {
            assert_eq!(got.len(), want.len(), "{name}, seed {seed}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let (headroom, flows) = (&inst.headroom, &inst.flows);
                assert!(
                    (g - w).abs() < 1e-6,
                    "{name} flow {i}: {g} vs LP {w} (seed {seed}; {headroom:?}, {flows:?})"
                );
            }
        }
    }
}
