//! The Optimizer: objective functions and the flow→tunnel assignment
//! search — one **link-level shared-capacity engine** for every network,
//! from the paper's single managed pair to a traffic matrix of pairs.
//!
//! "The path QoS estimations are sent to the Optimizer, which selects the
//! optimal route based on the defined objective function."
//!
//! The paper's testbed manages one ingress/egress pair over mutually
//! disjoint tunnels, so a tunnel is fully described by one bottleneck
//! capacity. With **N managed pairs** the candidate tunnels of different
//! pairs overlap on shared links, which breaks the bottleneck-per-tunnel
//! model: two tunnels' "capacities" may be the *same* physical headroom
//! counted twice. The [`SharedLinkModel`] therefore decomposes every
//! candidate tunnel into its directed links, tracks residual headroom
//! per link, and [`assign_flows_shared`] water-fills flows across pairs
//! so that **no shared link is ever oversubscribed** (exhaustive
//! placement for small batches, online greedy for large ones). The
//! bottleneck-per-tunnel model is the special case of one pair whose
//! tunnels cross no physical link and carry one cap each
//! ([`SharedLinkModel::one_pair`] then
//! [`SharedLinkModel::with_tunnel_caps`]), searched by the same engine.

use crate::hecate::PathForecast;
use crate::{FrameworkError, PairId};

/// Objective functions the framework supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize predicted/measured RTT (Experiment 1).
    MinLatency,
    /// Maximize predicted available bandwidth (Experiment 2).
    MaxBandwidth,
    /// Minimize the maximum predicted link utilization (Sec. III).
    MinMaxUtilization,
}

/// Picks the best single path for a new flow given per-path forecasts of
/// the relevant metric (RTT for [`Objective::MinLatency`], available
/// bandwidth otherwise); returns its position in `forecasts`.
pub fn select_path(
    objective: Objective,
    forecasts: &[PathForecast],
) -> Result<usize, FrameworkError> {
    let scored = forecasts.iter().enumerate();
    let best = match objective {
        Objective::MinLatency => scored.min_by(|(_, a), (_, b)| a.mean().total_cmp(&b.mean())),
        Objective::MaxBandwidth => scored.max_by(|(_, a), (_, b)| a.mean().total_cmp(&b.mean())),
        Objective::MinMaxUtilization => scored.max_by(|(_, a), (_, b)| a.min().total_cmp(&b.min())),
    };
    best.map(|(i, _)| i).ok_or(FrameworkError::NoFeasiblePath)
}

/// A managed flow presented to the shared-link assignment engine: which
/// pair it belongs to (selecting its candidate tunnel set) and its
/// offered load (`None` = greedy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// The managed pair the flow travels on.
    pub pair: PairId,
    /// Offered load in Mbps; `None` = greedy.
    pub demand: Option<f64>,
}

/// The link-level capacity model the multi-pair optimizer assigns over.
///
/// * `headroom[l]` — residual Mbps available to managed traffic on
///   directed link `l` (from telemetry / control-plane state);
/// * `tunnel_links[t]` — candidate tunnel `t` decomposed into the
///   indices of the directed links it crosses (tunnels of *different*
///   pairs may share entries — that sharing is the whole point);
/// * `candidates[p]` — the global tunnel indices pair `p` may use
///   (disjoint within the pair, overlapping across pairs).
///
/// Per-tunnel *forecast* caps are folded in as synthetic private links
/// via [`SharedLinkModel::with_tunnel_caps`], so one water-fill respects
/// both shared physical headroom and Hecate's predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedLinkModel {
    /// Residual headroom per directed link (Mbps).
    pub headroom: Vec<f64>,
    /// Tunnel index → directed-link indices (into `headroom`).
    pub tunnel_links: Vec<Vec<usize>>,
    /// Pair index → candidate tunnel indices.
    pub candidates: Vec<Vec<usize>>,
    /// How many leading entries of `headroom` are physical links; the
    /// rest are synthetic per-tunnel forecast caps.
    pub real_links: usize,
}

impl SharedLinkModel {
    /// One pair over `tunnels` candidate tunnels that cross no physical
    /// link. Folded with [`SharedLinkModel::with_tunnel_caps`], each
    /// tunnel is exactly its one cap: the bottleneck-per-tunnel model of
    /// the paper's testbed, blind to any link the tunnels share.
    pub fn one_pair(tunnels: usize) -> Self {
        SharedLinkModel::new(
            Vec::new(),
            vec![Vec::new(); tunnels],
            vec![(0..tunnels).collect()],
        )
    }

    /// A model over physical links only (no forecast caps yet).
    pub fn new(
        headroom: Vec<f64>,
        tunnel_links: Vec<Vec<usize>>,
        candidates: Vec<Vec<usize>>,
    ) -> Self {
        let real_links = headroom.len();
        SharedLinkModel {
            headroom,
            tunnel_links,
            candidates,
            real_links,
        }
    }

    /// Folds per-tunnel forecast capacities into the model as one
    /// synthetic private link per tunnel: tunnel `t`'s flows are then
    /// capped both by every shared physical link *and* by Hecate's
    /// predicted capacity `caps[t]`, under the same water-fill.
    ///
    /// # Panics
    /// Panics when `caps` is not one capacity per tunnel, or when caps
    /// were already folded in (stacking a second set of synthetic links
    /// would silently double-cap every tunnel).
    pub fn with_tunnel_caps(mut self, caps: &[f64]) -> Self {
        assert_eq!(caps.len(), self.tunnel_links.len(), "one cap per tunnel");
        assert_eq!(
            self.headroom.len(),
            self.real_links,
            "forecast caps already folded into this model"
        );
        for (t, cap) in caps.iter().enumerate() {
            let idx = self.headroom.len();
            self.headroom.push(cap.max(0.0));
            self.tunnel_links[t].push(idx);
        }
        self
    }
}

/// A multi-pair assignment: per-flow tunnel choice plus the predicted
/// max-min rates the water-fill scored it with.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedAssignment {
    /// Flow `i` → global tunnel index (into the model's `tunnel_links`).
    pub tunnel_of_flow: Vec<usize>,
    /// Predicted per-flow rate under the shared-link water-fill; the
    /// rates respect every link's headroom by construction.
    pub rate_of_flow: Vec<f64>,
    /// Sum of predicted rates.
    pub predicted_total: f64,
    /// Predicted rate of the worst-off flow (fairness tie-breaker).
    pub predicted_min_rate: f64,
}

/// Exhaustive search is `∏ |candidates(pair)|` *water-fills*, each one
/// a multi-round pass over every flow's links, so above this many
/// assignments the placement goes greedy (e.g. a 16-pair tick with 2
/// candidates each, 2^16 assignments, or 9 flows on one 3-tunnel pair,
/// 3^9).
const SHARED_EXHAUSTIVE_BOUND: u64 = 10_000;

/// Which placement search [`assign_flows_shared_with`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Mixed-radix enumeration of every assignment.
    Exhaustive,
    /// Online greedy water-fill placement.
    Greedy,
}

impl SolverKind {
    /// Stable label, recorded as the `decide.solve` span's `solver` arg.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Exhaustive => "exhaustive",
            SolverKind::Greedy => "greedy",
        }
    }
}

/// Tuning knobs for the shared-link optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Assignment-space ceiling for the exhaustive placement search:
    /// batches with `∏ |candidates(pair)|` at or below this run
    /// [`SolverKind::Exhaustive`], larger batches fall back to
    /// [`SolverKind::Greedy`]. The default (10 000) keeps a 13-pair /
    /// 2-candidate tick exhaustive and sends anything bigger greedy;
    /// raise it to buy placement quality with CPU, or drop it to 0 to
    /// force greedy everywhere.
    pub exhaustive_bound: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            exhaustive_bound: SHARED_EXHAUSTIVE_BOUND,
        }
    }
}

/// Assigns every flow to one of its pair's candidate tunnels so that
/// the **sum of predicted rates never exceeds any directed link's
/// headroom** — the invariant the bottleneck-per-tunnel model cannot
/// provide once candidate tunnels overlap across pairs.
///
/// Small batches are placed exhaustively (maximize predicted total,
/// then worst-off flow rate, then lexicographically-earliest choice, so
/// earlier flows stay on earlier tunnels — the paper's "one flow moves
/// to tunnel 2 and another to tunnel 3", flow 1 staying put); large
/// batches fall back to an online greedy water-fill.
/// Either way the returned rates come from one final
/// max-min progressive fill over the chosen assignment, so the
/// no-oversubscription invariant holds exactly.
pub fn assign_flows_shared(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
) -> Result<SharedAssignment, FrameworkError> {
    assign_flows_shared_with(model, flows, &OptimizerConfig::default()).map(|(a, _)| a)
}

/// [`assign_flows_shared`] with explicit [`OptimizerConfig`] knobs,
/// also reporting which placement search ran (the `decide.solve` span
/// records it).
pub fn assign_flows_shared_with(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
    config: &OptimizerConfig,
) -> Result<(SharedAssignment, SolverKind), FrameworkError> {
    if flows.is_empty() || model.tunnel_links.is_empty() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    for f in flows {
        if model
            .candidates
            .get(f.pair.index())
            .is_none_or(|c| c.is_empty())
        {
            return Err(FrameworkError::NoFeasiblePath);
        }
    }
    let space = flows.iter().try_fold(1u64, |acc, f| {
        acc.checked_mul(model.candidates[f.pair.index()].len() as u64)
    });
    let (choice, solver) = match space {
        Some(s) if s <= config.exhaustive_bound => {
            (exhaustive_shared(model, flows).0, SolverKind::Exhaustive)
        }
        _ => (greedy_shared(model, flows)?, SolverKind::Greedy),
    };
    let (rate_of_flow, predicted_total, predicted_min_rate) = water_fill(model, flows, &choice);
    Ok((
        SharedAssignment {
            tunnel_of_flow: choice,
            rate_of_flow,
            predicted_total,
            predicted_min_rate,
        },
        solver,
    ))
}

/// Exhaustive placement: mixed-radix enumeration over each flow's
/// candidate list, scored by the max-min fill of [`water_fill`] on a
/// [`compact`] copy of the model, with one scratch for all assignments.
/// Also returns how many assignments it scored.
///
/// The search stops at the first assignment when nothing can replace
/// it: every flow declares a demand, so no fill exceeds `Σ demand` in
/// total or `min demand` for its worst-off flow; the first assignment
/// reaches both (to 1e-13), so none can [`beats`] it by the 1e-12
/// margins; and it takes each flow's first candidate, which is checked
/// to be that flow's smallest tunnel index, so none is lexicographically
/// earlier either. A greedy flow, contention on the first assignment or
/// a candidate list not led by its smallest index enumerates in full.
fn exhaustive_shared(model: &SharedLinkModel, flows: &[FlowDemand]) -> (Vec<usize>, u64) {
    let n = flows.len();
    let model = &compact(model, flows);
    let radix: Vec<&[usize]> = flows
        .iter()
        .map(|f| model.candidates[f.pair.index()].as_slice())
        .collect();
    let mut counter = vec![0usize; n];
    let mut choice: Vec<usize> = radix.iter().map(|r| r[0]).collect();
    let mut fill = Fill::default();
    let (total, min_rate) = fill.run(model, flows, &choice);
    let first_is_smallest = radix.iter().all(|r| r.iter().all(|&t| r[0] <= t));
    // A flow's rate never passes its demand, nor drops below zero.
    let demands: Option<Vec<f64>> = flows.iter().map(|f| Some(f.demand?.max(0.0))).collect();
    if let Some(demands) = demands.filter(|_| first_is_smallest) {
        let most: f64 = demands.iter().sum();
        let fairest = demands.iter().copied().fold(f64::INFINITY, f64::min);
        if total >= most - 1e-13 && min_rate >= fairest - 1e-13 {
            return (choice, 1);
        }
    }
    let mut best = (choice.clone(), total, min_rate);
    let mut scored = 1;
    loop {
        // increment the mixed-radix counter
        let mut pos = 0;
        loop {
            if pos == n {
                return (best.0, scored);
            }
            counter[pos] += 1;
            if counter[pos] < radix[pos].len() {
                break;
            }
            counter[pos] = 0;
            pos += 1;
        }
        choice.clear();
        choice.extend(counter.iter().zip(&radix).map(|(&c, r)| r[c]));
        let (total, min_rate) = fill.run(model, flows, &choice);
        scored += 1;
        if beats((&choice, total, min_rate), &best) {
            best = (choice.clone(), total, min_rate);
        }
    }
}

/// The exhaustive search's order on scored placements `(choice, total,
/// min rate)`: more predicted total, then a better-off worst flow, then
/// the lexicographically earlier choice.
fn beats(new: (&[usize], f64, f64), best: &(Vec<usize>, f64, f64)) -> bool {
    let ((choice, total, min_rate), (b_choice, b_total, b_min)) = (new, best);
    let total_tie = (total - b_total).abs() <= 1e-12;
    let rate_tie = (min_rate - b_min).abs() <= 1e-12;
    total > b_total + 1e-12
        || (total_tie && min_rate > b_min + 1e-12)
        || (total_tie && rate_tie && choice < b_choice.as_slice())
}

/// `model` cut down to the links a placement of `flows` can load: those
/// crossed by a candidate tunnel of one of their pairs, renumbered in
/// ascending order; every other tunnel crosses nothing. A fill visits
/// the surviving links in the order it visited them in `model` and
/// never read the others (their flow count is zero), so rates, totals
/// and the chosen placement are bit for bit the full model's — without
/// cloning and scanning a few hundred idle links per scored assignment.
fn compact(model: &SharedLinkModel, flows: &[FlowDemand]) -> SharedLinkModel {
    let tunnels = || flows.iter().flat_map(|f| &model.candidates[f.pair.index()]);
    const IDLE: usize = usize::MAX;
    let mut new_id = vec![IDLE; model.headroom.len()];
    for &t in tunnels() {
        for &l in &model.tunnel_links[t] {
            new_id[l] = 0;
        }
    }
    let (mut headroom, mut real_links) = (Vec::new(), 0);
    for (l, id) in new_id.iter_mut().enumerate() {
        if *id != IDLE {
            *id = headroom.len();
            headroom.push(model.headroom[l]);
            real_links += (l < model.real_links) as usize;
        }
    }
    let mut tunnel_links = vec![Vec::new(); model.tunnel_links.len()];
    for &t in tunnels() {
        if tunnel_links[t].is_empty() {
            tunnel_links[t] = model.tunnel_links[t].iter().map(|&l| new_id[l]).collect();
        }
    }
    SharedLinkModel {
        headroom,
        tunnel_links,
        candidates: model.candidates.clone(),
        real_links,
    }
}

/// Online greedy placement for huge batches: each flow takes the
/// candidate tunnel currently offering it the best estimated share
/// (demand-limited flows reserve their demand on every crossed link,
/// greedy flows split residuals evenly). O(flows × tunnels × links).
fn greedy_shared(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
) -> Result<Vec<usize>, FrameworkError> {
    let mut reserved = vec![0.0f64; model.headroom.len()];
    let mut greedy_count = vec![0usize; model.headroom.len()];
    let mut choice = Vec::with_capacity(flows.len());
    for f in flows {
        let share = |t: usize| -> f64 {
            model.tunnel_links[t]
                .iter()
                .map(|&l| {
                    let residual = (model.headroom[l] - reserved[l]).max(0.0);
                    let split = residual / (greedy_count[l] + 1) as f64;
                    match f.demand {
                        Some(d) => d.min(split),
                        None => split,
                    }
                })
                .fold(f64::INFINITY, f64::min)
        };
        let best = model.candidates[f.pair.index()]
            .iter()
            .copied()
            .max_by(|&a, &b| share(a).total_cmp(&share(b)))
            .ok_or(FrameworkError::NoFeasiblePath)?;
        for &l in &model.tunnel_links[best] {
            match f.demand {
                Some(d) => reserved[l] += d,
                None => greedy_count[l] += 1,
            }
        }
        choice.push(best);
    }
    Ok(choice)
}

/// Max-min progressive filling of one concrete assignment: all active
/// flows grow at the same rate until a link saturates or a demand is
/// met; flows touching a saturated link (or at demand) freeze; repeat.
/// Deterministic (fixed iteration order) and safe: a link's residual
/// never goes below ~f64 epsilon of zero, so the sum of returned rates
/// respects every link's headroom.
fn water_fill(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
    choice: &[usize],
) -> (Vec<f64>, f64, f64) {
    let mut fill = Fill::default();
    let (total, min_rate) = fill.run(model, flows, choice);
    (fill.rate, total, min_rate)
}

/// [`water_fill`]'s working state, reusable from one fill to the next.
#[derive(Default)]
struct Fill {
    residual: Vec<f64>,
    /// Flows per link among the still-active.
    count: Vec<usize>,
    active: Vec<bool>,
    /// The per-flow rates of the last [`Fill::run`].
    rate: Vec<f64>,
}

impl Fill {
    /// Fills `choice`; returns the rates' sum and their minimum (0 when
    /// there is none).
    fn run(
        &mut self,
        model: &SharedLinkModel,
        flows: &[FlowDemand],
        choice: &[usize],
    ) -> (f64, f64) {
        let n = flows.len();
        let Fill {
            residual,
            count,
            active,
            rate,
        } = self;
        residual.clear();
        residual.extend_from_slice(&model.headroom);
        rate.clear();
        rate.resize(n, 0.0);
        active.clear();
        active.resize(n, true);
        let mut active_left = n;
        while active_left > 0 {
            count.clear();
            count.resize(residual.len(), 0);
            for i in 0..n {
                if active[i] {
                    for &l in &model.tunnel_links[choice[i]] {
                        count[l] += 1;
                    }
                }
            }
            // uniform growth until the first constraint binds
            let mut delta = f64::INFINITY;
            for (l, &c) in count.iter().enumerate() {
                if c > 0 {
                    delta = delta.min(residual[l] / c as f64);
                }
            }
            for i in 0..n {
                if active[i] {
                    if let Some(d) = flows[i].demand {
                        delta = delta.min((d - rate[i]).max(0.0));
                    }
                }
            }
            if !delta.is_finite() {
                // Active flows crossing no capacitated link (degenerate
                // model): freeze them at their current rate.
                break;
            }
            let delta = delta.max(0.0);
            for i in 0..n {
                if active[i] {
                    rate[i] += delta;
                }
            }
            for (l, &c) in count.iter().enumerate() {
                if c > 0 {
                    residual[l] -= delta * c as f64;
                }
            }
            // freeze flows at demand or on a saturated link
            let mut froze = false;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                let at_demand = flows[i].demand.is_some_and(|d| rate[i] >= d - 1e-12);
                let saturated = model.tunnel_links[choice[i]]
                    .iter()
                    .any(|&l| residual[l] <= 1e-12);
                if at_demand || saturated {
                    active[i] = false;
                    active_left -= 1;
                    froze = true;
                }
            }
            if !froze {
                break; // numerical stall: stop growing rather than loop
            }
        }
        let total = rate.iter().sum();
        let min_rate = rate.iter().copied().fold(f64::INFINITY, f64::min);
        (total, if min_rate.is_finite() { min_rate } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast(path: &str, values: Vec<f64>) -> PathForecast {
        PathForecast {
            path: path.to_string(),
            values,
        }
    }

    #[test]
    fn min_latency_picks_smallest_mean() {
        let fs = vec![
            forecast("t1", vec![58.0, 60.0]),
            forecast("t2", vec![16.0, 17.0]),
        ];
        let best = select_path(Objective::MinLatency, &fs).unwrap();
        assert_eq!(fs[best].path, "t2");
    }

    #[test]
    fn max_bandwidth_picks_largest_mean() {
        let fs = vec![
            forecast("t1", vec![20.0]),
            forecast("t2", vec![10.0]),
            forecast("t3", vec![5.0]),
        ];
        assert_eq!(select_path(Objective::MaxBandwidth, &fs).unwrap(), 0);
    }

    #[test]
    fn min_max_utilization_prefers_stable_floor() {
        // t1 has a higher mean but a worse worst-case.
        let fs = vec![
            forecast("t1", vec![30.0, 1.0]),
            forecast("t2", vec![12.0, 11.0]),
        ];
        assert_eq!(select_path(Objective::MinMaxUtilization, &fs).unwrap(), 1);
    }

    #[test]
    fn empty_forecasts_error() {
        assert!(select_path(Objective::MaxBandwidth, &[]).is_err());
    }

    /// One pair over tunnels that are nothing but their caps.
    fn caps_only(caps: &[f64]) -> SharedLinkModel {
        SharedLinkModel::one_pair(caps.len()).with_tunnel_caps(caps)
    }

    /// Flows of pair 0 with these demands (`None` = greedy).
    fn of_pair0(demands: &[Option<f64>]) -> Vec<FlowDemand> {
        demands
            .iter()
            .map(|&demand| FlowDemand {
                pair: PairId(0),
                demand,
            })
            .collect()
    }

    #[test]
    fn fig12_assignment_is_one_flow_per_tunnel() {
        // The paper's Experiment-2 optimum: predicted capacities
        // 20/10/5, three greedy flows — all three tunnels used (35
        // total), not all on tunnel 1 (20), and flow 1 stays on tunnel 1.
        let a = assign_flows_shared(&caps_only(&[20.0, 10.0, 5.0]), &of_pair0(&[None; 3])).unwrap();
        assert_eq!(a.tunnel_of_flow, vec![0, 1, 2], "one flow per tunnel");
        assert!((a.predicted_total - 35.0).abs() < 1e-9);
    }

    #[test]
    fn all_flows_one_tunnel_scores_its_capacity() {
        let model = caps_only(&[20.0, 10.0, 5.0]);
        let (_, total, _) = water_fill(&model, &of_pair0(&[None; 3]), &[0, 0, 0]);
        assert!((total - 20.0).abs() < 1e-12);
    }

    #[test]
    fn demand_limited_flows_share_sensibly() {
        // Two 3 Mbps flows + one greedy on a 20 Mbps tunnel: 3+3+14.
        let model = caps_only(&[20.0]);
        let flows = of_pair0(&[Some(3.0), Some(3.0), None]);
        let (_, total, _) = water_fill(&model, &flows, &[0, 0, 0]);
        assert!((total - 20.0).abs() < 1e-12);
        // Without the greedy flow: 3 + 3 = 6.
        let (_, total2, _) = water_fill(&model, &flows[..2], &[0, 0]);
        assert!((total2 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn small_demands_prefer_spreading_anyway() {
        // Two 2 Mbps flows across 20/10: any assignment delivers 4; the
        // search must still terminate and return a valid assignment.
        let flows = of_pair0(&[Some(2.0), Some(2.0)]);
        let a = assign_flows_shared(&caps_only(&[20.0, 10.0]), &flows).unwrap();
        assert!((a.predicted_total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_rejected() {
        // No tunnel to place on, and nothing to place.
        assert!(assign_flows_shared(&caps_only(&[]), &of_pair0(&[None])).is_err());
        assert!(assign_flows_shared(&caps_only(&[10.0]), &[]).is_err());
    }

    // ---- shared-link (multi-pair) engine ----

    /// Two pairs, two tunnels each; pair 0's tunnel 1 and pair 1's
    /// tunnel 0 share the middle link (index 2).
    ///
    /// ```text
    /// link:      0     1     2      3     4
    /// headroom: 20    10    10     20    10
    /// tunnels:  [0]  [1,2] [2,3]  [4]
    /// pair 0:  t0 t1        pair 1: t2 t3
    /// ```
    fn shared_model() -> SharedLinkModel {
        SharedLinkModel::new(
            vec![20.0, 10.0, 10.0, 20.0, 10.0],
            vec![vec![0], vec![1, 2], vec![2, 3], vec![4]],
            vec![vec![0, 1], vec![2, 3]],
        )
    }

    fn greedy(pair: usize) -> FlowDemand {
        FlowDemand {
            pair: PairId(pair),
            demand: None,
        }
    }

    /// The invariant the whole refactor exists for: on every directed
    /// link, the sum of assigned rates never exceeds the headroom.
    fn assert_no_oversubscription(model: &SharedLinkModel, flows: &[FlowDemand]) {
        let a = assign_flows_shared(model, flows).unwrap();
        let mut used = vec![0.0f64; model.headroom.len()];
        for (i, &t) in a.tunnel_of_flow.iter().enumerate() {
            for &l in &model.tunnel_links[t] {
                used[l] += a.rate_of_flow[i];
            }
        }
        for (l, (&u, &h)) in used.iter().zip(&model.headroom).enumerate() {
            assert!(
                u <= h + 1e-9,
                "link {l} oversubscribed: {u} > {h} (assignment {a:?})"
            );
        }
    }

    #[test]
    fn shared_engine_never_oversubscribes_a_shared_link() {
        let model = shared_model();
        // Greedy flows on both pairs: the optimum avoids piling both
        // pairs onto the shared link 2.
        assert_no_oversubscription(&model, &[greedy(0), greedy(1)]);
        assert_no_oversubscription(&model, &[greedy(0), greedy(0), greedy(1), greedy(1)]);
        // Demand-limited mixes.
        assert_no_oversubscription(
            &model,
            &[
                FlowDemand {
                    pair: PairId(0),
                    demand: Some(7.0),
                },
                greedy(1),
                FlowDemand {
                    pair: PairId(1),
                    demand: Some(30.0), // more than any path carries
                },
            ],
        );
        // Large batch: the greedy fallback must hold the invariant too
        // (2^40 assignments overflow the exhaustive bound).
        let many: Vec<FlowDemand> = (0..40).map(|i| greedy(i % 2)).collect();
        assert_no_oversubscription(&model, &many);
    }

    #[test]
    fn shared_engine_routes_pairs_around_contention() {
        // One greedy flow per pair. Piling both onto tunnels sharing
        // link 2 (t1 + t2) yields 10 total; keeping pair 0 on t0 (20)
        // and pair 1 on either of its tunnels (10) yields 30. Among the
        // 30-total optima the tie-break keeps the lexicographically
        // earliest choice, [t0, t2].
        let a = assign_flows_shared(&shared_model(), &[greedy(0), greedy(1)]).unwrap();
        assert_eq!(a.tunnel_of_flow, vec![0, 2]);
        assert!((a.predicted_total - 30.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn shared_engine_respects_candidate_sets() {
        // Every flow must land on a tunnel its own pair declared.
        let model = shared_model();
        let flows: Vec<FlowDemand> = (0..6).map(|i| greedy(i % 2)).collect();
        let a = assign_flows_shared(&model, &flows).unwrap();
        for (f, &t) in flows.iter().zip(&a.tunnel_of_flow) {
            assert!(
                model.candidates[f.pair.index()].contains(&t),
                "flow of {:?} landed on foreign tunnel {t}",
                f.pair
            );
        }
    }

    #[test]
    fn forecast_caps_bind_through_synthetic_links() {
        // Physical headroom says 20, the forecast says tunnel 0 only
        // carries 4: the water-fill must honor the tighter cap and send
        // the greedy flow to tunnel 1 instead.
        let model =
            SharedLinkModel::new(vec![20.0, 10.0], vec![vec![0], vec![1]], vec![vec![0, 1]])
                .with_tunnel_caps(&[4.0, 9.0]);
        assert_eq!(model.real_links, 2);
        let a = assign_flows_shared(&model, &[greedy(0)]).unwrap();
        assert_eq!(a.tunnel_of_flow, vec![1]);
        assert!((a.predicted_total - 9.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn shared_engine_rejects_bad_inputs() {
        let model = shared_model();
        assert!(assign_flows_shared(&model, &[]).is_err());
        // Unknown pair index.
        assert!(assign_flows_shared(&model, &[greedy(7)]).is_err());
        // A pair with an empty candidate set.
        let empty = SharedLinkModel::new(vec![10.0], vec![vec![0]], vec![vec![]]);
        assert!(assign_flows_shared(&empty, &[greedy(0)]).is_err());
    }

    #[test]
    fn water_fill_is_max_min_fair_on_a_shared_bottleneck() {
        // Three greedy flows forced through one 12 Mbps link: 4 each.
        let model = SharedLinkModel::new(vec![12.0], vec![vec![0]], vec![vec![0]]);
        let flows = [greedy(0), greedy(0), greedy(0)];
        let a = assign_flows_shared(&model, &flows).unwrap();
        for r in &a.rate_of_flow {
            assert!((r - 4.0).abs() < 1e-9, "{a:?}");
        }
        assert!((a.predicted_min_rate - 4.0).abs() < 1e-9);
        // A demand-limited flow leaves its spare share to the greedy.
        let mixed = [
            FlowDemand {
                pair: PairId(0),
                demand: Some(2.0),
            },
            greedy(0),
        ];
        let a = assign_flows_shared(&model, &mixed).unwrap();
        assert!((a.rate_of_flow[0] - 2.0).abs() < 1e-9, "{a:?}");
        assert!((a.rate_of_flow[1] - 10.0).abs() < 1e-9, "{a:?}");
    }
    /// A random multi-pair model: trunks that many tunnels share, links
    /// no candidate of the batch crosses, zero-headroom links, forecast
    /// caps on some; and a batch drawn from a few of its pairs.
    fn random_model(seed: u64) -> (SharedLinkModel, Vec<FlowDemand>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let links = rng.gen_range(4..40usize);
        let headroom: Vec<f64> = (0..links)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => 0.0,
                1 => rng.gen_range(1..20u32) as f64,
                _ => rng.gen_range(0.0..50.0),
            })
            .collect();
        let pairs = rng.gen_range(1..9usize);
        let (mut tunnel_links, mut candidates) = (Vec::new(), Vec::new());
        for _ in 0..pairs {
            let mut mine = Vec::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let mut hops: Vec<usize> = (0..rng.gen_range(1..6usize))
                    // the first four links are trunks everyone leans on
                    .map(|_| {
                        let among = if rng.gen_bool(0.3) { 4 } else { links };
                        rng.gen_range(0..among)
                    })
                    .collect();
                hops.dedup();
                mine.push(tunnel_links.len());
                tunnel_links.push(hops);
            }
            candidates.push(mine);
        }
        let mut model = SharedLinkModel::new(headroom, tunnel_links, candidates);
        if rng.gen_bool(0.5) {
            let caps: Vec<f64> = (0..model.tunnel_links.len())
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(0.0..30.0)
                    }
                })
                .collect();
            model = model.with_tunnel_caps(&caps);
        }
        let flows = (0..rng.gen_range(1..7usize))
            .map(|_| FlowDemand {
                pair: PairId(rng.gen_range(0..pairs.min(3))),
                demand: rng.gen_bool(0.5).then(|| rng.gen_range(0.0..15.0)),
            })
            .collect();
        (model, flows)
    }

    /// What [`bound_model`] builds around the bound check in
    /// `exhaustive_shared`, and whether the search should stop at the
    /// first assignment there.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Near {
        /// Every flow demand-limited, every link roomy: stops.
        Fits,
        /// As `Fits`, but flow 0's first tunnel is short of its demand
        /// by this much: inside the 1e-13 slack stops, outside
        /// enumerates (and past 1e-12 another placement wins).
        Short(f64),
        /// The first candidates of pairs 0 and 1 share a link too small
        /// for both: the first assignment misses the bound.
        Contended,
        /// As `Fits`, with one greedy flow: no bound to reach.
        OneGreedy,
        /// As `Fits`, candidate lists in descending order: the first
        /// assignment is not the lexicographically smallest.
        Descending,
    }

    impl Near {
        fn stops(self) -> bool {
            matches!(self, Near::Fits) || matches!(self, Near::Short(by) if by < 1e-13)
        }
    }

    /// A model of 2-4 pairs with 2-3 private-link tunnels each, and a
    /// batch with at least one flow on each of pairs 0 and 1 (flow 0
    /// alone on pair 0), shaped by `near`.
    fn bound_model(seed: u64, near: Near) -> (SharedLinkModel, Vec<FlowDemand>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs = rng.gen_range(2..5usize);
        let (mut headroom, mut tunnel_links, mut candidates) = (vec![], vec![], vec![]);
        for _ in 0..pairs {
            let mut mine = Vec::new();
            for _ in 0..rng.gen_range(2..4usize) {
                mine.push(tunnel_links.len());
                tunnel_links.push(vec![headroom.len()]);
                headroom.push(100.0);
            }
            if near == Near::Descending {
                mine.reverse();
            }
            candidates.push(mine);
        }
        let mut flows: Vec<FlowDemand> = (0..rng.gen_range(2..6usize))
            .map(|i| FlowDemand {
                pair: PairId(if i == 0 { 0 } else { rng.gen_range(1..pairs) }),
                demand: Some(rng.gen_range(0.1..5.0)),
            })
            .collect();
        flows[1].pair = PairId(1);
        let (d0, d1) = (flows[0].demand.unwrap(), flows[1].demand.unwrap());
        match near {
            Near::Short(by) => headroom[tunnel_links[candidates[0][0]][0]] = d0 - by,
            Near::Contended => {
                let shared = headroom.len();
                headroom.push((d0 + d1) / 2.0);
                tunnel_links[candidates[0][0]].push(shared);
                tunnel_links[candidates[1][0]].push(shared);
            }
            Near::OneGreedy => {
                let greedy = rng.gen_range(0..flows.len());
                flows[greedy].demand = None;
            }
            Near::Fits | Near::Descending => {}
        }
        (
            SharedLinkModel::new(headroom, tunnel_links, candidates),
            flows,
        )
    }

    /// The placement search before it scored on a compact model or
    /// stopped at the bound: every assignment filled over the whole of
    /// `model`.
    fn exhaustive_on_the_full_model(model: &SharedLinkModel, flows: &[FlowDemand]) -> Vec<usize> {
        let radix: Vec<&[usize]> = flows
            .iter()
            .map(|f| model.candidates[f.pair.index()].as_slice())
            .collect();
        let mut best: Option<(Vec<usize>, f64, f64)> = None;
        for k in 0..radix.iter().map(|r| r.len()).product::<usize>() {
            // flow 0 is the fastest-moving digit
            let mut rest = k;
            let choice: Vec<usize> = radix
                .iter()
                .map(|r| {
                    let digit = rest % r.len();
                    rest /= r.len();
                    r[digit]
                })
                .collect();
            let (_, total, min_rate) = water_fill(model, flows, &choice);
            if best
                .as_ref()
                .is_none_or(|b| beats((&choice, total, min_rate), b))
            {
                best = Some((choice, total, min_rate));
            }
        }
        best.unwrap().0
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn compact_model_scores_and_places_like_the_full_one(seed in proptest::prelude::any::<u64>()) {
            let nears = [
                Near::Fits,
                Near::Short(5e-14),
                Near::Short(5e-13),
                Near::Short(2e-12),
                Near::Contended,
                Near::OneGreedy,
                Near::Descending,
            ];
            // A model with no particular relation to the bound, and one
            // built around it.
            let near = nears[(seed % nears.len() as u64) as usize];
            for (near, (model, flows)) in [(None, random_model(seed)), (Some(near), bound_model(seed, near))] {
                let small = compact(&model, &flows);
                proptest::prop_assert!(small.headroom.len() <= model.headroom.len());
                let bits = |(rates, total, min): (Vec<f64>, f64, f64)| {
                    let rates: Vec<u64> = rates.iter().map(|r| r.to_bits()).collect();
                    (rates, total.to_bits(), min.to_bits())
                };
                // Every assignment fills to the same bits on both models...
                let first: Vec<usize> = flows.iter().map(|f| model.candidates[f.pair.index()][0]).collect();
                let last: Vec<usize> = flows
                    .iter()
                    .map(|f| *model.candidates[f.pair.index()].last().unwrap())
                    .collect();
                for choice in [&first, &last] {
                    proptest::prop_assert_eq!(
                        bits(water_fill(&small, &flows, choice)),
                        bits(water_fill(&model, &flows, choice))
                    );
                }
                // ...so the search picks the same placement — whether it
                // enumerated or stopped at the bound — with the same rates.
                let oracle = exhaustive_on_the_full_model(&model, &flows);
                let (choice, scored) = exhaustive_shared(&model, &flows);
                proptest::prop_assert_eq!(&choice, &oracle, "{:?}", near);
                let assigned = assign_flows_shared(&model, &flows).unwrap();
                proptest::prop_assert_eq!(&assigned.tunnel_of_flow, &oracle);
                let rates = |r: &[f64]| r.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
                proptest::prop_assert_eq!(
                    rates(&assigned.rate_of_flow),
                    rates(&water_fill(&model, &flows, &oracle).0)
                );
                let space: u64 = flows
                    .iter()
                    .map(|f| model.candidates[f.pair.index()].len() as u64)
                    .product();
                match near {
                    Some(near) if near.stops() => proptest::prop_assert_eq!(scored, 1, "{:?}", near),
                    Some(near) => proptest::prop_assert_eq!(scored, space, "{:?}", near),
                    None => proptest::prop_assert!(scored == 1 || scored == space),
                }
            }
        }
    }
}
