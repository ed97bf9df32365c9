//! Max-min fair bandwidth allocation (progressive filling with demands).
//!
//! When several TCP flows share bottlenecks, their steady-state goodput is
//! well approximated by the max-min fair allocation: every flow gets as
//! much as possible subject to no link exceeding capacity, and no flow can
//! gain without a poorer flow losing. The classic water-filling algorithm:
//! repeatedly find the most constrained link, freeze its flows at the fair
//! share, remove the used capacity, and continue. Demand-limited flows
//! freeze at their demand as soon as the rising water level reaches it.
//!
//! Two things live here. [`max_min_allocation`] is that algorithm from
//! scratch — the independent oracle every incremental result is tested
//! against. [`FairShareEngine`] is what the simulator runs: the shared
//! incremental kernel ([`crate::maxmin`]) with the topology's directed
//! links mapped onto its dense link indices.

use crate::flow::FlowId;
use crate::maxmin::{trim, MaxMinKernel, WaterfillMetrics, WaterfillStats};
use crate::topo::{LinkId, NodeIdx, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One flow's view for the allocator: its links and optional demand cap.
#[derive(Debug, Clone)]
pub struct AllocFlow {
    /// Links the flow traverses (direction-collapsed; see note below).
    pub links: Vec<(LinkId, Direction)>,
    /// Demand cap in Mbps; `None` = greedy.
    pub demand: Option<f64>,
}

/// Direction of traversal over an undirected link record (full-duplex
/// links have independent capacity per direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// From `link.a` to `link.b`.
    Forward,
    /// From `link.b` to `link.a`.
    Reverse,
}

/// The live link from `a` to `b` and the direction that hop crosses it.
pub fn directed_hop(
    topo: &Topology,
    a: NodeIdx,
    b: NodeIdx,
) -> Result<(LinkId, Direction), crate::NetsimError> {
    let lid = topo.link_between(a, b)?;
    let dir = if topo.link(lid).a == a {
        Direction::Forward
    } else {
        Direction::Reverse
    };
    Ok((lid, dir))
}

/// Derives the directed link sequence of a node path.
pub fn directed_links(
    topo: &Topology,
    path: &[NodeIdx],
) -> Result<Vec<(LinkId, Direction)>, crate::NetsimError> {
    path.windows(2)
        .map(|w| directed_hop(topo, w[0], w[1]))
        .collect()
}

/// Computes the max-min fair allocation. Returns one rate per flow, in
/// input order. Flows crossing failed links get 0.
pub fn max_min_allocation(topo: &Topology, flows: &[AllocFlow]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    // Per directed-link remaining capacity and unfrozen flow lists.
    // Sorted maps: the bottleneck scan below iterates them, and that
    // iteration order must be reproducible across processes.
    let mut remaining: BTreeMap<(LinkId, Direction), f64> = BTreeMap::new();
    let mut members: BTreeMap<(LinkId, Direction), Vec<usize>> = BTreeMap::new();
    let mut frozen = vec![false; n];
    for (i, f) in flows.iter().enumerate() {
        let dead = f.links.iter().any(|(lid, _)| !topo.link(*lid).up);
        if dead || f.links.is_empty() {
            frozen[i] = true; // rate stays 0 (or demand handled below for empty)
            if f.links.is_empty() {
                rates[i] = f.demand.unwrap_or(0.0);
            }
            continue;
        }
        for &(lid, dir) in &f.links {
            remaining
                .entry((lid, dir))
                .or_insert_with(|| topo.link(lid).capacity_mbps);
            members.entry((lid, dir)).or_default().push(i);
        }
    }
    // Water level rises; at each step the binding constraint is either a
    // link's fair share or some flow's demand.
    for _round in 0..n + remaining.len() + 1 {
        if frozen.iter().all(|f| *f) {
            break;
        }
        // Fair share offered by each still-shared link. The map
        // iterates in sorted key order, and ties still break
        // explicitly to the smallest (link, direction) key — which
        // flows freeze this round (and thus every downstream rate)
        // must be reproducible across processes.
        let mut min_share = f64::INFINITY;
        let mut min_key: Option<(LinkId, Direction)> = None;
        for (key, cap) in &remaining {
            let count = members[key].iter().filter(|&&i| !frozen[i]).count();
            if count == 0 {
                continue;
            }
            let share = *cap / count as f64;
            let better = match min_key {
                None => true,
                Some(k) => share < min_share || (share == min_share && *key < k),
            };
            if better {
                min_share = share;
                min_key = Some(*key);
            }
        }
        let Some(bottleneck) = min_key else { break };
        // Any unfrozen demand below the water level freezes at demand
        // first (its leftover capacity raises everyone else).
        let demand_limited: Vec<usize> = (0..n)
            .filter(|&i| !frozen[i] && flows[i].demand.is_some_and(|d| d <= min_share + 1e-12))
            .collect();
        let to_freeze: Vec<(usize, f64)> = if demand_limited.is_empty() {
            members[&bottleneck]
                .iter()
                .filter(|&&i| !frozen[i])
                .map(|&i| (i, min_share))
                .collect()
        } else {
            demand_limited
                .into_iter()
                // detlint: allow(bare-panic) — `demand_limited` holds only flows with a demand.
                .map(|i| (i, flows[i].demand.expect("checked demand-limited")))
                .collect()
        };
        for (i, rate) in to_freeze {
            frozen[i] = true;
            rates[i] = rate;
            for &(lid, dir) in &flows[i].links {
                if let Some(cap) = remaining.get_mut(&(lid, dir)) {
                    *cap = (*cap - rate).max(0.0);
                }
            }
        }
    }
    rates
}

/// Incremental max-min fair allocator for the simulator: a thin adapter
/// putting a [`Topology`]'s directed links under the one
/// [`MaxMinKernel`].
///
/// Directed link `(LinkId, dir)` is kernel link `2·LinkId + dir`, its
/// headroom the topology's capacity for that link — links are appended
/// lazily as the topology grows, and [`FairShareEngine::capacity_changed`]
/// forwards a new value. Flows whose path crosses a failed link are
/// *dead*: tracked here, outside the kernel, holding no capacity and
/// reported at rate 0 until a restore revives them.
///
/// The kernel's contract carries over: after every resolve the rates
/// equal [`max_min_allocation`] over the live flows to 1e-6 (a proptest
/// in `netsim/tests` pins it), and the same event sequence replays to
/// the same bits.
#[derive(Debug)]
pub struct FairShareEngine {
    kernel: MaxMinKernel,
    /// Dead flows and the demand they re-enter the fill with.
    dead: BTreeMap<FlowId, Option<f64>>,
    /// Flows that died since the last resolve (its rate-0 reports).
    died: BTreeSet<FlowId>,
    /// Reused buffers: the kernel's change list, and one path's kernel
    /// link indices before they are frozen into their `Arc`.
    report: Vec<(u64, f64)>,
    hops: Vec<usize>,
}

impl Default for FairShareEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl FairShareEngine {
    /// A fresh engine with no flows.
    pub fn new() -> Self {
        FairShareEngine {
            kernel: MaxMinKernel::new(Vec::new()),
            dead: BTreeMap::new(),
            died: BTreeSet::new(),
            report: Vec::new(),
            hops: Vec::new(),
        }
    }

    /// Registers a flow on a node path. A path with a hop that has no
    /// live link is tracked but dead (rate 0) until a restore revives
    /// it; a path with no hops is rated at its demand. Re-inserting an
    /// existing id replaces it.
    ///
    /// Returns the path as the kernel's link indices
    /// (`2·LinkId + direction`), shared with the kernel by reference —
    /// `None` for a dead flow. The list is the one allocation.
    pub fn insert_path(
        &mut self,
        topo: &Topology,
        id: FlowId,
        path: &[NodeIdx],
        demand: Option<f64>,
    ) -> Option<Arc<[usize]>> {
        let links = self.dense_path(topo, path);
        self.exhume(id);
        match &links {
            Some(links) => self.kernel.insert(id.0, Arc::clone(links), demand),
            None => {
                self.kernel.remove(id.0);
                self.bury(id, demand);
            }
        }
        links
    }

    /// Unregisters a flow; the kernel seeds the neighbors that can grow
    /// into the capacity it releases.
    pub fn remove_flow(&mut self, id: FlowId) {
        self.kernel.remove(id.0);
        self.exhume(id);
    }

    /// Repoints a flow at a node path, dead when a hop has no live
    /// link: a reroute, or (on the same path) a link up/down transition
    /// the flow's hops cross. Returns the new kernel link list, as
    /// [`FairShareEngine::insert_path`] does.
    pub fn set_path(
        &mut self,
        topo: &Topology,
        id: FlowId,
        path: &[NodeIdx],
    ) -> Option<Arc<[usize]>> {
        let links = self.dense_path(topo, path);
        match &links {
            None => {
                // An already-dead (or unknown) flow is not in the kernel.
                if let Some(demand) = self.kernel.demand_of(id.0) {
                    self.kernel.remove(id.0);
                    self.bury(id, demand);
                }
            }
            Some(links) => match self.exhume(id) {
                Some(demand) => self.kernel.insert(id.0, Arc::clone(links), demand),
                None => self.kernel.set_links(id.0, Arc::clone(links)),
            },
        }
        links
    }

    /// Changes a flow's elastic demand in place (`None` = greedy). A
    /// demand change on a dead flow just records the new demand; the
    /// flow re-enters the fill with it when it revives.
    pub fn set_demand(&mut self, id: FlowId, demand: Option<f64>) {
        match self.dead.get_mut(&id) {
            Some(d) => *d = demand,
            None => self.kernel.set_demand(id.0, demand),
        }
    }

    /// Forwards a link's new capacity (both directions) to the kernel.
    /// Call after updating the topology.
    pub fn capacity_changed(&mut self, topo: &Topology, lid: LinkId) {
        self.grow(topo);
        let mbps = topo.link(lid).capacity_mbps;
        for dir in [Direction::Forward, Direction::Reverse] {
            self.kernel.set_headroom(dense_link(lid, dir), mbps);
        }
    }

    /// Re-solves everything the batched events since the last resolve
    /// touched, returning `(flow, new raw rate)` for every flow whose
    /// rate changed — sorted by flow id, so downstream share updates
    /// replay deterministically.
    pub fn resolve(&mut self) -> Vec<(FlowId, f64)> {
        let mut out = Vec::new();
        self.resolve_with(|id, rate| out.push((id, rate)));
        out
    }

    /// [`FairShareEngine::resolve`], handing each `(flow, new raw rate)`
    /// to `f` in the same order instead of collecting them.
    pub(crate) fn resolve_with(&mut self, f: impl FnMut(FlowId, f64)) {
        self.kernel.resolve_into(&mut self.report);
        let died = std::mem::take(&mut self.died);
        merge_by_id(&self.report, died.into_iter(), f);
        trim(&mut self.report);
    }

    /// Current raw rate of a flow (0 for dead flows).
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        if self.dead.contains_key(&id) {
            Some(0.0)
        } else {
            self.kernel.rate(id.0)
        }
    }

    /// All `(flow, raw rate)` pairs, sorted by flow id.
    pub fn rates(&self) -> Vec<(FlowId, f64)> {
        let mut out = Vec::new();
        merge_by_id(
            &self.kernel.rates(),
            self.dead.keys().copied(),
            |id, rate| out.push((id, rate)),
        );
        out
    }

    /// Number of live (non-dead) flows.
    pub fn live_flows(&self) -> usize {
        self.kernel.flow_count()
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`FairShareEngine::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.kernel.stats()
    }

    /// The live `obsv` instruments behind [`FairShareEngine::stats`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        self.kernel.metrics()
    }

    fn bury(&mut self, id: FlowId, demand: Option<f64>) {
        self.dead.insert(id, demand);
        self.died.insert(id);
    }

    /// Forgets a dead flow, returning the demand it was holding.
    fn exhume(&mut self, id: FlowId) -> Option<Option<f64>> {
        self.died.remove(&id);
        self.dead.remove(&id)
    }

    /// Appends kernel links for topology links added since the last
    /// call, at their current capacity.
    fn grow(&mut self, topo: &Topology) {
        for link in &topo.links()[self.kernel.link_count() / 2..] {
            self.kernel.push_link(link.capacity_mbps);
            self.kernel.push_link(link.capacity_mbps);
        }
    }

    /// A node path's kernel links ([`directed_links`] then [`dense_link`]),
    /// built in the reused `hops` buffer so the returned `Arc` is the one
    /// allocation; `None` when a hop has no live link.
    fn dense_path(&mut self, topo: &Topology, path: &[NodeIdx]) -> Option<Arc<[usize]>> {
        self.hops.clear();
        for w in path.windows(2) {
            let (lid, dir) = directed_hop(topo, w[0], w[1]).ok()?;
            self.hops.push(dense_link(lid, dir));
        }
        self.grow(topo);
        Some(Arc::from(&self.hops[..]))
    }
}

/// Kernel index of a directed link.
pub(crate) fn dense_link(lid: LinkId, dir: Direction) -> usize {
    2 * lid.0 as usize + dir as usize
}

/// The directed link behind a kernel index ([`dense_link`]'s inverse).
pub(crate) fn directed_link(dense: usize) -> (LinkId, Direction) {
    let dir = if dense.is_multiple_of(2) {
        Direction::Forward
    } else {
        Direction::Reverse
    };
    (LinkId((dense / 2) as u32), dir)
}

/// Walks the kernel's id-sorted `(flow, rate)` list with the adapter's
/// id-sorted dead flows merged in at rate 0 (a flow is never both),
/// handing each pair to `f` in id order.
fn merge_by_id(
    kernel: &[(u64, f64)],
    dead: impl Iterator<Item = FlowId>,
    mut f: impl FnMut(FlowId, f64),
) {
    let mut dead = dead.peekable();
    for &(id, rate) in kernel {
        while let Some(d) = dead.next_if(|d| d.0 < id) {
            f(d, 0.0);
        }
        f(FlowId(id), rate);
    }
    dead.for_each(|d| f(d, 0.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{global_p4_lab, NodeKind};

    fn flow_on(topo: &Topology, names: &[&str], demand: Option<f64>) -> AllocFlow {
        let path = topo.path_by_names(names).unwrap();
        AllocFlow {
            links: directed_links(topo, &path).unwrap(),
            demand,
        }
    }

    #[test]
    fn single_flow_takes_bottleneck() {
        let t = global_p4_lab();
        let f = flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None);
        let rates = max_min_allocation(&t, &[f]);
        assert!((rates[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn three_greedy_flows_share_tunnel1_equally() {
        // Experiment 2, phase 1: all flows on MIA-SAO-AMS (20 Mbps).
        let t = global_p4_lab();
        let flows: Vec<AllocFlow> = (0..3)
            .map(|_| flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None))
            .collect();
        let rates = max_min_allocation(&t, &flows);
        for r in &rates {
            assert!((r - 20.0 / 3.0).abs() < 1e-9, "rates {rates:?}");
        }
    }

    #[test]
    fn split_flows_use_their_own_bottlenecks() {
        // Experiment 2, phase 2: tunnels 1 (20), 2 (10), 3 (5).
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CHI", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CAL", "CHI", "AMS", "host2"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 20.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert!((rates[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn demand_limited_flow_leaves_capacity_to_others() {
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["MIA", "SAO", "AMS"], Some(4.0)),
            flow_on(&t, &["MIA", "SAO", "AMS"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        assert!((rates[1] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_oversubscribed() {
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], Some(3.0)),
            flow_on(&t, &["host1", "MIA", "CHI", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CAL", "CHI", "AMS", "host2"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        // Recompute per-directed-link usage and compare with capacity.
        let mut usage: BTreeMap<(LinkId, Direction), f64> = BTreeMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for &(lid, dir) in &f.links {
                *usage.entry((lid, dir)).or_insert(0.0) += r;
            }
        }
        for ((lid, _), used) in usage {
            assert!(
                used <= t.link(lid).capacity_mbps + 1e-9,
                "link {lid:?} over capacity: {used}"
            );
        }
    }

    #[test]
    fn failed_link_zeroes_flows() {
        let mut t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let sao = t.node("SAO").unwrap();
        let f = flow_on(&t, &["MIA", "SAO", "AMS"], None);
        let lid = t.link_between(mia, sao).unwrap();
        t.link_mut(lid).up = false;
        let rates = max_min_allocation(&t, &[f]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        // Full-duplex: a->b and b->a flows each get full capacity.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        t.add_link(a, b, 10.0, 1.0);
        let fwd = AllocFlow {
            links: directed_links(&t, &[a, b]).unwrap(),
            demand: None,
        };
        let rev = AllocFlow {
            links: directed_links(&t, &[b, a]).unwrap(),
            demand: None,
        };
        let rates = max_min_allocation(&t, &[fwd, rev]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_set() {
        let t = global_p4_lab();
        assert!(max_min_allocation(&t, &[]).is_empty());
    }

    #[test]
    fn classic_three_flow_two_link_example() {
        // Chain a-b-c, both links 10: long flow a-c competes on both,
        // short flows a-b and b-c. Max-min: all get 5.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 10.0, 1.0);
        let flows = vec![
            AllocFlow {
                links: directed_links(&t, &[a, b, c]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[a, b]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[b, c]).unwrap(),
                demand: None,
            },
        ];
        let rates = max_min_allocation(&t, &flows);
        for r in &rates {
            assert!((r - 5.0).abs() < 1e-9, "{rates:?}");
        }
    }

    #[test]
    fn heterogeneous_chain_gives_maxmin_not_equal_split() {
        // a-b at 10, b-c at 4: the long flow a-c freezes at the b-c
        // bottleneck (4), after which the short a-b flow takes the
        // leftover 6 — the defining max-min property.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 4.0, 1.0);
        let flows = vec![
            AllocFlow {
                links: directed_links(&t, &[a, b, c]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[a, b]).unwrap(),
                demand: None,
            },
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 4.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 6.0).abs() < 1e-9, "{rates:?}");
    }

    /// Chain a-b-c, both links 10 Mbps. No link joins a and c, so a
    /// flow on the path a-c is dead.
    fn chain() -> (Topology, [NodeIdx; 3]) {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 10.0, 1.0);
        (t, [a, b, c])
    }

    #[test]
    fn dead_on_arrival_flow_is_revived_by_set_links() {
        let (t, [a, b, c]) = chain();
        let mut e = FairShareEngine::new();
        e.insert_path(&t, FlowId(1), &[a, c], None);
        assert_eq!(e.resolve(), vec![(FlowId(1), 0.0)]);
        assert_eq!((e.rate(FlowId(1)), e.live_flows()), (Some(0.0), 0));
        assert_eq!(e.rates(), vec![(FlowId(1), 0.0)]);
        e.set_path(&t, FlowId(1), &[a, b]);
        assert_eq!(e.resolve(), vec![(FlowId(1), 10.0)]);
        assert_eq!(e.live_flows(), 1);
    }

    #[test]
    fn demand_change_while_dead_applies_on_revival() {
        let (t, [a, b, c]) = chain();
        let mut e = FairShareEngine::new();
        e.insert_path(&t, FlowId(1), &[a, b, c], None);
        e.insert_path(&t, FlowId(2), &[a, b], None);
        e.resolve();
        // Flow 1 dies: it reports rate 0 and flow 2 takes the link.
        e.set_path(&t, FlowId(1), &[a, c]);
        assert_eq!(e.resolve(), vec![(FlowId(1), 0.0), (FlowId(2), 10.0)]);
        e.set_demand(FlowId(1), Some(4.0));
        assert_eq!(e.resolve(), vec![]);
        e.set_path(&t, FlowId(1), &[a, b, c]);
        assert_eq!(e.resolve(), vec![(FlowId(1), 4.0), (FlowId(2), 6.0)]);
    }

    #[test]
    fn zero_hop_flow_is_rated_at_its_demand() {
        let (t, [a, _, _]) = chain();
        let mut e = FairShareEngine::new();
        e.insert_path(&t, FlowId(1), &[a], Some(2.5));
        assert_eq!(e.resolve(), vec![(FlowId(1), 2.5)]);
        assert_eq!(e.live_flows(), 1);
    }

    #[test]
    fn capacity_change_on_a_link_no_flow_has_touched() {
        let (mut t, [_, b, c]) = chain();
        let mut e = FairShareEngine::new();
        let bc = t.link_between(b, c).unwrap();
        t.link_mut(bc).capacity_mbps = 4.0;
        e.capacity_changed(&t, bc);
        assert_eq!(e.resolve(), vec![]);
        e.insert_path(&t, FlowId(1), &[c, b], None);
        assert_eq!(e.resolve(), vec![(FlowId(1), 4.0)]);
        t.link_mut(bc).capacity_mbps = 6.0;
        e.capacity_changed(&t, bc);
        assert_eq!(e.resolve(), vec![(FlowId(1), 6.0)]);
    }

    #[test]
    fn reinserting_a_live_id_replaces_it() {
        let (t, [a, b, c]) = chain();
        let mut e = FairShareEngine::new();
        e.insert_path(&t, FlowId(1), &[a, b], None);
        e.insert_path(&t, FlowId(2), &[a, b], None);
        assert_eq!(e.resolve(), vec![(FlowId(1), 5.0), (FlowId(2), 5.0)]);
        e.insert_path(&t, FlowId(1), &[b, c], Some(3.0));
        assert_eq!(e.resolve(), vec![(FlowId(1), 3.0), (FlowId(2), 10.0)]);
        assert_eq!(e.live_flows(), 2);
    }

    #[test]
    fn dead_flows_merge_into_the_change_list_in_id_order() {
        let (t, [a, b, c]) = chain();
        let mut e = FairShareEngine::new();
        for id in 1..=4 {
            e.insert_path(&t, FlowId(id), &[a, b, c], None);
        }
        e.resolve();
        // Flows 1 and 4 die around the live flows 2 and 3, which split
        // the chain between them.
        e.set_path(&t, FlowId(1), &[a, c]);
        e.set_path(&t, FlowId(4), &[a, c]);
        let want = [(1, 0.0), (2, 5.0), (3, 5.0), (4, 0.0)].map(|(id, r)| (FlowId(id), r));
        assert_eq!(e.resolve(), want);
        assert_eq!(e.rates(), want);
    }

    #[test]
    fn slack_rerate_solves_nothing_but_a_saturating_one_does() {
        let (mut t, [a, b, _]) = chain();
        let mut e = FairShareEngine::new();
        let ab = t.link_between(a, b).unwrap();
        e.insert_path(&t, FlowId(1), &[a, b], Some(3.0));
        e.resolve();
        let before = e.stats();
        // 10 → 8 Mbps leaves the 3 Mbps flow's link slack: no member's
        // bottleneck is there, so nobody is seeded.
        t.link_mut(ab).capacity_mbps = 8.0;
        e.capacity_changed(&t, ab);
        assert_eq!(e.resolve(), vec![]);
        assert_eq!(e.stats(), before);
        // 8 → 2 Mbps saturates it.
        t.link_mut(ab).capacity_mbps = 2.0;
        e.capacity_changed(&t, ab);
        assert_eq!(e.resolve(), vec![(FlowId(1), 2.0)]);
        assert_ne!(e.stats(), before);
    }
}
