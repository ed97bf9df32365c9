//! The topology zoo: parametric generators emitting `netsim::Topology`.
//!
//! Every generator is deterministic — the random families take an
//! explicit seed and repair connectivity deterministically, so a
//! `(spec, seed)` pair always builds the identical graph.

pub use netsim::topo::fat_tree;
use netsim::topo::NodeKind;
use netsim::{NodeIdx, ShortestPathTree, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A topology family plus its parameters — the "which graph" axis of a
/// scenario, serializable as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// k-ary fat-tree: `(k/2)^2` cores, `k` pods of `k/2` aggregation
    /// and `k/2` edge switches (`k` even, ≥ 2).
    FatTree {
        /// Arity (ports per switch); 4 gives the classic 20-node tree.
        k: usize,
    },
    /// Ring of `n` routers plus antipodal chords every `chord_every`
    /// positions (the classic metro-ring-with-express-links shape).
    RingChords {
        /// Ring size.
        n: usize,
        /// Chord spacing; 0 disables chords.
        chord_every: usize,
    },
    /// Two-tier WAN: a chorded core ring with dual-homed edge routers.
    TwoTierWan {
        /// Core ring size.
        cores: usize,
        /// Edge routers hanging off each core.
        edges_per_core: usize,
    },
    /// Waxman random geometric graph on the unit square: nodes i,j link
    /// with probability `alpha * exp(-dist/(beta * sqrt(2)))`, delays
    /// proportional to distance. Repaired to connectivity.
    Waxman {
        /// Node count.
        n: usize,
        /// Edge-density knob (0..1].
        alpha: f64,
        /// Distance-decay knob (0..1].
        beta: f64,
    },
    /// Erdős–Rényi G(n, p) with uniform random delays. Repaired to
    /// connectivity.
    ErdosRenyi {
        /// Node count.
        n: usize,
        /// Per-pair link probability.
        link_prob: f64,
    },
    /// An ESnet-inspired US research backbone: 14 PoPs, continental
    /// propagation delays.
    EsnetLike,
    /// A GÉANT-inspired European backbone: 14 PoPs, intra-continent
    /// delays.
    GeantLike,
}

impl TopologySpec {
    /// Builds the topology. `seed` only matters for the random families.
    pub fn build(&self, seed: u64) -> Topology {
        match *self {
            TopologySpec::FatTree { k } => fat_tree(k),
            TopologySpec::RingChords { n, chord_every } => ring_chords(n, chord_every),
            TopologySpec::TwoTierWan {
                cores,
                edges_per_core,
            } => two_tier_wan(cores, edges_per_core),
            TopologySpec::Waxman { n, alpha, beta } => waxman(n, alpha, beta, seed),
            TopologySpec::ErdosRenyi { n, link_prob } => erdos_renyi(n, link_prob, seed),
            TopologySpec::EsnetLike => esnet_like(),
            TopologySpec::GeantLike => geant_like(),
        }
    }

    /// A short display label, e.g. `fat-tree(4)`.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::FatTree { k } => format!("fat-tree({k})"),
            TopologySpec::RingChords { n, chord_every } => {
                format!("ring+chords({n},{chord_every})")
            }
            TopologySpec::TwoTierWan {
                cores,
                edges_per_core,
            } => format!("2-tier-wan({cores},{edges_per_core})"),
            TopologySpec::Waxman { n, .. } => format!("waxman({n})"),
            TopologySpec::ErdosRenyi { n, .. } => format!("erdos-renyi({n})"),
            TopologySpec::EsnetLike => "esnet-like".into(),
            TopologySpec::GeantLike => "geant-like".into(),
        }
    }
}

/// Ring of `n` routers (20 Mbps, 2 ms) plus antipodal express chords
/// every `chord_every` positions (10 Mbps, 5 ms).
pub fn ring_chords(n: usize, chord_every: usize) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<NodeIdx> = (0..n)
        .map(|i| t.add_node(&format!("r{i}"), NodeKind::Core))
        .collect();
    for i in 0..n {
        t.add_link(nodes[i], nodes[(i + 1) % n], 20.0, 2.0);
    }
    if chord_every >= 1 && n >= 4 {
        for i in (0..n).step_by(chord_every) {
            let j = (i + n / 2) % n;
            if j != i && t.link_between(nodes[i], nodes[j]).is_err() {
                t.add_link(nodes[i], nodes[j], 10.0, 5.0);
            }
        }
    }
    t
}

/// Two-tier WAN: a core ring with next-next-neighbor chords (40 Mbps,
/// 4 ms) and `edges_per_core` dual-homed edge routers per core
/// (10 Mbps, 1 ms) — edge `c{i}x{j}` homes to cores `i` and `i+1`.
pub fn two_tier_wan(cores: usize, edges_per_core: usize) -> Topology {
    assert!(cores >= 3, "two-tier WAN needs at least 3 cores");
    let mut t = Topology::new();
    let core: Vec<NodeIdx> = (0..cores)
        .map(|i| t.add_node(&format!("c{i}"), NodeKind::Core))
        .collect();
    for i in 0..cores {
        t.add_link(core[i], core[(i + 1) % cores], 40.0, 4.0);
    }
    if cores >= 5 {
        for i in 0..cores {
            let j = (i + 2) % cores;
            if t.link_between(core[i], core[j]).is_err() {
                t.add_link(core[i], core[j], 40.0, 6.0);
            }
        }
    }
    for i in 0..cores {
        for j in 0..edges_per_core {
            let e = t.add_node(&format!("c{i}x{j}"), NodeKind::Edge);
            t.add_link(e, core[i], 10.0, 1.0);
            t.add_link(e, core[(i + 1) % cores], 10.0, 1.0);
        }
    }
    t
}

/// Deterministically repairs connectivity: while more than one
/// component remains, links the lowest-index node of the second
/// component to the lowest-index node of the first (capacity
/// `cap_mbps`, delay `delay_ms`).
fn connect_components(t: &mut Topology, cap_mbps: f64, delay_ms: f64) {
    loop {
        let n = t.node_count();
        // BFS from node 0 over all links (up or not — this is
        // construction time, everything is up).
        let mut seen = vec![false; n];
        let mut stack = vec![NodeIdx(0)];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &(v, _) in t.neighbors(u) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    stack.push(v);
                }
            }
        }
        match (0..n).find(|&i| !seen[i]) {
            None => return,
            Some(orphan) => {
                t.add_link(NodeIdx(0), NodeIdx(orphan as u32), cap_mbps, delay_ms);
            }
        }
    }
}

/// Waxman random geometric graph; see [`TopologySpec::Waxman`].
/// Capacities are drawn from {10, 20, 40} Mbps, delays are
/// `1 + 15 * distance` ms.
pub fn waxman(n: usize, alpha: f64, beta: f64, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let nodes: Vec<NodeIdx> = (0..n)
        .map(|i| t.add_node(&format!("w{i}"), NodeKind::Core))
        .collect();
    let scale = beta.max(1e-6) * std::f64::consts::SQRT_2;
    for i in 0..n {
        for j in i + 1..n {
            let d = ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
            let p = alpha * (-d / scale).exp();
            if rng.gen_range(0.0..1.0) < p {
                let cap = [10.0, 20.0, 40.0][rng.gen_range(0..3usize)];
                t.add_link(nodes[i], nodes[j], cap, 1.0 + 15.0 * d);
            }
        }
    }
    connect_components(&mut t, 20.0, 8.0);
    t
}

/// Erdős–Rényi G(n, p); see [`TopologySpec::ErdosRenyi`]. Uniform
/// 20 Mbps capacities, delays uniform in 1..6 ms.
fn erdos_renyi(n: usize, link_prob: f64, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let nodes: Vec<NodeIdx> = (0..n)
        .map(|i| t.add_node(&format!("g{i}"), NodeKind::Core))
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_range(0.0..1.0) < link_prob {
                let delay = rng.gen_range(1.0..6.0);
                t.add_link(nodes[i], nodes[j], 20.0, delay);
            }
        }
    }
    connect_components(&mut t, 20.0, 5.0);
    t
}

/// An ESnet-inspired US research backbone: 14 PoPs, 100 Mbps trunks
/// (a few 40 Mbps legacy spans), one-way delays roughly tracking
/// great-circle distance.
pub fn esnet_like() -> Topology {
    let mut t = Topology::new();
    let names = [
        "SEAT", "SACR", "SUNN", "DENV", "ALBQ", "ELPA", "HOUS", "KANS", "CHIC", "NASH", "ATLA",
        "WASH", "NEWY", "BOST",
    ];
    let nodes: Vec<NodeIdx> = names
        .iter()
        .map(|n| t.add_node(n, NodeKind::Edge))
        .collect();
    let idx = |name: &str| nodes[names.iter().position(|n| *n == name).unwrap()];
    let links: [(&str, &str, f64, f64); 20] = [
        ("SEAT", "SACR", 100.0, 10.0),
        ("SEAT", "DENV", 100.0, 13.0),
        ("SACR", "SUNN", 100.0, 2.0),
        ("SACR", "DENV", 100.0, 12.0),
        ("SUNN", "ALBQ", 100.0, 12.0),
        ("DENV", "ALBQ", 40.0, 6.0),
        ("DENV", "KANS", 100.0, 8.0),
        ("ALBQ", "ELPA", 40.0, 4.0),
        ("ELPA", "HOUS", 100.0, 9.0),
        ("HOUS", "NASH", 100.0, 10.0),
        ("KANS", "CHIC", 100.0, 7.0),
        ("KANS", "HOUS", 40.0, 9.0),
        ("CHIC", "NASH", 100.0, 6.0),
        ("CHIC", "WASH", 100.0, 9.0),
        ("NASH", "ATLA", 100.0, 3.0),
        ("ATLA", "WASH", 100.0, 8.0),
        ("WASH", "NEWY", 100.0, 3.0),
        ("NEWY", "BOST", 100.0, 3.0),
        ("NEWY", "CHIC", 100.0, 10.0),
        // Keeps every PoP 2-edge-connected: endpoint pairs must admit
        // at least two link-disjoint tunnels.
        ("BOST", "CHIC", 100.0, 12.0),
    ];
    for (a, b, cap, delay) in links {
        t.add_link(idx(a), idx(b), cap, delay);
    }
    t
}

/// A GÉANT-inspired European backbone: 14 PoPs, 100 Mbps trunks with a
/// few 40 Mbps spurs.
pub fn geant_like() -> Topology {
    let mut t = Topology::new();
    let names = [
        "LON", "AMS", "BRU", "PAR", "GEN", "FRA", "HAM", "PRA", "VIE", "MIL", "MAD", "ZUR", "WAR",
        "BUD",
    ];
    let nodes: Vec<NodeIdx> = names
        .iter()
        .map(|n| t.add_node(n, NodeKind::Edge))
        .collect();
    let idx = |name: &str| nodes[names.iter().position(|n| *n == name).unwrap()];
    let links: [(&str, &str, f64, f64); 21] = [
        ("LON", "AMS", 100.0, 4.0),
        ("LON", "PAR", 100.0, 4.0),
        ("AMS", "BRU", 100.0, 2.0),
        ("AMS", "HAM", 100.0, 4.0),
        ("AMS", "FRA", 100.0, 4.0),
        ("BRU", "PAR", 100.0, 3.0),
        ("PAR", "GEN", 100.0, 5.0),
        ("PAR", "MAD", 100.0, 10.0),
        ("GEN", "ZUR", 100.0, 3.0),
        ("GEN", "MIL", 100.0, 4.0),
        ("FRA", "ZUR", 100.0, 4.0),
        ("FRA", "HAM", 100.0, 5.0),
        ("FRA", "PRA", 100.0, 5.0),
        ("HAM", "WAR", 40.0, 8.0),
        ("PRA", "VIE", 100.0, 3.0),
        ("PRA", "WAR", 40.0, 6.0),
        ("VIE", "BUD", 100.0, 3.0),
        ("VIE", "MIL", 100.0, 6.0),
        ("MIL", "ZUR", 100.0, 3.0),
        ("MAD", "GEN", 40.0, 11.0),
        // Keeps every PoP 2-edge-connected (see esnet_like).
        ("BUD", "WAR", 100.0, 5.0),
    ];
    for (a, b, cap, delay) in links {
        t.add_link(idx(a), idx(b), cap, delay);
    }
    t
}

/// Deterministic endpoint selection for a scenario's managed traffic:
/// a double sweep — the node farthest (by shortest-path delay) from
/// the first candidate, then the node farthest from *it*. Candidates
/// are the `NodeKind::Edge` routers when the topology distinguishes
/// any (managed traffic enters at the edge), otherwise every node.
/// Ties break to the lowest node index, so a given topology always
/// yields the same pair — diametrically opposite edge switches on the
/// fat-tree, coast-to-coast PoPs on the WAN maps.
pub fn endpoints(topo: &Topology) -> (NodeIdx, NodeIdx) {
    endpoint_pairs(topo, 1)[0]
}

/// The farthest-pair generalization for a **traffic matrix of `n`
/// managed pairs**: pair 0 is exactly [`endpoints`] (the double-sweep
/// diameter pair), and every further pair greedily maximizes spread —
/// its ingress is the still-unused candidate farthest (by summed
/// shortest-path delay) from all endpoints already placed, its egress
/// the still-unused candidate farthest from that ingress. When the
/// candidate pool runs dry the used-set resets (minus the pair's own
/// ingress), so small topologies can still host several pairs. Ties
/// break to the lowest node index; a given `(topology, n)` always
/// yields the identical pair list.
///
/// Every delay is `path_delay_ms` of a shortest path from one
/// [`Topology::shortest_path_tree`] per endpoint, grown once until
/// every candidate is settled — the path a point-to-point search from
/// that endpoint finds, so the pair list is the one such searches give:
/// - **Farthest from `from`:** the tree rooted at `from`.
/// - **Spread of a candidate `x`:** the exact spread sums, in placement
///   order, the delays of the paths in `x`'s own tree. The trees rooted
///   at the placed endpoints give every candidate an approximate spread
///   at once: the distances along the reversed paths. Only candidates
///   whose approximate spread is within `tol` of the best are re-scored
///   exactly. With `N` nodes, `m` placed endpoints and `u = 2⁻⁵³`, each
///   distance is a float sum of at most `N − 1` non-negative delays,
///   and Dijkstra over monotone float additions picks one within
///   `γ_N = N·u / (1 − N·u)` relative of the true shortest delay, in
///   either direction; summing `m` of them adds `γ_m`. So the exact
///   and approximate spreads both lie within `δ = (1 + γ_N)(1 + γ_m) − 1`
///   of the true spread `S`, and a candidate that beats or ties the
///   approximate leader exactly has an approximate spread of at least
///   `best · ((1 − δ)/(1 + δ))² ≥ best · (1 − 4δ)`. `tol` is
///   `8(N + m)·u·best`: `4δ` to first order, doubled to cover the
///   higher-order terms and the rounding of the threshold itself.
/// - **Parallel links:** where two live links join the same nodes with
///   unequal delays, a tree distance follows the faster link while
///   `path_delay_ms` follows [`Topology::link_between`]'s, which no
///   rounding bound covers, so every candidate is re-scored exactly.
pub fn endpoint_pairs(topo: &Topology, n: usize) -> Vec<(NodeIdx, NodeIdx)> {
    let mut candidates: Vec<NodeIdx> = (0..topo.node_count())
        .map(|i| NodeIdx(i as u32))
        .filter(|&n| topo.node_kind(n) == NodeKind::Edge)
        .collect();
    if candidates.len() < 2 {
        candidates = (0..topo.node_count()).map(|i| NodeIdx(i as u32)).collect();
    }
    let rescore_all = has_unequal_parallel_links(topo);
    let mut trees = Trees {
        topo,
        settle: &candidates,
        by_root: (0..topo.node_count()).map(|_| None).collect(),
    };
    let delay = |tree: &ShortestPathTree, to: NodeIdx| -> Option<f64> {
        tree.path_to(to)
            .map(|p| topo.path_delay_ms(&p).unwrap_or(0.0))
    };
    // The legacy double sweep, scoped to an allowed subset.
    let farthest = |trees: &mut Trees, from: NodeIdx, allowed: &[NodeIdx]| -> NodeIdx {
        let tree = trees.rooted_at(from);
        let mut best = (from, -1.0f64);
        for &to in allowed {
            if to == from {
                continue;
            }
            if let Some(d) = delay(tree, to) {
                if d > best.1 {
                    best = (to, d);
                }
            }
        }
        best.0
    };
    let mut out = Vec::with_capacity(n.max(1));
    let mut used: Vec<NodeIdx> = Vec::new();
    let u0 = farthest(&mut trees, candidates[0], &candidates);
    let v0 = farthest(&mut trees, u0, &candidates);
    out.push((u0, v0));
    used.push(u0);
    used.push(v0);
    while out.len() < n {
        let mut unused: Vec<NodeIdx> = candidates
            .iter()
            .copied()
            .filter(|c| !used.contains(c))
            .collect();
        if unused.len() < 2 {
            // Pool exhausted: recycle the candidates so dense matrices
            // on small topologies remain possible.
            used.clear();
            unused = candidates.clone();
        }
        // Ingress: the unused candidate farthest from everything
        // placed. Approximate spreads from the placed endpoints' trees,
        // then the exact spread of each candidate near the best.
        let mut approx = vec![0.0f64; unused.len()];
        for &u in &used {
            let tree = trees.rooted_at(u);
            for (a, &x) in approx.iter_mut().zip(&unused) {
                let d = tree.dist_ms(x);
                if d.is_finite() {
                    *a += d;
                }
            }
        }
        let best = approx.iter().copied().fold(0.0, f64::max);
        let tol = if rescore_all {
            f64::INFINITY
        } else {
            8.0 * (topo.node_count() + used.len()) as f64 * (f64::EPSILON / 2.0) * best
        };
        let ingress = unused
            .iter()
            .zip(&approx)
            .filter(|&(_, &a)| a >= best - tol)
            .map(|(&x, _)| {
                let spread = used
                    .iter()
                    .filter_map(|&u| delay(trees.rooted_at(x), u))
                    .sum::<f64>();
                (x, spread)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0 .0.cmp(&a.0 .0))) // ties -> lowest index
            .expect("the best approximate spread is within its own tolerance")
            .0;
        let remaining: Vec<NodeIdx> = unused.iter().copied().filter(|&c| c != ingress).collect();
        let egress = farthest(&mut trees, ingress, &remaining);
        out.push((ingress, egress));
        used.push(ingress);
        used.push(egress);
    }
    out
}

/// Shortest-path trees over one topology, each grown at most once from
/// its root until every node of `settle` is settled.
struct Trees<'a> {
    topo: &'a Topology,
    settle: &'a [NodeIdx],
    by_root: Vec<Option<ShortestPathTree>>,
}

impl Trees<'_> {
    fn rooted_at(&mut self, root: NodeIdx) -> &ShortestPathTree {
        let (topo, settle) = (self.topo, self.settle);
        self.by_root[root.0 as usize].get_or_insert_with(|| topo.shortest_path_tree(root, settle))
    }
}

/// True when two live links join the same pair of nodes with unequal
/// delays (a node's neighbour table lists its parallel links side by
/// side).
fn has_unequal_parallel_links(topo: &Topology) -> bool {
    (0..topo.node_count()).any(|a| {
        let live: Vec<(NodeIdx, f64)> = topo
            .neighbors(NodeIdx(a as u32))
            .iter()
            .map(|&(b, l)| (b, topo.link(l)))
            .filter(|(_, l)| l.up)
            .map(|(b, l)| (b, l.delay_ms))
            .collect();
        live.windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
    })
}

/// The endpoint selection the shortest-path trees replaced, kept as the
/// test oracle: one point-to-point search per (candidate, endpoint)
/// pair.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn endpoint_pairs(topo: &Topology, n: usize) -> Vec<(NodeIdx, NodeIdx)> {
        let mut candidates: Vec<NodeIdx> = (0..topo.node_count())
            .map(|i| NodeIdx(i as u32))
            .filter(|&n| topo.node_kind(n) == NodeKind::Edge)
            .collect();
        if candidates.len() < 2 {
            candidates = (0..topo.node_count()).map(|i| NodeIdx(i as u32)).collect();
        }
        let dist = |from: NodeIdx, to: NodeIdx| -> Option<f64> {
            topo.shortest_path_by_delay(from, to)
                .map(|p| topo.path_delay_ms(&p).unwrap_or(0.0))
        };
        let farthest = |from: NodeIdx, allowed: &[NodeIdx]| -> NodeIdx {
            let mut best = (from, -1.0f64);
            for &to in allowed {
                if to == from {
                    continue;
                }
                if let Some(d) = dist(from, to) {
                    if d > best.1 {
                        best = (to, d);
                    }
                }
            }
            best.0
        };
        let mut out = Vec::with_capacity(n.max(1));
        let mut used: Vec<NodeIdx> = Vec::new();
        let u0 = farthest(candidates[0], &candidates);
        let v0 = farthest(u0, &candidates);
        out.push((u0, v0));
        used.push(u0);
        used.push(v0);
        while out.len() < n {
            let mut unused: Vec<NodeIdx> = candidates
                .iter()
                .copied()
                .filter(|c| !used.contains(c))
                .collect();
            if unused.len() < 2 {
                used.clear();
                unused = candidates.clone();
            }
            let spreads: Vec<(NodeIdx, f64)> = unused
                .iter()
                .map(|&x| (x, used.iter().filter_map(|&u| dist(x, u)).sum::<f64>()))
                .collect();
            let ingress = spreads
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0 .0.cmp(&a.0 .0)))
                .unwrap()
                .0;
            let remaining: Vec<NodeIdx> =
                unused.iter().copied().filter(|&c| c != ingress).collect();
            let egress = farthest(ingress, &remaining);
            out.push((ingress, egress));
            used.push(ingress);
            used.push(egress);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// A zoo graph at test size: families 0..=4 are `waxman`,
    /// `erdos_renyi`, `ring_chords`, `fat_tree` and `two_tier_wan`
    /// (the last two with integer-tier delays, so exact ties abound);
    /// family 5 is a `waxman` graph with a parallel link beside about
    /// half of its links, most of them of another delay.
    fn zoo_graph(family: u64, size: usize, seed: u64) -> Topology {
        match family {
            0 => waxman(6 + size, 0.9, 0.4, seed),
            1 => erdos_renyi(6 + size, 0.2, seed),
            2 => ring_chords(4 + size, seed as usize % 5),
            3 => fat_tree(2 + 2 * (size % 3)),
            4 => two_tier_wan(3 + size % 6, 1 + seed as usize % 3),
            _ => {
                let mut t = waxman(6 + size, 0.9, 0.4, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for l in 0..t.link_count() {
                    let l = t.link(netsim::LinkId(l as u32)).clone();
                    match rng.gen_range(0..4u32) {
                        0 => t.add_link(l.b, l.a, 10.0, l.delay_ms),
                        1 => t.add_link(l.a, l.b, 10.0, l.delay_ms * rng.gen_range(0.5..1.5)),
                        _ => continue,
                    };
                }
                t
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn trees_pick_the_pairs_the_point_to_point_searches_pick(
            family in 0u64..6,
            size in 0usize..30,
            seed in any::<u64>(),
            n in 1usize..=8,
        ) {
            let t = zoo_graph(family, size, seed);
            prop_assert_eq!(
                endpoint_pairs(&t, n),
                reference::endpoint_pairs(&t, n),
                "family {} size {} seed {} n {}", family, size, seed, n
            );
        }
    }

    #[test]
    fn candidates_near_the_best_approximate_spread_are_rescored() {
        // A graph where a reversed-path spread rounds apart from the
        // exact one: re-scoring only the approximate leader (a zero
        // tolerance) makes pair 3 `(3, 1)` instead of `(2, 1)`.
        let t = erdos_renyi(13, 0.2, 10_956_142_853_823_523_876);
        assert_eq!(endpoint_pairs(&t, 7), reference::endpoint_pairs(&t, 7));
        assert_eq!(endpoint_pairs(&t, 7)[3], (NodeIdx(2), NodeIdx(1)));
    }

    #[test]
    fn parallel_links_of_unequal_delay_are_read_off_the_topology() {
        let mut t = ring_chords(6, 0);
        assert!(!has_unequal_parallel_links(&t));
        let (a, b) = (NodeIdx(0), NodeIdx(1));
        let same = t.add_link(a, b, 10.0, 2.0);
        assert!(!has_unequal_parallel_links(&t), "equal delays agree");
        let slow = t.add_link(b, a, 10.0, 3.0);
        assert!(has_unequal_parallel_links(&t));
        t.link_mut(slow).up = false;
        assert!(!has_unequal_parallel_links(&t), "a failed link is no path");
        t.link_mut(slow).up = true;
        t.link_mut(same).up = false;
        assert!(has_unequal_parallel_links(&t));
    }

    fn pairs(raw: &[(u32, u32)]) -> Vec<(NodeIdx, NodeIdx)> {
        raw.iter().map(|&(a, b)| (NodeIdx(a), NodeIdx(b))).collect()
    }

    #[test]
    fn loopbench_and_scale_1k_pair_lists_are_pinned() {
        // The workloads' topologies (`benchmark/src/workload.rs`) and
        // the `scale-1k` graph, as the point-to-point searches chose
        // their pairs.
        assert_eq!(
            endpoint_pairs(&waxman(1000, 0.15, 0.15, 11), 2),
            pairs(&[(359, 428), (610, 193)])
        );
        let wan: Vec<(u32, u32)> = std::iter::once((48, 16))
            .chain((17..48).map(|i| (i, i + 32)))
            .collect();
        assert_eq!(endpoint_pairs(&two_tier_wan(16, 4), 32), pairs(&wan));
        assert_eq!(
            endpoint_pairs(&fat_tree(8), 8),
            pairs(&[
                (28, 20),
                (36, 21),
                (44, 22),
                (52, 23),
                (60, 29),
                (68, 30),
                (76, 31),
                (37, 45)
            ])
        );
        let s = crate::catalog::scale_1k();
        assert_eq!(
            endpoint_pairs(&s.topology.build(s.seed), s.pairs),
            pairs(&[(53, 992), (858, 279)])
        );
    }

    fn connected(t: &Topology) -> bool {
        let n = t.node_count();
        (1..n).all(|i| {
            t.shortest_path_by_delay(NodeIdx(0), NodeIdx(i as u32))
                .is_some()
        })
    }

    #[test]
    fn fat_tree_4_inventory() {
        let t = fat_tree(4);
        // 4 cores + 4 pods * (2 agg + 2 edge) = 20 nodes; 16 edge-agg
        // + 16 agg-core = 32 links.
        assert_eq!(t.node_count(), 20);
        assert_eq!(t.link_count(), 32);
        assert!(connected(&t));
        // Every edge switch can reach every other over >= 2 disjoint-ish
        // paths (k-shortest finds at least 2 between remote pods).
        let a = t.node("p0e0").unwrap();
        let b = t.node("p3e1").unwrap();
        assert!(t.k_shortest_paths(a, b, 3).len() >= 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_rejects_odd_arity() {
        fat_tree(3);
    }

    #[test]
    fn ring_and_two_tier_are_connected_and_multipath() {
        let r = ring_chords(16, 4);
        assert!(connected(&r));
        assert_eq!(r.node_count(), 16);
        let w = two_tier_wan(6, 2);
        assert!(connected(&w));
        assert_eq!(w.node_count(), 6 + 12);
        // Dual-homed edges: degree 2.
        assert_eq!(w.degree(w.node("c0x0").unwrap()), 2);
    }

    #[test]
    fn random_families_are_connected_and_deterministic() {
        for seed in [1u64, 7, 42] {
            let a = waxman(24, 0.9, 0.4, seed);
            let b = waxman(24, 0.9, 0.4, seed);
            assert!(connected(&a), "waxman seed {seed}");
            assert_eq!(a.link_count(), b.link_count());
            for (la, lb) in a.links().iter().zip(b.links()) {
                assert_eq!(
                    (la.a, la.b, la.capacity_mbps, la.delay_ms),
                    (lb.a, lb.b, lb.capacity_mbps, lb.delay_ms)
                );
            }
            let e = erdos_renyi(20, 0.15, seed);
            assert!(connected(&e), "erdos seed {seed}");
        }
        // Different seeds give different graphs.
        let fingerprint = |t: &Topology| -> Vec<(u32, u32, u64)> {
            t.links()
                .iter()
                .map(|l| (l.a.0, l.b.0, l.delay_ms.to_bits()))
                .collect()
        };
        assert_ne!(
            fingerprint(&waxman(24, 0.9, 0.4, 1)),
            fingerprint(&waxman(24, 0.9, 0.4, 2))
        );
    }

    #[test]
    fn wan_maps_are_connected() {
        for t in [esnet_like(), geant_like()] {
            assert_eq!(t.node_count(), 14);
            assert!(connected(&t));
        }
        // Coast-to-coast delay is continental.
        let t = esnet_like();
        let p = t
            .shortest_path_by_delay(t.node("SEAT").unwrap(), t.node("BOST").unwrap())
            .unwrap();
        assert!(t.path_delay_ms(&p).unwrap() > 20.0);
    }

    #[test]
    fn endpoints_are_stable_and_far_apart() {
        let t = fat_tree(4);
        let (a, b) = endpoints(&t);
        assert_eq!((a, b), endpoints(&t));
        assert_ne!(a, b);
        // Both land on edge switches (the only nodes behind 10 Mbps
        // access links), in different pods.
        assert!(t.node_name(a).contains('e'));
        assert!(t.node_name(b).contains('e'));
        assert_ne!(t.node_name(a)[..2], t.node_name(b)[..2]);
    }

    #[test]
    fn endpoint_pairs_generalize_the_farthest_pair() {
        for t in [fat_tree(4), esnet_like(), geant_like()] {
            // Pair 0 is exactly the legacy diameter pair.
            assert_eq!(endpoint_pairs(&t, 1), vec![endpoints(&t)]);
            assert_eq!(endpoint_pairs(&t, 4), endpoint_pairs(&t, 4), "stable");
            let pairs = endpoint_pairs(&t, 4);
            assert_eq!(pairs.len(), 4);
            // Every pair has distinct endpoints and no duplicate pair.
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_ne!(a, b, "{}: pair {i} degenerate", t.node_name(a));
                for &(c, d) in &pairs[i + 1..] {
                    assert_ne!((a, b), (c, d), "duplicate pair");
                }
            }
        }
        // Fat-tree has 8 edge switches: 4 pairs use each at most once.
        let t = fat_tree(4);
        let pairs = endpoint_pairs(&t, 4);
        let mut all: Vec<NodeIdx> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8, "{pairs:?}");
        // Each multi-pair endpoint pair still offers >= 2 disjoint
        // tunnels (the cut a routing policy needs).
        for &(a, b) in &pairs {
            assert!(t.k_disjoint_shortest_paths(a, b, 2).len() >= 2);
        }
    }

    #[test]
    fn endpoint_pairs_recycle_on_tiny_topologies() {
        // 3 nodes, 6 requested pairs: the pool recycles instead of
        // panicking, and every pair stays non-degenerate.
        let t = ring_chords(3, 0);
        let pairs = endpoint_pairs(&t, 6);
        assert_eq!(pairs.len(), 6);
        for &(a, b) in &pairs {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn catalog_families_offer_disjoint_tunnels_between_endpoints() {
        // A scenario with fewer than two disjoint tunnels can't
        // differentiate routing policies — every catalog topology must
        // give its chosen endpoints a cut of at least 2.
        for spec in [
            TopologySpec::FatTree { k: 4 },
            TopologySpec::RingChords {
                n: 24,
                chord_every: 4,
            },
            TopologySpec::TwoTierWan {
                cores: 6,
                edges_per_core: 2,
            },
            TopologySpec::Waxman {
                n: 24,
                alpha: 0.9,
                beta: 0.4,
            },
            TopologySpec::EsnetLike,
            TopologySpec::GeantLike,
        ] {
            for seed in [101u64, 104, 105] {
                let t = spec.build(seed);
                let (a, b) = endpoints(&t);
                let paths = t.k_disjoint_shortest_paths(a, b, 3);
                assert!(
                    paths.len() >= 2,
                    "{} seed {seed}: only {} disjoint path(s) between {} and {}",
                    spec.label(),
                    paths.len(),
                    t.node_name(a),
                    t.node_name(b)
                );
            }
        }
    }

    #[test]
    fn spec_build_covers_every_family() {
        let specs = [
            TopologySpec::FatTree { k: 4 },
            TopologySpec::RingChords {
                n: 12,
                chord_every: 3,
            },
            TopologySpec::TwoTierWan {
                cores: 5,
                edges_per_core: 1,
            },
            TopologySpec::Waxman {
                n: 16,
                alpha: 0.9,
                beta: 0.4,
            },
            TopologySpec::ErdosRenyi {
                n: 16,
                link_prob: 0.2,
            },
            TopologySpec::EsnetLike,
            TopologySpec::GeantLike,
        ];
        for s in specs {
            let t = s.build(3);
            assert!(t.node_count() >= 5, "{}", s.label());
            assert!(connected(&t), "{}", s.label());
            assert!(!s.label().is_empty());
        }
    }
}
