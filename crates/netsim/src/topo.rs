//! Topology: nodes, capacitated/delayed links, and path computation.

use crate::NetsimError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub u32);

/// Index of an (undirected) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Node role, mirroring the testbed: hosts sit at the edge, routers
/// run PolKA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host (traffic source/sink).
    Host,
    /// Edge router (classifies, encapsulates PolKA headers).
    Edge,
    /// Core router (stateless PolKA forwarding).
    Core,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeInfo {
    pub name: String,
    pub kind: NodeKind,
}

/// A full-duplex link: `capacity_mbps` applies independently to each
/// direction; `delay_ms` is the one-way propagation delay.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeIdx,
    /// Other endpoint.
    pub b: NodeIdx,
    /// Per-direction capacity in Mbps.
    pub capacity_mbps: f64,
    /// One-way propagation delay in milliseconds.
    pub delay_ms: f64,
    /// False once failed.
    pub up: bool,
}

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    names: HashMap<String, NodeIdx>,
    links: Vec<Link>,
    /// adjacency: node -> (neighbor, link id), in link-insertion order
    adj: Vec<Vec<(NodeIdx, LinkId)>>,
    /// Prebuilt port table: node -> (neighbor, link id) sorted by
    /// ascending neighbor index (ties keep insertion order). Position
    /// `p` is physical port `p + 1`, exactly the numbering
    /// [`Topology::neighbor_port`] defines — maintained incrementally on
    /// [`Topology::add_link`] so per-hop lookups never sort or scan the
    /// whole link list.
    ports: Vec<Vec<(NodeIdx, LinkId)>>,
}

/// A shortest-path tree by propagation delay, as grown by
/// [`Topology::shortest_path_tree`]: each reached node's parent and its
/// distance from the root.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    dist: Vec<f64>,
    prev: Vec<Option<NodeIdx>>,
}

impl ShortestPathTree {
    /// The tree distance of `v` in ms — the link delays along its tree
    /// path added one by one from the root, the same sum
    /// [`Topology::path_delay_ms`] forms over that path when no two
    /// live parallel links differ in delay. Infinite when unreached.
    pub fn dist_ms(&self, v: NodeIdx) -> f64 {
        self.dist[v.0 as usize]
    }

    /// The tree path from the root to `v`, both ends included; `None`
    /// when `v` was not reached.
    pub fn path_to(&self, v: NodeIdx) -> Option<Vec<NodeIdx>> {
        if self.dist[v.0 as usize].is_infinite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.prev[cur.0 as usize] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names — topology construction is programmatic
    /// and a duplicate is a bug in the caller.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeIdx {
        assert!(
            !self.names.contains_key(name),
            "duplicate node name {name:?}"
        );
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            name: name.to_string(),
            kind,
        });
        self.names.insert(name.to_string(), idx);
        self.adj.push(Vec::new());
        self.ports.push(Vec::new());
        idx
    }

    /// Adds a full-duplex link.
    pub fn add_link(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        capacity_mbps: f64,
        delay_ms: f64,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            capacity_mbps,
            delay_ms,
            up: true,
        });
        self.adj[a.0 as usize].push((b, id));
        self.adj[b.0 as usize].push((a, id));
        // Upper-bound insertion keeps the table sorted by neighbor with
        // parallel links staying in insertion order (what a stable sort
        // of the adjacency list would produce).
        for (node, nb) in [(a, b), (b, a)] {
            let table = &mut self.ports[node.0 as usize];
            let pos = table.partition_point(|(n, _)| n.0 <= nb.0);
            table.insert(pos, (nb, id));
        }
        id
    }

    /// The sorted port range of `a`'s entries facing neighbor `b`:
    /// contiguous in the port table because it is sorted by neighbor.
    fn port_range(&self, a: NodeIdx, b: NodeIdx) -> std::ops::Range<usize> {
        let table = &self.ports[a.0 as usize];
        let lo = table.partition_point(|(n, _)| n.0 < b.0);
        let hi = table.partition_point(|(n, _)| n.0 <= b.0);
        lo..hi
    }

    /// Node index by name.
    pub fn node(&self, name: &str) -> Result<NodeIdx, NetsimError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| NetsimError::UnknownNode(name.to_string()))
    }

    /// Node name by index.
    pub fn node_name(&self, idx: NodeIdx) -> &str {
        &self.nodes[idx.0 as usize].name
    }

    /// Node kind by index.
    pub fn node_kind(&self, idx: NodeIdx) -> NodeKind {
        self.nodes[idx.0 as usize].kind
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutable link by id (capacity changes, failures).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link between two adjacent nodes. Served from the prebuilt
    /// port table (binary search on the node's degree, not a scan of
    /// the link list) — this sits on the per-hop path of route
    /// compilation and path validation.
    pub fn link_between(&self, a: NodeIdx, b: NodeIdx) -> Result<LinkId, NetsimError> {
        self.live_link_between(a, b, &[]).ok_or_else(|| {
            NetsimError::NotAdjacent(self.node_name(a).to_string(), self.node_name(b).to_string())
        })
    }

    /// Whether a link is usable by a search over a link mask: up, and
    /// not marked in `removed` (indexed by link id; an empty mask
    /// removes nothing).
    fn live(&self, lid: LinkId, removed: &[bool]) -> bool {
        self.links[lid.0 as usize].up && !removed.get(lid.0 as usize).copied().unwrap_or(false)
    }

    /// [`Topology::link_between`] over a link mask: the first live link
    /// from `a` to `b` in port order (parallel links in insertion
    /// order).
    fn live_link_between(&self, a: NodeIdx, b: NodeIdx, removed: &[bool]) -> Option<LinkId> {
        self.ports[a.0 as usize][self.port_range(a, b)]
            .iter()
            .map(|&(_, l)| l)
            .find(|&l| self.live(l, removed))
    }

    /// Resolves a node-name path to indices, validating adjacency.
    pub fn path_by_names(&self, names: &[&str]) -> Result<Vec<NodeIdx>, NetsimError> {
        let idx: Vec<NodeIdx> = names
            .iter()
            .map(|n| self.node(n))
            .collect::<Result<_, _>>()?;
        self.check_path(&idx)?;
        Ok(idx)
    }

    /// Checks that a node path has at least two nodes and a live link
    /// under every hop, without collecting the links.
    pub fn check_path(&self, path: &[NodeIdx]) -> Result<(), NetsimError> {
        if path.len() < 2 {
            return Err(NetsimError::BadPath("need at least two nodes".into()));
        }
        for w in path.windows(2) {
            self.link_between(w[0], w[1])?;
        }
        Ok(())
    }

    /// The links along a node path.
    pub fn path_links(&self, path: &[NodeIdx]) -> Result<Vec<LinkId>, NetsimError> {
        self.check_path(path)?;
        path.windows(2)
            .map(|w| self.link_between(w[0], w[1]))
            .collect()
    }

    /// One-way propagation delay of a path in milliseconds.
    pub fn path_delay_ms(&self, path: &[NodeIdx]) -> Result<f64, NetsimError> {
        Ok(self
            .path_links(path)?
            .iter()
            .map(|l| self.link(*l).delay_ms)
            .sum())
    }

    /// The 1-based physical port on `a` that faces neighbor `b`. Ports
    /// are numbered by ascending neighbor index, so the mapping is
    /// deterministic for a given topology — this is what the PolKA
    /// resolver encodes into routeIDs. Port 0 is reserved for "deliver
    /// locally".
    pub fn neighbor_port(&self, a: NodeIdx, b: NodeIdx) -> Option<u16> {
        let r = self.port_range(a, b);
        if r.is_empty() {
            None
        } else {
            Some((r.start + 1) as u16)
        }
    }

    /// Inverse of [`Topology::neighbor_port`]: which neighbor a 1-based
    /// port faces. O(1) — direct index into the prebuilt port table.
    pub fn neighbor_by_port(&self, a: NodeIdx, port: u16) -> Option<NodeIdx> {
        if port == 0 {
            return None;
        }
        self.ports[a.0 as usize]
            .get(port as usize - 1)
            .map(|(n, _)| *n)
    }

    /// Number of links incident to a node (counting parallel links and
    /// failed links — the physical port count).
    pub fn degree(&self, a: NodeIdx) -> usize {
        self.ports[a.0 as usize].len()
    }

    /// A node's `(neighbor, link)` pairs in ascending physical-port
    /// order (the same ordering [`Topology::neighbor_port`] numbers):
    /// entry `p` sits behind port `p + 1`. Includes failed links.
    pub fn neighbors(&self, a: NodeIdx) -> &[(NodeIdx, LinkId)] {
        &self.ports[a.0 as usize]
    }

    /// Maximum port number used anywhere in the topology (sizes the
    /// PolKA node-ID degree).
    pub fn max_port(&self) -> u16 {
        self.ports.iter().map(|n| n.len() as u16).max().unwrap_or(0)
    }

    /// Dijkstra shortest path by propagation delay: the path to `dst`
    /// in [`Topology::shortest_path_tree`] rooted at `src` and stopped
    /// at `dst`. Returns `None` when disconnected. Failed links are
    /// skipped.
    pub fn shortest_path_by_delay(&self, src: NodeIdx, dst: NodeIdx) -> Option<Vec<NodeIdx>> {
        self.shortest_path_tree(src, &[dst]).path_to(dst)
    }

    /// The shortest-path tree by propagation delay rooted at `src`,
    /// grown until every node of `stop_after` has been popped (to
    /// completion when `stop_after` is empty). Failed links are
    /// skipped.
    ///
    /// This is the one Dijkstra kernel: every delay search in this
    /// module is a tree from it. Nodes pop in `(distance, node index)`
    /// order — the smallest tentative distance first, ties to the
    /// lowest index — and a popped node relaxes its links in insertion
    /// order, taking a strictly shorter distance only. A popped node's
    /// distance and parent are final, and every stopped run is a prefix
    /// of the full run, so the path to a popped node is the same
    /// whatever `stop_after` was. Read a stopped tree only at the nodes
    /// of `stop_after` (and their tree ancestors): elsewhere it holds
    /// tentative values.
    pub fn shortest_path_tree(&self, src: NodeIdx, stop_after: &[NodeIdx]) -> ShortestPathTree {
        self.masked_tree(src, stop_after, &[])
    }

    /// [`Topology::shortest_path_tree`] over the residual graph that
    /// skips the links marked in `removed` (indexed by link id; an
    /// empty mask removes nothing) — how Yen's spur searches and the
    /// disjoint-path search take links out without copying the
    /// topology.
    fn masked_tree(
        &self,
        src: NodeIdx,
        stop_after: &[NodeIdx],
        removed: &[bool],
    ) -> ShortestPathTree {
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeIdx>> = vec![None; n];
        let mut pending = vec![false; n];
        let mut left = 0usize;
        for &t in stop_after {
            if !pending[t.0 as usize] {
                pending[t.0 as usize] = true;
                left += 1;
            }
        }
        // Pops `(cost, node)` least first: costs are not negative, so
        // their bits order like them.
        let mut frontier = BinaryHeap::with_capacity(n);
        dist[src.0 as usize] = 0.0;
        frontier.push(Reverse((0.0f64.to_bits(), src.0)));
        while let Some(Reverse((bits, node))) = frontier.pop() {
            let (cost, node) = (f64::from_bits(bits), NodeIdx(node));
            // A node's first pop carries its final distance; later pops
            // of it are stale.
            if cost > dist[node.0 as usize] {
                continue;
            }
            if pending[node.0 as usize] {
                pending[node.0 as usize] = false;
                left -= 1;
                if left == 0 {
                    break;
                }
            }
            for &(next, lid) in &self.adj[node.0 as usize] {
                if !self.live(lid, removed) {
                    continue;
                }
                let nd = cost + self.links[lid.0 as usize].delay_ms;
                if nd < dist[next.0 as usize] {
                    dist[next.0 as usize] = nd;
                    prev[next.0 as usize] = Some(node);
                    frontier.push(Reverse((nd.to_bits(), next.0)));
                }
            }
        }
        ShortestPathTree { dist, prev }
    }

    /// Yen's algorithm: the `k` loop-free shortest paths by propagation
    /// delay, in increasing delay order (none for `k = 0`). Used by the
    /// framework to discover candidate tunnels automatically on
    /// topologies where the operator has not pre-declared them (the
    /// paper's continent-wide future-work scenario).
    ///
    /// Each spur search is one [`Topology::shortest_path_tree`] over a
    /// link mask: the links that would recreate a confirmed path
    /// sharing the spur's root, and every link of the root's interior
    /// nodes, are masked out for that search only.
    pub fn k_shortest_paths(&self, src: NodeIdx, dst: NodeIdx, k: usize) -> Vec<Vec<NodeIdx>> {
        let mut confirmed: Vec<Vec<NodeIdx>> = Vec::new();
        if k == 0 {
            return confirmed;
        }
        let mut candidates: Vec<(f64, Vec<NodeIdx>)> = Vec::new();
        let mut removed = vec![false; self.links.len()];
        let mut next = self.shortest_path_by_delay(src, dst);
        while let Some(last) = next.take() {
            confirmed.push(last.clone());
            if confirmed.len() == k {
                break;
            }
            // Spur from every node of the previous path.
            for spur_idx in 0..last.len() - 1 {
                let spur_node = last[spur_idx];
                let root = &last[..=spur_idx];
                removed.fill(false);
                for path in confirmed.iter() {
                    if path.len() > spur_idx + 1 && path[..=spur_idx] == *root {
                        // Each confirmed path through this hop masks one
                        // more of its parallel links.
                        if let Some(lid) =
                            self.live_link_between(path[spur_idx], path[spur_idx + 1], &removed)
                        {
                            removed[lid.0 as usize] = true;
                        }
                    }
                }
                for &n in &root[..spur_idx] {
                    for &(_, lid) in &self.adj[n.0 as usize] {
                        removed[lid.0 as usize] = true;
                    }
                }
                if let Some(spur) = self.masked_tree(spur_node, &[dst], &removed).path_to(dst) {
                    let mut total: Vec<NodeIdx> = root[..spur_idx].to_vec();
                    total.extend(spur);
                    // discard paths with repeated nodes (loops)
                    let mut seen = std::collections::HashSet::new();
                    if total.iter().all(|n| seen.insert(*n))
                        && !confirmed.contains(&total)
                        && !candidates.iter().any(|(_, p)| *p == total)
                    {
                        if let Ok(delay) = self.path_delay_ms(&total) {
                            candidates.push((delay, total));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
            if !candidates.is_empty() {
                next = Some(candidates.remove(0).1);
            }
        }
        confirmed
    }

    /// Up to `k` **link-disjoint** shortest paths by propagation delay,
    /// in increasing delay order: the shortest path is taken, its links
    /// removed, and the search repeated on the residual graph. Returns
    /// fewer than `k` paths when the cut between the endpoints is
    /// smaller.
    ///
    /// This is how the scenario engine provisions candidate tunnels:
    /// disjoint tunnels make the optimizer's
    /// bottleneck-per-tunnel capacity model sound (tunnels never steal
    /// each other's links, and one link failure never kills two
    /// tunnels) — matching the paper's hand-built testbed tunnels.
    ///
    /// Each search is one [`Topology::shortest_path_tree`] over a mask
    /// of the links taken so far; a taken hop masks the link
    /// [`Topology::link_between`] would report for it.
    pub fn k_disjoint_shortest_paths(
        &self,
        src: NodeIdx,
        dst: NodeIdx,
        k: usize,
    ) -> Vec<Vec<NodeIdx>> {
        let mut removed = vec![false; self.links.len()];
        let mut out = Vec::new();
        while out.len() < k {
            let Some(path) = self.masked_tree(src, &[dst], &removed).path_to(dst) else {
                break;
            };
            if path.len() < 2 {
                break;
            }
            for hop in path.windows(2) {
                if let Some(lid) = self.live_link_between(hop[0], hop[1], &removed) {
                    removed[lid.0 as usize] = true;
                }
            }
            out.push(path);
        }
        out
    }
}

/// The emulated Global P4 Lab subset of Fig 9: five experiment routers
/// (MIA, CHI, CAL, SAO, AMS), two GÉANT-side routers that complete the
/// European ring (PAR, POZ), and the two measurement hosts.
///
/// Capacities and delays follow the paper's Experiment 2 setup: "we
/// restricted the bandwidths of the links: MIA-SAO, SAO-AMS, and CHI-AMS
/// to 20 Mbps, MIA-CHI to 10 Mbps, and MIA-CAL and CAL-CHI to 5 Mbps",
/// plus the 20 ms delay injected between MIA and SAO for Experiment 1.
pub fn global_p4_lab() -> Topology {
    let mut t = Topology::new();
    let host1 = t.add_node("host1", NodeKind::Host);
    let host2 = t.add_node("host2", NodeKind::Host);
    let mia = t.add_node("MIA", NodeKind::Edge);
    let ams = t.add_node("AMS", NodeKind::Edge);
    let chi = t.add_node("CHI", NodeKind::Core);
    let cal = t.add_node("CAL", NodeKind::Core);
    let sao = t.add_node("SAO", NodeKind::Core);
    let par = t.add_node("PAR", NodeKind::Core);
    let poz = t.add_node("POZ", NodeKind::Core);

    // host attachments (fast, negligible delay)
    t.add_link(host1, mia, 1000.0, 0.05);
    t.add_link(host2, ams, 1000.0, 0.05);
    // experiment links (Fig 9 / Sec V-C-2)
    t.add_link(mia, sao, 20.0, 20.0); // tc-injected 20 ms
    t.add_link(sao, ams, 20.0, 9.0);
    t.add_link(mia, chi, 10.0, 3.0);
    t.add_link(chi, ams, 20.0, 5.0);
    t.add_link(mia, cal, 5.0, 2.0);
    t.add_link(cal, chi, 5.0, 2.0);
    // European ring completion (not used by the experiments, but present
    // in the Global P4 Lab subset the VMs emulate)
    t.add_link(ams, par, 100.0, 4.0);
    t.add_link(par, poz, 100.0, 6.0);
    t.add_link(poz, ams, 100.0, 5.0);
    t
}

/// The 3-node illustration topology of Fig 2: source, intermediate,
/// destination, with a direct s-d link and an s-i-d detour.
#[cfg(test)]
fn simple3(capacity_mbps: f64) -> Topology {
    let mut t = Topology::new();
    let s = t.add_node("s", NodeKind::Edge);
    let i = t.add_node("i", NodeKind::Core);
    let d = t.add_node("d", NodeKind::Edge);
    t.add_link(s, d, capacity_mbps, 5.0);
    t.add_link(s, i, capacity_mbps, 3.0);
    t.add_link(i, d, capacity_mbps, 3.0);
    t
}

/// A deterministic random-ish mesh for scaling benches: `n` core nodes,
/// ring plus chords every `chord_stride`, uniform capacity/delay.
pub fn mesh(n: usize, chord_stride: usize, capacity_mbps: f64) -> Topology {
    let mut t = Topology::new();
    let nodes: Vec<NodeIdx> = (0..n)
        .map(|i| t.add_node(&format!("n{i}"), NodeKind::Core))
        .collect();
    for i in 0..n {
        t.add_link(nodes[i], nodes[(i + 1) % n], capacity_mbps, 1.0);
    }
    if chord_stride >= 2 {
        for i in (0..n).step_by(chord_stride) {
            let j = (i + n / 2) % n;
            if j != i && t.link_between(nodes[i], nodes[j]).is_err() {
                t.add_link(nodes[i], nodes[j], capacity_mbps, 1.0);
            }
        }
    }
    t
}

/// k-ary fat-tree (`k` even, ≥ 2): edge↔aggregation links run at
/// 10 Mbps, aggregation↔core at 20 Mbps (the classic 2:1 oversubscribed
/// datacenter fabric, scaled to the testbed's Mbps range), sub-ms
/// propagation delays.
///
/// # Panics
/// Panics if `k` is odd or zero — the fat-tree construction needs
/// `k/2`-way bundles.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let half = k / 2;
    let mut t = Topology::new();
    let cores: Vec<NodeIdx> = (0..half * half)
        .map(|i| t.add_node(&format!("core{i}"), NodeKind::Core))
        .collect();
    for p in 0..k {
        let aggs: Vec<NodeIdx> = (0..half)
            .map(|a| t.add_node(&format!("p{p}a{a}"), NodeKind::Core))
            .collect();
        let edges: Vec<NodeIdx> = (0..half)
            .map(|e| t.add_node(&format!("p{p}e{e}"), NodeKind::Edge))
            .collect();
        for &e in &edges {
            for &a in &aggs {
                t.add_link(e, a, 10.0, 0.2);
            }
        }
        for (a, &agg) in aggs.iter().enumerate() {
            for c in 0..half {
                t.add_link(agg, cores[a * half + c], 20.0, 0.5);
            }
        }
    }
    t
}

/// The searches [`Topology::shortest_path_tree`] replaced, kept as the
/// test oracle: a point-to-point Dijkstra that stops when it pops its
/// destination, and Yen's and the disjoint-path search taking links out
/// of a copy of the topology.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn shortest_path_by_delay(
        topo: &Topology,
        src: NodeIdx,
        dst: NodeIdx,
    ) -> Option<Vec<NodeIdx>> {
        #[derive(PartialEq)]
        struct State {
            cost: f64,
            node: NodeIdx,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| other.node.0.cmp(&self.node.0))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = topo.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeIdx>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.0 as usize] = 0.0;
        heap.push(State {
            cost: 0.0,
            node: src,
        });
        while let Some(State { cost, node }) = heap.pop() {
            if node == dst {
                break;
            }
            if cost > dist[node.0 as usize] {
                continue;
            }
            for &(next, lid) in &topo.adj[node.0 as usize] {
                let link = &topo.links[lid.0 as usize];
                if !link.up {
                    continue;
                }
                let nd = cost + link.delay_ms;
                if nd < dist[next.0 as usize] {
                    dist[next.0 as usize] = nd;
                    prev[next.0 as usize] = Some(node);
                    heap.push(State {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        if dist[dst.0 as usize].is_infinite() {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = prev[cur.0 as usize] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    pub(super) fn k_shortest_paths(
        topo: &Topology,
        src: NodeIdx,
        dst: NodeIdx,
        k: usize,
    ) -> Vec<Vec<NodeIdx>> {
        let Some(first) = shortest_path_by_delay(topo, src, dst) else {
            return Vec::new();
        };
        let mut confirmed: Vec<Vec<NodeIdx>> = vec![first];
        let mut candidates: Vec<(f64, Vec<NodeIdx>)> = Vec::new();
        while confirmed.len() < k {
            let last = confirmed.last().unwrap().clone();
            for spur_idx in 0..last.len() - 1 {
                let spur_node = last[spur_idx];
                let root = &last[..=spur_idx];
                let mut scratch = topo.clone();
                for path in confirmed.iter() {
                    if path.len() > spur_idx + 1 && path[..=spur_idx] == *root {
                        if let Ok(lid) = scratch.link_between(path[spur_idx], path[spur_idx + 1]) {
                            scratch.link_mut(lid).up = false;
                        }
                    }
                }
                for &n in &root[..spur_idx] {
                    let neighbors: Vec<(NodeIdx, LinkId)> = scratch.adj[n.0 as usize].clone();
                    for (_, lid) in neighbors {
                        scratch.link_mut(lid).up = false;
                    }
                }
                if let Some(spur) = shortest_path_by_delay(&scratch, spur_node, dst) {
                    let mut total: Vec<NodeIdx> = root[..spur_idx].to_vec();
                    total.extend(spur);
                    let mut seen = std::collections::HashSet::new();
                    if total.iter().all(|n| seen.insert(*n))
                        && !confirmed.contains(&total)
                        && !candidates.iter().any(|(_, p)| *p == total)
                    {
                        if let Ok(delay) = topo.path_delay_ms(&total) {
                            candidates.push((delay, total));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
            if candidates.is_empty() {
                break;
            }
            confirmed.push(candidates.remove(0).1);
        }
        confirmed
    }

    pub(super) fn k_disjoint_shortest_paths(
        topo: &Topology,
        src: NodeIdx,
        dst: NodeIdx,
        k: usize,
    ) -> Vec<Vec<NodeIdx>> {
        let mut scratch = topo.clone();
        let mut out = Vec::new();
        while out.len() < k {
            let Some(path) = shortest_path_by_delay(&scratch, src, dst) else {
                break;
            };
            let Ok(links) = scratch.path_links(&path) else {
                break;
            };
            for lid in links {
                scratch.link_mut(lid).up = false;
            }
            out.push(path);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A random graph of one of the families the scenario zoo builds,
    /// at test size, with about one link in twenty failed:
    /// 0. random geometric (Waxman-like: real delays growing with
    ///    distance);
    /// 1. G(n, p) with real delays;
    /// 2. a ring with antipodal chords, integer delays (many ties);
    /// 3. a fat-tree (0.2 / 0.5 ms tiers: many ties);
    /// 4. a two-tier WAN (chorded core ring, dual-homed edges, integer
    ///    delays);
    /// 5. random geometric plus parallel links, some of unequal delay.
    fn random_graph(family: u64, rng: &mut TestRng) -> Topology {
        let mut t = Topology::new();
        let add_nodes = |t: &mut Topology, n: usize| -> Vec<NodeIdx> {
            (0..n)
                .map(|i| t.add_node(&format!("v{i}"), NodeKind::Core))
                .collect()
        };
        match family {
            0 | 5 => {
                let n = 4 + rng.below(20) as usize;
                let v = add_nodes(&mut t, n);
                let pos: Vec<(f64, f64)> =
                    (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect();
                for i in 0..n {
                    for j in i + 1..n {
                        let d =
                            ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
                        if rng.unit_f64() < 0.9 * (-d / 0.56).exp() {
                            t.add_link(v[i], v[j], 10.0, 1.0 + 15.0 * d);
                        }
                    }
                }
                if family == 5 {
                    for l in 0..t.link_count() {
                        let (a, b, delay) = {
                            let l = t.link(LinkId(l as u32));
                            (l.a, l.b, l.delay_ms)
                        };
                        match rng.below(4) {
                            0 => t.add_link(a, b, 10.0, delay * (0.5 + rng.unit_f64())),
                            1 => t.add_link(b, a, 10.0, delay),
                            _ => continue,
                        };
                    }
                }
            }
            1 => {
                let n = 4 + rng.below(20) as usize;
                let v = add_nodes(&mut t, n);
                for i in 0..n {
                    for j in i + 1..n {
                        if rng.unit_f64() < 0.25 {
                            t.add_link(v[i], v[j], 20.0, 1.0 + 5.0 * rng.unit_f64());
                        }
                    }
                }
            }
            2 => {
                let n = 4 + rng.below(20) as usize;
                let chord_every = 1 + rng.below(4) as usize;
                let v = add_nodes(&mut t, n);
                for i in 0..n {
                    t.add_link(v[i], v[(i + 1) % n], 20.0, 2.0);
                }
                for i in (0..n).step_by(chord_every) {
                    let j = (i + n / 2) % n;
                    if j != i && t.link_between(v[i], v[j]).is_err() {
                        t.add_link(v[i], v[j], 10.0, 5.0);
                    }
                }
            }
            3 => t = fat_tree(2 + 2 * rng.below(3) as usize),
            _ => {
                let cores = 3 + rng.below(5) as usize;
                let c = add_nodes(&mut t, cores);
                for i in 0..cores {
                    t.add_link(c[i], c[(i + 1) % cores], 40.0, 4.0);
                    if cores >= 5 {
                        t.add_link(c[i], c[(i + 2) % cores], 40.0, 6.0);
                    }
                }
                for i in 0..cores {
                    for j in 0..1 + rng.below(3) {
                        let e = t.add_node(&format!("c{i}x{j}"), NodeKind::Edge);
                        t.add_link(e, c[i], 10.0, 1.0);
                        t.add_link(e, c[(i + 1) % cores], 10.0, 1.0);
                    }
                }
            }
        }
        for l in 0..t.link_count() {
            if rng.below(20) == 0 {
                t.link_mut(LinkId(l as u32)).up = false;
            }
        }
        t
    }

    fn random_node(t: &Topology, rng: &mut TestRng) -> NodeIdx {
        NodeIdx(rng.below(t.node_count() as u64) as u32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn trees_match_the_point_to_point_search(seed in any::<u64>(), family in 0u64..6) {
            let mut rng = TestRng::from_seed(seed);
            let t = random_graph(family, &mut rng);
            let src = random_node(&t, &mut rng);
            let full = t.shortest_path_tree(src, &[]);
            let stop: Vec<NodeIdx> = (0..1 + rng.below(4)).map(|_| random_node(&t, &mut rng)).collect();
            let stopped = t.shortest_path_tree(src, &stop);
            for v in 0..t.node_count() {
                let v = NodeIdx(v as u32);
                let want = reference::shortest_path_by_delay(&t, src, v);
                prop_assert_eq!(&full.path_to(v), &want, "family {} {:?}->{:?}", family, src, v);
                prop_assert_eq!(&t.shortest_path_by_delay(src, v), &want);
                if stop.contains(&v) {
                    prop_assert_eq!(&stopped.path_to(v), &want);
                    prop_assert_eq!(stopped.dist_ms(v).to_bits(), full.dist_ms(v).to_bits());
                }
                // Without unequal parallel links the tree distance is
                // `path_delay_ms` of the tree path, bit for bit.
                if let (Some(p), true) = (want, family != 5) {
                    let delay = t.path_delay_ms(&p).unwrap_or(0.0);
                    prop_assert_eq!(full.dist_ms(v).to_bits(), delay.to_bits());
                }
            }
        }

        #[test]
        fn masked_searches_match_the_copying_searches(
            seed in any::<u64>(),
            family in 0u64..6,
            k in 1usize..=8,
        ) {
            let mut rng = TestRng::from_seed(seed);
            let t = random_graph(family, &mut rng);
            for _ in 0..3 {
                let (s, d) = (random_node(&t, &mut rng), random_node(&t, &mut rng));
                prop_assert_eq!(
                    t.k_shortest_paths(s, d, k),
                    reference::k_shortest_paths(&t, s, d, k),
                    "yen family {} {:?}->{:?} k={}", family, s, d, k
                );
                prop_assert_eq!(
                    t.k_disjoint_shortest_paths(s, d, k),
                    reference::k_disjoint_shortest_paths(&t, s, d, k),
                    "disjoint family {} {:?}->{:?} k={}", family, s, d, k
                );
            }
        }
    }

    #[test]
    fn zero_paths_asked_zero_paths_found() {
        let t = global_p4_lab();
        let (mia, ams) = (t.node("MIA").unwrap(), t.node("AMS").unwrap());
        assert!(t.k_shortest_paths(mia, ams, 0).is_empty());
        assert!(t.k_disjoint_shortest_paths(mia, ams, 0).is_empty());
        assert_eq!(t.k_shortest_paths(mia, ams, 1).len(), 1);
    }

    #[test]
    fn fig9_topology_inventory() {
        let t = global_p4_lab();
        assert_eq!(t.node_count(), 9, "paper used 9 VMs");
        for name in ["host1", "host2", "MIA", "AMS", "CHI", "CAL", "SAO"] {
            assert!(t.node(name).is_ok(), "{name} must exist");
        }
        // Experiment 2 capacities
        let mia = t.node("MIA").unwrap();
        let sao = t.node("SAO").unwrap();
        let chi = t.node("CHI").unwrap();
        let cal = t.node("CAL").unwrap();
        assert_eq!(
            t.link(t.link_between(mia, sao).unwrap()).capacity_mbps,
            20.0
        );
        assert_eq!(
            t.link(t.link_between(mia, chi).unwrap()).capacity_mbps,
            10.0
        );
        assert_eq!(t.link(t.link_between(mia, cal).unwrap()).capacity_mbps, 5.0);
        // Experiment 1 delay
        assert_eq!(t.link(t.link_between(mia, sao).unwrap()).delay_ms, 20.0);
    }

    #[test]
    fn tunnel_paths_resolve() {
        let t = global_p4_lab();
        // The paper's three tunnels.
        for tunnel in [
            vec!["MIA", "SAO", "AMS"],
            vec!["MIA", "CHI", "AMS"],
            vec!["MIA", "CAL", "CHI", "AMS"],
        ] {
            let p = t.path_by_names(&tunnel).unwrap();
            assert_eq!(p.len(), tunnel.len());
        }
    }

    #[test]
    fn tunnel_capacities_match_paper() {
        let t = global_p4_lab();
        let t1 = t.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let t2 = t.path_by_names(&["MIA", "CHI", "AMS"]).unwrap();
        let t3 = t.path_by_names(&["MIA", "CAL", "CHI", "AMS"]).unwrap();
        let bottleneck = |p: &[NodeIdx]| {
            let links = t.path_links(p).unwrap();
            let caps = links.iter().map(|&l| t.link(l).capacity_mbps);
            caps.fold(f64::INFINITY, f64::min)
        };
        assert_eq!(bottleneck(&t1), 20.0);
        assert_eq!(bottleneck(&t2), 10.0);
        assert_eq!(bottleneck(&t3), 5.0);
    }

    #[test]
    fn tunnel1_is_high_latency_tunnel2_low() {
        let t = global_p4_lab();
        let t1 = t.path_by_names(&["MIA", "SAO", "AMS"]).unwrap();
        let t2 = t.path_by_names(&["MIA", "CHI", "AMS"]).unwrap();
        let d1 = t.path_delay_ms(&t1).unwrap();
        let d2 = t.path_delay_ms(&t2).unwrap();
        assert!(d1 > 3.0 * d2, "tunnel1 {d1}ms vs tunnel2 {d2}ms");
    }

    #[test]
    fn dijkstra_finds_low_delay_route() {
        let t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let ams = t.node("AMS").unwrap();
        let p = t.shortest_path_by_delay(mia, ams).unwrap();
        // MIA-CHI-AMS (8 ms) beats MIA-SAO-AMS (29 ms) and the CAL detour.
        let names: Vec<&str> = p.iter().map(|&i| t.node_name(i)).collect();
        assert_eq!(names, vec!["MIA", "CHI", "AMS"]);
    }

    #[test]
    fn dijkstra_reroutes_around_failure() {
        let mut t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let chi = t.node("CHI").unwrap();
        let ams = t.node("AMS").unwrap();
        let lid = t.link_between(mia, chi).unwrap();
        t.link_mut(lid).up = false;
        let p = t.shortest_path_by_delay(mia, ams).unwrap();
        let names: Vec<&str> = p.iter().map(|&i| t.node_name(i)).collect();
        assert_ne!(names[1], "CHI", "failed link must be avoided: {names:?}");
    }

    #[test]
    fn disconnected_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        assert!(t.shortest_path_by_delay(a, b).is_none());
    }

    #[test]
    fn k_shortest_orders_the_experiment_tunnels() {
        let t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let ams = t.node("AMS").unwrap();
        let paths = t.k_shortest_paths(mia, ams, 3);
        assert_eq!(paths.len(), 3);
        let names: Vec<Vec<&str>> = paths
            .iter()
            .map(|p| p.iter().map(|&i| t.node_name(i)).collect())
            .collect();
        // Increasing delay: CHI (8 ms) < CAL-CHI (9 ms) < SAO (29 ms).
        assert_eq!(names[0], vec!["MIA", "CHI", "AMS"]);
        assert_eq!(names[1], vec!["MIA", "CAL", "CHI", "AMS"]);
        assert_eq!(names[2], vec!["MIA", "SAO", "AMS"]);
        // Delays strictly increase.
        let d: Vec<f64> = paths.iter().map(|p| t.path_delay_ms(p).unwrap()).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
    }

    #[test]
    fn k_shortest_paths_are_loop_free_and_distinct() {
        let t = mesh(12, 3, 10.0);
        let paths = t.k_shortest_paths(NodeIdx(0), NodeIdx(6), 5);
        assert!(!paths.is_empty());
        for (i, p) in paths.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            assert!(p.iter().all(|n| seen.insert(*n)), "loop in {p:?}");
            for q in paths.iter().skip(i + 1) {
                assert_ne!(p, q, "duplicate path");
            }
        }
    }

    #[test]
    fn k_shortest_on_disconnected_is_empty() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        assert!(t.k_shortest_paths(a, b, 3).is_empty());
    }

    #[test]
    fn disjoint_paths_share_no_links_and_order_by_delay() {
        let t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let ams = t.node("AMS").unwrap();
        let paths = t.k_disjoint_shortest_paths(mia, ams, 3);
        // The CAL detour shares MIA-CHI/CHI-AMS with the shortest path,
        // so only two disjoint MIA->AMS paths exist.
        assert_eq!(paths.len(), 2);
        let mut used = std::collections::HashSet::new();
        for p in &paths {
            for l in t.path_links(p).unwrap() {
                assert!(used.insert(l), "link {l:?} reused across paths");
            }
        }
        let d: Vec<f64> = paths.iter().map(|p| t.path_delay_ms(p).unwrap()).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
        // Asking for more than the cut yields the cut.
        assert_eq!(t.k_disjoint_shortest_paths(mia, ams, 10).len(), 2);
        // Original topology untouched (scratch copy).
        assert!(t.links().iter().all(|l| l.up));
    }

    #[test]
    fn path_validation_rejects_non_adjacent() {
        let t = global_p4_lab();
        assert!(t.path_by_names(&["MIA", "AMS"]).is_err()); // no direct link
        assert!(t.path_by_names(&["MIA"]).is_err());
        assert!(t.path_by_names(&["MIA", "NOPE"]).is_err());
        // `check_path` is `path_links` without the links: same errors.
        let (mia, sao, ams) = (
            t.node("MIA").unwrap(),
            t.node("SAO").unwrap(),
            t.node("AMS").unwrap(),
        );
        for path in [&[mia][..], &[mia, ams], &[mia, sao, ams, mia]] {
            let want = t.path_links(path).err().map(|e| e.to_string());
            assert_eq!(t.check_path(path).err().map(|e| e.to_string()), want);
        }
        assert!(t.check_path(&[mia, sao, ams]).is_ok());
        assert_eq!(
            t.check_path(&[mia]).unwrap_err().to_string(),
            NetsimError::BadPath("need at least two nodes".into()).to_string()
        );
    }

    #[test]
    fn simple3_matches_fig2() {
        let t = simple3(10.0);
        let s = t.node("s").unwrap();
        let d = t.node("d").unwrap();
        let paths = t.k_shortest_paths(s, d, 3);
        let names: Vec<Vec<&str>> = paths
            .iter()
            .map(|p| p.iter().map(|&i| t.node_name(i)).collect())
            .collect();
        // Direct (5 ms) before via-i (6 ms); no third loop-free path.
        assert_eq!(names, vec![vec!["s", "d"], vec!["s", "i", "d"]]);
    }

    #[test]
    fn mesh_scales() {
        let t = mesh(50, 5, 10.0);
        assert_eq!(t.node_count(), 50);
        assert!(t.link_count() >= 50);
        let p = t.shortest_path_by_delay(NodeIdx(0), NodeIdx(25));
        assert!(p.is_some());
    }

    #[test]
    fn port_index_matches_sorted_adjacency_reference() {
        // The prebuilt port table must reproduce the reference numbering:
        // stable-sort the adjacency list by neighbor index, position p is
        // port p + 1.
        let t = mesh(40, 3, 10.0);
        for a in 0..t.node_count() {
            let a = NodeIdx(a as u32);
            let mut reference: Vec<NodeIdx> = t.adj[a.0 as usize].iter().map(|(n, _)| *n).collect();
            reference.sort_by_key(|n| n.0);
            assert_eq!(t.degree(a), reference.len());
            for (p, n) in reference.iter().enumerate() {
                assert_eq!(t.neighbor_by_port(a, (p + 1) as u16), Some(*n));
            }
            for &(n, lid) in t.neighbors(a) {
                let port = t.neighbor_port(a, n).unwrap();
                assert_eq!(t.neighbor_by_port(a, port), Some(n));
                let l = t.link(t.link_between(a, n).unwrap());
                assert!(l.a == a && l.b == n || l.a == n && l.b == a);
                let l = t.link(lid);
                assert!(l.a == a && l.b == n || l.a == n && l.b == a);
            }
            assert_eq!(t.neighbor_by_port(a, 0), None);
            assert_eq!(t.neighbor_by_port(a, (reference.len() + 1) as u16), None);
        }
    }

    #[test]
    fn link_between_skips_failed_but_finds_parallel() {
        // Two parallel links a-b: failing the first must make
        // link_between fall through to the second, in insertion order.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        let l1 = t.add_link(a, b, 10.0, 1.0);
        let l2 = t.add_link(a, b, 20.0, 2.0);
        t.add_link(a, c, 5.0, 1.0);
        assert_eq!(t.link_between(a, b).unwrap(), l1);
        t.link_mut(l1).up = false;
        assert_eq!(t.link_between(a, b).unwrap(), l2);
        t.link_mut(l2).up = false;
        assert!(t.link_between(a, b).is_err());
        // Ports stay physical: both parallel links keep their ports and
        // the degree counts failed links.
        assert_eq!(t.degree(a), 3);
        assert_eq!(t.neighbor_port(a, b), Some(1));
        assert_eq!(t.neighbor_port(a, c), Some(3));
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_node("x", NodeKind::Host);
        t.add_node("x", NodeKind::Host);
    }
}
