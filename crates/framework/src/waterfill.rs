//! Incremental shared-link water-fill: the million-flow control plane.
//!
//! [`crate::optimizer::assign_flows_shared`] recomputes the entire
//! max-min fill on every call: linear in flows plus one sort (a round
//! costs O(links + tunnel hops) plus the flows it freezes), which is
//! fine for a consult but still pays for 100k flows when a tick patches
//! 32 of them. [`SharedWaterfill`] keeps a *standing* max-min solution
//! over a [`SharedLinkModel`] and patches it: flow arrivals, departures,
//! reroutes, demand changes and headroom changes re-water-fill only the
//! affected links' saturation sets.
//!
//! The solver is [`netsim::MaxMinKernel`] — the same kernel the
//! simulator's `netsim::FairShareEngine` runs on — and this module is
//! the thin adapter that speaks the optimizer's vocabulary: a flow sits
//! on a *tunnel*, and a tunnel is the model's list of link indices. The
//! kernel's module docs carry the algorithm and its contract (exact to
//! 1e-6 against the independent oracle, bit-replayable, and — on the
//! models the `incremental_waterfill` proptest draws — bitwise equal to
//! the from-scratch recompute behind [`SharedWaterfill::full_rates`] /
//! [`SharedWaterfill::audit`]).

use crate::optimizer::SharedLinkModel;
use netsim::{MaxMinKernel, WaterfillMetrics, WaterfillStats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A standing incremental max-min solution over a [`SharedLinkModel`].
///
/// Flows are identified by caller-chosen `u64` ids (sorted iteration
/// order is the determinism contract). Tunnels and links are the
/// model's indices; the model's `headroom` seeds the engine's and can
/// be patched per-link afterwards with
/// [`SharedWaterfill::set_headroom`].
#[derive(Debug)]
pub struct SharedWaterfill {
    kernel: MaxMinKernel,
    /// Each tunnel's link list, shared by reference with its flows.
    tunnel_links: Vec<Arc<[usize]>>,
    /// The tunnel each flow sits on.
    tunnel: BTreeMap<u64, usize>,
}

impl SharedWaterfill {
    /// A fresh engine over the model's links and tunnels, no flows yet.
    pub fn new(model: &SharedLinkModel) -> Self {
        SharedWaterfill {
            kernel: MaxMinKernel::new(model.headroom.clone()),
            tunnel_links: model.tunnel_links.iter().map(|l| l[..].into()).collect(),
            tunnel: BTreeMap::new(),
        }
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.kernel.link_count()
    }

    /// Number of tunnels.
    pub fn tunnel_count(&self) -> usize {
        self.tunnel_links.len()
    }

    /// Number of managed flows.
    pub fn flow_count(&self) -> usize {
        self.kernel.flow_count()
    }

    /// Registers a flow on `tunnel`. `demand: None` = greedy.
    /// Re-inserting an existing id replaces it. A demand-limited arrival
    /// onto links that keep spare capacity beyond the demand takes the
    /// kernel's exact fast path and skips the solve.
    ///
    /// # Panics
    /// Panics when `tunnel` is out of range — a wiring bug, like
    /// handing `with_tunnel_caps` the wrong cap count.
    pub fn insert(&mut self, id: u64, tunnel: usize, demand: Option<f64>) {
        let links = self.links_of(tunnel);
        self.kernel.insert(id, links, demand);
        self.tunnel.insert(id, tunnel);
    }

    /// Unregisters a flow, seeding neighbors entitled to grow into the
    /// capacity it releases. A zero-rate departure releases nothing and
    /// skips the solve — the departure fast path.
    pub fn remove(&mut self, id: u64) {
        self.kernel.remove(id);
        self.tunnel.remove(&id);
    }

    /// Reroutes a flow onto a new tunnel, seeding both the release side
    /// and the flow itself.
    ///
    /// # Panics
    /// Panics when `tunnel` is out of range (wiring bug).
    pub fn set_tunnel(&mut self, id: u64, tunnel: usize) {
        let links = self.links_of(tunnel);
        if let Some(cur) = self.tunnel.get_mut(&id) {
            *cur = tunnel;
            self.kernel.set_links(id, links);
        }
    }

    /// Changes a flow's offered load (`None` = greedy).
    pub fn set_demand(&mut self, id: u64, demand: Option<f64>) {
        self.kernel.set_demand(id, demand);
    }

    /// Changes a link's headroom; its member flows re-solve unless the
    /// link is slack before and after (then no rate can move).
    ///
    /// # Panics
    /// Panics when `link` is out of range (wiring bug).
    pub fn set_headroom(&mut self, link: usize, mbps: f64) {
        self.kernel.set_headroom(link, mbps);
    }

    /// Re-solves everything the batched patches since the last resolve
    /// touched, returning `(flow, new rate)` for every flow whose rate
    /// changed — sorted by flow id.
    pub fn resolve(&mut self) -> Vec<(u64, f64)> {
        self.kernel.resolve()
    }

    /// Current rate of a flow.
    pub fn rate(&self, id: u64) -> Option<f64> {
        self.kernel.rate(id)
    }

    /// The tunnel a flow currently sits on (for diff-patching a
    /// standing engine against a freshly decided placement).
    pub fn tunnel_of(&self, id: u64) -> Option<usize> {
        self.tunnel.get(&id).copied()
    }

    /// A flow's current elastic demand (`Some(None)` = present and
    /// greedy, `None` = unknown flow).
    pub fn demand_of(&self, id: u64) -> Option<Option<f64>> {
        self.kernel.demand_of(id)
    }

    /// All `(flow, rate)` pairs, sorted by flow id.
    pub fn rates(&self) -> Vec<(u64, f64)> {
        self.kernel.rates()
    }

    /// The audited fallback: a from-scratch canonical water-fill over
    /// every flow, ignoring (and not touching) the standing solution.
    pub fn full_rates(&self) -> Vec<(u64, f64)> {
        self.kernel.full_rates()
    }

    /// `true` when the standing solution equals the full recompute bit
    /// for bit. Call after [`SharedWaterfill::resolve`].
    pub fn audit(&self) -> bool {
        self.kernel.audit()
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`SharedWaterfill::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.kernel.stats()
    }

    /// The live `obsv` instruments — register under
    /// `framework.waterfill.incremental` via [`WaterfillMetrics::register`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        self.kernel.metrics()
    }

    fn links_of(&self, tunnel: usize) -> Arc<[usize]> {
        assert!(
            tunnel < self.tunnel_links.len(),
            "tunnel index out of range"
        );
        self.tunnel_links[tunnel].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SharedLinkModel;

    /// Two pairs, two tunnels each; tunnels 1 and 2 share link 2.
    fn model() -> SharedLinkModel {
        SharedLinkModel::new(
            vec![20.0, 10.0, 10.0, 20.0, 10.0],
            vec![vec![0], vec![1, 2], vec![2, 3], vec![4]],
            vec![vec![0, 1], vec![2, 3]],
        )
    }

    #[test]
    fn greedy_flows_split_a_shared_link() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 5.0);
        assert_eq!(rates[&2], 5.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_limited_arrival_takes_the_fast_path() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 0, Some(3.0));
        assert_eq!(wf.resolve(), vec![(1, 3.0)]);
        assert_eq!(wf.stats().fast_path_events, 1);
        assert_eq!(wf.stats().incremental_solves + wf.stats().full_solves, 0);
        assert!(wf.audit());
    }

    #[test]
    fn departure_releases_capacity_to_the_level_peers() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.remove(1);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_ramp_patches_in_place() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, Some(2.0));
        wf.insert(2, 2, None);
        wf.resolve();
        assert_eq!(wf.rate(1), Some(2.0));
        assert_eq!(wf.rate(2), Some(8.0));
        // Ramp the mouse up: now both contend for link 2's 10 Mb/s.
        wf.set_demand(1, Some(6.0));
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 5.0);
        assert_eq!(rates[&2], 5.0);
        assert!(wf.audit());
        // Ramp back down: peer reclaims the release.
        wf.set_demand(1, Some(1.0));
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 1.0);
        assert_eq!(rates[&2], 9.0);
        assert!(wf.audit());
    }

    #[test]
    fn reroute_moves_the_contention() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.set_tunnel(1, 0);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 20.0);
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn headroom_change_reflows_members() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.set_headroom(2, 4.0);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 2.0);
        assert_eq!(rates[&2], 2.0);
        assert!(wf.audit());
    }

    #[test]
    fn no_link_is_oversubscribed() {
        let mut wf = SharedWaterfill::new(&model());
        for id in 0..12u64 {
            wf.insert(
                id,
                (id % 4) as usize,
                if id % 3 == 0 { None } else { Some(1.5) },
            );
        }
        wf.resolve();
        let mut used = [0.0f64; 5];
        for (id, r) in wf.rates() {
            for &l in &model().tunnel_links[(id % 4) as usize] {
                used[l] += r;
            }
        }
        for (l, u) in used.iter().enumerate() {
            assert!(
                *u <= model().headroom[l] + 1e-6,
                "link {l} oversubscribed: {u}"
            );
        }
        assert!(wf.audit());
    }

    #[test]
    fn slot_recycling_survives_churn() {
        // Arena slots are recycled through the free list; a departing
        // id must never alias a survivor's rate or membership.
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.remove(1);
        wf.insert(3, 1, Some(2.0));
        wf.resolve();
        assert_eq!(wf.rate(1), None);
        assert_eq!(wf.rate(3), Some(2.0));
        assert_eq!(wf.tunnel_of(3), Some(1));
        assert_eq!(wf.flow_count(), 2);
        assert!(wf.audit());
    }
}
