//! The one incremental max-min kernel: a *standing* max-min fair
//! allocation over dense link indices `0..L`, patched in place.
//!
//! Flows are caller-chosen `u64` ids that each own the list of links
//! they cross; links are plain indices with a headroom in Mbps. What a
//! link *is* belongs to the adapter: [`crate::FairShareEngine`] maps the
//! simulator's directed links onto indices, `framework::SharedWaterfill`
//! maps the optimizer's tunnels onto link lists. Patches (arrival,
//! departure, reroute, demand change, headroom change) are batched into
//! [`MaxMinKernel::resolve`], which re-water-fills only the *affected
//! component*: the patched flows, the at-level peers of every saturated
//! link they touch, and — iteratively — any outside flow whose pinned
//! rate the restricted solve would invalidate. When no outside flow
//! triggers, the Bertsekas–Gallager certificate (every flow that is not
//! demand-capped has a saturated link where its rate is maximal) still
//! holds for everyone untouched, so the fixpoint is the full solution.
//! The from-scratch recompute stays available as the audited fallback
//! ([`MaxMinKernel::full_rates`] / [`MaxMinKernel::audit`]).
//!
//! # The contract
//!
//! * **Exact.** After every resolve the standing rates equal the
//!   independent progressive-filling oracle
//!   ([`crate::fairness::max_min_allocation`]) to 1e-6 — pinned by the
//!   `incremental_fairness` proptest.
//! * **Bit-replayable.** Members are walked in flow-id order and ties
//!   break to the smallest link index, so the same patch sequence yields
//!   the same bits on every run.
//! * **Canonical.** Per-round link shares are computed fresh as
//!   `(headroom − Σ determined member rates) / active count`, the sum
//!   taken over the link's full member list in flow-id order — never by
//!   decrementing a running residual — so a rate is a function of the
//!   saturation structure, not of how the solver got there. (The fill
//!   caches each link's share between rounds and re-sums only when a
//!   member froze; a cache hit returns the bits the re-summation would.
//!   Likewise the Σ member rates behind each link's residual gate is
//!   cached as the sum of its member list's first `k` entries: `f64`
//!   summation is a sequential left fold, so extending that sum by the
//!   members past `k` yields the bits of a fresh id-order sum, and only
//!   a patch inside the prefix forces a full re-sum. A debug build
//!   checks every read against the fresh sum.)
//!   Where the arithmetic is tie-free this makes incremental ≡ recompute
//!   **bitwise** — asserted by `framework`'s `incremental_waterfill`
//!   proptest through `audit()`. It is not a guarantee everywhere: on
//!   integer-capacity meshes two equally valid freeze orders can differ
//!   in the last ulp (3.8 vs 3.8000000000000007).
//!
//! At-level tests allow 1e-9 Mbps: three flows on a 10 Mbps link sit at
//! `10/3` and `10 − 2·(10/3)`, one ulp apart, and are the same water
//! level. Over-seeding is always safe — a larger component is still
//! solved exactly and checked by the scan. Fast paths (a demand-limited
//! arrival under slack links, a zero-rate departure, a headroom change
//! on a link that stays slack) skip the solve; they are exact because
//! the skipped solve would assign the same bits.
//!
//! # Why arrays, not maps
//!
//! A backbone link carries thousands of members and every solve walks
//! the touched links' full member lists. So flows live in a dense slot
//! arena (`ids: id → slot` is consulted once per *patch*, never per
//! member visit), each link's members are a flow-id-sorted
//! `Vec<(id, slot)>` — the canonical order is the `Vec` order, every
//! walk is contiguous — and the solver indexes its per-solve state
//! through reusable slot- and link-indexed scratch. A new flow takes
//! the largest id, so it lands at the end of each member list, past the
//! folded prefix of the link's cached sum: an arrival's fast-path check
//! adds its predecessors' new terms instead of re-summing a trunk's
//! thousands of members.
//!
//! The batch lists are arrays too. The flows the next resolve starts
//! from (`seeds`) and the flows whose rate moved since the last one
//! (`changed`, with the rate each held before its first write) are
//! `Vec`s in patch order, and each flow carries its position in each
//! list as a mark, so adding a flow twice is one load and a departure
//! voids its pending entries by zeroing two marks. `resolve` keeps the
//! entries their flows still point at and sorts them by id once —
//! the order and the first-write-wins semantics of the sorted maps they
//! replace.
//!
//! A fill allocates nothing in steady state. Its per-position state
//! (rates, frozen flags, demands), the touched links and every touched
//! link's members live in one reusable scratch, the members as one flat
//! list of indices into the rate array (inside members by position,
//! outside members at their pinned rate past the end), so a link's
//! canonical re-summation is one branch-free walk: an undetermined
//! member's entry is `+0.0`, and adding it leaves the sum's bits as
//! skipping it did. A buffer past 64 KiB is released after the solve,
//! so a full solve's size is not kept.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Saturation / slack tolerance in Mbps: a link with more residual than
/// this constrains nobody, and rates within it are the same water level.
/// Never applied to a committed rate.
const EPS: f64 = 1e-9;

/// Restricted-solve iterations before escalating to the full flow set.
const MAX_EXPANSIONS: usize = 8;

/// Demand-limited freeze tolerance inside the fill, identical to the
/// oracle's freeze test so both describe the same structure.
const DEMAND_TOL: f64 = 1e-12;

/// Audit counters for the incremental allocator: how often the
/// restricted solve sufficed versus escalating to a full water-fill.
///
/// This is a point-in-time *snapshot* of [`WaterfillMetrics`] — the
/// live storage is `obsv` counters, shared with any attached metrics
/// registry; this plain struct remains the stable accessor type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaterfillStats {
    /// Restricted (component-local) solves that converged.
    pub incremental_solves: u64,
    /// Solves that escalated to the full flow set (audited fallback).
    pub full_solves: u64,
    /// Component-expansion iterations across all solves.
    pub expansions: u64,
    /// Events absorbed with no water-fill at all (e.g. a demand-limited
    /// arrival onto links with spare capacity).
    pub fast_path_events: u64,
}

/// The live audit instruments behind [`WaterfillStats`]: `obsv`
/// counters, so a scenario's metrics registry can watch the allocator
/// without the engine knowing about snapshots or epochs.
#[derive(Debug, Clone, Default)]
pub struct WaterfillMetrics {
    /// Restricted solves that converged.
    pub incremental_solves: obsv::Counter,
    /// Escalations to the full flow set.
    pub full_solves: obsv::Counter,
    /// Component-expansion iterations.
    pub expansions: obsv::Counter,
    /// Events absorbed with no water-fill.
    pub fast_path_events: obsv::Counter,
}

impl WaterfillMetrics {
    /// Current values as a plain struct.
    pub fn snapshot(&self) -> WaterfillStats {
        WaterfillStats {
            incremental_solves: self.incremental_solves.get(),
            full_solves: self.full_solves.get(),
            expansions: self.expansions.get(),
            fast_path_events: self.fast_path_events.get(),
        }
    }

    /// Exposes the live counters in `registry` under
    /// `{prefix}.{field}` (e.g. `netsim.waterfill.expansions`).
    pub fn register(&self, registry: &obsv::Registry, prefix: &str) {
        registry.adopt_counter(
            &format!("{prefix}.incremental_solves"),
            &self.incremental_solves,
        );
        registry.adopt_counter(&format!("{prefix}.full_solves"), &self.full_solves);
        registry.adopt_counter(&format!("{prefix}.expansions"), &self.expansions);
        registry.adopt_counter(
            &format!("{prefix}.fast_path_events"),
            &self.fast_path_events,
        );
    }
}

#[derive(Debug)]
struct Flow {
    /// Shared by reference: the optimizer's flows on one tunnel all
    /// point at that tunnel's list, so a 100k-flow walk stays in cache.
    links: Arc<[usize]>,
    demand: Option<f64>,
    rate: f64,
    /// 1 + this flow's position in the kernel's `seeds` list, 0 when it
    /// is not seeded: an entry counts only while its slot points back
    /// at it, so a departure voids its entry by zeroing the mark.
    seed_at: u32,
    /// The same for the `changed` list.
    changed_at: u32,
}

impl Flow {
    /// Exact at-demand test: demand-limited freezes assign exactly `d`,
    /// so bitwise `>=` is the canonical membership test.
    fn at_demand(&self) -> bool {
        self.demand.is_some_and(|d| self.rate >= d)
    }
}

/// The solver's reusable per-solve state, sized to the largest solve so
/// far and cleared (not freed) between solves — except that a buffer
/// past [`KEEP_BYTES`] is released, so one large solve does not pin its
/// memory for the kernel's lifetime.
///
/// `flow_pos` (slot → position in the current fill's order) and
/// `link_pos` (link → position in its touched-link list) are `-1`
/// outside, so membership tests in the hot loops are indexed loads, not
/// map probes; a fill sets the entries it needs on entry and resets
/// them on exit. The rest is what one fill produced.
#[derive(Debug, Default)]
struct Scratch {
    flow_pos: Vec<i32>,
    link_pos: Vec<i32>,
    /// Size of the solved set.
    n: usize,
    /// Rates by order position (`0..n`: `+0.0` until frozen, then the
    /// frozen rate), then the pinned rate of each outside member entry
    /// of a touched link. Every member entry reads its rate here.
    rates: Vec<f64>,
    frozen: Vec<bool>,
    /// Demands by position (greedy = ∞), so the per-round
    /// demand-limited scan is one contiguous pass.
    demand: Vec<f64>,
    froze: Vec<usize>,
    links: Vec<LinkState>,
    /// Every touched link's members in flow-id order, one flat list
    /// each [`LinkState`] owns a range of: the member's index in
    /// `rates` (`< n`: inside the solved set, by position; `≥ n`:
    /// outside).
    mem: Vec<u32>,
    /// The solved set's slots, in flow-id order.
    order: Vec<u32>,
    /// Outside flows the expansion scan pulls in.
    joins: Vec<(u64, u32)>,
}

/// Bytes a reusable buffer ([`Scratch`]'s, the batch lists) may keep
/// between solves.
const KEEP_BYTES: usize = 1 << 16;

/// Releases `v`'s storage when it grew past [`KEEP_BYTES`].
pub(crate) fn trim<T>(v: &mut Vec<T>) {
    let keep = KEEP_BYTES / std::mem::size_of::<T>().max(1);
    if v.capacity() > keep {
        v.clear();
        v.shrink_to(keep);
    }
}

/// Appends `entry` to a batch list unless its flow is already on it;
/// `at` is the flow's mark (1 + its entry's position, 0 = none), so an
/// entry stays live only while its flow's mark points back at it.
fn push_once<T>(list: &mut Vec<T>, at: &mut u32, entry: T) {
    if *at == 0 {
        list.push(entry);
        *at = list.len() as u32;
    }
}

/// Keeps the live entries of a batch list, in order: `take(entry, at)`
/// is [`take_mark`] on the entry's flow's mark, `at` the entry's
/// 1-based position.
fn retain_live<T: Copy>(list: &mut Vec<T>, mut take: impl FnMut(T, u32) -> bool) {
    let mut kept = 0;
    for i in 0..list.len() {
        let e = list[i];
        if take(e, i as u32 + 1) {
            list[kept] = e;
            kept += 1;
        }
    }
    list.truncate(kept);
}

/// `true` when `mark` points at position `at`, zeroing it: the entry
/// there is live and leaves the list.
fn take_mark(mark: &mut u32, at: u32) -> bool {
    let live = *mark == at;
    if live {
        *mark = 0;
    }
    live
}

impl Scratch {
    /// Releases any buffer past [`KEEP_BYTES`].
    fn trim(&mut self) {
        trim(&mut self.rates);
        trim(&mut self.frozen);
        trim(&mut self.demand);
        trim(&mut self.froze);
        trim(&mut self.links);
        trim(&mut self.mem);
        trim(&mut self.order);
        trim(&mut self.joins);
    }
}

/// One touched link's state through a fill, plus what the expansion
/// scan needs afterwards.
#[derive(Debug)]
struct LinkState {
    link: usize,
    /// Its members: `Scratch::mem[mem.0..mem.1]`, parallel to the
    /// kernel's member list.
    mem: (usize, usize),
    /// Cached canonical share `(headroom − Σ determined rates) / active`
    /// for the current frozen state; recomputed when `dirty`.
    share: f64,
    /// Undetermined members (entries), decremented as they freeze.
    active: usize,
    dirty: bool,
    /// Pre-solve Σ member rates (id order) and water-level anchor (max
    /// member rate), collected in the walk that classified the members.
    pre_used: f64,
    pre_max: f64,
    /// The share this link froze its members at, if a round picked it.
    picked: Option<f64>,
    /// Σ (new − old) over the solved members: the O(comp) overload gate.
    delta: f64,
}

/// A standing incremental max-min solution over `L` links.
#[derive(Debug)]
pub struct MaxMinKernel {
    headroom: Vec<f64>,
    /// Flow id → arena slot; the only per-patch map lookup.
    ids: BTreeMap<u64, u32>,
    /// Dense flow arena; freed slots are recycled via `free`.
    slots: Vec<Flow>,
    free: Vec<u32>,
    /// Per link: `(id, slot)` members sorted by flow id.
    members: Vec<Vec<(u64, u32)>>,
    /// Flows (with their slots) the next resolve starts from, in seeding
    /// order; an entry counts while its flow's `seed_at` points at it.
    /// `resolve` drops the void ones and sorts the rest by id.
    seeds: Vec<(u64, u32)>,
    /// Flows whose rate was written since the last resolve, with their
    /// slot and the rate they held before the first write (the entry
    /// its flow's `changed_at` points at; a departure voids it).
    changed: Vec<(u64, u32, f64)>,
    /// Per link: Σ rates of its first `used_folded` members (flow-id
    /// order), for the O(1) residual gates. A read folds in the members
    /// past the prefix; a patch inside the prefix drops it.
    used_cache: Vec<f64>,
    used_folded: Vec<usize>,
    scratch: Scratch,
    stats: WaterfillMetrics,
}

impl MaxMinKernel {
    /// A fresh kernel over links `0..headroom.len()`, no flows yet.
    pub fn new(headroom: Vec<f64>) -> Self {
        let links = headroom.len();
        MaxMinKernel {
            headroom,
            ids: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            members: vec![Vec::new(); links],
            seeds: Vec::new(),
            changed: Vec::new(),
            used_cache: vec![0.0; links],
            used_folded: vec![0; links],
            scratch: Scratch::default(),
            stats: WaterfillMetrics::default(),
        }
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.headroom.len()
    }

    /// Appends a link (index = the previous [`Self::link_count`]).
    pub fn push_link(&mut self, mbps: f64) {
        self.headroom.push(mbps);
        self.members.push(Vec::new());
        self.used_cache.push(0.0);
        self.used_folded.push(0);
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.ids.len()
    }

    /// Registers a flow over `links`. `demand: None` = greedy; a flow
    /// with no links is rated at its demand. Re-inserting an existing id
    /// replaces it.
    ///
    /// Fast path, proven exact by the max-min certificate: a
    /// demand-limited arrival whose every link keeps spare capacity
    /// beyond the demand saturates nothing, so no other flow's
    /// certificate link changes and the arrival's own rate is exactly
    /// its demand — the same bits a solve would assign.
    ///
    /// # Panics
    /// Panics when a link index is out of range (adapter wiring bug).
    pub fn insert(&mut self, id: u64, links: impl Into<Arc<[usize]>>, demand: Option<f64>) {
        let links = links.into();
        self.check_links(&links);
        self.remove(id);
        let fast = demand.filter(|&d| links.iter().all(|&l| self.residual(l) > d + EPS));
        let flow = Flow {
            links,
            demand,
            rate: 0.0,
            seed_at: 0,
            changed_at: 0,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = flow;
                s
            }
            None => {
                self.slots.push(flow);
                (self.slots.len() - 1) as u32
            }
        };
        self.ids.insert(id, slot);
        match fast {
            Some(d) => {
                self.stats.fast_path_events.inc();
                self.set_rate(id, slot, d);
            }
            None => {
                // Pre-seed the squeeze: an arrival that will contend on
                // a saturated link pulls that link's at-level peers into
                // the same solve, so the restricted solve converges
                // without an expansion iteration discovering them.
                self.level_seeds(slot, id);
                self.seed(id, slot);
            }
        }
        self.attach(id, slot);
    }

    /// Unregisters a flow, seeding neighbors entitled to grow into the
    /// capacity it releases. A zero-rate departure releases nothing and
    /// skips the solve — the departure fast path.
    pub fn remove(&mut self, id: u64) {
        let Some(slot) = self.ids.remove(&id) else {
            return;
        };
        if self.slots[slot as usize].rate > 0.0 {
            self.level_seeds(slot, id);
        } else {
            self.stats.fast_path_events.inc();
        }
        self.detach(id, slot);
        self.free.push(slot);
        // Void its pending seed and change entries.
        let f = &mut self.slots[slot as usize];
        (f.seed_at, f.changed_at) = (0, 0);
    }

    /// Reroutes a flow onto a new link list, seeding the release side,
    /// the landing side's at-level peers (the arrival squeeze, as on a
    /// fresh insert) and the flow itself. An unchanged list is a no-op.
    ///
    /// # Panics
    /// Panics when a link index is out of range (adapter wiring bug).
    pub fn set_links(&mut self, id: u64, links: impl Into<Arc<[usize]>>) {
        let links = links.into();
        self.check_links(&links);
        let Some(&slot) = self.ids.get(&id) else {
            return;
        };
        if self.slots[slot as usize].links == links {
            return;
        }
        if self.slots[slot as usize].rate > 0.0 {
            self.level_seeds(slot, id);
        }
        self.detach(id, slot);
        self.slots[slot as usize].links = links;
        self.set_rate(id, slot, 0.0);
        self.level_seeds(slot, id);
        self.attach(id, slot);
        self.seed(id, slot);
    }

    /// Changes a flow's offered load (`None` = greedy). Both directions
    /// seed the flow's saturated links' at-level peers: shrinking below
    /// the current rate releases capacity they are entitled to grow
    /// into, growing squeezes them — either way they belong in the same
    /// restricted solve.
    pub fn set_demand(&mut self, id: u64, demand: Option<f64>) {
        let Some(&slot) = self.ids.get(&id) else {
            return;
        };
        if self.slots[slot as usize].demand == demand {
            return;
        }
        self.level_seeds(slot, id);
        self.slots[slot as usize].demand = demand;
        self.seed(id, slot);
    }

    /// Changes a link's headroom; its member flows re-solve — unless the
    /// link is slack (residual `> EPS`) both before and after: no
    /// member's bottleneck is there, so by the max-min certificate no
    /// rate moves and nobody is seeded.
    ///
    /// # Panics
    /// Panics when `link` is out of range (adapter wiring bug).
    pub fn set_headroom(&mut self, link: usize, mbps: f64) {
        assert!(link < self.headroom.len(), "link index out of range");
        if self.headroom[link] == mbps {
            return;
        }
        let was_slack = self.residual(link) > EPS;
        self.headroom[link] = mbps;
        if was_slack && self.residual(link) > EPS {
            return;
        }
        for &(m, s) in &self.members[link] {
            push_once(&mut self.seeds, &mut self.slots[s as usize].seed_at, (m, s));
        }
    }

    /// Re-solves everything the batched patches since the last resolve
    /// touched, returning `(flow, new rate)` for every flow whose rate
    /// changed — sorted by flow id.
    pub fn resolve(&mut self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        self.resolve_into(&mut out);
        out
    }

    /// [`Self::resolve`] into a caller-held buffer (cleared first), so a
    /// caller that resolves once per event batch allocates nothing.
    pub(crate) fn resolve_into(&mut self, out: &mut Vec<(u64, f64)>) {
        out.clear();
        let mut comp = std::mem::take(&mut self.seeds);
        let slots = &mut self.slots;
        retain_live(&mut comp, |(_, s), at| {
            take_mark(&mut slots[s as usize].seed_at, at)
        });
        comp.sort_unstable_by_key(|&(id, _)| id);
        if !comp.is_empty() {
            self.solve(&mut comp);
        }
        comp.clear();
        trim(&mut comp);
        self.seeds = comp;
        let mut changed = std::mem::take(&mut self.changed);
        let slots = &mut self.slots;
        retain_live(&mut changed, |(_, s, _), at| {
            take_mark(&mut slots[s as usize].changed_at, at)
        });
        changed.sort_unstable_by_key(|&(id, _, _)| id);
        out.extend(changed.iter().filter_map(|&(id, slot, was)| {
            let now = self.slots[slot as usize].rate;
            (now != was).then_some((id, now))
        }));
        changed.clear();
        trim(&mut changed);
        self.changed = changed;
    }

    /// Current rate of a flow.
    pub fn rate(&self, id: u64) -> Option<f64> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].rate)
    }

    /// A flow's current elastic demand (`Some(None)` = present and
    /// greedy, `None` = unknown flow).
    pub fn demand_of(&self, id: u64) -> Option<Option<f64>> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].demand)
    }

    /// All `(flow, rate)` pairs, sorted by flow id.
    pub fn rates(&self) -> Vec<(u64, f64)> {
        self.ids
            .iter()
            .map(|(id, &s)| (*id, self.slots[s as usize].rate))
            .collect()
    }

    /// The audited fallback: a from-scratch canonical water-fill over
    /// every flow, ignoring (and not touching) the standing solution.
    pub fn full_rates(&self) -> Vec<(u64, f64)> {
        let order_slots: Vec<u32> = self.ids.values().copied().collect();
        let mut scratch = Scratch::default();
        self.fill(&order_slots, &mut scratch);
        self.ids.keys().copied().zip(scratch.rates).collect()
    }

    /// `true` when the standing solution equals the full recompute bit
    /// for bit. Call after [`MaxMinKernel::resolve`].
    pub fn audit(&self) -> bool {
        self.rates()
            .into_iter()
            .zip(self.full_rates())
            .all(|((ia, ra), (ib, rb))| ia == ib && ra.to_bits() == rb.to_bits())
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`MaxMinKernel::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.stats.snapshot()
    }

    /// The live `obsv` instruments behind [`MaxMinKernel::stats`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        &self.stats
    }

    fn check_links(&self, links: &[usize]) {
        assert!(
            links.iter().all(|&l| l < self.headroom.len()),
            "link index out of range"
        );
    }

    /// Writes a flow's rate, remembering what it held at the last
    /// resolve so the change list reports net changes only.
    fn set_rate(&mut self, id: u64, slot: u32, rate: f64) {
        let f = &mut self.slots[slot as usize];
        if f.rate != rate {
            let was = f.rate;
            push_once(&mut self.changed, &mut f.changed_at, (id, slot, was));
            f.rate = rate;
            for &l in f.links.iter() {
                Self::unfold(&mut self.used_folded[l], &self.members[l], id);
            }
        }
    }

    /// Drops a link's folded sum (`folded`, its prefix length over
    /// `members`) when member `id` is, or would be inserted, inside the
    /// prefix. A flow
    /// past the prefix keeps the fold: the next read adds only the new
    /// terms. That covers the flow `insert` and `set_links` rate before
    /// attaching: its id is not a member yet, and a largest id lands
    /// past every prefix.
    fn unfold(folded: &mut usize, members: &[(u64, u32)], id: u64) {
        if *folded > 0 && id <= members[*folded - 1].0 {
            *folded = 0;
        }
    }

    fn attach(&mut self, id: u64, slot: u32) {
        for &l in self.slots[slot as usize].links.iter() {
            let mem = &mut self.members[l];
            Self::unfold(&mut self.used_folded[l], mem, id);
            let pos = mem.partition_point(|&(m, _)| m < id);
            mem.insert(pos, (id, slot));
        }
    }

    fn detach(&mut self, id: u64, slot: u32) {
        for &l in self.slots[slot as usize].links.iter() {
            let mem = &mut self.members[l];
            if let Ok(pos) = mem.binary_search_by_key(&id, |&(m, _)| m) {
                Self::unfold(&mut self.used_folded[l], mem, id);
                mem.remove(pos);
            }
        }
    }

    /// Remaining capacity of `link` under current rates. Canonical on
    /// every read: the cached sum is the full member sum in id order,
    /// bit for bit, because `f64` summation is a sequential left fold —
    /// extending the fold of a prefix by the members past it adds the
    /// same terms in the same order as re-summing them all.
    fn residual(&mut self, link: usize) -> f64 {
        let mem = &self.members[link];
        let rate = |&(_, s): &(u64, u32)| self.slots[s as usize].rate;
        let folded = self.used_folded[link];
        if folded == 0 {
            self.used_cache[link] = mem.iter().map(rate).sum();
        } else if folded < mem.len() {
            self.used_cache[link] = mem[folded..]
                .iter()
                .map(rate)
                .fold(self.used_cache[link], |a, r| a + r);
        }
        self.used_folded[link] = mem.len();
        debug_assert_eq!(
            self.used_cache[link].to_bits(),
            mem.iter().map(rate).sum::<f64>().to_bits(),
            "link {link}'s folded sum went stale"
        );
        self.headroom[link] - self.used_cache[link]
    }

    /// Seeds the at-level members of each saturated link of `slot`'s
    /// flow (excluding `skip`) — the flows a patch at that link squeezes
    /// or releases, depending on the direction of the change.
    /// Unsaturated links constrain nobody and skip through.
    fn level_seeds(&mut self, slot: u32, skip: u64) {
        for k in 0..self.slots[slot as usize].links.len() {
            let l = self.slots[slot as usize].links[k];
            if self.residual(l) > EPS {
                continue;
            }
            let rate_of = |&(_, s): &(u64, u32)| self.slots[s as usize].rate;
            let level = self.members[l]
                .iter()
                .map(rate_of)
                .fold(f64::NEG_INFINITY, f64::max);
            for &(m, s) in &self.members[l] {
                let mf = &mut self.slots[s as usize];
                if m != skip && !mf.at_demand() && mf.rate >= level - EPS {
                    push_once(&mut self.seeds, &mut mf.seed_at, (m, s));
                }
            }
        }
    }

    /// Adds a flow to the next resolve's seeds (once).
    fn seed(&mut self, id: u64, slot: u32) {
        push_once(
            &mut self.seeds,
            &mut self.slots[slot as usize].seed_at,
            (id, slot),
        );
    }

    /// Solves `comp` (id-sorted `(id, slot)`, no repeats), growing it
    /// by the expansion scan's joins until no outside flow triggers or
    /// it escalates to every flow, then commits its rates.
    fn solve(&mut self, comp: &mut Vec<(u64, u32)>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut order = std::mem::take(&mut scratch.order);
        let mut iterations = 0usize;
        loop {
            let full = iterations >= MAX_EXPANSIONS || comp.len() * 2 > self.ids.len();
            if full {
                comp.clear();
                comp.extend(self.ids.iter().map(|(&id, &slot)| (id, slot)));
            }
            order.clear();
            order.extend(comp.iter().map(|&(_, slot)| slot));
            self.fill(&order, &mut scratch);
            if !full {
                self.invalidated(&mut scratch);
            }
            if full || scratch.joins.is_empty() {
                if full {
                    self.stats.full_solves.inc();
                } else {
                    self.stats.incremental_solves.inc();
                }
                for (&(id, slot), &rate) in comp.iter().zip(&scratch.rates) {
                    self.set_rate(id, slot, rate);
                }
                break;
            }
            self.stats.expansions.inc();
            comp.extend_from_slice(&scratch.joins);
            comp.sort_unstable_by_key(|&(id, _)| id);
            comp.dedup_by_key(|&mut (id, _)| id);
            iterations += 1;
        }
        scratch.order = order;
        scratch.trim();
        self.scratch = scratch;
    }

    /// The expansion scan: every outside member of a touched link whose
    /// pinned rate differs from what the full recompute would assign at
    /// that link. Slack links (no pre-solve saturation, not picked)
    /// classify nobody and skip without a member walk — backbone trunks
    /// with headroom never pay it. The joins land in `scratch.joins`
    /// (in scan order, possibly repeated).
    fn invalidated(&self, scratch: &mut Scratch) {
        let Scratch {
            n,
            rates,
            links,
            mem,
            joins,
            ..
        } = scratch;
        let n = *n;
        joins.clear();
        for ls in links.iter() {
            let members = &self.members[ls.link];
            let lmem = &mem[ls.mem.0..ls.mem.1];
            let headroom = self.headroom[ls.link];
            let outside = |(&(m, s), &v): (&(u64, u32), &u32)| {
                (v as usize >= n).then(|| (m, s, rates[v as usize]))
            };
            if headroom - (ls.pre_used + ls.delta) < -EPS {
                // Overload safety net: pull everyone in.
                joins.extend(
                    members
                        .iter()
                        .zip(lmem)
                        .filter_map(outside)
                        .map(|(m, s, _)| (m, s)),
                );
                continue;
            }
            // Level anchor: the *lower* of the pre-solve level and this
            // solve's picked level, so both squeezed (level fell) and
            // lifted (level rose) members classify as at-level.
            let saturated = !members.is_empty() && headroom - ls.pre_used <= EPS;
            let level = match (saturated.then_some(ls.pre_max), ls.picked) {
                (Some(p), Some(n)) => p.min(n),
                (Some(l), None) | (None, Some(l)) => l,
                (None, None) => continue,
            };
            let at_level = |s: u32, r: f64| {
                !self.slots[s as usize].demand.is_some_and(|d| r >= d) && r >= level - EPS
            };
            // Canonical joint level over the at-level members — the
            // share a full recompute computes when it picks this link
            // as a bottleneck.
            let mut below_sum = 0.0;
            let mut count = 0usize;
            for (&(_, s), &v) in members.iter().zip(lmem) {
                let r = rates[v as usize];
                if at_level(s, r) {
                    count += 1;
                } else {
                    below_sum += r;
                }
            }
            if count == 0 {
                continue;
            }
            let joint = (headroom - below_sum).max(0.0) / count as f64;
            let lam_mismatch = ls.picked.is_some_and(|lam| lam != joint);
            for (m, s, r) in members.iter().zip(lmem).filter_map(outside) {
                if r > joint || (at_level(s, r) && (joint != r || lam_mismatch)) {
                    joins.push((m, s));
                }
            }
        }
    }

    /// The canonical water-fill restricted to `order_slots` (flow-id
    /// order; every other flow's rate is pinned): global demand-limited
    /// freezing first, otherwise the bottleneck link's active members
    /// freeze at the minimum share, ties to the smallest link index.
    /// Between rounds each link's `(used, active)` is cached and
    /// re-summed only when one of its members froze, which is
    /// bit-identical to re-summing every round (no member state changed
    /// means the same walk yields the same bits) and turns the
    /// per-round cost from O(all touched members) into O(members of
    /// links whose state moved). The result is `scratch`'s `rates`,
    /// `links` and `mem`.
    fn fill(&self, order_slots: &[u32], scratch: &mut Scratch) {
        let n = order_slots.len();
        let Scratch {
            flow_pos,
            link_pos,
            n: in_set,
            rates,
            frozen,
            demand,
            froze,
            links,
            mem,
            ..
        } = scratch;
        if flow_pos.len() < self.slots.len() {
            flow_pos.resize(self.slots.len(), -1);
        }
        if link_pos.len() < self.headroom.len() {
            link_pos.resize(self.headroom.len(), -1);
        }
        for (i, &s) in order_slots.iter().enumerate() {
            flow_pos[s as usize] = i as i32;
        }
        *in_set = n;
        rates.clear();
        rates.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        demand.clear();
        demand.resize(n, f64::INFINITY);
        links.clear();
        mem.clear();
        for (i, &slot) in order_slots.iter().enumerate() {
            let f = &self.slots[slot as usize];
            demand[i] = f.demand.unwrap_or(f64::INFINITY);
            if f.links.is_empty() {
                frozen[i] = true;
                rates[i] = f.demand.unwrap_or(0.0);
            }
            for &l in f.links.iter() {
                if link_pos[l] >= 0 {
                    continue;
                }
                link_pos[l] = links.len() as i32;
                // One fused walk per link: member classification plus
                // the pre-solve canonical Σ rates and water level the
                // expansion scan anchors on.
                let mut pre_used = 0.0f64;
                let mut pre_max = f64::NEG_INFINITY;
                let mut active = 0;
                let start = mem.len();
                for &(_, s) in &self.members[l] {
                    let r = self.slots[s as usize].rate;
                    pre_used += r;
                    pre_max = pre_max.max(r);
                    match flow_pos[s as usize] {
                        p if p >= 0 => {
                            mem.push(p as u32);
                            active += 1;
                        }
                        _ => {
                            mem.push(rates.len() as u32);
                            rates.push(r);
                        }
                    }
                }
                links.push(LinkState {
                    link: l,
                    mem: (start, mem.len()),
                    share: 0.0,
                    active,
                    dirty: true,
                    pre_used,
                    pre_max,
                    picked: None,
                    delta: 0.0,
                });
            }
        }
        let mut unfrozen = frozen.iter().filter(|f| !**f).count();
        for _round in 0..n + links.len() + 1 {
            if unfrozen == 0 {
                break;
            }
            // (share, link index, position in `links`) of the bottleneck.
            let mut min: Option<(f64, usize, usize)> = None;
            for (k, ls) in links.iter_mut().enumerate() {
                if ls.active == 0 {
                    continue;
                }
                if ls.dirty {
                    // The canonical full re-summation, id order. An
                    // undetermined member's entry is still its initial
                    // +0.0, and adding +0.0 to a sum that starts at +0.0
                    // leaves every bit as skipping it would.
                    let mut used = 0.0;
                    for &v in &mem[ls.mem.0..ls.mem.1] {
                        used += rates[v as usize];
                    }
                    ls.share = (self.headroom[ls.link] - used).max(0.0) / ls.active as f64;
                    ls.dirty = false;
                }
                let share = ls.share;
                if min.is_none_or(|(s, l, _)| share < s || (share == s && ls.link < l)) {
                    min = Some((share, ls.link, k));
                }
            }
            let Some((min_share, _, bottleneck)) = min else {
                break;
            };
            froze.clear();
            for i in 0..n {
                if !frozen[i] && demand[i] <= min_share + DEMAND_TOL {
                    frozen[i] = true;
                    rates[i] = demand[i];
                    froze.push(i);
                }
            }
            if froze.is_empty() {
                let ls = &mut links[bottleneck];
                ls.picked = Some(min_share);
                for &v in &mem[ls.mem.0..ls.mem.1] {
                    let pos = v as usize;
                    if pos < n && !frozen[pos] {
                        frozen[pos] = true;
                        rates[pos] = min_share;
                        froze.push(pos);
                    }
                }
            }
            unfrozen -= froze.len();
            for &i in froze.iter() {
                let f = &self.slots[order_slots[i] as usize];
                for &l in f.links.iter() {
                    let ls = &mut links[link_pos[l] as usize];
                    ls.dirty = true;
                    ls.active -= 1;
                    ls.delta += rates[i] - f.rate;
                }
            }
        }
        for &s in order_slots {
            flow_pos[s as usize] = -1;
        }
        for ls in links.iter() {
            link_pos[ls.link] = -1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flow `id` crosses `links`; link 2 is the shared one.
    fn kernel() -> MaxMinKernel {
        MaxMinKernel::new(vec![20.0, 10.0, 10.0, 20.0])
    }

    #[test]
    fn thirds_of_a_whole_number_link_are_one_water_level() {
        // Two flows capped at 10/3 = 3.3333333333333335 leave a greedy
        // third 10 − 2·(10/3) = 3.333333333333333, one ulp under. Once
        // the caps lift all three sit at one water level, and the one
        // an ulp under must still be seeded when a peer leaves — or it
        // is stranded at a third of the link.
        let mut k = MaxMinKernel::new(vec![10.0]);
        k.insert(1, [0], Some(10.0 / 3.0));
        k.insert(2, [0], Some(10.0 / 3.0));
        k.insert(3, [0], None);
        k.resolve();
        assert!(k.rate(3) < k.rate(1));
        k.insert(4, [], None); // keeps a one-flow component restricted
        k.insert(5, [], None);
        k.set_demand(1, None);
        k.resolve();
        k.remove(2);
        k.resolve();
        assert_eq!(k.rate(1), Some(5.0));
        assert_eq!(k.rate(3), Some(5.0));
    }

    #[test]
    fn headroom_skip_keeps_the_audit() {
        let mut k = kernel();
        k.insert(1, [1, 2], None);
        k.insert(2, [2, 3], None);
        k.insert(3, [0], Some(4.0));
        k.resolve();
        let solves = k.stats();
        // Links 0, 1 and 3 are slack and stay slack: nobody re-solves.
        for (link, mbps) in [(0, 30.0), (0, 4.5), (1, 6.0), (3, 50.0), (3, 5.5)] {
            k.set_headroom(link, mbps);
            assert_eq!(k.resolve(), vec![]);
            assert!(k.audit(), "after set_headroom({link}, {mbps})");
        }
        assert_eq!(k.stats(), solves);
        // Slack → saturated, saturated → saturated and saturated → slack
        // all move rates.
        // (Flow 2 is held to link 3's 5.5.)
        for (link, mbps, want) in [
            (1, 3.0, [3.0, 5.5]),
            (2, 8.0, [3.0, 5.0]),
            (1, 9.0, [4.0, 4.0]),
        ] {
            k.set_headroom(link, mbps);
            assert!(!k.resolve().is_empty());
            assert_eq!([k.rate(1), k.rate(2)], want.map(Some));
            assert!(k.audit(), "after set_headroom({link}, {mbps})");
        }
        assert_ne!(k.stats(), solves);
    }

    #[test]
    fn change_list_reports_net_changes_only() {
        let mut k = kernel();
        k.insert(1, [0], Some(3.0));
        assert_eq!(k.resolve(), vec![(1, 3.0)]);
        // A reroute that lands on the same rate is not a change...
        k.set_links(1, [3]);
        assert_eq!(k.resolve(), vec![]);
        // ...and one that lands on zero is.
        k.set_headroom(1, 0.0);
        k.set_links(1, [1]);
        assert_eq!(k.resolve(), vec![(1, 0.0)]);
    }

    #[test]
    fn zero_hop_flows_are_rated_at_their_demand() {
        let mut k = kernel();
        k.insert(1, [], Some(2.5));
        k.insert(2, [], None);
        assert_eq!(k.resolve(), vec![(1, 2.5)]);
        assert_eq!(k.rates(), vec![(1, 2.5), (2, 0.0)]);
        assert!(k.audit());
    }

    #[test]
    fn a_patch_inside_the_folded_prefix_drops_the_fold() {
        // Flows 1..=3 ride link 0 on the fast path, each read folding
        // the members before it; the read after the last folds all
        // three (1 + 2 + 3).
        let mut k = MaxMinKernel::new(vec![100.0]);
        for id in 1..=3 {
            k.insert(id, [0], Some(id as f64));
        }
        assert_eq!(k.residual(0), 94.0);
        // Detaching flow 2 (inside the prefix) must drop the whole fold:
        // keeping its first member would leave flow 2's rate in the
        // cache. Flow 4 then lands past the prefix.
        k.remove(2);
        k.insert(4, [0], Some(4.0));
        assert_eq!(k.residual(0), 100.0 - (1.0 + 3.0 + 4.0));
        // A re-rate inside the prefix drops it too.
        k.set_demand(1, Some(0.5));
        k.resolve();
        assert_eq!(k.residual(0), 100.0 - (0.5 + 3.0 + 4.0));
        assert!(k.audit());
    }

    #[test]
    fn a_departure_voids_its_pending_entries() {
        let mut k = kernel();
        k.insert(1, [0], None);
        k.insert(2, [1, 2], None);
        k.resolve();
        // Flow 3 is rated on the fast path (a pending change) and flow 4
        // is seeded; both leave before the resolve, and flow 1 leaves
        // and comes back into the slot it left.
        k.insert(3, [3], Some(2.0));
        k.insert(4, [2], None);
        k.remove(3);
        k.remove(4);
        k.insert(1, [0], None);
        assert_eq!(k.resolve(), vec![(1, 20.0)]);
        assert_eq!(k.rates(), vec![(1, 20.0), (2, 10.0)]);
        assert!(k.audit());
    }

    #[test]
    fn a_large_solve_does_not_keep_its_scratch() {
        let mut k = MaxMinKernel::new(vec![1e4; 64]);
        for id in 0..20_000u64 {
            k.insert(id, [id as usize % 64, (id as usize / 64) % 64], None);
        }
        k.resolve();
        assert_eq!(k.stats().full_solves, 1);
        let s = &k.scratch;
        let bytes = |cap: usize, size: usize| cap * size <= KEEP_BYTES;
        assert!(bytes(s.rates.capacity(), 8) && bytes(s.mem.capacity(), 4));
        assert!(bytes(s.order.capacity(), 4) && bytes(s.demand.capacity(), 8));
        assert!(k.seeds.capacity() * 16 <= KEEP_BYTES);
        assert!(k.changed.capacity() * 24 <= KEEP_BYTES);
        assert!(k.audit());
    }

    #[test]
    fn pushed_links_are_usable() {
        let mut k = MaxMinKernel::new(Vec::new());
        k.push_link(6.0);
        k.insert(1, [0], None);
        k.insert(2, [0], None);
        assert_eq!(k.resolve(), vec![(1, 3.0), (2, 3.0)]);
        assert_eq!(k.link_count(), 1);
    }
}
