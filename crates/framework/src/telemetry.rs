//! The Telemetry Service: the controller's time-series store.
//!
//! "At predefined intervals, the Controller activates agents to collect
//! telemetry data from relevant network paths, focusing on metrics like
//! flow rate and latency … This data is then transmitted to the Telemetry
//! Service, where it is stored in a time series database for analysis."
//!
//! The store is plain owned state: the one controller that owns it
//! writes through `&mut self` and every reader, Hecate's parallel
//! fan-out included, borrows it through `&self`. No lock, no clone.
//!
//! Each series keeps its values and its timestamps apart. Values sit in
//! a mirrored ring, so every window a reader asks for is one contiguous
//! slice. Timestamps sit as runs `{first, step, count}`: a collection
//! round stamps every sample with one `t_ms`, so a series written every
//! round is one run, and each skipped round adds one. Only
//! [`TelemetryService::series`] expands them. A series whose
//! consecutive steps never repeat costs one run per two samples, 12
//! bytes per sample against 8 for a stamp each; no collector writes
//! one.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Available bandwidth on a path (Mbps).
    AvailableBandwidth,
    /// Round-trip time on a path (ms).
    Rtt,
    /// A flow's goodput (Mbps).
    FlowRate,
}

impl Metric {
    fn tag(self) -> &'static str {
        match self {
            Metric::AvailableBandwidth => "avail",
            Metric::Rtt => "rtt",
            Metric::FlowRate => "rate",
        }
    }
}

/// A series key: target (path/flow/link name) plus metric. Keys are
/// totally ordered (target, then metric) so stores can keep series in
/// a deterministic sorted order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Path, flow or link name.
    pub target: String,
    /// Measured quantity.
    pub metric: Metric,
}

impl SeriesKey {
    /// Builds a key.
    pub fn new(target: &str, metric: Metric) -> Self {
        SeriesKey {
            target: target.to_string(),
            metric,
        }
    }

    /// Builds a **pair-namespaced** key: the series target is
    /// `"{pair}/{tunnel}"`, so the full key reads `pair/tunnel/metric`
    /// and two managed pairs that both call a tunnel `tunnel1` can never
    /// alias each other's telemetry.
    ///
    /// The empty pair scope `""` is the **backward-compat shim**: it
    /// yields the bare tunnel name, exactly the series a single-pair
    /// deployment has always written — so every key, store entry and
    /// cached forecast from before the multi-pair refactor stays valid
    /// byte for byte.
    pub fn scoped(pair: &str, tunnel: &str, metric: Metric) -> Self {
        Self::new(&scoped_target(pair, tunnel), metric)
    }
}

/// The pair-namespaced series target for a tunnel (without the metric):
/// `"{pair}/{tunnel}"`, or the bare tunnel name under the empty
/// (single-pair legacy) scope. This is the name tunnels are registered
/// under in [`crate::SelfDrivingNetwork`], so forecasts, PBR entries and
/// telemetry all agree on one namespace.
pub fn scoped_target(pair: &str, tunnel: &str) -> String {
    if pair.is_empty() {
        tunnel.to_string()
    } else {
        format!("{pair}/{tunnel}")
    }
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.target, self.metric.tag())
    }
}

/// A run of evenly spaced timestamps: `first`, `first + step`, …,
/// `first + step·(count − 1)`, in wrapping `u64` arithmetic. A run of
/// one sample has no step yet (its `step` is meaningless).
#[derive(Debug)]
struct StampRun {
    first: u64,
    step: u64,
    count: u64,
}

impl StampRun {
    /// The run's `k`-th stamp; `at(count)` is the one that extends it.
    fn at(&self, k: u64) -> u64 {
        self.first.wrapping_add(self.step.wrapping_mul(k))
    }
}

/// A fixed-capacity sample ring with O(1) insert and contiguous
/// zero-copy windowed reads.
///
/// **Values.** While the series is shorter than its capacity, values
/// live in a plain append-only vector. On first overflow it is mirrored
/// to length `2 * capacity`: logical sample `i` is written to both
/// `i % cap` and `i % cap + cap`, so *any* window of the most recent
/// `n <= cap` values is one contiguous slice of the mirror — no
/// wraparound case, no copying on read. Inserts stay O(1) (two
/// writes).
///
/// **Stamps.** Every collector stamps a whole round with one `t_ms`,
/// so a series' stamps form an arithmetic run that breaks only where a
/// round skipped it (a dead flow, a failed ping). They are kept as a
/// deque of [`StampRun`]s, oldest first: a stamp that continues the
/// last run extends it, a run of one sample takes any second stamp
/// (the difference becomes its step), any other stamp opens a new run,
/// and eviction advances the front run. A cadenced series holds one
/// 24-byte run however long it is. The worst case — no two
/// consecutive steps equal — is one run per two samples, 12 bytes per
/// sample against 8 for one stamp each; no collector writes such a
/// series.
#[derive(Debug, Default)]
struct SampleRing {
    vals: Vec<f64>,
    runs: VecDeque<StampRun>,
    /// Samples ever pushed (monotonic) — the staleness counter the
    /// framework's forecast cache keys invalidation on.
    total: u64,
}

impl SampleRing {
    fn push(&mut self, cap: usize, t_ms: u64, value: f64) {
        if self.vals.len() < cap {
            self.vals.push(value);
        } else {
            if self.vals.len() == cap {
                // One-time transition to the mirrored layout: entries
                // 0..cap are already at their `i % cap` positions.
                self.vals.extend_from_within(..);
            }
            let i = (self.total % cap as u64) as usize;
            self.vals[i] = value;
            self.vals[i + cap] = value;
            self.evict_stamp();
        }
        self.push_stamp(t_ms);
        self.total += 1;
    }

    fn push_stamp(&mut self, t_ms: u64) {
        match self.runs.back_mut() {
            Some(run) if run.count == 1 => {
                run.step = t_ms.wrapping_sub(run.first);
                run.count = 2;
            }
            Some(run) if run.at(run.count) == t_ms => run.count += 1,
            _ => self.runs.push_back(StampRun {
                first: t_ms,
                step: 0,
                count: 1,
            }),
        }
    }

    /// Drops the oldest stamp.
    fn evict_stamp(&mut self) {
        if let Some(run) = self.runs.front_mut() {
            run.first = run.at(1);
            run.count -= 1;
            if run.count == 0 {
                self.runs.pop_front();
            }
        }
    }

    /// Retained sample count.
    fn len(&self, cap: usize) -> usize {
        (self.total as usize).min(cap.min(self.vals.len()))
    }

    /// The most recent `n` retained values, oldest first. Zero-copy.
    fn window(&self, cap: usize, n: usize) -> &[f64] {
        let n = n.min(self.len(cap));
        let end = if self.vals.len() <= cap {
            self.vals.len()
        } else {
            ((self.total - 1) % cap as u64) as usize + cap + 1
        };
        &self.vals[end - n..end]
    }

    /// Every retained stamp, oldest first.
    fn stamps(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs
            .iter()
            .flat_map(|run| (0..run.count).map(|k| run.at(k)))
    }
}

/// A resolved series: what [`TelemetryService::series_id`] hands out
/// and [`TelemetryService::insert_batch`] takes, so a collector that
/// writes the same series every round formats no key and walks no tree
/// per sample. It carries the identity of the store that issued it, and
/// every other store refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    store: u64,
    index: usize,
}

impl SeriesId {
    /// The series' slot in its store: dense from 0, in resolution
    /// order, so per-series state elsewhere can live in a `Vec`.
    pub(crate) fn index(self) -> usize {
        self.index
    }
}

/// A [`SeriesId`] handed to a store that did not issue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignSeries(pub SeriesId);

impl std::fmt::Display for ForeignSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "series handle {:?} belongs to another store", self.0)
    }
}

impl std::error::Error for ForeignSeries {}

/// The next store identity: each [`TelemetryService::new`] takes one,
/// so no two stores of a process share it. Only ever compared for
/// equality, so the values themselves never reach an output.
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

/// The time-series store: every series' ring, plus the key index.
///
/// The index is a `BTreeMap` so every enumeration
/// ([`TelemetryService::keys`]) comes back in sorted key order —
/// hash-map iteration order varies per process, which is exactly the
/// nondeterminism the replay contract (and the `detlint`
/// `unordered-iter` rule) forbids.
#[derive(Debug)]
pub struct TelemetryService {
    index: BTreeMap<SeriesKey, usize>,
    rings: Vec<SampleRing>,
    /// Retained samples per series (ring semantics).
    capacity: usize,
    /// This store's identity, stamped on every [`SeriesId`] it issues.
    id: u64,
}

impl Default for TelemetryService {
    /// A store with the testbed's default retention (4096 samples per
    /// series — over an hour at the paper's 1 Hz sampling).
    fn default() -> Self {
        TelemetryService::new(4096)
    }
}

impl TelemetryService {
    /// A store retaining up to `capacity` samples per series.
    pub fn new(capacity: usize) -> Self {
        TelemetryService {
            index: BTreeMap::new(),
            rings: Vec::new(),
            capacity: capacity.max(1),
            id: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// This store's identity: what every [`SeriesId`] it issues carries.
    pub(crate) fn store_id(&self) -> u64 {
        self.id
    }

    /// Inserts one sample.
    pub fn insert(&mut self, key: &SeriesKey, t_ms: u64, value: f64) {
        let id = self.series_id(key);
        self.rings[id.index].push(self.capacity, t_ms, value);
    }

    /// Resolves `key` to a handle for [`TelemetryService::insert_batch`],
    /// once, creating an empty ring if there is none. The series stays
    /// invisible to every reader (and to [`TelemetryService::keys`])
    /// until its first sample.
    pub fn series_id(&mut self, key: &SeriesKey) -> SeriesId {
        // The key is cloned only to create a series, not per sample.
        let index = match self.index.get(key) {
            Some(&index) => index,
            None => {
                self.rings.push(SampleRing::default());
                self.index.insert(key.clone(), self.rings.len() - 1);
                self.rings.len() - 1
            }
        };
        SeriesId {
            store: self.id,
            index,
        }
    }

    /// The handle `key` already resolved to, if any: the readers' way
    /// from a name to a series, which never creates one.
    pub(crate) fn find(&self, key: &SeriesKey) -> Option<SeriesId> {
        let &index = self.index.get(key)?;
        Some(SeriesId {
            store: self.id,
            index,
        })
    }

    /// Inserts one collection round — every sample stamped `t_ms` —
    /// all or nothing.
    ///
    /// # Errors
    /// [`ForeignSeries`] when another store issued one of the handles;
    /// nothing is inserted then.
    pub fn insert_batch(
        &mut self,
        t_ms: u64,
        samples: &[(SeriesId, f64)],
    ) -> Result<(), ForeignSeries> {
        if let Some(&(id, _)) = samples.iter().find(|(id, _)| id.store != self.id) {
            return Err(ForeignSeries(id));
        }
        for &(id, value) in samples {
            self.rings[id.index].push(self.capacity, t_ms, value);
        }
        Ok(())
    }

    /// The ring a reader sees under `key`. A series that was resolved
    /// to a handle but never sampled reads as unknown.
    fn ring(&self, key: &SeriesKey) -> Option<&SampleRing> {
        self.ring_of(self.find(key)?)
    }

    /// [`TelemetryService::ring`] of a resolved series. A handle of
    /// another store reads nothing.
    fn ring_of(&self, id: SeriesId) -> Option<&SampleRing> {
        let ring = self.rings.get(id.index)?;
        (id.store == self.id && ring.total > 0).then_some(ring)
    }

    /// The most recent `n` values (oldest first); fewer if the series is
    /// short, empty vec if the series is unknown. Clones the window.
    pub fn last_n(&self, key: &SeriesKey, n: usize) -> Vec<f64> {
        self.with_last_n(key, n, |vals| vals.to_vec())
            .unwrap_or_default()
    }

    /// Calls `f` with the most recent `n` values (oldest first) as one
    /// contiguous slice, without copying; fewer values if the series is
    /// short, `None` if the series is unknown.
    fn with_last_n<R>(&self, key: &SeriesKey, n: usize, f: impl FnOnce(&[f64]) -> R) -> Option<R> {
        Some(f(self.ring(key)?.window(self.capacity, n)))
    }

    /// A resolved series' monotonic total and its full retained value
    /// window (oldest first, one contiguous slice); `None` if the
    /// series is unknown. What the forecast cache's bookkeeping reads.
    pub(crate) fn tail(&self, id: SeriesId) -> Option<(u64, &[f64])> {
        let ring = self.ring_of(id)?;
        Some((ring.total, ring.window(self.capacity, self.capacity)))
    }

    /// The most recent value, if any.
    pub fn last(&self, key: &SeriesKey) -> Option<f64> {
        self.last_of(self.find(key)?)
    }

    /// The most recent value of a resolved series, if any: what
    /// [`TelemetryService::last`] reads, without the key lookup. A
    /// handle of another store reads nothing.
    pub(crate) fn last_of(&self, id: SeriesId) -> Option<f64> {
        let ring = self.ring_of(id)?;
        ring.window(self.capacity, 1).last().copied()
    }

    /// The full retained series as `(t_ms, value)` pairs.
    pub fn series(&self, key: &SeriesKey) -> Vec<(u64, f64)> {
        self.ring(key)
            .map(|s| {
                let vals = s.window(self.capacity, self.capacity);
                s.stamps().zip(vals.iter().copied()).collect()
            })
            .unwrap_or_default()
    }

    /// Number of samples currently retained for a key.
    pub fn len(&self, key: &SeriesKey) -> usize {
        self.ring(key).map_or(0, |s| s.len(self.capacity))
    }

    /// Number of samples *ever inserted* for a key — a monotonic
    /// counter that keeps counting after the ring starts evicting.
    /// The forecast cache uses it to decide when a cached model has
    /// gone stale.
    pub fn total(&self, key: &SeriesKey) -> u64 {
        self.ring(key).map_or(0, |s| s.total)
    }

    /// True when no sample has ever been stored for the key.
    pub fn is_empty(&self, key: &SeriesKey) -> bool {
        self.len(key) == 0
    }

    /// How many timestamp runs the store holds over every series: one
    /// per series written on a steady cadence, plus one per break in a
    /// cadence. An exact count of what the stamps cost (24 bytes a
    /// run); a store that kept one run per sample would read its
    /// sample count here.
    pub fn stamp_runs(&self) -> u64 {
        self.rings.iter().map(|r| r.runs.len() as u64).sum()
    }

    /// All known series keys, in sorted (deterministic) order.
    pub fn keys(&self) -> Vec<SeriesKey> {
        let sampled = self
            .index
            .iter()
            .filter(|(_, &id)| self.rings[id].total > 0);
        sampled.map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn key() -> SeriesKey {
        SeriesKey::new("tunnel1", Metric::AvailableBandwidth)
    }

    #[test]
    fn insert_and_query() {
        let mut ts = TelemetryService::new(100);
        for i in 0..10u64 {
            ts.insert(&key(), i * 1000, i as f64);
        }
        assert_eq!(ts.last(&key()), Some(9.0));
        assert_eq!(ts.last_n(&key(), 3), vec![7.0, 8.0, 9.0]);
        assert_eq!(ts.len(&key()), 10);
        assert_eq!(ts.series(&key())[0], (0, 0.0));
    }

    #[test]
    fn capacity_is_a_ring() {
        let mut ts = TelemetryService::new(5);
        for i in 0..20u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 5);
        assert_eq!(ts.last_n(&key(), 10), vec![15.0, 16.0, 17.0, 18.0, 19.0]);
    }

    #[test]
    fn unknown_series_is_empty() {
        let ts = TelemetryService::new(10);
        assert!(ts.is_empty(&key()));
        assert_eq!(ts.last(&key()), None);
        assert!(ts.last_n(&key(), 5).is_empty());
    }

    #[test]
    fn metrics_are_separate_series() {
        let mut ts = TelemetryService::new(10);
        ts.insert(&SeriesKey::new("t1", Metric::Rtt), 0, 50.0);
        ts.insert(&SeriesKey::new("t1", Metric::AvailableBandwidth), 0, 20.0);
        assert_eq!(ts.last(&SeriesKey::new("t1", Metric::Rtt)), Some(50.0));
        assert_eq!(
            ts.last(&SeriesKey::new("t1", Metric::AvailableBandwidth)),
            Some(20.0)
        );
        assert_eq!(ts.keys().len(), 2);
    }

    #[test]
    fn interleaved_writers_do_not_lose_counts() {
        // Eight writers' samples into one series, interleaved one by
        // one, half by key and half by handle: all 8 000 are retained.
        let mut ts = TelemetryService::new(100_000);
        let key = SeriesKey::new("shared", Metric::FlowRate);
        let id = ts.series_id(&key);
        for i in 0..1000u64 {
            for w in 0..8 {
                if w % 2 == 0 {
                    ts.insert(&key, w * 10_000 + i, 1.0);
                } else {
                    ts.insert_batch(w * 10_000 + i, &[(id, 1.0)]).unwrap();
                }
            }
        }
        assert_eq!(ts.len(&key), 8000);
        assert_eq!(ts.total(&key), 8000);
    }

    #[test]
    fn display_key() {
        assert_eq!(key().to_string(), "tunnel1:avail");
    }

    #[test]
    fn scoped_keys_namespace_by_pair_without_aliasing() {
        // Regression: two pairs sharing a tunnel id must not alias.
        let m = Metric::AvailableBandwidth;
        let p0 = SeriesKey::scoped("p0", "tunnel1", m);
        let p1 = SeriesKey::scoped("p1", "tunnel1", m);
        assert_ne!(p0, p1);
        assert_eq!(p0.to_string(), "p0/tunnel1:avail");
        assert_eq!(p1.to_string(), "p1/tunnel1:avail");
        // Neither collides with the legacy un-scoped name either.
        let legacy = SeriesKey::new("tunnel1", m);
        assert_ne!(p0, legacy);
        assert_ne!(p1, legacy);
        // The store keeps all three series separate.
        let mut ts = TelemetryService::new(10);
        ts.insert(&p0, 0, 1.0);
        ts.insert(&p1, 0, 2.0);
        ts.insert(&legacy, 0, 3.0);
        assert_eq!(ts.last(&p0), Some(1.0));
        assert_eq!(ts.last(&p1), Some(2.0));
        assert_eq!(ts.last(&legacy), Some(3.0));
        assert_eq!(ts.keys().len(), 3);
    }

    #[test]
    fn empty_scope_is_the_single_pair_shim() {
        // The empty scope must produce byte-identical keys to the
        // pre-refactor single-pair names, so existing series and cached
        // forecasts stay addressable.
        let m = Metric::Rtt;
        assert_eq!(
            SeriesKey::scoped("", "tunnel2", m),
            SeriesKey::new("tunnel2", m)
        );
        assert_eq!(scoped_target("", "tunnel2"), "tunnel2");
        assert_eq!(scoped_target("p3", "tunnel2"), "p3/tunnel2");
    }

    #[test]
    fn total_counts_past_eviction() {
        let mut ts = TelemetryService::new(4);
        assert_eq!(ts.total(&key()), 0);
        for i in 0..10u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 4, "ring retains capacity");
        assert_eq!(ts.total(&key()), 10, "counter keeps counting");
    }

    #[test]
    fn with_last_n_sees_the_same_window_as_last_n() {
        let mut ts = TelemetryService::new(6);
        for i in 0..15u64 {
            ts.insert(&key(), i, (i * i) as f64);
        }
        for n in 0..10 {
            let cloned = ts.last_n(&key(), n);
            let windowed = ts.with_last_n(&key(), n, |w| w.to_vec()).unwrap();
            assert_eq!(cloned, windowed, "n={n}");
        }
        assert!(ts
            .with_last_n(&SeriesKey::new("ghost", Metric::Rtt), 3, |w| w.len())
            .is_none());
    }

    #[test]
    fn ring_semantics_match_reference_model_across_capacities() {
        // Regression harness for the mirrored-ring rewrite: for many
        // (capacity, insert-count) pairs — straddling the one-time
        // mirror transition and several wrap generations — every read
        // API must agree with a naive keep-the-last-cap model.
        for cap in [1usize, 2, 3, 5, 8, 64] {
            for count in [0usize, 1, cap / 2, cap, cap + 1, 2 * cap, 5 * cap + 3] {
                let mut ts = TelemetryService::new(cap);
                let mut reference: Vec<(u64, f64)> = Vec::new();
                for i in 0..count {
                    let sample = (i as u64 * 7, (i as f64).sin() * 100.0);
                    ts.insert(&key(), sample.0, sample.1);
                    reference.push(sample);
                    if reference.len() > cap {
                        reference.remove(0);
                    }
                }
                let ctx = format!("cap={cap} count={count}");
                assert_eq!(ts.series(&key()), reference, "{ctx}");
                assert_eq!(ts.len(&key()), reference.len(), "{ctx}");
                assert_eq!(ts.total(&key()), count as u64, "{ctx}");
                assert_eq!(ts.last(&key()), reference.last().map(|(_, v)| *v), "{ctx}");
                for n in [0, 1, cap / 2, cap, cap + 3] {
                    let want: Vec<f64> = reference[reference.len().saturating_sub(n)..]
                        .iter()
                        .map(|(_, v)| *v)
                        .collect();
                    assert_eq!(ts.last_n(&key(), n), want, "{ctx} n={n}");
                }
            }
        }
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        // The constructor clamps capacity to >= 1, so the ring's
        // modulo arithmetic never sees a zero divisor; a degenerate
        // store degrades to keep-latest-sample instead of panicking.
        let mut ts = TelemetryService::new(0);
        for i in 0..5u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 1);
        assert_eq!(ts.last(&key()), Some(4.0));
        assert_eq!(ts.total(&key()), 5);
    }

    #[test]
    fn default_store_has_testbed_retention() {
        let mut ts = TelemetryService::default();
        for i in 0..10u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 10);
    }

    /// What every reader says about `key`, in one comparable value.
    #[allow(clippy::type_complexity)]
    fn readers(
        ts: &TelemetryService,
        key: &SeriesKey,
    ) -> (
        Option<f64>,
        Vec<f64>,
        Vec<(u64, f64)>,
        usize,
        u64,
        bool,
        Option<(u64, Vec<f64>)>,
    ) {
        (
            ts.last(key),
            ts.last_n(key, 3),
            ts.series(key),
            ts.len(key),
            ts.total(key),
            ts.is_empty(key),
            ts.find(key)
                .and_then(|id| ts.tail(id))
                .map(|(total, tail)| (total, tail.to_vec())),
        )
    }

    #[test]
    fn handles_and_keys_address_the_same_series() {
        // The same samples, by key only and by key and handle mixed,
        // across the ring's mirror transition: every reader agrees.
        let (a, b) = (key(), SeriesKey::new("f0", Metric::FlowRate));
        let (mut keyed, mut mixed) = (TelemetryService::new(5), TelemetryService::new(5));
        let a_id = mixed.series_id(&a);
        for i in 0..13u64 {
            let (t, va, vb) = (i * 10, i as f64, (i * i) as f64);
            keyed.insert(&a, t, va);
            keyed.insert(&b, t, vb);
            match i % 3 {
                0 => {
                    let b_id = mixed.series_id(&b);
                    mixed.insert_batch(t, &[(a_id, va), (b_id, vb)]).unwrap()
                }
                1 => {
                    mixed.insert(&a, t, va);
                    let b_id = mixed.series_id(&b);
                    mixed.insert_batch(t, &[(b_id, vb)]).unwrap();
                }
                _ => {
                    mixed.insert_batch(t, &[(a_id, va)]).unwrap();
                    mixed.insert(&b, t, vb);
                }
            }
            for k in [&a, &b] {
                assert_eq!(readers(&mixed, k), readers(&keyed, k), "i={i} {k}");
            }
            assert_eq!(mixed.keys(), keyed.keys());
        }
        assert_eq!(mixed.series_id(&a), a_id, "a key resolves to one handle");
    }

    /// The stamp of a script's next sample after `t`: on a cadence of
    /// `step` mostly, else a gap, a repeat, a step back or a jump
    /// anywhere (so stamps wrap past `u64::MAX` too).
    fn next_stamp(rng: &mut StdRng, t: u64, step: &mut u64) -> u64 {
        match rng.gen_range(0..20u32) {
            0..=11 => t.wrapping_add(*step),
            12 | 13 => t.wrapping_add(step.wrapping_mul(rng.gen_range(2..5u64))),
            14 | 15 => t,
            16 | 17 => t.wrapping_sub(rng.gen_range(1..50u64)),
            18 => {
                *step = [1, 7, 1000, u64::MAX][rng.gen_range(0..4usize)];
                t.wrapping_add(*step)
            }
            _ => rng.gen(),
        }
    }

    #[test]
    fn stamp_runs_match_a_keep_the_last_cap_model() {
        // Seeded scripts of stamps on a cadence, with gaps, repeats,
        // steps back and wraps past u64::MAX, through several wrap
        // generations of each capacity. Two series are written: one by
        // key, one by handle in rounds. After every insert, every
        // reader must equal a naive keep-the-last-cap model, and the
        // runs must stay within one per two samples plus one.
        for cap in [1usize, 2, 3, 5, 64] {
            for seed in 0..24u64 {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + cap as u64);
                let mut ts = TelemetryService::new(cap);
                let (a, b) = (key(), SeriesKey::new("f0", Metric::FlowRate));
                let b_id = ts.series_id(&b);
                let mut models = [VecDeque::new(), VecDeque::new()];
                let mut written = [0u64; 2];
                let mut t = if rng.gen_bool(0.5) {
                    u64::MAX - rng.gen_range(0..3000u64)
                } else {
                    rng.gen_range(0..1000u64)
                };
                let mut step = 1000;
                for i in 0..(6 * cap + 10) as u64 {
                    t = next_stamp(&mut rng, t, &mut step);
                    let (which, value) = (rng.gen_range(0..3u32), i as f64 * 0.5);
                    if which != 1 {
                        ts.insert(&a, t, value);
                        models[0].push_back((t, value));
                        written[0] += 1;
                    }
                    if which != 0 {
                        ts.insert_batch(t, &[(b_id, -value)]).unwrap();
                        models[1].push_back((t, -value));
                        written[1] += 1;
                    }
                    let mut want_keys = Vec::new();
                    for ((k, model), &written) in
                        [&a, &b].into_iter().zip(&mut models).zip(&written)
                    {
                        while model.len() > cap {
                            model.pop_front();
                        }
                        let ctx = format!("cap={cap} seed={seed} i={i} {k}");
                        let vals: Vec<f64> = model.iter().map(|&(_, v)| v).collect();
                        assert_eq!(ts.series(k), Vec::from(model.clone()), "{ctx}");
                        assert_eq!(ts.len(k), model.len(), "{ctx}");
                        assert_eq!(ts.total(k), written, "{ctx}");
                        assert_eq!(ts.last(k), vals.last().copied(), "{ctx}");
                        for n in [0, 1, 2, cap / 2, cap, cap + 1] {
                            let want = &vals[vals.len().saturating_sub(n)..];
                            assert_eq!(ts.last_n(k, n), want, "{ctx} n={n}");
                            let windowed = ts.with_last_n(k, n, |w| w.to_vec());
                            assert_eq!(windowed, (!vals.is_empty()).then(|| want.to_vec()));
                        }
                        if !model.is_empty() {
                            want_keys.push(k.clone());
                        }
                    }
                    want_keys.sort();
                    assert_eq!(ts.keys(), want_keys);
                    let retained = (ts.len(&a) + ts.len(&b)) as u64;
                    assert!(
                        ts.stamp_runs() <= retained / 2 + 2,
                        "cap={cap} seed={seed} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cadenced_series_holds_one_run() {
        let mut ts = TelemetryService::new(64);
        for i in 0..1000u64 {
            ts.insert(&key(), i * 1000, i as f64);
        }
        assert_eq!(ts.stamp_runs(), 1);
        let want: Vec<(u64, f64)> = (936..1000u64).map(|i| (i * 1000, i as f64)).collect();
        assert_eq!(ts.series(&key()), want);
    }

    #[test]
    fn a_skipped_round_opens_one_run() {
        // Round 10 skips the series: one more run, until eviction
        // carries the stamps before the gap away.
        let mut ts = TelemetryService::new(64);
        let rounds = (0..20u64).filter(|&r| r != 10);
        for r in rounds {
            ts.insert(&key(), r * 1000, r as f64);
        }
        assert_eq!(ts.stamp_runs(), 2);
        let stamps: Vec<u64> = ts.series(&key()).iter().map(|&(t, _)| t).collect();
        let want: Vec<u64> = (0..20u64).filter(|&r| r != 10).map(|r| r * 1000).collect();
        assert_eq!(stamps, want);
        for r in 20..80u64 {
            ts.insert(&key(), r * 1000, r as f64);
        }
        assert_eq!(ts.stamp_runs(), 1, "the run before the gap is evicted");
        assert_eq!(ts.series(&key())[0], (16_000, 16.0));
    }

    #[test]
    fn steps_that_never_repeat_cost_one_run_per_two_samples() {
        // The worst case: stamp k is k·(k+1)/2, so no two consecutive
        // steps are equal and every run holds two samples.
        let mut ts = TelemetryService::new(1000);
        for k in 0..100u64 {
            ts.insert(&key(), k * (k + 1) / 2, 0.0);
        }
        assert_eq!(ts.stamp_runs(), 50);
        let stamps: Vec<u64> = ts.series(&key()).iter().map(|&(t, _)| t).collect();
        assert_eq!(
            stamps,
            (0..100u64).map(|k| k * (k + 1) / 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_foreign_handle_is_refused_and_inserts_nothing() {
        // A handle from a larger store used to panic a smaller one, and
        // a handle from a smaller store wrote into whatever series of a
        // larger one sat at its index.
        let (mut big, mut small) = (TelemetryService::new(8), TelemetryService::new(8));
        let big_ids: Vec<SeriesId> = ["a", "b", "c"]
            .iter()
            .map(|t| big.series_id(&SeriesKey::new(t, Metric::Rtt)))
            .collect();
        let small_id = small.series_id(&key());
        assert_eq!(
            small.insert_batch(1, &[(small_id, 1.0), (big_ids[2], 2.0)]),
            Err(ForeignSeries(big_ids[2]))
        );
        assert!(small.keys().is_empty(), "a refused round inserts nothing");
        assert_eq!(
            big.insert_batch(1, &[(big_ids[0], 3.0), (small_id, 4.0)]),
            Err(ForeignSeries(small_id))
        );
        assert!(big.keys().is_empty(), "a refused round inserts nothing");
    }

    #[test]
    fn a_series_is_invisible_until_sampled() {
        let mut ts = TelemetryService::new(10);
        ts.insert(&SeriesKey::new("other", Metric::Rtt), 0, 1.0);
        let unknown = readers(&ts, &key());
        let id = ts.series_id(&key());
        assert_eq!(readers(&ts, &key()), unknown);
        assert!(ts.with_last_n(&key(), 3, |w| w.len()).is_none());
        assert_eq!(ts.keys(), vec![SeriesKey::new("other", Metric::Rtt)]);
        // An empty round samples nothing.
        ts.insert_batch(5, &[]).unwrap();
        assert_eq!(ts.keys().len(), 1);
        ts.insert_batch(7, &[(id, 2.5)]).unwrap();
        assert_eq!(ts.series(&key()), vec![(7, 2.5)]);
        assert_eq!(ts.keys().len(), 2);
    }
}
