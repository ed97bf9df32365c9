//! The Telemetry Service: a concurrent time-series store.
//!
//! "At predefined intervals, the Controller activates agents to collect
//! telemetry data from relevant network paths, focusing on metrics like
//! flow rate and latency … This data is then transmitted to the Telemetry
//! Service, where it is stored in a time series database for analysis."

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Available bandwidth on a path (Mbps).
    AvailableBandwidth,
    /// Round-trip time on a path (ms).
    Rtt,
    /// A flow's goodput (Mbps).
    FlowRate,
    /// A link's utilization (0..1).
    LinkUtilization,
}

impl Metric {
    fn tag(self) -> &'static str {
        match self {
            Metric::AvailableBandwidth => "avail",
            Metric::Rtt => "rtt",
            Metric::FlowRate => "rate",
            Metric::LinkUtilization => "util",
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

/// A fixed-capacity sample ring with O(1) insert and contiguous
/// zero-copy windowed reads.
///
/// While the series is shorter than its capacity, timestamps and values
/// live in plain append-only vectors. On first overflow each vector is
/// mirrored to length `2 * capacity`: logical sample `i` is written to
/// both `i % cap` and `i % cap + cap`, so *any* window of the most
/// recent `n <= cap` samples is one contiguous slice of the mirror —
/// no wraparound case, no copying on read. Inserts stay O(1) (two
/// writes); the old `Vec::drain(..)` store paid an O(capacity) memmove
/// on every insert once full.
#[derive(Debug, Default)]
struct SampleRing {
    ts: Vec<u64>,
    vals: Vec<f64>,
    /// Samples ever pushed (monotonic) — the staleness counter the
    /// framework's forecast cache keys invalidation on.
    total: u64,
}

impl SampleRing {
    fn push(&mut self, cap: usize, t_ms: u64, value: f64) {
        if self.ts.len() < cap {
            self.ts.push(t_ms);
            self.vals.push(value);
        } else {
            if self.ts.len() == cap {
                // One-time transition to the mirrored layout: entries
                // 0..cap are already at their `i % cap` positions.
                self.ts.extend_from_within(..);
                self.vals.extend_from_within(..);
            }
            let i = (self.total % cap as u64) as usize;
            self.ts[i] = t_ms;
            self.ts[i + cap] = t_ms;
            self.vals[i] = value;
            self.vals[i + cap] = value;
        }
        self.total += 1;
    }

    /// Retained sample count.
    fn len(&self, cap: usize) -> usize {
        (self.total as usize).min(cap.min(self.ts.len()))
    }

    /// The most recent `n` retained samples, oldest first, as parallel
    /// `(timestamps, values)` slices. Zero-copy.
    fn window(&self, cap: usize, n: usize) -> (&[u64], &[f64]) {
        let len = self.len(cap);
        let n = n.min(len);
        let end = if self.ts.len() <= cap {
            self.ts.len()
        } else {
            ((self.total - 1) % cap as u64) as usize + cap + 1
        };
        (&self.ts[end - n..end], &self.vals[end - n..end])
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
/// so no two stores of a process share it (clones share their store's).
/// Only ever compared for equality, so the values themselves never
/// reach an output.
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

/// The one sample store: every series' ring, plus the key index.
///
/// The index is a `BTreeMap` so every enumeration
/// ([`TelemetryService::keys`]) comes back in sorted key order —
/// hash-map iteration order varies per process, which is exactly the
/// nondeterminism the replay contract (and the `detlint`
/// `unordered-iter` rule) forbids.
#[derive(Debug, Default)]
struct Store {
    index: BTreeMap<SeriesKey, usize>,
    rings: Vec<SampleRing>,
}

impl Store {
    /// The ring of `key`, created empty if there is none.
    fn resolve(&mut self, key: &SeriesKey) -> usize {
        // The key is cloned only to create a series, not per sample.
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        self.rings.push(SampleRing::default());
        self.index.insert(key.clone(), self.rings.len() - 1);
        self.rings.len() - 1
    }

    /// The ring a reader sees under `key`. A series that was resolved
    /// to a handle but never sampled reads as unknown.
    fn ring(&self, key: &SeriesKey) -> Option<&SampleRing> {
        let ring = &self.rings[*self.index.get(key)?];
        (ring.total > 0).then_some(ring)
    }
}

/// The time-series store. Cheap to clone (shared behind an `Arc`).
#[derive(Debug, Clone)]
pub struct TelemetryService {
    inner: Arc<RwLock<Store>>,
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
            inner: Arc::default(),
            capacity: capacity.max(1),
            id: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Inserts one sample.
    pub fn insert(&self, key: &SeriesKey, t_ms: u64, value: f64) {
        let mut store = self.inner.write();
        let id = store.resolve(key);
        store.rings[id].push(self.capacity, t_ms, value);
    }

    /// Resolves `key` to a handle for [`TelemetryService::insert_batch`],
    /// once. The series stays invisible to every reader (and to
    /// [`TelemetryService::keys`]) until its first sample.
    pub fn series_id(&self, key: &SeriesKey) -> SeriesId {
        SeriesId {
            store: self.id,
            index: self.inner.write().resolve(key),
        }
    }

    /// Inserts one collection round — every sample stamped `t_ms` —
    /// under a single write-lock, all or nothing.
    ///
    /// # Errors
    /// [`ForeignSeries`] when another store issued one of the handles;
    /// nothing is inserted then.
    pub fn insert_batch(
        &self,
        t_ms: u64,
        samples: &[(SeriesId, f64)],
    ) -> Result<(), ForeignSeries> {
        if let Some(&(id, _)) = samples.iter().find(|(id, _)| id.store != self.id) {
            return Err(ForeignSeries(id));
        }
        let mut store = self.inner.write();
        for &(id, value) in samples {
            store.rings[id.index].push(self.capacity, t_ms, value);
        }
        Ok(())
    }

    /// The most recent `n` values (oldest first); fewer if the series is
    /// short, empty vec if the series is unknown. Clones the window —
    /// prefer [`TelemetryService::with_last_n`] on hot paths.
    pub fn last_n(&self, key: &SeriesKey, n: usize) -> Vec<f64> {
        self.with_last_n(key, n, |vals| vals.to_vec())
            .unwrap_or_default()
    }

    /// Calls `f` with the most recent `n` values (oldest first) as one
    /// contiguous slice, without copying; fewer values if the series is
    /// short, `None` if the series is unknown.
    ///
    /// The read lock is held for the duration of `f`: keep the closure
    /// short and never call a mutating [`TelemetryService`] method from
    /// inside it.
    pub fn with_last_n<R>(
        &self,
        key: &SeriesKey,
        n: usize,
        f: impl FnOnce(&[f64]) -> R,
    ) -> Option<R> {
        let store = self.inner.read();
        let (_, vals) = store.ring(key)?.window(self.capacity, n);
        Some(f(vals))
    }

    /// Calls `f` with the series' monotonic total *and* its full
    /// retained value window (oldest first, one contiguous slice) under
    /// a single lock acquisition, so the pair is consistent even while
    /// writers race. `None` if the series is unknown.
    ///
    /// This is the read the forecast cache's bookkeeping depends on:
    /// reading the total and the samples in two separate acquisitions
    /// would let a concurrent insert land in between, and samples would
    /// be skipped now and double-absorbed later.
    pub fn with_tail<R>(&self, key: &SeriesKey, f: impl FnOnce(u64, &[f64]) -> R) -> Option<R> {
        let store = self.inner.read();
        let series = store.ring(key)?;
        let (_, vals) = series.window(self.capacity, self.capacity);
        Some(f(series.total, vals))
    }

    /// The most recent value, if any.
    pub fn last(&self, key: &SeriesKey) -> Option<f64> {
        let store = self.inner.read();
        store.ring(key)?.window(self.capacity, 1).1.last().copied()
    }

    /// The most recent value of a resolved series, if any: what
    /// [`TelemetryService::last`] reads, without the key lookup. A
    /// handle of another store reads nothing.
    pub(crate) fn last_of(&self, id: SeriesId) -> Option<f64> {
        let store = self.inner.read();
        let ring = store
            .rings
            .get(id.index)
            .filter(|r| id.store == self.id && r.total > 0)?;
        ring.window(self.capacity, 1).1.last().copied()
    }

    /// The full retained series as `(t_ms, value)` pairs.
    pub fn series(&self, key: &SeriesKey) -> Vec<(u64, f64)> {
        let store = self.inner.read();
        store
            .ring(key)
            .map(|s| {
                let (ts, vals) = s.window(self.capacity, self.capacity);
                ts.iter().copied().zip(vals.iter().copied()).collect()
            })
            .unwrap_or_default()
    }

    /// Number of samples currently retained for a key.
    pub fn len(&self, key: &SeriesKey) -> usize {
        let store = self.inner.read();
        store.ring(key).map_or(0, |s| s.len(self.capacity))
    }

    /// Number of samples *ever inserted* for a key — a monotonic
    /// counter that keeps counting after the ring starts evicting.
    /// The forecast cache uses it to decide when a cached model has
    /// gone stale.
    pub fn total(&self, key: &SeriesKey) -> u64 {
        let store = self.inner.read();
        store.ring(key).map_or(0, |s| s.total)
    }

    /// True when no sample has ever been stored for the key.
    pub fn is_empty(&self, key: &SeriesKey) -> bool {
        self.len(key) == 0
    }

    /// All known series keys, in sorted (deterministic) order.
    pub fn keys(&self) -> Vec<SeriesKey> {
        let store = self.inner.read();
        let sampled = store
            .index
            .iter()
            .filter(|(_, &id)| store.rings[id].total > 0);
        sampled.map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SeriesKey {
        SeriesKey::new("tunnel1", Metric::AvailableBandwidth)
    }

    #[test]
    fn insert_and_query() {
        let ts = TelemetryService::new(100);
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
        let ts = TelemetryService::new(5);
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
        let ts = TelemetryService::new(10);
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
    fn concurrent_writers_do_not_lose_counts() {
        let ts = TelemetryService::new(100_000);
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let ts = ts.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ts.insert(
                            &SeriesKey::new("shared", Metric::FlowRate),
                            w * 10_000 + i,
                            1.0,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ts.len(&SeriesKey::new("shared", Metric::FlowRate)), 8000);
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
        let ts = TelemetryService::new(10);
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
        let ts = TelemetryService::new(4);
        assert_eq!(ts.total(&key()), 0);
        for i in 0..10u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 4, "ring retains capacity");
        assert_eq!(ts.total(&key()), 10, "counter keeps counting");
    }

    #[test]
    fn with_last_n_sees_the_same_window_as_last_n() {
        let ts = TelemetryService::new(6);
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
                let ts = TelemetryService::new(cap);
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
        let ts = TelemetryService::new(0);
        for i in 0..5u64 {
            ts.insert(&key(), i, i as f64);
        }
        assert_eq!(ts.len(&key()), 1);
        assert_eq!(ts.last(&key()), Some(4.0));
        assert_eq!(ts.total(&key()), 5);
    }

    #[test]
    fn default_store_has_testbed_retention() {
        let ts = TelemetryService::default();
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
            ts.with_tail(key, |total, tail| (total, tail.to_vec())),
        )
    }

    #[test]
    fn handles_and_keys_address_the_same_series() {
        // The same samples, by key only and by key and handle mixed,
        // across the ring's mirror transition: every reader agrees.
        let (a, b) = (key(), SeriesKey::new("f0", Metric::FlowRate));
        let (keyed, mixed) = (TelemetryService::new(5), TelemetryService::new(5));
        let a_id = mixed.series_id(&a);
        for i in 0..13u64 {
            let (t, va, vb) = (i * 10, i as f64, (i * i) as f64);
            keyed.insert(&a, t, va);
            keyed.insert(&b, t, vb);
            match i % 3 {
                0 => mixed
                    .insert_batch(t, &[(a_id, va), (mixed.series_id(&b), vb)])
                    .unwrap(),
                1 => {
                    mixed.insert(&a, t, va);
                    mixed.insert_batch(t, &[(mixed.series_id(&b), vb)]).unwrap();
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

    #[test]
    fn a_foreign_handle_is_refused_and_inserts_nothing() {
        // A handle from a larger store used to panic a smaller one, and
        // a handle from a smaller store wrote into whatever series of a
        // larger one sat at its index.
        let (big, small) = (TelemetryService::new(8), TelemetryService::new(8));
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
        // A clone is the same store.
        big.clone().insert_batch(2, &[(big_ids[0], 5.0)]).unwrap();
        assert_eq!(
            big.series(&SeriesKey::new("a", Metric::Rtt)),
            vec![(2, 5.0)]
        );
    }

    #[test]
    fn a_series_is_invisible_until_sampled() {
        let ts = TelemetryService::new(10);
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
