//! Deterministic metrics: counters and a registry with sorted,
//! bit-replayable snapshots.
//!
//! Counters are `Arc`-shared atomics — a component keeps a cheap clone
//! for its hot path while the registry retains another for
//! snapshotting. All updates are `Relaxed`: counters are monotone
//! telemetry, never synchronization.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A point-in-time, name-sorted view of every registered counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` rows in ascending name order.
    pub entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map_or(0, |i| self.entries[i].1)
    }

    /// Counter-wise difference `self - earlier`. Used for per-epoch
    /// deltas.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = (self.entries.iter())
            .map(|(name, now)| (name.clone(), now.saturating_sub(earlier.counter(name))))
            .collect();
        MetricsSnapshot { entries }
    }
}

/// A shared registry of named counters. Get-or-create semantics:
/// asking twice for the same name yields handles on the same atomic.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Counter>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} counters)", self.lock().len())
    }
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Counter>> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock().entry(name.to_string()).or_default().clone()
    }

    /// Adopts an existing counter under `name`, so a component's
    /// already-live instrument becomes visible to snapshots. Replaces
    /// any previous registration of the name.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.lock().insert(name.to_string(), counter.clone());
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A name-sorted snapshot of every counter. `BTreeMap` order is
    /// the sort; byte-identical across runs that updated counters
    /// identically.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = (self.lock().iter())
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones_and_names() {
        let reg = Registry::default();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("x.hits"), 5);
    }

    #[test]
    fn adopt_counter_exposes_a_live_instrument() {
        let reg = Registry::default();
        let c = Counter::default();
        c.add(3);
        reg.adopt_counter("pre.existing", &c);
        assert_eq!(reg.snapshot().counter("pre.existing"), 3);
        c.inc();
        assert_eq!(reg.snapshot().counter("pre.existing"), 4);
    }

    #[test]
    fn snapshot_is_name_sorted_and_delta_subtracts_counters() {
        let reg = Registry::default();
        reg.counter("b").add(10);
        reg.counter("a").add(1);
        let before = reg.snapshot();
        let names: Vec<&str> = before.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        reg.counter("b").add(5);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("a"), 0);
        assert_eq!(d.counter("b"), 5);
    }
}
