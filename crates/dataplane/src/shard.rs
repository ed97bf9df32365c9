//! Sharding the forwarding pipeline by ingress.
//!
//! Core nodes are stateless — a PolKA router's entire forwarding state
//! is one polynomial — so packets from different ingress edges never
//! share mutable state. Shard `s` takes the work items with
//! `ingress % shards == s` and forwards them on its own clone of the
//! [`ForwardingPlane`] (port tables + core nodes, a few KB). Counters
//! are accumulated per shard and merged in shard order, so the merged
//! totals are bit-identical for any shard count and any schedule.
//!
//! Two ways to run the same per-shard kernel:
//!
//! * [`forward_sharded`] — the shards on [`linalg::par`]'s scoped
//!   threads; wall-clock throughput scales with *physical cores* (a
//!   1-core CI box runs the shards one after another and shows ~1×
//!   regardless of shard count);
//! * [`shard_critical_path`] — the shards one after another on the
//!   calling thread, each timed in isolation. `total_ns / critical_ns`
//!   is the parallel speedup an unloaded machine with `cores >= shards`
//!   achieves; it is what the scaling figure reports alongside wall
//!   clock, with the host core count printed next to it.

use crate::label::FlowRoute;
use crate::plane::{BatchReport, ForwardingPlane};
use std::time::Instant;

/// One unit of work: `count` packets of one flow entering at
/// `route.ingress`.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The flow's route (ingress, label, expected PoT).
    pub route: FlowRoute,
    /// Packets in this batch.
    pub count: usize,
}

/// Forwards shard `s`'s items on its own clone of `plane`; returns the
/// shard's counters and busy nanoseconds.
fn forward_shard(
    plane: &ForwardingPlane,
    items: &[WorkItem],
    shards: usize,
    s: usize,
) -> (BatchReport, u64) {
    let mut local = plane.clone();
    let mut report = BatchReport::default();
    // detlint: allow(wall-clock) — per-shard busy time is itself the
    // measured quantity (reported, never fed back into a routing
    // decision).
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    for item in items
        .iter()
        .filter(|i| i.route.ingress.0 as usize % shards == s)
    {
        report.merge(&local.forward_batch(&item.route, item.count));
    }
    (report, t0.elapsed().as_nanos() as u64)
}

/// Merges per-shard results in shard order.
fn merge_shards(per_shard: Vec<(BatchReport, u64)>) -> (BatchReport, Vec<u64>) {
    let mut merged = BatchReport::default();
    let times = per_shard
        .into_iter()
        .map(|(report, busy_ns)| {
            merged.merge(&report);
            busy_ns
        })
        .collect();
    (merged, times)
}

/// Forwards `items` split by `ingress % shards` (0 is taken as 1), the
/// shards running in parallel on [`linalg::par::par_map_indexed`].
/// Returns the merged counters and each shard's busy time. A panic in
/// a shard is re-raised on the caller.
pub fn forward_sharded(
    plane: &ForwardingPlane,
    items: &[WorkItem],
    shards: usize,
) -> (BatchReport, Vec<u64>) {
    let shards = shards.max(1);
    merge_shards(linalg::par::par_map_indexed(shards, |s| {
        forward_shard(plane, items, shards, s)
    }))
}

/// Critical-path measurement of the same partition: each shard's
/// batches run back-to-back in isolation on the calling thread.
/// Returns the merged counters and each shard's isolated busy time; the
/// slowest shard is the parallel critical path.
pub fn shard_critical_path(
    plane: &ForwardingPlane,
    items: &[WorkItem],
    shards: usize,
) -> (BatchReport, Vec<u64>) {
    let shards = shards.max(1);
    merge_shards(
        (0..shards)
            .map(|s| forward_shard(plane, items, shards, s))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::FlowRoute;
    use freertr::resolve::path_spec;
    use netsim::topo::mesh;
    use netsim::NodeIdx;
    use polka::NodeIdAllocator;

    /// A 16-node mesh with one flow per ingress 0..8, all of identical
    /// hop count (consecutive ring walks), so every shard gets equal work.
    fn workload(count: usize) -> (ForwardingPlane, Vec<WorkItem>) {
        let topo = mesh(16, 4, 100.0);
        let mut alloc = NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
        let items: Vec<WorkItem> = (0..8u32)
            .map(|i| {
                let path: Vec<NodeIdx> = (0..5).map(|k| NodeIdx((i + k) % 16)).collect();
                let spec = path_spec(&topo, &mut alloc, &path).unwrap();
                let route = FlowRoute::polka(path[0], path[1], spec.compile().unwrap(), &spec);
                WorkItem { route, count }
            })
            .collect();
        let plane = ForwardingPlane::new(&topo, &mut alloc).unwrap();
        (plane, items)
    }

    #[test]
    fn sharded_counters_match_single_shard_exactly() {
        let (plane, items) = workload(50);
        let mut reference = BatchReport::default();
        let mut single = plane.clone();
        for item in &items {
            reference.merge(&single.forward_batch(&item.route, item.count));
        }
        assert_eq!(reference.delivered, 8 * 50);
        assert_eq!(reference.pot_rejected, 0);
        type Run = fn(&ForwardingPlane, &[WorkItem], usize) -> (BatchReport, Vec<u64>);
        let runs: [(&str, Run); 2] = [
            ("forward_sharded", forward_sharded),
            ("shard_critical_path", shard_critical_path),
        ];
        for (name, run) in runs {
            for shards in [0usize, 1, 2, 4, 8, 16] {
                let (merged, times) = run(&plane, &items, shards);
                assert_eq!(merged, reference, "{name}, {shards} shards");
                // 0 shards is clamped to 1.
                assert_eq!(times.len(), shards.max(1), "{name}, {shards} shards");
            }
        }
        // 16 shards over ingresses 0..8: shards 8..16 get no item and
        // do no work.
        for s in 0..16 {
            let (report, _) = forward_shard(&plane, &items, 16, s);
            assert_eq!(report == BatchReport::default(), s >= 8, "shard {s}");
        }
    }

    #[test]
    fn critical_path_partition_matches_and_scales() {
        // Sized so each shard's isolated run is long enough that the
        // sum/max ratio reflects the partition, not timer noise. Other
        // test threads share this core, so take the best of three
        // attempts — one clean measurement is enough to prove the
        // partition parallelizes; counters are asserted every round.
        let (plane, items) = workload(4000);
        let mut best = 0.0f64;
        for _ in 0..3 {
            let (merged1, t1) = shard_critical_path(&plane, &items, 1);
            let (merged4, t4) = shard_critical_path(&plane, &items, 4);
            assert_eq!(merged1, merged4, "partition must not change counters");
            assert_eq!(merged4.delivered, 8 * 4000);
            let total = t1[0].max(1);
            let critical = t4.iter().copied().max().unwrap().max(1);
            best = best.max(total as f64 / critical as f64);
            // 8 equal flows over 4 shards: the critical path is
            // ~total/4; 1.5x is a very generous floor.
            if best > 1.5 {
                break;
            }
        }
        assert!(best > 1.5, "critical-path scaling {best:.2}");
    }
}
