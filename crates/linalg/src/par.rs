//! Scoped-thread parallel helpers.
//!
//! Ensemble regressors (Random Forest, Bagging) and the 18-model
//! evaluation sweep are embarrassingly parallel: each task is independent
//! and CPU-bound. `std::thread::scope` gives us data-race-free fork-join
//! parallelism with borrowed inputs and no runtime dependency; results
//! come back in input order, so parallel and sequential execution are
//! observationally identical (the rayon discipline: if it compiles, it
//! computes the same thing).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads to use: the available parallelism, capped by
/// the task count so tiny workloads don't pay spawn overhead. The
/// parallelism is read once per process: on Linux each query re-reads
/// the cgroup CPU quota. Fan-outs return the same results on any worker
/// count, so a count fixed at the first call moves no output.
pub fn worker_count(tasks: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    });
    hw.min(tasks).max(1)
}

/// Applies `f` to every index `0..n` on a scoped thread pool and returns
/// the results in index order.
///
/// `f` must be `Sync` because multiple workers call it concurrently.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut indices: Vec<usize> = (0..n).collect();
    par_map_mut(&mut indices, |&mut i| f(i))
}

/// Applies `f` to every item of a slice on a scoped thread pool, each
/// worker owning one disjoint `chunks_mut` run, and returns the results
/// in input order.
pub fn par_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = items
            .chunks_mut(chunk)
            .map(|run| scope.spawn(move || run.iter_mut().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                // Re-raise a worker's panic on the caller, as the scope
                // itself would.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

/// Maps `f` over a slice in parallel, preserving order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_index_visited_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_indexed(1000, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "worker 3 failed")]
    fn a_worker_panic_reaches_the_caller() {
        par_map_indexed(8, |i| {
            assert!(i != 3, "worker {i} failed");
            i
        });
    }

    #[test]
    fn par_map_mut_owns_each_item_once() {
        let mut xs: Vec<u64> = (0..100).collect();
        let out = par_map_mut(&mut xs, |x| {
            *x *= 2;
            *x + 1
        });
        assert_eq!(xs, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
        assert_eq!(out, (0..100).map(|i| 2 * i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_over_slice() {
        let xs = vec![1.0f64, 4.0, 9.0];
        assert_eq!(par_map(&xs, |x| x.sqrt()), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn repeated_worker_counts_agree_and_stay_in_bounds() {
        for tasks in [1, 2, 3, 7, 64, 1000] {
            let first = worker_count(tasks);
            assert!((1..=tasks).contains(&first), "{tasks} tasks: {first}");
            for _ in 0..100 {
                assert_eq!(worker_count(tasks), first, "{tasks} tasks");
            }
        }
    }
}
