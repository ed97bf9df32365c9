//! Scoped-thread parallel helpers.
//!
//! Ensemble regressors (Random Forest, Bagging) and the 18-model
//! evaluation sweep are embarrassingly parallel: each task is independent
//! and CPU-bound. `std::thread::scope` gives us data-race-free fork-join
//! parallelism with borrowed inputs and no runtime dependency; results
//! come back in input order, so parallel and sequential execution are
//! observationally identical (the rayon discipline: if it compiles, it
//! computes the same thing).
//!
//! [`settle`] runs items that are not independent: a conservative
//! parallel simulation whose parts trade time-stamped messages and each
//! run as far ahead as the others' published clocks allow.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// Runs items that trade messages, each as far ahead of the others as
/// they allow: the loop of a conservative parallel simulation. The
/// items are dealt in `chunks_mut` runs to [`worker_count`] workers.
///
/// Each item has a clock, `from` at the start and published with
/// [`Peers::publish`]: a promise that it will post no more messages
/// stamped at or before it (the caller's stamps). `advance(item,
/// peers)` does what it can, publishes and returns whether the item is
/// finished; an unfinished item is called again once another item's
/// clock has moved. Messages reach
/// their receiver in the order each sender posted them; what no
/// receiver took is returned, one list per receiving item, lowest
/// sender first.
///
/// On one worker the items take turns on the caller, so an unfinished
/// call must publish a later clock than the last one or leave another
/// item able to move. A worker that panics releases the others from
/// their waits, and the panic is re-raised on the caller once every
/// worker has stopped.
pub fn settle<T, M, F>(items: &mut [T], from: u64, advance: F) -> Vec<Vec<M>>
where
    T: Send,
    M: Send,
    F: Fn(&mut T, &Peers<'_, M>) -> bool + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    let mail: Vec<Mailbox<M>> = (0..n * n).map(|_| Mailbox::default()).collect();
    let clocks: Vec<Clock> = (0..n).map(|_| Clock(AtomicU64::new(from))).collect();
    let poisoned = AtomicBool::new(false);
    let chunk = n.div_ceil(workers).max(1);
    let (mail, clocks, poisoned, advance) = (&mail[..], &clocks[..], &poisoned, &advance);
    let run = move |first: usize, part: &mut [T]| {
        let _release = ReleaseOnPanic(poisoned);
        let mut done = vec![false; part.len()];
        let mut seen = vec![0; n];
        loop {
            for (s, c) in seen.iter_mut().zip(clocks) {
                *s = c.0.load(Ordering::Acquire);
            }
            for (me, (item, done)) in (first..).zip(part.iter_mut().zip(&mut done)) {
                if !*done {
                    *done = advance(item, &Peers { me, clocks, mail });
                }
            }
            if done.iter().all(|&d| d) || poisoned.load(Ordering::Acquire) {
                return;
            }
            // Reads without `spin_loop` hints: a hypervisor takes a vCPU
            // that loops on them for one waiting on a descheduled lock
            // holder and preempts it, stalling the item it waits for.
            // Past tens of microseconds the wait yields, so items that
            // share a core still move.
            let mut spins = 0u32;
            while (clocks.iter().zip(&seen)).all(|(c, &s)| c.0.load(Ordering::Acquire) == s) {
                if poisoned.load(Ordering::Acquire) {
                    return;
                }
                if spins < 1 << 14 {
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    };
    if workers <= 1 {
        run(0, items);
    } else {
        std::thread::scope(|scope| {
            let mut runs = items.chunks_mut(chunk).enumerate();
            let own = runs.next();
            let spawned: Vec<_> = runs
                .map(|(c, part)| scope.spawn(move || run(c * chunk, part)))
                .collect();
            if let Some((_, part)) = own {
                run(0, part);
            }
            for worker in spawned {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
    (0..n)
        .map(|dst| {
            let mut left = Vec::new();
            for src in 0..n {
                mail[src * n + dst].take(&mut left);
            }
            left
        })
        .collect()
}

/// What an item of [`settle`] sees of the others.
pub struct Peers<'a, M> {
    me: usize,
    clocks: &'a [Clock],
    mail: &'a [Mailbox<M>],
}

impl<M> Peers<'_, M> {
    /// Moves the messages posted to this item into `inbox`, lowest
    /// sender first, and returns the least clock another item had
    /// published before them (`u64::MAX` when there is none): every
    /// message still to come is stamped after it.
    pub fn receive(&self, inbox: &mut Vec<M>) -> u64 {
        let n = self.clocks.len();
        let horizon = (self.clocks.iter().enumerate())
            .filter(|&(src, _)| src != self.me)
            .map(|(_, c)| c.0.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        for src in (0..n).filter(|&src| src != self.me) {
            self.mail[src * n + self.me].take(inbox);
        }
        horizon
    }

    /// Posts `outboxes[j]` to item `j`, then publishes `clock`. The
    /// clock's `Release` store pairs with the `Acquire` load in
    /// [`Peers::receive`], so a receiver that sees the clock finds the
    /// mail posted before it.
    pub fn publish(&self, clock: u64, outboxes: &mut [Vec<M>]) {
        let n = self.clocks.len();
        for (dst, out) in outboxes.iter_mut().enumerate() {
            if !out.is_empty() {
                self.mail[self.me * n + dst].post(out);
            }
        }
        self.clocks[self.me].0.store(clock, Ordering::Release);
    }
}

/// An item's published clock, on a cache line of its own.
#[repr(align(128))]
struct Clock(AtomicU64);

/// One sender's mail for one receiver, on a cache line of its own so
/// that posting to one receiver never stalls another. `posted` lets the
/// receiver skip the lock while there is nothing to take.
#[repr(align(128))]
struct Mailbox<M> {
    posted: AtomicBool,
    mail: Mutex<Vec<M>>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            posted: AtomicBool::new(false),
            mail: Mutex::new(Vec::new()),
        }
    }
}

impl<M> Mailbox<M> {
    /// Locks the mail. A panicking worker may poison it; the panic is
    /// re-raised anyway, so the contents are still the ones to read.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<M>> {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves `out` in behind what is already there.
    fn post(&self, out: &mut Vec<M>) {
        let mut mail = self.lock();
        if mail.is_empty() {
            std::mem::swap(&mut *mail, out);
        } else {
            mail.append(out);
        }
        self.posted.store(true, Ordering::Release);
    }

    /// Moves the mail in behind what `inbox` already holds.
    fn take(&self, inbox: &mut Vec<M>) {
        if self.posted.load(Ordering::Acquire) {
            let mut mail = self.lock();
            self.posted.store(false, Ordering::Relaxed);
            if inbox.is_empty() {
                std::mem::swap(&mut *mail, inbox);
            } else {
                inbox.append(&mut mail);
            }
        }
    }
}

/// Poisons the run if its worker unwinds.
struct ReleaseOnPanic<'a>(&'a AtomicBool);

impl Drop for ReleaseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::atomic::AtomicUsize;

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

    /// A tiny conservative simulation: item `i` has events at `i + 1`,
    /// then every `3 + i`; each event posts one to the next item,
    /// stamped `LAG` later. Items log the events they run.
    struct Ticker {
        me: usize,
        due: BinaryHeap<Reverse<u64>>,
        log: Vec<u64>,
        inbox: Vec<u64>,
        outboxes: Vec<Vec<u64>>,
    }

    const LAG: u64 = 5;
    const END: u64 = 400;

    fn tickers(n: usize) -> Vec<Ticker> {
        (0..n)
            .map(|me| Ticker {
                me,
                due: (me as u64 + 1..=END).step_by(3 + me).map(Reverse).collect(),
                log: Vec::new(),
                inbox: Vec::new(),
                outboxes: vec![Vec::new(); n],
            })
            .collect()
    }

    /// Runs one ticker as far as its peers allow.
    fn tick(t: &mut Ticker, peers: &Peers<'_, u64>) -> bool {
        let horizon = peers.receive(&mut t.inbox);
        t.due.extend(t.inbox.drain(..).map(Reverse));
        let bound = horizon.saturating_add(LAG).min(END);
        while let Some(Reverse(at)) = t.due.peek().copied().filter(|&Reverse(at)| at <= bound) {
            t.due.pop();
            t.log.push(at);
            let next = (t.me + 1) % t.outboxes.len();
            t.outboxes[next].push(at + LAG);
        }
        let done = bound == END;
        peers.publish(if done { u64::MAX } else { bound }, &mut t.outboxes);
        done
    }

    /// The same system on one global queue: each item's log, and what
    /// is left for it past the end.
    fn ticked_in_order(n: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (tickers(n).into_iter())
            .flat_map(|t| {
                t.due
                    .into_iter()
                    .map(move |Reverse(at)| Reverse((at, t.me)))
            })
            .collect();
        let (mut logs, mut left) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        while let Some(Reverse((at, me))) = queue.pop() {
            if at > END {
                left[me].push(at);
            } else {
                logs[me].push(at);
                queue.push(Reverse((at + LAG, (me + 1) % n)));
            }
        }
        (logs, left)
    }

    #[test]
    fn settle_runs_a_conservative_simulation_like_one_queue() {
        for n in [2, 3, 5] {
            let mut items = tickers(n);
            let mail = settle(&mut items, 0, tick);
            let (logs, mut want_left) = ticked_in_order(n);
            for (t, mut left) in items.iter_mut().zip(mail) {
                // Mail taken and not yet due stays with its receiver.
                left.extend(t.due.drain().map(|Reverse(at)| at));
                left.sort_unstable();
                want_left[t.me].sort_unstable();
                assert_eq!(left, want_left[t.me], "{n} items, item {}", t.me);
            }
            let got: Vec<Vec<u64>> = items.into_iter().map(|t| t.log).collect();
            assert_eq!(got, logs, "{n} items");
        }
    }

    #[test]
    fn settle_runs_one_item_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let mut calls = vec![0];
        settle::<_, (), _>(&mut calls, 0, |calls, peers| {
            assert_eq!(std::thread::current().id(), caller);
            *calls += 1;
            peers.publish(*calls, &mut []);
            *calls == 3
        });
        assert_eq!(calls, [3]);
    }

    #[test]
    #[should_panic(expected = "item 3 failed on its call 3")]
    fn a_settle_panic_reaches_the_caller_without_hanging_the_others() {
        let mut items: Vec<(usize, u64)> = (0..4).map(|i| (i, 0)).collect();
        settle::<_, (), _>(&mut items, 0, |(me, calls), peers| {
            *calls += 1;
            assert!(
                *me != 3 || *calls != 3,
                "item {me} failed on its call {calls}"
            );
            peers.publish(*calls, &mut []);
            false
        });
    }
}
