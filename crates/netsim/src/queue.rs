//! The simulator's event queue: a min-queue on `(at, seq)` whose pop
//! cost does not depend on how much future is scheduled.
//!
//! An elastic schedule is loaded whole before the run, so a single heap
//! would hold every event of the horizon and sift each pop through all
//! of them — hundreds of thousands of elements in memory no cache
//! holds. Here time is cut into windows of `2^WINDOW_SHIFT` ms: events
//! of the windows loaded so far sit in a small *near* heap, everything
//! later waits in an unsorted *far* bucket per window, and when the
//! near heap runs dry the earliest bucket is heapified in one O(n) pass.
//!
//! Those queued events are most of a pre-loaded run's memory, so the
//! element is kept small: the simulator queues its private 40-byte
//! event form (`sim::Queued`), not the 80-byte public `Event`, and an
//! entry is 56 bytes with its `(at, seq)` key. Every entry of a window
//! is one size in one `Vec`: a layout that split events by kind into
//! side buffers of other sizes peaked higher, because the allocator
//! could not reuse the odd-sized chunks a finished run freed.
//!
//! Ordering argument: windows are disjoint time ranges, so every near
//! event is earlier than every far one, and the near heap orders by the
//! same `(at, seq)` a single heap would. The pop sequence is therefore
//! exactly the single heap's — bit-identical replay.

use std::collections::{BTreeMap, BinaryHeap};

/// log2 of the window length in ms (1 024 ms).
const WINDOW_SHIFT: u32 = 10;

/// One queued event: due time, scheduling sequence number, payload.
#[derive(Debug)]
pub(crate) struct Scheduled<E> {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed for a min-heap
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Two-tier min-queue on `(at, seq)`.
///
/// Invariant: the near heap is empty only when the whole queue is, so
/// [`EventQueue::peek`] never has to look at the far tier.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// Events of windows `<= horizon`.
    near: BinaryHeap<Scheduled<E>>,
    /// Window → its events in arrival order, windows `> horizon` only.
    far: BTreeMap<u64, Vec<Scheduled<E>>>,
    /// Latest window loaded into `near`.
    horizon: u64,
    far_len: usize,
    /// Most events ever queued at once.
    peak: usize,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            far: BTreeMap::new(),
            horizon: 0,
            far_len: 0,
            peak: 0,
        }
    }

    /// Events queued, both tiers.
    pub(crate) fn len(&self) -> usize {
        self.near.len() + self.far_len
    }

    /// The high-water mark of [`EventQueue::len`].
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn push(&mut self, s: Scheduled<E>) {
        let window = s.at >> WINDOW_SHIFT;
        if window <= self.horizon {
            self.near.push(s);
        } else {
            self.far.entry(window).or_default().push(s);
            self.far_len += 1;
            self.refill();
        }
        self.peak = self.peak.max(self.len());
    }

    /// The earliest event, by `(at, seq)`.
    pub(crate) fn peek(&self) -> Option<&Scheduled<E>> {
        self.near.peek()
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        let due = self.near.pop();
        self.refill();
        due
    }

    /// Restores the invariant: when the near heap is dry, the earliest
    /// far bucket becomes it and the horizon advances to that window.
    fn refill(&mut self) {
        if !self.near.is_empty() {
            return;
        }
        if let Some((window, bucket)) = self.far.pop_first() {
            self.far_len -= bucket.len();
            self.horizon = window;
            self.near = BinaryHeap::from(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WINDOW_MS: u64 = 1 << WINDOW_SHIFT;

    /// Where a generated push lands relative to `now` and the loaded
    /// window — the cases the tiering can get wrong.
    fn due_time(kind: u8, now: u64, horizon: u64, jitter: u64) -> u64 {
        let loaded_end = (horizon + 1) * WINDOW_MS - 1;
        match kind % 7 {
            0 => now,
            1 => now + 1,
            // last ms of the loaded window / first ms of the next
            2 => loaded_end.max(now),
            3 => (loaded_end + 1).max(now),
            // far future, several windows out
            4 => now + (2 + jitter % 40) * WINDOW_MS + jitter % WINDOW_MS,
            // earlier than the loaded horizon but not in the past
            5 => now + jitter % (loaded_end.saturating_sub(now) + 1),
            _ => now + jitter % (3 * WINDOW_MS),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-tier queue pops exactly what one `BinaryHeap` pops,
        /// and agrees on `len()`, after every step of a random
        /// interleaving of pushes and "pop everything due".
        #[test]
        fn pops_in_single_heap_order(
            steps in proptest::collection::vec((0u8..10, 0u8..7, 0u64..100_000), 1..200),
        ) {
            let mut queue: EventQueue<()> = EventQueue::new();
            let mut oracle: BinaryHeap<Scheduled<()>> = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (op, kind, jitter) in steps {
                if op < 7 {
                    seq += 1;
                    let at = due_time(kind, now, queue.horizon, jitter);
                    queue.push(Scheduled { at, seq, event: () });
                    oracle.push(Scheduled { at, seq, event: () });
                } else {
                    // Advance like `run_until`: jump to the next event
                    // (or idle forward) and drain everything due.
                    now = match oracle.peek() {
                        Some(top) if op < 9 => top.at,
                        _ => now + jitter % (2 * WINDOW_MS),
                    };
                    while oracle.peek().is_some_and(|top| top.at <= now) {
                        let want = oracle.pop().map(|s| (s.at, s.seq));
                        prop_assert_eq!(queue.peek().map(|s| (s.at, s.seq)), want);
                        prop_assert_eq!(queue.pop().map(|s| (s.at, s.seq)), want);
                    }
                    prop_assert!(queue.peek().is_none_or(|top| top.at > now));
                }
                prop_assert_eq!(queue.len(), oracle.len());
                prop_assert_eq!(
                    queue.peek().map(|s| (s.at, s.seq)),
                    oracle.peek().map(|s| (s.at, s.seq))
                );
            }
            // Drain: the tails agree too.
            while let Some(want) = oracle.pop() {
                let got = queue.pop();
                prop_assert_eq!(got.map(|s| (s.at, s.seq)), Some((want.at, want.seq)));
            }
            prop_assert!(queue.pop().is_none());
            prop_assert_eq!(queue.len(), 0);
        }
    }

    #[test]
    fn schedule_inside_one_window_is_a_plain_heap() {
        let mut q: EventQueue<u8> = EventQueue::new();
        for (seq, at) in [(1, 900), (2, 3), (3, 3), (4, 0)] {
            q.push(Scheduled { at, seq, event: 0 });
        }
        assert!(q.far.is_empty());
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.at, s.seq))).collect();
        assert_eq!(order, vec![(0, 4), (3, 2), (3, 3), (900, 1)]);
    }

    #[test]
    fn push_for_the_current_instant_joins_the_running_drain() {
        // What `run_until`'s dispatch loop relies on: an event queued
        // for `now` while the batch due at `now` is being drained is
        // part of that batch.
        let mut q: EventQueue<u8> = EventQueue::new();
        let now = 2_000;
        q.push(Scheduled {
            at: now,
            seq: 1,
            event: 0,
        });
        q.push(Scheduled {
            at: now + 1,
            seq: 2,
            event: 0,
        });
        let mut drained = Vec::new();
        while q.peek().is_some_and(|top| top.at <= now) {
            let due = q.pop().map(|s| s.seq);
            drained.extend(due);
            if due == Some(1) {
                q.push(Scheduled {
                    at: now,
                    seq: 3,
                    event: 0,
                });
            }
        }
        assert_eq!(drained, vec![1, 3]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_bucket_loads_when_near_runs_dry() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Scheduled {
            at: 5,
            seq: 1,
            event: 0,
        });
        q.push(Scheduled {
            at: 5_000,
            seq: 2,
            event: 0,
        });
        q.push(Scheduled {
            at: 4_999,
            seq: 3,
            event: 0,
        });
        q.push(Scheduled {
            at: 9_000,
            seq: 4,
            event: 0,
        });
        assert_eq!((q.near.len(), q.far_len, q.len()), (1, 3, 4));
        assert_eq!(q.pop().map(|s| s.seq), Some(1));
        // Window 4 (4096..5120) is loaded whole; 9 000 still waits.
        assert_eq!((q.horizon, q.near.len(), q.far_len), (4, 2, 1));
        // A push behind the horizon (but not in the past) joins the
        // near heap and is ordered with it.
        q.push(Scheduled {
            at: 4_200,
            seq: 5,
            event: 0,
        });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.seq)).collect();
        assert_eq!(order, vec![5, 3, 2, 4]);
    }
}
