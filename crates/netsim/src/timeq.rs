//! The one time-ordered queue of both planes: the fluid simulator's
//! events ([`crate::sim::Simulation`], ms) and the packet emulator's
//! heads (`dataplane::netem`, ns). Entries keyed `(t, key)` pop least
//! first, as a `BinaryHeap<Reverse<(t, key)>>` pops them, provided none
//! is pushed earlier than the last pop (no clock here runs backwards).
//!
//! Time is cut into buckets `2^W` units wide, one width per caller. The
//! *ring* is a calendar queue (Brown, CACM 1988): `RING` buckets from
//! the last pop's, each a list kept in `(t, key)` order through one
//! slab with a free list, and a two-level bitmap finds the next
//! non-empty bucket in three word scans. Later entries wait *far*,
//! unsorted, in windows of `2^WINDOW_BITS` buckets; a window moves into
//! the ring whole once the ring covers it, so every ring entry precedes
//! every far one. Only an empty ring looks at the far tier, and its
//! start moves only on a pop, so a push at the clock lands at or after
//! it however far ahead a peek looked.
//!
//! Each buffer holds one entry size (windows `(t, key, payload)`, the
//! slab the same plus a link): side buffers of other sizes peaked
//! higher, as the allocator could not reuse their odd-sized chunks.

use std::collections::BTreeMap;

/// Buckets in the ring: 64 bitmap words of 64 bits, one summary word.
const RING: u64 = 1 << 12;
const MASK: u64 = RING - 1;
/// log2 of a far window's length in buckets: a quarter of the ring, so
/// the ring covers three or four windows at a time.
const WINDOW_BITS: u32 = 10;
/// The end of a list.
const NIL: u32 = u32::MAX;

/// A ring entry. `val` is `None` while the slot is on the free list.
#[derive(Debug)]
struct Slot<K, V> {
    t: u64,
    key: K,
    val: Option<V>,
    /// The next slot of the same bucket (or of the free list).
    next: u32,
}

/// A min-queue of `(t, key)` entries with payloads, in buckets `2^W`
/// time units wide.
#[derive(Debug)]
pub struct TimeQ<K, V, const W: u32> {
    /// The absolute bucket (`t >> W`) the last pop was due in: every
    /// ring entry's bucket is in `base..base + RING`.
    base: u64,
    /// The first and the last slot of each bucket's list, by absolute
    /// bucket mod `RING` (`last` is stale while `first` is `NIL`).
    first: Box<[u32]>,
    last: Box<[u32]>,
    /// Bit `b` of word `w`: bucket `64·w + b` is non-empty.
    words: [u64; 64],
    /// Bit `w`: word `w` is non-zero.
    summary: u64,
    slots: Vec<Slot<K, V>>,
    /// The head of the free slots' list.
    free: u32,
    /// Window (`t >> (W + WINDOW_BITS)`) → its entries in push order.
    far: BTreeMap<u64, Vec<(u64, K, V)>>,
    len: usize,
    peak: usize,
    list_steps: u64,
}

impl<K, V, const W: u32> Default for TimeQ<K, V, W> {
    fn default() -> Self {
        TimeQ {
            base: 0,
            first: vec![NIL; RING as usize].into_boxed_slice(),
            last: vec![NIL; RING as usize].into_boxed_slice(),
            words: [0; 64],
            summary: 0,
            slots: Vec::new(),
            free: NIL,
            far: BTreeMap::new(),
            len: 0,
            peak: 0,
            list_steps: 0,
        }
    }
}

impl<K: Ord + Copy, V, const W: u32> TimeQ<K, V, W> {
    /// Bytes per far entry.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<(u64, K, V)>();
    /// Bytes per ring slot.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<K, V>>();

    /// Entries queued, both tiers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The high-water mark of [`TimeQ::len`].
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Ring entries that inserts walked past to keep each bucket's list
    /// in order: the queue's work beyond O(1) per entry.
    pub(crate) fn list_steps(&self) -> u64 {
        self.list_steps
    }

    /// Adds an entry due at `t`, never earlier than the last pop's.
    pub fn push(&mut self, t: u64, key: K, val: V) {
        debug_assert!(t >> W >= self.base, "pushed behind the clock");
        let window = t >> (W + WINDOW_BITS);
        if window <= self.horizon() {
            self.insert(t, key, val);
        } else {
            self.far.entry(window).or_default().push((t, key, val));
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// When the least entry is due. Looks at the far tier only when the
    /// ring is empty, and loads nothing.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        match self.next_bucket() {
            Some(bucket) => Some(self.slots[self.first[(bucket & MASK) as usize] as usize].t),
            None => self.far_min(),
        }
    }

    /// Removes and returns the least entry if it is due at or before
    /// `end`.
    pub fn pop_through(&mut self, end: u64) -> Option<(u64, K, V)> {
        let bucket = match self.next_bucket() {
            Some(bucket) => bucket,
            None => {
                // An empty ring jumps to the first window's least entry.
                let t = self.far_min().filter(|&t| t <= end)?;
                self.advance(t >> W);
                self.next_bucket()?
            }
        };
        let at = (bucket & MASK) as usize;
        let head = self.first[at];
        let slot = &mut self.slots[head as usize];
        if slot.t > end {
            return None;
        }
        let (t, key, next) = (slot.t, slot.key, slot.next);
        let val = slot.val.take()?;
        slot.next = self.free;
        self.free = head;
        self.first[at] = next;
        if next == NIL {
            self.words[at / 64] &= !(1 << (at % 64));
            if self.words[at / 64] == 0 {
                self.summary &= !(1 << (at / 64));
            }
        }
        self.len -= 1;
        self.advance(bucket);
        Some((t, key, val))
    }

    /// Every entry, in no particular order.
    pub fn into_entries(self) -> impl Iterator<Item = (u64, K, V)> {
        let ring = (self.slots.into_iter()).filter_map(|s| Some((s.t, s.key, s.val?)));
        ring.chain(self.far.into_values().flatten())
    }

    /// Links an entry into its bucket in `(t, key)` order, trying the
    /// tail first: the simulator's sequence numbers only grow.
    fn insert(&mut self, t: u64, key: K, val: V) {
        let at = ((t >> W) & MASK) as usize;
        let (mut prev, mut next) = (NIL, self.first[at]);
        if next != NIL {
            let tail = &self.slots[self.last[at] as usize];
            if (tail.t, tail.key) <= (t, key) {
                (prev, next) = (self.last[at], NIL);
            }
        }
        while next != NIL {
            let s = &self.slots[next as usize];
            if (s.t, s.key) > (t, key) {
                break;
            }
            self.list_steps += 1;
            prev = next;
            next = s.next;
        }
        let slot = Slot {
            t,
            key,
            val: Some(val),
            next,
        };
        let index = if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.slots[index as usize].next;
            self.slots[index as usize] = slot;
            index
        };
        if prev == NIL {
            self.first[at] = index;
        } else {
            self.slots[prev as usize].next = index;
        }
        if next == NIL {
            self.last[at] = index;
        }
        self.words[at / 64] |= 1 << (at % 64);
        self.summary |= 1 << (at / 64);
    }

    /// The absolute bucket of the least ring entry.
    fn next_bucket(&self) -> Option<u64> {
        let from = (self.base & MASK) as usize;
        let (w, b) = (from / 64, from % 64);
        let here = self.words[w] & (u64::MAX << b);
        let at = if here != 0 {
            64 * w + here.trailing_zeros() as usize
        } else {
            // The words after `w`, else the lowest one, wrapping round
            // to the part of `w` below `from`.
            let after = self.summary & u64::MAX.checked_shl(w as u32 + 1).unwrap_or(0);
            let word = match (after, self.summary) {
                (0, 0) => return None,
                (0, all) => all.trailing_zeros() as usize,
                (after, _) => after.trailing_zeros() as usize,
            };
            64 * word + self.words[word].trailing_zeros() as usize
        };
        Some(self.base + ((at as u64).wrapping_sub(from as u64) & MASK))
    }

    /// The least entry of the first far window.
    fn far_min(&self) -> Option<u64> {
        let (_, window) = self.far.first_key_value()?;
        window.iter().map(|e| e.0).min()
    }

    /// The last window the ring covers whole: ring entries are in
    /// windows up to it, far entries in later ones.
    fn horizon(&self) -> u64 {
        ((self.base + RING) >> WINDOW_BITS) - 1
    }

    /// Moves the ring's start to `bucket`, the least entry's, and loads
    /// every far window the ring then covers whole.
    fn advance(&mut self, bucket: u64) {
        let before = self.horizon();
        self.base = bucket;
        let horizon = self.horizon();
        if horizon > before {
            while let Some(window) = self.far.first_entry().filter(|w| *w.key() <= horizon) {
                for (t, key, val) in window.remove() {
                    self.insert(t, key, val);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    /// The simulator's width (1-ms buckets) and the emulator's
    /// (4 096-ns buckets).
    const MS: u32 = 0;
    const NS: u32 = 12;

    const fn width(w: u32) -> u64 {
        1 << w
    }

    const fn span(w: u32) -> u64 {
        RING << w
    }

    const fn window(w: u32) -> u64 {
        1 << (w + WINDOW_BITS)
    }

    /// Each `fn name<const W: u32>() { .. }` becomes the test `name`,
    /// which runs the body at both widths.
    macro_rules! at_both_widths {
        ($($(#[$doc:meta])* fn $name:ident<const W: u32>() $body:block)*) => {$(
            $(#[$doc])*
            #[test]
            fn $name() {
                fn at<const W: u32>() $body
                at::<MS>();
                at::<NS>();
            }
        )*};
    }

    /// The queue and a binary heap, fed the same entries: a `Copy` key
    /// `(seq, item)` and a boxed payload that must travel with it.
    #[derive(Default)]
    struct Pair<const W: u32> {
        q: TimeQ<(u64, u32), Box<u64>, W>,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
        popped: usize,
    }

    impl<const W: u32> Pair<W> {
        fn with(times: &[u64]) -> Self {
            let mut pair = Pair::default();
            times.iter().for_each(|&t| pair.push(t));
            pair
        }

        fn push(&mut self, t: u64) {
            self.seq += 1;
            let item = (self.seq % 7) as u32;
            self.q.push(t, (self.seq, item), Box::new(self.seq));
            self.heap.push(Reverse((t, self.seq, item)));
            assert_eq!(self.q.len(), self.heap.len());
        }

        /// Pops both through `end`, comparing every entry and the next
        /// due time, and calls `then` after each pop so it can push at
        /// or after the entry.
        fn drain(&mut self, end: u64, mut then: impl FnMut(&mut Self, u64)) {
            loop {
                assert_eq!(self.q.peek_time(), self.heap.peek().map(|r| r.0 .0));
                let want = match self.heap.peek() {
                    Some(&Reverse(top)) if top.0 <= end => self.heap.pop().map(|r| r.0),
                    _ => None,
                };
                let got = self.q.pop_through(end).map(|(t, (seq, item), val)| {
                    assert_eq!(*val, seq);
                    (t, seq, item)
                });
                assert_eq!(got, want, "through {end}");
                assert_eq!(self.q.len(), self.heap.len());
                let Some((t, ..)) = got else { return };
                self.popped += 1;
                then(self, t);
            }
        }
    }

    /// A due time at or after `t`: a tie, inside a bucket, inside the
    /// ring, past it, or against the last window the ring covers — its
    /// last unit, the first unit past it, or anywhere up to it.
    fn due<const W: u32>(rng: &mut TestRng, t: u64, horizon: u64) -> u64 {
        let loaded_end = (horizon + 1) * window(W) - 1;
        t + match rng.below(10) {
            0 | 1 => 0,
            2 => rng.below(width(W)),
            3 | 4 => rng.below(64 * width(W)),
            5 => rng.below(span(W)),
            6 => span(W) + rng.below(3 * span(W)),
            7 => loaded_end.saturating_sub(t),
            8 => (loaded_end + 1).saturating_sub(t),
            _ => rng.below(loaded_end.saturating_sub(t) + 1),
        }
    }

    /// A seeded script of windows. Each seeds entries ahead of the clock
    /// and drains through the next entry's time (as `run_until` jumps),
    /// into a bucket, or ring spans on; each pop pushes a few followers
    /// at or after its own time, as the emulator does.
    fn script<const W: u32>(seed: u64) -> usize {
        let rng = &mut TestRng::from_seed(seed);
        let mut pair = Pair::<W>::default();
        let mut now = rng.below(1 << 40);
        for _ in 0..12 {
            for _ in 0..rng.below(40) {
                pair.push(due::<W>(rng, now, pair.q.horizon()));
            }
            let end = match rng.below(5) {
                0 => pair.heap.peek().map_or(now, |top| top.0 .0),
                1 => now + rng.below(width(W)),
                2 | 3 => now + rng.below(256 * width(W)),
                _ => now + rng.below(4 * span(W)),
            };
            let mut budget = 2_000;
            pair.drain(end, |pair, t| {
                if budget > 0 {
                    budget -= 1;
                    for _ in 0..rng.below(3) {
                        pair.push(due::<W>(rng, t, pair.q.horizon()));
                    }
                }
            });
            now = end;
        }
        pair.drain(u64::MAX, |_, _| {});
        assert!(pair.q.len() == 0 && pair.popped > 0);
        pair.popped
    }

    proptest! {
        /// The queue pops exactly what one `BinaryHeap` pops, with the
        /// same next due time and length after every step.
        #[test]
        fn pops_in_single_heap_order(seed in 0u64..u64::MAX) {
            script::<MS>(seed);
            script::<NS>(seed);
        }
    }

    at_both_widths! {
        /// The same scripts on fixed seeds, so every run replays them.
        fn pops_in_heap_order_on_seeded_scripts<const W: u32>() {
            let popped: usize = (0..200).map(script::<W>).sum();
            assert!(popped > 100_000, "{popped} pops");
        }

        /// Entries inside one window all go to the ring, none far, and
        /// pop by time, then by push order.
        fn schedule_inside_one_window_is_a_plain_heap<const W: u32>() {
            let mut q: TimeQ<u64, (), W> = TimeQ::default();
            for (seq, t) in [(1, 900), (2, 3), (3, 3), (4, 0)] {
                q.push(t, seq, ());
            }
            assert!(q.far.is_empty());
            let order: Vec<_> = std::iter::from_fn(|| q.pop_through(u64::MAX)).collect();
            assert_eq!(order, [(0, 4, ()), (3, 2, ()), (3, 3, ()), (900, 1, ())]);
        }

        /// What `run_until`'s dispatch loop relies on: an entry pushed
        /// for `now` while the batch due at `now` drains joins it.
        fn push_for_the_current_instant_joins_the_running_drain<const W: u32>() {
            let now = 2 * window(W) + 3;
            let mut pair = Pair::<W>::with(&[now, now + 1]);
            let mut once = true;
            pair.drain(now, |pair, _| {
                if std::mem::take(&mut once) {
                    pair.push(now);
                }
            });
            assert_eq!((pair.popped, pair.q.len()), (2, 1));
        }

        /// A window waits far until the ring covers it, and a peek at
        /// it loads nothing: the simulator peeks at a far entry, then
        /// schedules one at its own clock, which must pop first. An
        /// empty ring loads the first window, and a push behind the new
        /// horizon joins the ring and is ordered with it.
        fn a_far_window_loads_when_the_ring_runs_dry<const W: u32>() {
            let win = window(W);
            let mut pair = Pair::<W>::with(&[5, 5 * win - 4, 5 * win - 5, 9 * win]);
            // The ring starts in window 0 and covers 0..=3.
            assert_eq!((pair.q.horizon(), pair.q.far.len()), (3, 2));
            pair.drain(5, |_, _| {});
            pair.push(5);
            pair.drain(5, |_, _| {});
            assert_eq!((pair.popped, pair.q.horizon(), pair.q.far.len()), (2, 3, 2));
            // It jumps to window 4 and covers 4..=7; window 9 waits.
            pair.drain(5 * win - 5, |_, _| {});
            assert_eq!((pair.q.horizon(), pair.q.far.len()), (7, 1));
            pair.push(6 * win + 7);
            pair.push(5 * win - 4);
            pair.drain(u64::MAX, |_, _| {});
            assert_eq!(pair.popped, 7);
        }

        /// The emulator's use: only each FIFO's front is queued, so a
        /// front re-pushed after its predecessor pops carries an older
        /// `seq` than same-time entries pushed since. The merge must
        /// still pop what one heap of every entry pops. The key is
        /// `(seq, fifo)` and there is no payload, as in the emulator.
        fn a_merge_of_fifo_fronts_pops_like_one_heap_of_every_entry<const W: u32>() {
            for seed in 0..20 {
                let rng = &mut TestRng::from_seed(seed);
                let mut fifos: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); 16];
                let mut q: TimeQ<(u64, u32), (), W> = TimeQ::default();
                let mut heap = BinaryHeap::new();
                let (mut now, mut seq) = (0u64, 0u64);
                for step in 0..3_001 {
                    for _ in 0..rng.below(5) {
                        let f = rng.below(16) as usize;
                        let back = fifos[f].back().map_or(now, |&(t, _)| t.max(now));
                        let t = due::<W>(rng, back, q.horizon());
                        seq += 1;
                        if fifos[f].is_empty() {
                            q.push(t, (seq, f as u32), ());
                        }
                        fifos[f].push_back((t, seq));
                        heap.push(Reverse((t, seq)));
                    }
                    // Half the windows are empty, so several FIFOs queue
                    // entries at one instant; the last drains everything.
                    let end = match step {
                        3_000 => u64::MAX,
                        _ => now + rng.below(16 * width(W)) * rng.below(2),
                    };
                    while let Some((t, (seq, f), ())) = q.pop_through(end) {
                        assert_eq!(heap.pop(), Some(Reverse((t, seq))), "seed {seed}");
                        let fifo = &mut fifos[f as usize];
                        assert_eq!(fifo.pop_front(), Some((t, seq)));
                        if let Some(&(t, seq)) = fifo.front() {
                            q.push(t, (seq, f), ());
                        }
                    }
                    assert!(heap.peek().is_none_or(|Reverse((t, _))| *t > end));
                    now = end;
                }
                assert!(heap.is_empty() && seq > 2_000, "seed {seed}: {seq} pushes");
            }
        }

        fn same_time_ties_pop_by_seq<const W: u32>() {
            let t = 5 * width(W) + 3;
            let mut pair = Pair::<W>::with(&(0..500).map(|k| t + k % 3).collect::<Vec<_>>());
            pair.drain(t, |_, _| {});
            assert_eq!(pair.popped, 167);
            pair.drain(u64::MAX, |_, _| {});
            assert_eq!(pair.popped, 500);
        }

        fn equal_times_and_seqs_pop_by_item_and_every_entry_drains<const W: u32>() {
            let mut q: TimeQ<(u64, u32), String, W> = TimeQ::default();
            for (t, key) in [(7, (2, 5)), (7, (2, 1)), (7, (2, 3)), (7, (1, 9)), (span(W), (0, 4))] {
                q.push(t, key, key.1.to_string());
            }
            assert_eq!(q.pop_through(7), Some((7, (1, 9), "9".into())));
            assert_eq!(q.pop_through(7), Some((7, (2, 1), "1".into())));
            let mut rest: Vec<_> = q.into_entries().collect();
            rest.sort_unstable();
            let want = [(7, (2, 3), "3"), (7, (2, 5), "5"), (span(W), (0, 4), "4")];
            assert_eq!(rest, want.map(|(t, key, v)| (t, key, v.to_string())));
        }

        fn an_empty_ring_jumps_to_the_first_window<const W: u32>() {
            let far: Vec<u64> = (0..50).map(|k| 10 * span(W) + k * 977 % span(W)).collect();
            let mut pair = Pair::<W>::with(&far);
            pair.push(3);
            // Nothing but the near entry is due; the far ones stay put.
            pair.drain(9 * span(W), |_, _| {});
            let far: usize = pair.q.far.values().map(Vec::len).sum();
            assert_eq!((pair.popped, far), (1, 50));
            // The ring is empty, so the next pop jumps, and later pushes
            // land relative to the new start.
            pair.drain(10 * span(W) + 977, |pair, t| pair.push(t + width(W) / 2 + 1));
            pair.drain(u64::MAX, |_, _| {});
        }

        fn the_ring_wraps_round_many_times<const W: u32>() {
            let mut pair = Pair::<W>::with(&[0]);
            // Each pop pushes one entry just under a ring span ahead.
            let mut left = 3 * RING;
            pair.drain(u64::MAX, |pair, t| {
                if left > 0 {
                    left -= 1;
                    pair.push(t + span(W) - 1 - (left % width(W)));
                    pair.push(t + width(W).max(2) - 1);
                }
            });
            assert!(pair.popped > 6 * RING as usize && pair.q.base > 2 * RING);
        }

        fn a_window_can_end_inside_a_bucket<const W: u32>() {
            let w = width(W);
            let times = [7, w - 1, w, w + 5, w + 9];
            let mut pair = Pair::<W>::with(&times);
            for end in [w / 2, w - 1, w + 5, w + 8] {
                pair.drain(end, |_, _| {});
                let due = times.iter().filter(|&&t| t <= end).count();
                assert_eq!(pair.popped, due, "through {end}");
            }
        }
    }
}
