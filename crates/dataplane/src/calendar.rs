//! The emulator's event queue: a calendar of time buckets.
//!
//! Each shard of [`crate::netem::PacketNet`] keeps one calendar of its
//! own heads: one per source whose ingress node it owns (the next
//! emission) and one per backlogged directed link into its nodes (the
//! front packet). That is about 160 heads on the loopbench fat tree,
//! split between the shards, each due within milliseconds of the
//! clock. A ring of `RING` buckets, `2^WIDTH_BITS` ns each, covers the
//! next 16.8 ms. A bucket is a list kept in `(t_ns, seq, item)` order,
//! threaded through one slab with a free list, and a two-level bitmap
//! finds the next non-empty bucket in three word scans. Entries due
//! beyond the ring wait in a small heap and move into the ring as the
//! clock reaches them, so every ring entry precedes every far one.
//!
//! Entries come out least `(t_ns, seq, item)` first, the order a
//! `BinaryHeap<Reverse<(t_ns, seq, item)>>` pops, provided no entry is
//! pushed earlier than the last one popped (the emulator's clock never
//! runs backwards).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bucket is `2^WIDTH_BITS` ns wide: about 4 µs, so a bucket's list
/// rarely holds more than one head on the loopbench fat tree (16 µs
/// buckets walked ≈ 2 entries per insert, and were slower).
const WIDTH_BITS: u32 = 12;
/// Buckets in the ring: 64 bitmap words of 64 bits, one summary word.
const RING: u64 = 1 << 12;
const MASK: u64 = RING - 1;
/// The end of a list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot<T> {
    t_ns: u64,
    seq: u64,
    item: T,
    /// The next slot of the same bucket (or of the free list).
    next: u32,
}

/// A min-queue of unique `(t_ns, seq, item)` entries.
#[derive(Debug)]
pub(crate) struct Calendar<T> {
    /// The absolute bucket (`t_ns >> WIDTH_BITS`) the ring starts at:
    /// every ring entry's bucket is in `base..base + RING`, every far
    /// entry's at or past `base + RING`.
    base: u64,
    /// The first slot of each bucket's list, by absolute bucket mod
    /// `RING`.
    first: Box<[u32]>,
    /// Bit `b` of word `w`: bucket `64·w + b` is non-empty.
    words: [u64; 64],
    /// Bit `w`: word `w` is non-zero.
    summary: u64,
    slots: Vec<Slot<T>>,
    /// The head of the free slots' list.
    free: u32,
    far: BinaryHeap<Reverse<(u64, u64, T)>>,
}

impl<T: Copy + Ord> Calendar<T> {
    pub(crate) fn new() -> Self {
        Calendar {
            base: 0,
            first: vec![NIL; RING as usize].into_boxed_slice(),
            words: [0; 64],
            summary: 0,
            slots: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
        }
    }

    /// Adds an entry due at `t_ns`, never earlier than the last pop's.
    pub(crate) fn push(&mut self, t_ns: u64, seq: u64, item: T) {
        let bucket = t_ns >> WIDTH_BITS;
        debug_assert!(bucket >= self.base, "pushed behind the clock");
        if bucket - self.base < RING {
            self.insert(t_ns, seq, item);
        } else {
            self.far.push(Reverse((t_ns, seq, item)));
        }
    }

    /// Removes and returns the least entry if it is due at or before
    /// `end`.
    pub(crate) fn pop_through(&mut self, end: u64) -> Option<(u64, u64, T)> {
        let bucket = match self.next_bucket() {
            Some(bucket) => bucket,
            None => {
                // An empty ring jumps to the far heap's least entry.
                let &Reverse((t_ns, ..)) = self.far.peek()?;
                if t_ns > end {
                    return None;
                }
                self.advance(t_ns >> WIDTH_BITS);
                self.next_bucket()?
            }
        };
        let at = (bucket & MASK) as usize;
        let head = self.first[at];
        let slot = self.slots[head as usize];
        if slot.t_ns > end {
            return None;
        }
        self.first[at] = slot.next;
        if slot.next == NIL {
            self.words[at / 64] &= !(1 << (at % 64));
            if self.words[at / 64] == 0 {
                self.summary &= !(1 << (at / 64));
            }
        }
        self.slots[head as usize].next = self.free;
        self.free = head;
        self.advance(bucket);
        Some((slot.t_ns, slot.seq, slot.item))
    }

    /// Every entry, in no particular order.
    pub(crate) fn into_entries(self) -> Vec<(u64, u64, T)> {
        let mut out: Vec<(u64, u64, T)> = (self.far.into_iter()).map(|Reverse(e)| e).collect();
        for &head in self.first.iter() {
            let mut next = head;
            while next != NIL {
                let s = &self.slots[next as usize];
                out.push((s.t_ns, s.seq, s.item));
                next = s.next;
            }
        }
        out
    }

    /// Links an entry into its ring bucket, in `(t_ns, seq, item)` order.
    fn insert(&mut self, t_ns: u64, seq: u64, item: T) {
        let at = ((t_ns >> WIDTH_BITS) & MASK) as usize;
        let mut next = self.first[at];
        let mut prev = NIL;
        while next != NIL {
            let s = &self.slots[next as usize];
            if (s.t_ns, s.seq, s.item) > (t_ns, seq, item) {
                break;
            }
            prev = next;
            next = s.next;
        }
        let slot = Slot {
            t_ns,
            seq,
            item,
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

    /// Moves the ring's start to `bucket` and pulls in the far entries
    /// the ring now covers.
    fn advance(&mut self, bucket: u64) {
        self.base = self.base.max(bucket);
        while let Some(&Reverse((t_ns, seq, item))) = self.far.peek() {
            if (t_ns >> WIDTH_BITS) - self.base >= RING {
                break;
            }
            self.far.pop();
            self.insert(t_ns, seq, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    const WIDTH: u64 = 1 << WIDTH_BITS;
    const SPAN: u64 = RING * WIDTH;

    /// The calendar and a binary heap, fed the same entries.
    struct Pair {
        cal: Calendar<u32>,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
        popped: usize,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                cal: Calendar::new(),
                heap: BinaryHeap::new(),
                seq: 0,
                popped: 0,
            }
        }

        fn push(&mut self, t_ns: u64) {
            self.seq += 1;
            let item = (self.seq % 7) as u32;
            self.cal.push(t_ns, self.seq, item);
            self.heap.push(Reverse((t_ns, self.seq, item)));
        }

        /// Pops both through `end`, comparing every entry, and calls
        /// `then` after each pop so it can push at or after the entry.
        fn drain(&mut self, end: u64, mut then: impl FnMut(&mut Pair, u64)) {
            loop {
                let want = match self.heap.peek() {
                    Some(&Reverse(top)) if top.0 <= end => {
                        self.heap.pop();
                        Some(top)
                    }
                    _ => None,
                };
                let got = self.cal.pop_through(end);
                assert_eq!(got, want, "pop {} through {end}", self.popped);
                let Some((t_ns, ..)) = got else { return };
                self.popped += 1;
                then(self, t_ns);
            }
        }
    }

    /// An offset from the clock: a tie, inside a bucket, inside the
    /// ring, or past its horizon.
    fn offset(rng: &mut TestRng) -> u64 {
        match rng.below(8) {
            0 | 1 => 0,
            2 => rng.below(WIDTH),
            3..=5 => rng.below(64 * WIDTH),
            6 => rng.below(SPAN),
            _ => SPAN + rng.below(3 * SPAN),
        }
    }

    /// A seeded script of windows. Each window seeds entries ahead of
    /// the clock, then drains through an end that lands inside a
    /// bucket (and sometimes several ring spans on), each pop pushing
    /// a few followers at or after its own time, as the emulator does.
    fn script(seed: u64) -> usize {
        let rng = &mut TestRng::from_seed(seed);
        let mut pair = Pair::new();
        let mut now = rng.below(1 << 40);
        for _ in 0..12 {
            for _ in 0..rng.below(40) {
                let t = now + offset(rng);
                pair.push(t);
            }
            let window = match rng.below(4) {
                0 => rng.below(WIDTH),
                1 | 2 => rng.below(256 * WIDTH),
                _ => rng.below(4 * SPAN),
            };
            let end = now + window;
            let mut budget = 2_000;
            pair.drain(end, |pair, t_ns| {
                if budget > 0 {
                    budget -= 1;
                    for _ in 0..rng.below(3) {
                        pair.push(t_ns + offset(rng));
                    }
                }
            });
            now = end;
        }
        pair.drain(u64::MAX, |_, _| {});
        assert!(pair.heap.is_empty());
        pair.popped
    }

    #[test]
    fn pops_in_heap_order_on_seeded_scripts() {
        let popped: usize = (0..200).map(script).sum();
        assert!(popped > 100_000, "{popped} pops");
    }

    /// The emulator's use: only each FIFO's front is queued, so a front
    /// re-pushed after its predecessor pops carries an older `seq` than
    /// same-nanosecond entries pushed since. The merge must still pop
    /// what one heap of every entry pops.
    #[test]
    fn a_merge_of_fifo_fronts_pops_like_one_heap_of_every_entry() {
        use std::collections::VecDeque;
        for seed in 0..40 {
            let rng = &mut TestRng::from_seed(seed);
            let mut fifos: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); 16];
            let mut cal = Calendar::new();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut popped) = (0u64, 0u64, 0);
            for step in 0..3_001 {
                for _ in 0..rng.below(5) {
                    let f = rng.below(16) as usize;
                    let back = fifos[f].back().map_or(now, |&(t, _)| t.max(now));
                    // Mostly ties and near entries; one in 64 past the
                    // ring's horizon.
                    let t = back
                        + match rng.below(64) {
                            0..=19 => 0,
                            20..=31 => 1,
                            32..=47 => rng.below(WIDTH),
                            48..=62 => rng.below(64 * WIDTH),
                            _ => SPAN + rng.below(SPAN / 4),
                        };
                    seq += 1;
                    if fifos[f].is_empty() {
                        cal.push(t, seq, f as u32);
                    }
                    fifos[f].push_back((t, seq));
                    heap.push(Reverse((t, seq)));
                }
                // Half the windows are empty, so several FIFOs queue
                // entries at one nanosecond; the last drains everything.
                let end = match step {
                    3_000 => u64::MAX,
                    _ => now + rng.below(16 * WIDTH) * rng.below(2),
                };
                while let Some((t, seq, f)) = cal.pop_through(end) {
                    let Reverse(want) = heap.pop().unwrap();
                    assert_eq!((t, seq), want, "seed {seed}, step {step}");
                    popped += 1;
                    let fifo = &mut fifos[f as usize];
                    assert_eq!(fifo.pop_front(), Some((t, seq)));
                    if let Some(&(t, seq)) = fifo.front() {
                        cal.push(t, seq, f);
                    }
                }
                assert!(heap.peek().is_none_or(|Reverse((t, _))| *t > end));
                now = end;
            }
            assert!(heap.is_empty());
            assert!(popped > 2_000, "seed {seed}: {popped} pops");
        }
    }

    #[test]
    fn same_nanosecond_ties_pop_by_seq() {
        let mut pair = Pair::new();
        for k in 0..500 {
            pair.push(5 * WIDTH + 3 + (k % 3));
        }
        pair.drain(5 * WIDTH + 3, |_, _| {});
        assert_eq!(pair.popped, 167);
        pair.drain(u64::MAX, |_, _| {});
        assert_eq!(pair.popped, 500);
    }

    #[test]
    fn equal_times_and_seqs_pop_by_item_and_every_entry_drains() {
        let mut cal = Calendar::new();
        for item in [5u32, 1, 3] {
            cal.push(7, 2, item);
        }
        cal.push(7, 1, 9);
        cal.push(3 * SPAN, 0, 4);
        assert_eq!(cal.pop_through(7), Some((7, 1, 9)));
        assert_eq!(cal.pop_through(7), Some((7, 2, 1)));
        let mut rest = cal.into_entries();
        rest.sort_unstable();
        assert_eq!(rest, [(7, 2, 3), (7, 2, 5), (3 * SPAN, 0, 4)]);
    }

    #[test]
    fn an_empty_ring_jumps_to_the_far_heap() {
        let mut pair = Pair::new();
        for k in 0..50 {
            pair.push(10 * SPAN + k * 977);
        }
        pair.push(3);
        // Nothing but the near entry is due; the far ones stay put.
        pair.drain(9 * SPAN, |_, _| {});
        assert_eq!(pair.popped, 1);
        assert_eq!(pair.cal.far.len(), 50);
        // The ring is empty, so the next pop jumps, and later pushes
        // land relative to the new start.
        pair.drain(10 * SPAN + 977, |pair, t_ns| pair.push(t_ns + WIDTH / 2));
        pair.drain(u64::MAX, |_, _| {});
        assert_eq!(pair.popped, 53);
    }

    #[test]
    fn the_ring_wraps_round_many_times() {
        let mut pair = Pair::new();
        pair.push(0);
        // Each pop pushes one entry just under a ring span ahead.
        let mut left = 3 * RING;
        pair.drain(u64::MAX, |pair, t_ns| {
            if left > 0 {
                left -= 1;
                pair.push(t_ns + SPAN - 1 - (left % WIDTH));
                pair.push(t_ns + WIDTH - 1);
            }
        });
        assert!(pair.popped > 6 * RING as usize);
        assert!(pair.cal.base > 2 * RING);
    }

    #[test]
    fn a_window_can_end_inside_a_bucket() {
        let mut pair = Pair::new();
        for t in [7, WIDTH - 1, WIDTH, WIDTH + 5, WIDTH + 9] {
            pair.push(t);
        }
        for (end, popped) in [(6, 0), (WIDTH - 1, 2), (WIDTH + 5, 4), (WIDTH + 8, 4)] {
            pair.drain(end, |_, _| {});
            assert_eq!(pair.popped, popped, "through {end}");
        }
        pair.push(WIDTH + 8);
        pair.drain(u64::MAX, |_, _| {});
        assert_eq!(pair.popped, 6);
    }
}
