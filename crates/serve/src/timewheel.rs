//! A hierarchical timer wheel: the event engine's priority queue for
//! simulated timestamps, scaling to millions of pending events.
//!
//! [`TimerWheel`] replaces `BinaryHeap<Reverse<(u64, K)>>` in the
//! serving engine with the classic calendar-queue structure (Varghese
//! & Lauck, SOSP'87): `LEVELS` wheels of 64 slots each, level `l`
//! covering spans of `64^l` cycles, with a `u64` occupancy bitmap per
//! level so finding the next non-empty slot is a couple of
//! trailing-zero counts instead of a heap rebalance. Insertions and
//! pops are O(1) amortized in the common near-future case, against
//! O(log n) for a binary heap over every pending completion.
//!
//! The wheel is **order-exact** with the heap it replaces: entries pop
//! in strictly ascending `(time, key)` order, with `K: Ord` breaking
//! ties exactly as the tuple ordering did. Two details make that
//! exactness hold:
//!
//! * A slot drains through a small **due heap**, so same-time entries
//!   leave in key order even when they were inserted out of order.
//! * Insertions at or before the cursor (an adaptive policy arming a
//!   deadline in the past, or a zero-latency completion) bypass the
//!   wheel and go straight to the due heap, which keeps them ordered
//!   against the already-due entries instead of clamping them forward.
//!
//! The cursor only ever advances to the time of an entry actually
//! popped, so the wheel never "skips" simulated time on its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits per level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to cover the full `u64` timestamp range.
const LEVELS: usize = 11;

/// A hierarchical timer wheel over `(time, key)` entries, popping in
/// ascending `(time, key)` order — a drop-in, order-exact replacement
/// for `BinaryHeap<Reverse<(u64, K)>>` in the event engine.
#[derive(Debug, Clone)]
pub struct TimerWheel<K: Ord + Copy> {
    /// `slots[level][slot]`: pending entries, unordered within a slot.
    slots: Vec<Vec<Vec<(u64, K)>>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[level][s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// Entries at or before `cursor`, ready to pop in `(time, key)`
    /// order.
    due: BinaryHeap<Reverse<(u64, K)>>,
    /// The wheel's notion of "now": every wheel entry is strictly
    /// after it, every due entry at or before it.
    cursor: u64,
    len: usize,
}

impl<K: Ord + Copy> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> TimerWheel<K> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        Self {
            slots: vec![vec![Vec::new(); SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            due: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `key` at `time`. Times at or before the latest popped
    /// time are allowed and pop next in exact `(time, key)` order.
    pub fn push(&mut self, time: u64, key: K) {
        self.len += 1;
        if time <= self.cursor {
            self.due.push(Reverse((time, key)));
        } else {
            let (level, slot) = self.locate(time);
            self.slots[level][slot].push((time, key));
            self.occupied[level] |= 1 << slot;
        }
    }

    /// The earliest pending `(time, key)`, without removing it.
    pub fn peek(&mut self) -> Option<(u64, K)> {
        self.make_due();
        self.due.peek().map(|Reverse(entry)| *entry)
    }

    /// Removes and returns the earliest pending `(time, key)`.
    pub fn pop(&mut self) -> Option<(u64, K)> {
        self.make_due();
        let Reverse(entry) = self.due.pop()?;
        self.len -= 1;
        Some(entry)
    }

    /// The earliest pending time, **without mutating the wheel**: the
    /// cheap probe behind the cluster barrier's fast path, where most
    /// shards have no event before the next arrival and must be
    /// skippable without cascading any slots.
    ///
    /// Exactness: every due entry is at or before the cursor and every
    /// wheel entry strictly after it, so a non-empty due heap already
    /// holds the global minimum. Otherwise the scan mirrors
    /// `TimerWheel::make_due` — the lowest level with an occupied
    /// slot ahead of the cursor holds the nearest times, and within
    /// that first slot the minimum entry time is the answer (at level
    /// 0 all entries in a slot share one time).
    pub fn peek_next_event_cycle(&self) -> Option<u64> {
        if let Some(Reverse((time, _))) = self.due.peek() {
            return Some(*time);
        }
        for level in 0..LEVELS {
            let pos = (self.cursor >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
            let ahead = self.occupied[level] & !((1u64 << pos) | ((1u64 << pos) - 1));
            if ahead != 0 {
                let slot = ahead.trailing_zeros() as usize;
                let min = self.slots[level][slot]
                    .iter()
                    .map(|&(time, _)| time)
                    .min()
                    .expect("occupancy bit set on an empty slot");
                return Some(min);
            }
        }
        None
    }

    /// All pending `(time, key)` entries in unspecified order — a
    /// diagnostics iterator for debug cross-checks (e.g. recomputing
    /// the engine's in-flight request counter).
    pub fn iter(&self) -> impl Iterator<Item = (u64, K)> + '_ {
        self.due
            .iter()
            .map(|Reverse(entry)| *entry)
            .chain(self.slots.iter().flatten().flatten().copied())
    }

    /// The wheel level and slot a strictly-future `time` hashes to:
    /// the lowest level whose span, anchored at the cursor, still
    /// contains it.
    fn locate(&self, time: u64) -> (usize, usize) {
        debug_assert!(time > self.cursor);
        for level in 0..LEVELS {
            let shift = SLOT_BITS * (level as u32 + 1);
            let same_window = shift >= u64::BITS || (time >> shift) == (self.cursor >> shift);
            if same_window {
                let slot = (time >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
                return (level, slot);
            }
        }
        unreachable!("LEVELS covers the full u64 range")
    }

    /// Ensures the global minimum entry (if any) sits in the due heap,
    /// advancing the cursor and cascading coarse slots as needed.
    fn make_due(&mut self) {
        while self.due.is_empty() {
            // Find the lowest level with an occupied slot strictly
            // after the cursor's own position; lower levels hold
            // strictly nearer times, so the first hit is the minimum.
            let mut found = None;
            for level in 0..LEVELS {
                let pos = (self.cursor >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
                // The cursor's own slot is always empty at every level
                // (drained on arrival), so only strictly-later slots
                // within the current window matter.
                let ahead = self.occupied[level] & !((1u64 << pos) | ((1u64 << pos) - 1));
                if ahead != 0 {
                    found = Some((level, ahead.trailing_zeros() as usize));
                    break;
                }
            }
            let Some((level, slot)) = found else {
                return; // wheel fully empty
            };
            let entries = std::mem::take(&mut self.slots[level][slot]);
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Exact-time slot: everything in it shares one time;
                // the due heap orders the keys.
                let base = self.cursor & !(SLOTS as u64 - 1);
                self.cursor = base + slot as u64;
                self.due.extend(entries.into_iter().map(Reverse));
            } else {
                // Coarse slot: advance the cursor to the slot's base
                // and cascade its entries into finer levels (an entry
                // landing exactly on the base becomes due).
                let span = SLOT_BITS * level as u32;
                // At the top level the window mask covers the whole
                // u64 range; the shift would overflow, so special-case
                // it to zero.
                let window = if span + SLOT_BITS >= u64::BITS {
                    0
                } else {
                    self.cursor & !((1u64 << (span + SLOT_BITS)) - 1)
                };
                self.cursor = window | ((slot as u64) << span);
                for (time, key) in entries {
                    if time <= self.cursor {
                        self.due.push(Reverse((time, key)));
                    } else {
                        let (l, s) = self.locate(time);
                        self.slots[l][s].push((time, key));
                        self.occupied[l] |= 1 << s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A cheap deterministic generator (the workload LCG's constants).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 ^ (self.0 >> 32)
        }
    }

    /// Drains interleaved push/pop traffic through both queues and
    /// demands identical pop sequences.
    fn exact_match(seed: u64, ops: usize, spread: u64) {
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut rng = Lcg(seed);
        let mut now = 0u64;
        for i in 0..ops {
            if !rng.next().is_multiple_of(3) || heap.is_empty() {
                // Push around "now": mostly future, sometimes at or
                // before now (stale deadlines).
                let t = now.saturating_add(rng.next() % spread).saturating_sub(spread / 8);
                wheel.push(t, i);
                heap.push(Reverse((t, i)));
            } else {
                let a = wheel.pop();
                let b = heap.pop().map(|Reverse(e)| e);
                assert_eq!(a, b, "pop #{i} diverged");
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek(), heap.peek().map(|Reverse(e)| *e));
        }
        while let Some(Reverse(e)) = heap.pop() {
            assert_eq!(wheel.pop(), Some(e));
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
        assert_eq!(wheel.peek(), None);
    }

    #[test]
    fn matches_binary_heap_near_future() {
        exact_match(1, 4_000, 200);
    }

    #[test]
    fn matches_binary_heap_far_future() {
        // Spreads past one level-0 window force cascades.
        exact_match(2, 2_000, 1 << 20);
    }

    #[test]
    fn matches_binary_heap_huge_spread() {
        // Multi-level cascades, including > 2^32 jumps.
        exact_match(3, 1_000, 1 << 40);
    }

    #[test]
    fn matches_binary_heap_top_level_spread() {
        // Times above bit 60 land in the top wheel level, where the
        // cascade's window mask covers the whole u64 range (regression:
        // the mask shift overflowed here).
        exact_match(4, 500, 1 << 62);
    }

    #[test]
    fn extreme_times_cascade_through_every_level() {
        let mut wheel = TimerWheel::new();
        wheel.push(u64::MAX, 0usize);
        wheel.push(1, 1);
        wheel.push(u64::MAX - 1, 2);
        wheel.push(1 << 63, 3);
        assert_eq!(wheel.pop(), Some((1, 1)));
        assert_eq!(wheel.pop(), Some((1 << 63, 3)));
        assert_eq!(wheel.pop(), Some((u64::MAX - 1, 2)));
        assert_eq!(wheel.pop(), Some((u64::MAX, 0)));
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_time_entries_pop_in_key_order() {
        let mut wheel = TimerWheel::new();
        for key in [5usize, 1, 9, 3] {
            wheel.push(100, key);
        }
        // Interleave a pop with a late same-time insertion.
        assert_eq!(wheel.pop(), Some((100, 1)));
        wheel.push(100, 0);
        assert_eq!(wheel.pop(), Some((100, 0)));
        assert_eq!(wheel.pop(), Some((100, 3)));
        assert_eq!(wheel.pop(), Some((100, 5)));
        assert_eq!(wheel.pop(), Some((100, 9)));
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_insertions_order_against_due_entries() {
        let mut wheel = TimerWheel::new();
        wheel.push(1_000, 1usize);
        assert_eq!(wheel.pop(), Some((1_000, 1)));
        // The cursor sits at 1_000 now; a stale deadline armed earlier
        // must still pop before a later one.
        wheel.push(500, 2);
        wheel.push(1_500, 3);
        wheel.push(900, 4);
        assert_eq!(wheel.pop(), Some((500, 2)));
        assert_eq!(wheel.pop(), Some((900, 4)));
        assert_eq!(wheel.pop(), Some((1_500, 3)));
    }

    #[test]
    fn tuple_keys_break_ties_lexicographically() {
        // The deadline heap's (model, front id) payload.
        let mut wheel: TimerWheel<(usize, u64)> = TimerWheel::new();
        wheel.push(70, (1, 9));
        wheel.push(70, (0, 12));
        wheel.push(70, (1, 2));
        wheel.push(60, (7, 7));
        assert_eq!(wheel.pop(), Some((60, (7, 7))));
        assert_eq!(wheel.pop(), Some((70, (0, 12))));
        assert_eq!(wheel.pop(), Some((70, (1, 2))));
        assert_eq!(wheel.pop(), Some((70, (1, 9))));
    }

    #[test]
    fn million_entry_drain_is_sorted() {
        let mut wheel = TimerWheel::new();
        let mut rng = Lcg(9);
        let n = 1_000_000usize;
        for key in 0..n {
            wheel.push(rng.next() % (1 << 34), key);
        }
        assert_eq!(wheel.len(), n);
        let mut last = (0u64, 0usize);
        let mut popped = 0usize;
        while let Some(e) = wheel.pop() {
            assert!(e >= last, "out of order: {e:?} after {last:?}");
            last = e;
            popped += 1;
        }
        assert_eq!(popped, n);
    }
}
