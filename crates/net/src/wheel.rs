//! The simulator's event queue: a microsecond-granularity timing wheel
//! (bucketed calendar queue) with a hierarchical occupancy bitmap, backed
//! by an ordered overflow map for beyond-horizon events.
//!
//! The queue's contract is *exact* `(at, seq)` priority order: `pop`
//! returns events in ascending `at`, ties broken by ascending `seq` — the
//! FIFO tie-break the simulator's determinism (and every scenario JSON
//! byte) depends on. The wheel is a drop-in replacement for the
//! `BinaryHeap<Reverse<Event>>` it displaced; a property test in
//! `tests/queue_props.rs` pins pop order against that heap as an oracle.
//!
//! Design:
//!
//! * **Ring**: [`WHEEL_SLOTS`] one-microsecond slots (a ~33 ms horizon).
//!   An event `at` microseconds from the cursor lands in slot
//!   `at % WHEEL_SLOTS`. The cursor only moves forward (to each popped
//!   event's time), and events are only ringed when `at - cursor <
//!   WHEEL_SLOTS`, so a slot can never hold two distinct times at once —
//!   every entry in a slot shares one `at`, and draining a slot in `seq`
//!   order is exactly global `(at, seq)` order.
//! * **Slab**: a slot is a `(head, tail)` pair of indices into one slab
//!   of `{seq, next, value}` nodes shared by the whole ring, with a free
//!   list threaded through `next`. Each slot's list is kept in ascending
//!   `seq`: the simulator's `seq` is a monotonic counter, so a push is an
//!   append at the tail, and a caller that pushes a lower `seq` into an
//!   occupied slot pays a walk from the head to its place. The slab grows
//!   to the largest number of events the ring ever held at once and no
//!   further, whatever the burst any one slot saw.
//! * **Occupancy bitmap**: one bit per slot, plus a second-level summary
//!   word per 64 slots, so finding the next occupied slot is a handful of
//!   word scans (`trailing_zeros`) instead of walking empty slots. A
//!   slot's `(head, tail)` is meaningful only while its bit is set.
//! * **Overflow**: events beyond the horizon (sync ticks, leader
//!   timeouts, client windows, far-future fault injections, and every
//!   delivery slower than 32.8 ms) go to a `BTreeMap` keyed by
//!   `(at, seq)`. `pop` compares the ring head and the overflow head and
//!   takes the smaller key, so overflow events never migrate into the
//!   ring, and the ring never sees a push out of the overflow.
//!
//! Where the traffic goes, counted over one repetition of each benchmark
//! workload (seed 1). `sim_n10_long` (10 validators, 600 simulated
//! seconds): 5,546,593 of 5,825,928 pushes (95 %) go through the ring,
//! 30 % of those into a slot that already holds an event (same-instant
//! bursts); the ring holds at most 4,831 events at once, the whole queue
//! 4,885. `sim_n100_f33` (100 validators over the geo latency matrix):
//! 407,366 of 663,923 pushes (61 %) land in the overflow map, because a
//! one-way delay between regions more than a 65 ms round trip apart (most
//! pairs; up to 150 ms) exceeds the horizon, and 9 % of the ring's pushes
//! find their slot occupied; the ring holds at most 1,663 events at once,
//! the whole queue 6,800. The 4-validator
//! flat-latency probe this queue was first tuned on (hundreds of
//! deliveries in the ring, tens of timers in the overflow) resembles
//! neither.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Ring size in slots (one slot = 1 µs). Covers the common latencies and
/// round-pacing delays; anything further sits in the overflow map.
pub const WHEEL_SLOTS: usize = 1 << 15;

const WORDS: usize = WHEEL_SLOTS / 64;
const SUMMARY_WORDS: usize = WORDS / 64;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// One ringed event, or a link of the free list (`value` is `None`).
struct Node<T> {
    seq: u64,
    /// The slot's next event in ascending `seq`; the next free node when
    /// this one is free. Not read on a slot's tail.
    next: u32,
    value: Option<T>,
}

/// The queue's earliest event: its time, and its slot when the ring
/// rather than the overflow map holds it.
struct Earliest {
    at: u64,
    ring_slot: Option<usize>,
}

/// A deterministic `(at, seq)`-ordered event queue. See the module docs.
pub struct TimingWheel<T> {
    /// Per-slot `(head, tail)` indices into `nodes`, valid while the
    /// slot's occupancy bit is set. All entries of a slot share one `at`
    /// and are linked in ascending `seq`.
    slots: Box<[(u32, u32)]>,
    /// The slab behind every slot's list.
    nodes: Vec<Node<T>>,
    /// Head of the free list through `nodes`, or [`NIL`].
    free: u32,
    /// One occupancy bit per slot.
    words: Box<[u64; WORDS]>,
    /// One bit per occupancy word (summary level).
    summary: [u64; SUMMARY_WORDS],
    /// Lower bound on every queued event's time; only moves forward.
    cursor: SimTime,
    /// Events currently in the ring.
    in_ring: usize,
    /// Beyond-horizon events, keyed by `(at, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            // One zeroed allocation: pages are touched as slots are used.
            slots: vec![(0, 0); WHEEL_SLOTS].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            words: Box::new([0u64; WORDS]),
            summary: [0u64; SUMMARY_WORDS],
            cursor: SimTime::ZERO,
            in_ring: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.in_ring + self.overflow.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value` at `(at, seq)`. `seq` values must be unique
    /// (the simulator hands out a fresh one per push).
    pub fn push(&mut self, at: SimTime, seq: u64, value: T) {
        let horizon = at.0.wrapping_sub(self.cursor.0);
        if at.0 >= self.cursor.0 && horizon < WHEEL_SLOTS as u64 {
            let slot = (at.0 as usize) & (WHEEL_SLOTS - 1);
            let node = self.alloc(seq, value);
            if self.words[slot >> 6] & (1 << (slot & 63)) == 0 {
                self.slots[slot] = (node, node);
                self.words[slot >> 6] |= 1 << (slot & 63);
                self.summary[slot >> 12] |= 1 << ((slot >> 6) & 63);
            } else {
                self.link_in_order(slot, node, seq);
            }
            self.in_ring += 1;
        } else {
            // Beyond the horizon — or, defensively, before the cursor
            // (the ordered map keeps even that exact).
            self.overflow.insert((at.0, seq), value);
        }
    }

    /// A slab node holding `(seq, value)`: the free list's head, or a new
    /// one when every node is in use.
    fn alloc(&mut self, seq: u64, value: T) -> u32 {
        let node = Node { seq, next: NIL, value: Some(value) };
        if self.free == NIL {
            let index = self.nodes.len();
            assert!(index < NIL as usize, "the ring holds fewer than 2^32 events");
            self.nodes.push(node);
            index as u32
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.nodes[index as usize], node).next;
            index
        }
    }

    /// Links `node` into the occupied `slot`'s list at its `seq`.
    fn link_in_order(&mut self, slot: usize, node: u32, seq: u64) {
        let (head, tail) = self.slots[slot];
        if self.nodes[tail as usize].seq <= seq {
            self.nodes[tail as usize].next = node;
            self.slots[slot].1 = node;
            return;
        }
        // Below the tail, so the walk stops at the tail at the latest.
        let mut before = None;
        let mut at = head;
        while self.nodes[at as usize].seq <= seq {
            before = Some(at);
            at = self.nodes[at as usize].next;
        }
        self.nodes[node as usize].next = at;
        match before {
            Some(before) => self.nodes[before as usize].next = node,
            None => self.slots[slot].0 = node,
        }
    }

    /// The time of the next event, if any.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.earliest().map(|e| SimTime(e.at))
    }

    /// Removes and returns the earliest event as `(at, seq, value)`,
    /// advancing the cursor to its time.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let earliest = self.earliest()?;
        Some(self.take(earliest))
    }

    /// Pops the earliest event only if its time is `<= deadline`.
    pub fn pop_if_at_most(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        let earliest = self.earliest()?;
        (earliest.at <= deadline.0).then(|| self.take(earliest))
    }

    /// Moves the cursor forward to `to`, re-anchoring the ring horizon.
    /// The caller must have drained every event at or before `to`
    /// (as `Simulator::run_until` does); an event pushed later but dated
    /// earlier would still be ordered exactly, via the overflow map.
    pub fn advance_to(&mut self, to: SimTime) {
        debug_assert!(self.peek_at().is_none_or(|at| at >= to), "advancing past queued events");
        if to > self.cursor {
            self.cursor = to;
        }
    }

    /// The smallest `(at, seq)` key: the ring's head or the overflow's,
    /// whichever is lower.
    fn earliest(&self) -> Option<Earliest> {
        let over = self.overflow.first_key_value().map(|(&key, _)| key);
        if self.in_ring == 0 {
            return over.map(|(at, _)| Earliest { at, ring_slot: None });
        }
        let start = (self.cursor.0 as usize) & (WHEEL_SLOTS - 1);
        let slot = self.next_occupied(start).expect("in_ring > 0");
        let delta = slot.wrapping_sub(start) & (WHEEL_SLOTS - 1);
        let at = self.cursor.0 + delta as u64;
        let seq = self.nodes[self.slots[slot].0 as usize].seq;
        match over {
            Some(key) if key < (at, seq) => Some(Earliest { at: key.0, ring_slot: None }),
            _ => Some(Earliest { at, ring_slot: Some(slot) }),
        }
    }

    /// Removes the event [`TimingWheel::earliest`] found and advances the
    /// cursor to its time.
    fn take(&mut self, earliest: Earliest) -> (SimTime, u64, T) {
        let Some(slot) = earliest.ring_slot else {
            let ((at, seq), value) = self.overflow.pop_first().expect("overflow head");
            if at > self.cursor.0 {
                self.cursor = SimTime(at);
            }
            return (SimTime(at), seq, value);
        };
        let (head, tail) = self.slots[slot];
        let node = &mut self.nodes[head as usize];
        let seq = node.seq;
        let value = node.value.take().expect("a linked node holds a value");
        if head == tail {
            self.words[slot >> 6] &= !(1 << (slot & 63));
            if self.words[slot >> 6] == 0 {
                self.summary[slot >> 12] &= !(1 << ((slot >> 6) & 63));
            }
        } else {
            self.slots[slot].0 = node.next;
        }
        node.next = self.free;
        self.free = head;
        self.in_ring -= 1;
        self.cursor = SimTime(earliest.at);
        (self.cursor, seq, value)
    }

    /// First occupied slot in the wrapped window starting at `start`
    /// (inclusive) — i.e. in cursor order, which equals time order.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        // Bits of the start word at or after the start position.
        let high = self.words[w0] & (!0u64 << (start & 63));
        if high != 0 {
            return Some((w0 << 6) | high.trailing_zeros() as usize);
        }
        if let Some(slot) = self.scan_words(w0 + 1, WORDS) {
            return Some(slot);
        }
        if let Some(slot) = self.scan_words(0, w0) {
            return Some(slot);
        }
        // Wrapped all the way around: the start word's earlier bits hold
        // events near the far edge of the horizon.
        let low = self.words[w0] & !(!0u64 << (start & 63));
        if low != 0 {
            return Some((w0 << 6) | low.trailing_zeros() as usize);
        }
        None
    }

    /// First occupied slot among words `[lo, hi)`, skipping empty
    /// 64-word groups via the summary level.
    fn scan_words(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut w = lo;
        while w < hi {
            if w & 63 == 0 {
                let group = self.summary[w >> 6];
                if group == 0 {
                    w += 64;
                    continue;
                }
                let skip = (group >> (w & 63)).trailing_zeros() as usize;
                w += skip;
                if w >= hi {
                    return None;
                }
            }
            if self.words[w] != 0 {
                return Some((w << 6) | self.words[w].trailing_zeros() as usize);
            }
            w += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, v)) = wheel.pop() {
            out.push((at.0, seq, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(SimTime(50), 0, 1);
        w.push(SimTime(10), 1, 2);
        w.push(SimTime(10), 2, 3);
        w.push(SimTime(7), 3, 4);
        assert_eq!(drain(&mut w), vec![(7, 3, 4), (10, 1, 2), (10, 2, 3), (50, 0, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_burst_is_fifo() {
        let mut w = TimingWheel::new();
        for seq in 0..100u64 {
            w.push(SimTime(42), seq, seq as u32);
        }
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 100);
        for (i, (at, seq, _)) in popped.iter().enumerate() {
            assert_eq!((*at, *seq), (42, i as u64));
        }
    }

    #[test]
    fn lower_seq_pushed_later_is_linked_in_order() {
        // Not what the simulator does (its seq only grows), but the
        // contract is (at, seq) order for any caller: below the tail,
        // below the head, between two nodes, and above the tail again.
        let mut w = TimingWheel::new();
        for seq in [5u64, 9, 7, 1, 8, 12, 0] {
            w.push(SimTime(42), seq, seq as u32);
        }
        w.push(SimTime(41), 6, 6);
        let popped: Vec<(u64, u64)> =
            drain(&mut w).iter().map(|(at, seq, _)| (*at, *seq)).collect();
        assert_eq!(
            popped,
            vec![(41, 6), (42, 0), (42, 1), (42, 5), (42, 7), (42, 8), (42, 9), (42, 12)]
        );
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut w = TimingWheel::new();
        let far = WHEEL_SLOTS as u64 * 10;
        w.push(SimTime(far), 0, 1);
        w.push(SimTime(3), 1, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_at(), Some(SimTime(3)));
        assert_eq!(w.pop(), Some((SimTime(3), 1, 2)));
        assert_eq!(w.pop(), Some((SimTime(far), 0, 1)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn overflow_and_ring_interleave_exactly_at_the_same_instant() {
        // seq 0 lands in overflow (far future at push time); after the
        // cursor advances, seq 1 rings the same instant. The overflow
        // entry must still pop first — the FIFO tie-break crosses
        // structures.
        let mut w = TimingWheel::new();
        let t = WHEEL_SLOTS as u64 + 100;
        w.push(SimTime(t), 0, 1);
        w.push(SimTime(200), 1, 2);
        assert_eq!(w.pop(), Some((SimTime(200), 1, 2)));
        w.push(SimTime(t), 2, 3); // now within horizon: rings
        assert_eq!(w.pop(), Some((SimTime(t), 0, 1)), "overflow seq 0 before ring seq 2");
        assert_eq!(w.pop(), Some((SimTime(t), 2, 3)));
    }

    #[test]
    fn rollover_boundary_keeps_order() {
        let mut w = TimingWheel::new();
        // Events straddling a horizon multiple: the wrapped scan must
        // order slot indices by cursor distance, not raw index.
        w.push(SimTime(WHEEL_SLOTS as u64 - 1), 0, 1);
        w.push(SimTime(WHEEL_SLOTS as u64 - 2), 1, 2);
        assert_eq!(w.pop(), Some((SimTime(WHEEL_SLOTS as u64 - 2), 1, 2)));
        // Cursor is near the edge; a push wrapping past the boundary
        // lands in a low slot index but must pop after the edge event.
        w.push(SimTime(WHEEL_SLOTS as u64 + 5), 2, 3);
        assert_eq!(w.pop(), Some((SimTime(WHEEL_SLOTS as u64 - 1), 0, 1)));
        assert_eq!(w.pop(), Some((SimTime(WHEEL_SLOTS as u64 + 5), 2, 3)));
    }

    #[test]
    fn advance_to_reanchors_without_losing_events() {
        let mut w = TimingWheel::new();
        w.push(SimTime(1_000_000), 0, 1);
        w.advance_to(SimTime(999_990));
        // Now within the horizon of the new cursor — and a fresh push
        // right behind it keeps exact order.
        w.push(SimTime(999_995), 1, 2);
        assert_eq!(w.pop(), Some((SimTime(999_995), 1, 2)));
        assert_eq!(w.pop(), Some((SimTime(1_000_000), 0, 1)));
    }

    #[test]
    fn pop_if_at_most_respects_the_deadline() {
        let mut w = TimingWheel::new();
        w.push(SimTime(10), 0, 1);
        w.push(SimTime(20), 1, 2);
        assert_eq!(w.pop_if_at_most(SimTime(15)), Some((SimTime(10), 0, 1)));
        assert_eq!(w.pop_if_at_most(SimTime(15)), None);
        assert_eq!(w.len(), 1);
    }

    /// Heap bytes the wheel owns for its ring. The exhaustive
    /// destructuring makes a new field fail to compile until it is
    /// accounted for here.
    fn ring_bytes<T>(wheel: &TimingWheel<T>) -> usize {
        use std::mem::{size_of, size_of_val};
        let TimingWheel {
            slots,
            nodes,
            free: _,
            words,
            summary: _,
            cursor: _,
            in_ring: _,
            overflow,
        } = wheel;
        assert!(overflow.is_empty(), "the overflow map's nodes are not counted");
        size_of_val(&**slots) + nodes.capacity() * size_of::<Node<T>>() + size_of_val(&**words)
    }

    #[test]
    fn footprint_follows_events_in_flight() {
        // Every slot in turn takes a burst of 32 events due 255 µs ahead:
        // 1,048,576 pushes and pops, and once the pipeline has filled, 256
        // occupied slots x 32 = 8,192 events in flight at the moment
        // before each instant is drained. Per-slot buffers kept for ever
        // cost 32,768 x 32 entries here; the slab must stop at the high-
        // water mark, which means every freed node is reused.
        const BURST: u64 = 32;
        const AHEAD: u64 = 255;
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u64;
        let mut popped = 0u64;
        let mut high_water = 0usize;
        for now in 0..WHEEL_SLOTS as u64 + AHEAD + 1 {
            if now < WHEEL_SLOTS as u64 {
                for _ in 0..BURST {
                    w.push(SimTime(now + AHEAD), seq, seq);
                    seq += 1;
                }
            }
            high_water = high_water.max(w.len());
            while let Some((at, s, v)) = w.pop_if_at_most(SimTime(now)) {
                assert_eq!((at.0, s, v), (now, popped, popped), "FIFO across reused nodes");
                popped += 1;
            }
            w.advance_to(SimTime(now));
        }
        assert!(w.is_empty());
        assert_eq!(popped, WHEEL_SLOTS as u64 * BURST);
        assert!(popped >= 1_000_000);
        assert_eq!(high_water as u64, (AHEAD + 1) * BURST);
        assert_eq!(w.nodes.len(), high_water, "a push with a free node at hand grew the slab");
        // `Vec` doubles, so in general the slab's capacity is the high-
        // water mark rounded up to a power of two; 8,192 is one already.
        let bound = WHEEL_SLOTS * std::mem::size_of::<(u32, u32)>()
            + WORDS * std::mem::size_of::<u64>()
            + high_water.next_power_of_two() * std::mem::size_of::<Node<u64>>();
        assert!(ring_bytes(&w) <= bound, "{} B owned, bound {bound} B", ring_bytes(&w));
    }
}
