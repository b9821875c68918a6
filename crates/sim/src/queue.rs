//! A deterministic priority queue of timestamped events.
//!
//! [`EventQueue`] is a hierarchical bucketed timer wheel with a
//! calendar-queue overflow level. Push and pop are O(1) amortized (no heap
//! sift-up/down churn), its memory follows the events pending rather than
//! the busiest bucket each slot ever held, and pop order is *identical* to
//! a binary heap ordered by `(time, sequence number)`.
//!
//! That heap — the original implementation — lives on in this file's
//! tests as the executable specification: a property test schedules
//! random workloads (same-instant bursts, far-future overflow times,
//! interleaved pops) into both queues and demands bit-identical pop
//! sequences. Event ordering is the simulator's determinism contract, so
//! the wheel is proven against the heap rather than trusted.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. Level `l` slots are `64^l` ms wide, so the
/// wheel spans `64^4` ms ≈ 4.7 virtual hours ahead of the current time;
/// anything farther parks in the calendar overflow until the wheel
/// rotates close enough.
const LEVELS: usize = 4;
/// Total bits covered by the wheel proper.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Entry slots per arena block.
const BLOCK: usize = 16;
/// The block index that ends a chain or the free list.
const NIL: u32 = u32::MAX;
/// Fewest blocks an arena grows by.
const MIN_GROWTH: usize = 8;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    event: E,
}

/// A FIFO bucket: a chain of arena blocks filled front to back. Every
/// block but the tail is full, so `len` alone says where the next entry
/// goes.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain { head: NIL, tail: NIL, len: 0 };
}

/// Every bucket's storage: fixed-size blocks of entry slots carved from
/// one growable buffer, linked by index and recycled through one free
/// list. A bucket that drains gives its blocks back one at a time as it
/// empties them, so the blocks in use follow the entries pending.
///
/// Slot `k` of block `b` is index `b * BLOCK + k` of two lanes, firing
/// times and events. An event lane of `Option<E>` costs no more than `E`
/// for an enum like the simulator's, and keeps moves of an entry in and
/// out of its slot as cheap as moves of `E` (one lane of
/// `Option<Entry<E>>` took twice the time per event for such an `E`).
#[derive(Debug)]
struct Arena<E> {
    times: Vec<SimTime>,
    /// `None` unless the slot carries a pending entry.
    events: Vec<Option<E>>,
    /// The block after block `b` in its chain or in the free list.
    next: Vec<u32>,
    /// First block of the free list.
    free: u32,
}

impl<E> Arena<E> {
    fn new() -> Self {
        Arena { times: Vec::new(), events: Vec::new(), next: Vec::new(), free: NIL }
    }

    /// Room for `blocks` more blocks before the buffers grow.
    fn reserve(&mut self, blocks: usize) {
        self.next.reserve_exact(blocks);
        self.times.reserve_exact(blocks * BLOCK);
        self.events.reserve_exact(blocks * BLOCK);
    }

    /// A block off the free list, or a new one carved from the buffer,
    /// which grows by half its size when full.
    #[inline]
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = self.next[b as usize];
            return b;
        }
        if self.next.len() == self.next.capacity() {
            self.reserve((self.next.len() / 2).max(MIN_GROWTH));
        }
        let b = u32::try_from(self.next.len()).ok().filter(|&b| b != NIL);
        let b = b.expect("block indices stay below NIL");
        self.times.extend([SimTime::ZERO; BLOCK]);
        self.events.extend(std::iter::repeat_with(|| None).take(BLOCK));
        self.next.push(NIL);
        b
    }

    /// Puts block `b` at the front of the free list.
    #[inline]
    fn release(&mut self, b: u32) {
        self.next[b as usize] = self.free;
        self.free = b;
    }

    /// Files `entry` at the back of `chain`.
    #[inline]
    fn push(&mut self, chain: &mut Chain, entry: Entry<E>) {
        let i = chain.len as usize % BLOCK;
        if i == 0 {
            let b = self.alloc();
            if chain.len == 0 {
                chain.head = b;
            } else {
                self.next[chain.tail as usize] = b;
            }
            chain.tail = b;
        }
        let k = chain.tail as usize * BLOCK + i;
        self.times[k] = entry.at;
        self.events[k] = Some(entry.event);
        chain.len += 1;
    }

    /// Moves the entry in slot `i` of block `b` out.
    #[inline]
    fn take(&mut self, b: u32, i: usize) -> Entry<E> {
        let k = b as usize * BLOCK + i;
        let event = self.events[k].take().expect("slot of a pending entry");
        Entry { at: self.times[k], event }
    }

    /// The earliest firing time in `chain`, if any.
    fn earliest(&self, chain: Chain) -> Option<SimTime> {
        let (mut b, mut left) = (chain.head, chain.len as usize);
        let mut min = SimTime::MAX;
        while left > 0 {
            let n = left.min(BLOCK);
            min = self.times[b as usize * BLOCK..][..n].iter().fold(min, |m, &t| m.min(t));
            left -= n;
            b = self.next[b as usize];
        }
        (chain.len > 0).then_some(min)
    }

    /// Drops every entry and puts every block on the free list, in
    /// buffer order.
    fn clear(&mut self) {
        self.events.fill_with(|| None);
        let blocks = self.next.len() as u32;
        for (b, next) in self.next.iter_mut().enumerate() {
            *next = if b as u32 + 1 < blocks { b as u32 + 1 } else { NIL };
        }
        self.free = if blocks > 0 { 0 } else { NIL };
    }

    fn bytes(&self) -> usize {
        self.times.capacity() * size_of::<SimTime>()
            + self.events.capacity() * size_of::<Option<E>>()
            + self.next.capacity() * size_of::<u32>()
    }
}

#[derive(Debug)]
struct Level {
    /// Bitmap of non-empty slots. All occupied slots sit at or after the
    /// current time's slot index (see the invariant note on
    /// [`EventQueue::pop`]), so `trailing_zeros` finds the earliest.
    occupied: u64,
    buckets: [Chain; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level { occupied: 0, buckets: [Chain::EMPTY; SLOTS] }
    }
}

/// An event queue ordered by firing time with stable FIFO tie-breaking.
///
/// Two events scheduled for the same instant are delivered in the order in
/// which they were scheduled. This property is essential for deterministic
/// simulations. The heap implementation needed an explicit sequence number
/// for it; the wheel gets it structurally — buckets preserve insertion
/// order through every cascade, so FIFO position *is* the tie-breaker.
///
/// # Time contract
///
/// Events must not be scheduled before the firing time of the most
/// recently popped event (the queue's *floor*). [`crate::Sim`] enforces
/// exactly this with its "cannot schedule event in the past" panic; the
/// queue itself checks it with a `debug_assert` and, in release builds,
/// clamps a violating event to the floor. [`EventQueue::clear`] resets the
/// floor (and the sequence counter) to zero, so a reused queue behaves
/// exactly like a freshly constructed one.
///
/// # Memory
///
/// The queue's storage follows the events pending, not its history. Every
/// bucket — the 256 wheel slots, each calendar bucket and the batch being
/// drained — is a FIFO chain of 16-entry blocks, and all of them draw
/// their blocks from one arena. A cascade or a drain hands each block
/// back to the arena's free list as soon as it has emptied it, and the
/// next bucket to fill takes it from there, so the blocks in use are the
/// entries pending plus at most one part-filled block per non-empty
/// bucket. The arena itself grows by half its size when no block is free
/// and never shrinks: it is sized for the deepest the queue has been.
/// Only which block holds an entry changes; bucket contents and their
/// order do not. [`slot_bytes`](Self::slot_bytes) reports the total.
///
/// ```
/// use nylon_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "b");
/// q.schedule(SimTime::from_millis(5), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The floor: firing time of the most recently popped event.
    elapsed: u64,
    len: usize,
    levels: [Level; LEVELS],
    /// Far-future events, bucketed by `at >> WHEEL_BITS` (a calendar
    /// queue with day-length `64^4` ms). Buckets keep insertion order and
    /// are re-dealt into the wheel when it rotates into their range.
    overflow: BTreeMap<u64, Chain>,
    /// The level-0 bucket currently being drained, popped from the front.
    /// All entries share one firing time (= `elapsed`).
    pending: Chain,
    /// Slot of `pending`'s head block that holds its next entry.
    cursor: usize,
    arena: Arena<E>,
    /// High-water mark of `len`; [`clear`](Self::clear) keeps it.
    depth_hwm: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            elapsed: 0,
            len: 0,
            levels: std::array::from_fn(|_| Level::new()),
            overflow: BTreeMap::new(),
            pending: Chain::EMPTY,
            cursor: 0,
            arena: Arena::new(),
            depth_hwm: 0,
        }
    }

    /// Creates an empty queue sized for roughly `capacity` events.
    ///
    /// Reserves the arena's blocks for `capacity` entries plus one
    /// part-filled block for each slot of a level, in one reservation per
    /// buffer, so a cold build up to that depth carves its blocks without
    /// growing the arena. A long-lived queue allocates nothing either way
    /// once it has been as deep as it gets, since drained blocks are
    /// reused.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        if capacity > 0 {
            q.arena.reserve(capacity.div_ceil(BLOCK) + SLOTS);
        }
        q
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// `at` must not lie before the firing time of the most recently
    /// popped event (debug-asserted; clamped in release builds — see the
    /// type-level time contract).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at.as_millis() >= self.elapsed,
            "scheduled {at} before the queue floor t={}ms",
            self.elapsed
        );
        self.insert(Entry { at, event });
        self.len += 1;
        self.depth_hwm = self.depth_hwm.max(self.len as u64);
    }

    /// High-water mark of the queue depth since construction, across
    /// [`clear`](Self::clear)s.
    pub fn depth_hwm(&self) -> u64 {
        self.depth_hwm
    }

    /// Events currently parked in each wheel level (report-time telemetry).
    pub fn level_sizes(&self) -> [usize; LEVELS] {
        std::array::from_fn(|l| self.levels[l].buckets.iter().map(|c| c.len as usize).sum())
    }

    /// Bytes of event storage the queue holds: the arena's time, event and
    /// link buffers at their capacity, free blocks included (report-time
    /// telemetry).
    pub fn slot_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Number of occupied far-future calendar buckets.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    #[inline]
    fn insert(&mut self, mut entry: Entry<E>) {
        // Release-mode clamp of a contract violation (see the type-level
        // time contract): the event both files at and reports the floor.
        let at = entry.at.as_millis().max(self.elapsed);
        entry.at = SimTime::from_millis(at);
        let distance = at ^ self.elapsed;
        if distance >> WHEEL_BITS != 0 {
            let bucket = self.overflow.entry(at >> WHEEL_BITS).or_insert(Chain::EMPTY);
            self.arena.push(bucket, entry);
            return;
        }
        let level = if distance == 0 {
            0
        } else {
            ((u64::BITS - 1 - distance.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((at >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
        let lv = &mut self.levels[level];
        self.arena.push(&mut lv.buckets[slot], entry);
        lv.occupied |= 1 << slot;
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending.len == 0 && !self.refill_pending() {
            return None;
        }
        Some(self.pop_pending())
    }

    /// Removes and returns the earliest event *if* it fires at or before
    /// `deadline`; `None` otherwise (the event stays queued).
    ///
    /// The event loop's pacing primitive. When the drain chain already
    /// holds the next batch, one comparison decides both "what is next"
    /// and "is it due" (a `peek_time` + `pop` pair scans the wheel twice
    /// per event). When it is empty, the check goes through the
    /// *read-only* `peek_time` first: a `None` must leave the queue — in
    /// particular its floor — completely untouched, since callers may
    /// keep scheduling below the next pending event's time until it is
    /// actually popped (eagerly cascading here once moved the floor past
    /// a not-yet-due event and silently displaced later schedules; the
    /// `ext-churn` figure caught it via the schedule-before-floor
    /// assert).
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.pending.len != 0 {
            // Every entry of the drain chain fires at the floor.
            if SimTime::from_millis(self.elapsed) > deadline {
                return None;
            }
            return Some(self.pop_pending());
        }
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Takes the front entry of the (non-empty) drain chain, handing its
    /// block back to the arena once the block is empty.
    #[inline]
    fn pop_pending(&mut self) -> (SimTime, E) {
        let b = self.pending.head;
        let e = self.arena.take(b, self.cursor);
        debug_assert_eq!(e.at.as_millis(), self.elapsed, "drain chain entry off the floor");
        self.cursor += 1;
        self.pending.len -= 1;
        self.len -= 1;
        if self.cursor == BLOCK || self.pending.len == 0 {
            self.pending.head = self.arena.next[b as usize];
            self.arena.release(b);
            self.cursor = 0;
        }
        (e.at, e.event)
    }

    /// Re-files every entry of `chain` in order, handing each block back
    /// to the arena as soon as it is empty, so a cascade needs at most
    /// one block more than the entries it moves.
    fn redeal(&mut self, chain: Chain) {
        let (mut b, mut left) = (chain.head, chain.len as usize);
        while left > 0 {
            let n = left.min(BLOCK);
            for i in 0..n {
                let e = self.arena.take(b, i);
                self.insert(e);
            }
            left -= n;
            let next = self.arena.next[b as usize];
            self.arena.release(b);
            b = next;
        }
    }

    /// Ensures the drain chain holds the next due batch (cascading wheel
    /// levels and rotating the calendar as needed). Returns `false` when
    /// the queue is empty.
    ///
    /// Invariant behind the slot scans: whenever the floor lies inside a
    /// level's current slot range, every event of that range has already
    /// been cascaded to lower levels (cascading happens eagerly as the
    /// floor advances), so at every level all occupied slots sit at or
    /// after the floor's slot index and the earliest is the lowest set
    /// bit.
    #[inline]
    fn refill_pending(&mut self) -> bool {
        loop {
            if self.pending.len != 0 {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            // Earliest occupied slot of the lowest non-empty level.
            let Some(level) = (0..LEVELS).find(|&l| self.levels[l].occupied != 0) else {
                // Wheel empty: rotate to the next calendar bucket and
                // re-deal it (entries keep their order, hence their FIFO
                // position).
                let (key, bucket) = self.overflow.pop_first().expect("len > 0, wheel empty");
                self.elapsed = self.elapsed.max(key << WHEEL_BITS);
                self.redeal(bucket);
                continue;
            };
            let lv = &mut self.levels[level];
            let slot = lv.occupied.trailing_zeros() as usize;
            debug_assert!(
                slot >= ((self.elapsed >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1),
                "occupied slot behind the floor"
            );
            lv.occupied &= !(1 << slot);
            let bucket = std::mem::replace(&mut lv.buckets[slot], Chain::EMPTY);
            if level == 0 {
                // A level-0 bucket holds exactly one firing time, in
                // insertion (= sequence) order: it becomes the drain
                // chain as it stands.
                let at = (self.elapsed & !(SLOTS as u64 - 1)) + slot as u64;
                debug_assert!(at >= self.elapsed);
                self.elapsed = at;
                self.pending = bucket;
                self.cursor = 0;
                continue;
            }
            // Cascade: advance the floor to the slot's start and re-deal
            // its entries one level (or more) down, preserving order.
            let width = 1u64 << (SLOT_BITS * level as u32);
            let base = self.elapsed & !((width << SLOT_BITS) - 1);
            let slot_start = base + slot as u64 * width;
            debug_assert!(slot_start >= self.elapsed);
            self.elapsed = slot_start;
            self.redeal(bucket);
        }
    }

    /// The firing time of the earliest event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.pending.len != 0 {
            return Some(SimTime::from_millis(self.elapsed));
        }
        if self.len == 0 {
            return None;
        }
        for (level, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let slot = lv.occupied.trailing_zeros() as usize;
            if level == 0 {
                return Some(SimTime::from_millis(
                    (self.elapsed & !(SLOTS as u64 - 1)) + slot as u64,
                ));
            }
            // Higher-level slots span a range; the earliest event inside
            // is found by scanning the bucket. Rare: only the first peek
            // after the near-time levels drain pays this, the pop that
            // follows cascades the bucket down.
            return self.arena.earliest(lv.buckets[slot]);
        }
        let (_, &bucket) = self.overflow.first_key_value()?;
        self.arena.earliest(bucket)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events and resets the queue to its
    /// freshly-constructed state: the time floor restarts at zero (and
    /// with it the structural FIFO positions), so a cleared queue
    /// schedules and pops exactly like a new one — including times below
    /// the old floor. The arena is kept for reuse: every block goes back
    /// on its free list.
    pub fn clear(&mut self) {
        for lv in &mut self.levels {
            *lv = Level::new();
        }
        self.overflow.clear();
        self.pending = Chain::EMPTY;
        self.cursor = 0;
        self.arena.clear();
        self.elapsed = 0;
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use proptest::prelude::*;

    /// The original `BinaryHeap` event queue: pops in `(time, sequence
    /// number)` order, exactly what the timer wheel must reproduce.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        next_seq: u64,
    }

    impl ReferenceQueue {
        fn schedule(&mut self, at: SimTime, event: usize) {
            self.heap.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            self.heap.pop().map(|Reverse((at, _, event))| (at, event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(10), 2);
        q.schedule(SimTime::from_millis(30), 3);
        assert_eq!(q.pop_before(SimTime::from_millis(5)), None);
        assert_eq!(q.pop_before(SimTime::from_millis(10)), Some((SimTime::from_millis(10), 1)));
        // Second same-instant event comes off the drain-buffer fast path.
        assert_eq!(q.pop_before(SimTime::from_millis(10)), Some((SimTime::from_millis(10), 2)));
        assert_eq!(q.pop_before(SimTime::from_millis(29)), None);
        assert_eq!(q.pop_before(SimTime::from_millis(30)), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop_before(SimTime::MAX), None);
        assert!(q.is_empty());
    }

    /// The PR-5 regression the `ext-churn` figure caught: a `None` from
    /// `pop_before` must leave the queue floor untouched, so callers can
    /// still schedule below the (not yet due) next event.
    #[test]
    fn pop_before_none_leaves_floor_untouched() {
        let mut q = EventQueue::new();
        // Far enough to sit in a higher wheel level: an eager cascade
        // would advance the floor towards it.
        q.schedule(SimTime::from_millis(10_000), "far");
        assert_eq!(q.pop_before(SimTime::from_millis(100)), None);
        // Must neither trip the schedule-before-floor contract (debug
        // assert) nor displace the event's firing order.
        q.schedule(SimTime::from_millis(500), "near");
        assert_eq!(q.pop(), Some((SimTime::from_millis(500), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(10_000), "far")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// The `clear` regression of this PR: a heavily used then cleared
    /// queue must schedule and pop exactly like a freshly constructed one
    /// — earlier times (below the old floor) included, and with the
    /// sequence counter restarted so FIFO positions match.
    #[test]
    fn clear_resets_floor_and_sequence() {
        let mut used: EventQueue<u32> = EventQueue::new();
        for i in 0..500u32 {
            used.schedule(SimTime::from_millis(1_000 + i as u64 * 97), i);
        }
        while used.pop().is_some() {}
        used.clear();

        let mut fresh: EventQueue<u32> = EventQueue::new();
        // Same workload into both, at times far below the used queue's
        // old floor, with same-instant ties probing the sequence reset.
        for i in 0..50u32 {
            used.schedule(SimTime::from_millis((i % 7) as u64), i);
            fresh.schedule(SimTime::from_millis((i % 7) as u64), i);
        }
        loop {
            let (a, b) = (used.pop(), fresh.pop());
            assert_eq!(a, b, "cleared queue diverged from a fresh one");
            if a.is_none() {
                break;
            }
        }
    }

    /// `kernel/queue_depth_hwm` (no golden holds it): the deepest the
    /// queue has been since construction, which neither a pop nor a
    /// `clear` lowers.
    #[test]
    fn depth_hwm_tracks_the_deepest_queue() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_hwm(), 0);
        for i in 0..3 {
            q.schedule(SimTime::from_millis(10 + i), i);
        }
        assert_eq!(q.depth_hwm(), 3);
        assert!(q.pop().is_some() && q.pop().is_some());
        q.schedule(SimTime::from_millis(50), 9);
        assert_eq!((q.len(), q.depth_hwm()), (2, 3));
        for i in 0..3 {
            q.schedule(SimTime::from_millis(60), i);
        }
        assert_eq!(q.depth_hwm(), 5);
        q.clear();
        assert_eq!(q.depth_hwm(), 5, "clear keeps the high-water mark");
        q.schedule(SimTime::from_millis(1), 0);
        assert_eq!(q.depth_hwm(), 5);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_roundtrip() {
        // Beyond the wheel span (64^4 ms): parks in the calendar
        // overflow, still pops in order with FIFO ties.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(1 << 30);
        let farther = SimTime::from_millis((1 << 30) + 1);
        q.schedule(far, 1);
        q.schedule(farther, 3);
        q.schedule(far, 2);
        q.schedule(SimTime::from_millis(5), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 0)));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        assert_eq!(q.pop(), Some((farther, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reschedule_at_current_instant_pops_after_earlier_ties() {
        // Pop one of two same-instant events, schedule a third at that
        // same instant: it must fire after the still-queued second one.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(9);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop(), Some((t, "a")));
        q.schedule(t, "c");
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "c")));
    }

    /// The wheel's memory follows its pending events: 2 000 periodic 5 s
    /// timers (the paper's shuffle period), each re-armed as it fires,
    /// keep most of the population in one 4.096 s level-2 bucket at a
    /// time. Once the level-2 ring has turned (262 s), a wheel whose slots
    /// kept their buffers would hold one sized for that load in every one
    /// of its 64 level-2 slots, ≈ 70 × what is pending. The block arena
    /// stays under 4 × (3.3 measured): a `u64` event has no niche, so its
    /// `Option` takes 16 bytes beside the 8-byte time, 24 to the entry's 16; the 64 level-1 buckets the
    /// cascades fill each end in a part-filled block (182 blocks of 16
    /// carved for 2 000 entries); and the arena's last growth step, by
    /// half, reserved 271.
    #[test]
    fn memory_follows_pending_events() {
        const TIMERS: u64 = 2_000;
        const PERIOD: u64 = 5_000;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = crate::SimRng::new(7);
        for id in 0..TIMERS {
            q.schedule(SimTime::from_millis(rng.gen_range(0..PERIOD)), id);
        }
        let rotation = 1u64 << (SLOT_BITS * 3);
        let mut worst = 0.0f64;
        while let Some((at, id)) = q.pop() {
            let now = at.as_millis();
            if now >= 3 * rotation {
                break;
            }
            q.schedule(SimTime::from_millis(now + PERIOD), id);
            if now >= rotation {
                let pending = q.len() * size_of::<Entry<u64>>();
                worst = worst.max(q.slot_bytes() as f64 / pending as f64);
            }
        }
        println!(
            "worst {worst:.3} blocks {} cap {} len {}",
            q.arena.next.len(),
            q.arena.next.capacity(),
            q.len()
        );
        assert!(worst <= 4.0, "wheel holds {worst:.1} x its pending events' bytes");
    }

    /// Differential oracle driver: replay `ops` into the wheel and the
    /// reference heap, comparing pops (and peeks) step by step. Times are
    /// kept at or above the pop floor, matching the queue's contract.
    fn oracle(ops: &[(u64, u16, u8)]) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap = ReferenceQueue::default();
        let mut floor = 0u64;
        let mut id = 0usize;
        for &(delta, burst, pops) in ops {
            let at = SimTime::from_millis(floor + delta);
            // Same-instant burst of size >= 1.
            for _ in 0..=burst {
                wheel.schedule(at, id);
                heap.schedule(at, id);
                id += 1;
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.heap.len());
            for _ in 0..pops {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "wheel diverged from reference heap");
                if let Some((t, _)) = a {
                    floor = t.as_millis();
                }
            }
        }
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b, "wheel diverged from reference heap in drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn oracle_smoke_all_levels_and_overflow() {
        // Deltas chosen to land on every wheel level and the overflow.
        oracle(&[
            (0, 3, 1),
            (63, 0, 0),
            (64, 2, 2),
            (4_000, 0, 1),
            (300_000, 1, 0),
            (20_000_000, 2, 3), // beyond 64^4 ms: calendar overflow
            (1, 0, 200),
            (0, 5, 0),
        ]);
    }

    proptest! {
        /// The wheel must agree with the reference heap on every pop and
        /// peek, for random schedules with same-instant bursts,
        /// far-future overflow times and interleaved pops.
        #[test]
        fn prop_wheel_matches_reference_heap(
            raw_ops in proptest::collection::vec(
                (
                    0u64..6,          // wheel-level selector (5 = overflow)
                    0u64..1u64 << 40, // raw delta, folded into the level's span
                    0u16..4,          // burst size - 1
                    0u8..6,           // pops after this schedule
                ),
                0..60,
            )
        ) {
            // Bias deltas across every wheel level plus the calendar
            // overflow; a uniform delta would almost never exercise the
            // near levels.
            let spans: [(u64, u64); 6] = [
                (0, 1),                        // same instant
                (1, 64),                       // level 0
                (64, 4_096),                   // level 1
                (4_096, 262_144),              // level 2
                (262_144, 16_777_216),         // level 3
                (16_777_216, 1u64 << 40),      // overflow
            ];
            let ops: Vec<(u64, u16, u8)> = raw_ops
                .iter()
                .map(|&(level, raw, burst, pops)| {
                    let (lo, hi) = spans[level as usize];
                    (lo + raw % (hi - lo), burst, pops)
                })
                .collect();
            oracle(&ops);
        }

        /// The queue must never lose or duplicate events.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..1000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(*t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, idx)) = q.pop() {
                prop_assert!(!seen[idx], "duplicate event");
                seen[idx] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "lost event");
        }
    }
}
