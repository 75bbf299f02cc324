//! A deterministic discrete-event queue.
//!
//! Events are ordered by virtual time (f64 milliseconds) with FIFO
//! tie-breaking, which keeps simulations reproducible regardless of
//! insertion pattern.
//!
//! Most events of a simulation are scheduled in time order *within a
//! stream* — a cohort's round-robin emissions, completions a fixed delay
//! after "now" — and a binary heap pays `O(log n)` moves to rediscover an
//! order the caller already had. So the queue keeps **monotone lanes**
//! beside the heap: [`EventQueue::schedule_on`] appends to a lane (a FIFO)
//! when the event is not earlier than the lane's tail and falls back to
//! the heap otherwise, and [`EventQueue::pop`] takes the smallest
//! `(time, seq)` among the lane heads and the heap top. `seq` is one
//! counter over lanes and heap, so the pop order — ties included — is
//! exactly the single-heap order whichever way an event went in; a lane is
//! a hint about where an event is cheap to keep, never about when it
//! fires.
//!
//! Beside the lanes sit **replaceable slots**, for a stream of which only
//! the latest event matters — a processor-sharing resource's next
//! completion, re-estimated whenever its share changes.
//! [`EventQueue::schedule_in_slot`] puts an event in a slot and drops
//! whatever the slot held, so a superseded event never reaches the heap.
//! A slot's head is scanned with the lane heads and its `seq` comes from
//! the same counter: the pop order is the single heap's with the
//! superseded events taken out.
//!
//! A caller that keeps some events **outside** the queue — the fleet
//! engine's device-local completions, which change nothing but a gauge —
//! can still order them against the queue's: [`EventQueue::reserve_seq`]
//! takes the `seq` scheduling would have taken, and
//! `EventQueue::pop_seq_at_or_before` says which `(time, seq)` each
//! popped event had. An outside event due before that pair would have
//! popped before it; every event left in the queue keeps the `seq`, and so
//! the tie-break, it would have had.
//!
//! A reserved `seq` can also be **filed later**:
//! [`EventQueue::schedule_reserved_on`] puts an event in the queue under a
//! `seq` taken earlier, so one entry can stand for several events reserved
//! one by one — the fleet engine's arrival groups, every window of which
//! keeps the `seq` it would have had as an event of its own. The entry
//! goes on its lane when its `(time, seq)` is after the lane's tail, in
//! the heap otherwise (a reserved `seq` may be below the tail's), and
//! [`EventQueue::peek_head`] tells the filer whether some other event
//! falls between two of the `seq`s it stands for.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A pending entry: ordered by `key`, then by insertion `seq`.
struct Entry<T> {
    key: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// `(key, seq)` of an entry: what orders it.
pub(crate) type Head = (f64, u64);

/// Head of an empty lane or heap: after every real entry (no entry's
/// `seq` reaches `u64::MAX`).
pub(crate) const NO_HEAD: Head = (f64::INFINITY, u64::MAX);

/// Whether `a` pops before `b`.
#[inline]
pub(crate) fn before(a: Head, b: Head) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The "sorted tail or heap" priority queue under [`EventQueue`] and the
/// processor-sharing resource: a min-queue on `(key, insertion seq)` made
/// of FIFO lanes, each kept sorted by only ever appending to it,
/// replaceable one-entry slots, and a binary heap for everything that
/// would break a lane's order.
pub(crate) struct LaneQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    lanes: Vec<VecDeque<Entry<T>>>,
    /// Each slot's payload; its `(key, seq)` is in `heads`.
    slots: Vec<Option<T>>,
    /// Each lane's front `(key, seq)`, then each slot's, [`NO_HEAD`] when
    /// empty: `pop` scans these few words instead of the deques.
    heads: Vec<Head>,
    next_seq: u64,
    len: usize,
}

impl<T> LaneQueue<T> {
    /// An empty queue with `lanes` lanes and `slots` slots.
    pub(crate) fn new(lanes: usize, slots: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            slots: (0..slots).map(|_| None).collect(),
            heads: vec![NO_HEAD; lanes + slots],
            next_seq: 0,
            len: 0,
        }
    }

    fn entry(&mut self, key: f64, payload: T) -> Entry<T> {
        let seq = self.reserve_seq();
        self.len += 1;
        Entry { key, seq, payload }
    }

    /// Puts `entry` at the tail of `lane` if it pops after the tail, in
    /// the heap otherwise — or if the queue has no such lane.
    #[inline]
    fn file(&mut self, lane: usize, entry: Entry<T>) {
        let Some(fifo) = self.lanes.get_mut(lane) else {
            self.heap.push(entry);
            return;
        };
        let at = (entry.key, entry.seq);
        match fifo.back() {
            Some(tail) if before((tail.key, tail.seq), at) => fifo.push_back(entry),
            Some(_) => self.heap.push(entry),
            None => {
                self.heads[lane] = at;
                fifo.push_back(entry);
            }
        }
    }

    /// Takes the next `seq` without inserting anything.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Puts `payload` in `slot`, dropping the entry the slot held.
    ///
    /// # Panics
    ///
    /// Panics if the queue has no such slot.
    pub(crate) fn replace(&mut self, slot: usize, key: f64, payload: T) {
        let held = self.slots[slot].replace(payload);
        self.len += usize::from(held.is_none());
        self.heads[self.lanes.len() + slot] = (key, self.reserve_seq());
    }

    /// Inserts into the heap.
    pub(crate) fn push(&mut self, key: f64, payload: T) {
        let entry = self.entry(key, payload);
        self.heap.push(entry);
    }

    /// Inserts at the tail of `lane` if `key` is not below the lane's last
    /// key (a fresh `seq` is above every other), into the heap otherwise —
    /// or if the queue has no such lane.
    pub(crate) fn push_on(&mut self, lane: usize, key: f64, payload: T) {
        let entry = self.entry(key, payload);
        self.file(lane, entry);
    }

    /// [`LaneQueue::push_on`] under `seq`, taken earlier by
    /// [`LaneQueue::reserve_seq`] and not used since.
    pub(crate) fn push_reserved_on(&mut self, lane: usize, key: f64, seq: u64, payload: T) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.len += 1;
        self.file(lane, Entry { key, seq, payload });
    }

    /// Key of `lane`'s last entry, if the lane holds any.
    #[cfg(test)]
    pub(crate) fn lane_tail_key(&self, lane: usize) -> Option<f64> {
        self.lanes.get(lane)?.back().map(|e| e.key)
    }

    /// The earliest entry's `(key, seq)` and where it sits (`None`: the
    /// heap; a head index, lanes first, then slots).
    #[inline]
    fn earliest(&self) -> Option<(Head, Option<usize>)> {
        if self.len == 0 {
            return None;
        }
        let mut best = self.heap.peek().map_or(NO_HEAD, |e| (e.key, e.seq));
        let mut at = None;
        for (i, &head) in self.heads.iter().enumerate() {
            if before(head, best) {
                best = head;
                at = Some(i);
            }
        }
        Some((best, at))
    }

    /// `(key, seq)` of the earliest entry.
    pub(crate) fn peek_head(&self) -> Option<Head> {
        self.earliest().map(|(head, _)| head)
    }

    /// Removes the earliest entry if its key is at or below `bound` and
    /// returns its `(key, seq)` and payload: one scan finds it, tests it
    /// and takes it.
    #[inline]
    pub(crate) fn pop_at_or_before(&mut self, bound: f64) -> Option<(Head, T)> {
        let ((key, seq), at) = self.earliest()?;
        if key > bound {
            return None;
        }
        let payload = match at {
            Some(i) if i < self.lanes.len() => {
                let fifo = &mut self.lanes[i];
                let entry = fifo.pop_front()?;
                let head = fifo.front().map_or(NO_HEAD, |e| (e.key, e.seq));
                debug_assert!(before((entry.key, entry.seq), head), "lane {i} out of order");
                self.heads[i] = head;
                entry.payload
            }
            Some(i) => {
                self.heads[i] = NO_HEAD;
                self.slots[i - self.lanes.len()].take()?
            }
            None => self.heap.pop()?.payload,
        };
        self.len -= 1;
        Some(((key, seq), payload))
    }

    /// Entries pending, lanes, slots and heap together.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl<T> std::fmt::Debug for LaneQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LaneQueue(pending={}, lanes={}, slots={})",
            self.len,
            self.lanes.len(),
            self.slots.len()
        )
    }
}

/// A min-queue of timestamped events with deterministic FIFO tie-breaks:
/// a binary heap, plus optional monotone lanes for event streams that are
/// scheduled in time order anyway and replaceable slots for streams whose
/// latest event supersedes the one before (see the module docs).
///
/// # Example
///
/// ```rust
/// use hec_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(10.0, "second");
/// q.schedule(5.0, "first");
/// assert_eq!(q.pop(), Some((5.0, "first")));
/// assert_eq!(q.pop(), Some((10.0, "second")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    q: LaneQueue<T>,
    now_ms: f64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at virtual time 0, without lanes or slots.
    pub fn new() -> Self {
        Self::with_lanes(0)
    }

    /// Creates an empty queue at virtual time 0 with `lanes` monotone
    /// lanes, addressed `0..lanes` by [`EventQueue::schedule_on`], and no
    /// slots.
    pub(crate) fn with_lanes(lanes: usize) -> Self {
        Self::with_lanes_and_slots(lanes, 0)
    }

    /// Creates an empty queue at virtual time 0 with `lanes` monotone
    /// lanes and `slots` replaceable slots, addressed `0..slots` by
    /// [`EventQueue::schedule_in_slot`]. `pop` looks at every lane's and
    /// every slot's head, so both are for the few hot streams of a
    /// simulation, not one per entity.
    pub fn with_lanes_and_slots(lanes: usize, slots: usize) -> Self {
        Self { q: LaneQueue::new(lanes, slots), now_ms: 0.0 }
    }

    /// Rejects a time no event may have.
    fn check_time(&self, time_ms: f64) {
        assert!(time_ms.is_finite(), "event time must be finite, got {time_ms}");
        assert!(
            time_ms >= self.now_ms,
            "cannot schedule in the past ({} < {})",
            time_ms,
            self.now_ms
        );
    }

    /// Schedules `payload` at absolute virtual time `time_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `time_ms` is non-finite (NaN or ±∞) or earlier than the
    /// current virtual time. Non-finite times would silently corrupt the
    /// heap order (`Ord` has no total order over NaN), so they are rejected
    /// at the door rather than surfacing later as mis-ordered events.
    pub fn schedule(&mut self, time_ms: f64, payload: T) {
        self.check_time(time_ms);
        self.q.push(time_ms, payload);
    }

    /// [`EventQueue::schedule`], for an event of a stream the caller
    /// expects to schedule in time order: kept at the tail of `lane` when
    /// `time_ms` is not earlier than the last event put there, in the heap
    /// when it is — or when the queue was built without that lane. It pops
    /// exactly when `schedule` would have popped it.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::schedule`].
    pub fn schedule_on(&mut self, lane: usize, time_ms: f64, payload: T) {
        self.check_time(time_ms);
        self.q.push_on(lane, time_ms, payload);
    }

    /// [`EventQueue::schedule`], for an event that supersedes the one
    /// pending in `slot`: that one is dropped without ever popping, and
    /// this one pops exactly when `schedule` would have popped it.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::schedule`], and if the queue has no such slot.
    pub fn schedule_in_slot(&mut self, slot: usize, time_ms: f64, payload: T) {
        self.check_time(time_ms);
        self.q.replace(slot, time_ms, payload);
    }

    /// Takes the `seq` that scheduling an event now would take, without
    /// scheduling one: for an event the caller keeps outside the queue and
    /// orders against the queue's by `(time, seq)` (module docs). Every
    /// event scheduled afterwards gets the `seq`, and so pops in the
    /// order, it would have had if that event had been scheduled.
    pub fn reserve_seq(&mut self) -> u64 {
        self.q.reserve_seq()
    }

    /// Files `payload` at `time_ms` under `seq`, a `seq` taken earlier by
    /// [`EventQueue::reserve_seq`] and not used since: it pops exactly when
    /// an event scheduled at `time_ms` at the moment `seq` was reserved
    /// would have popped. Kept at the tail of `lane` when that keeps the
    /// lane in `(time, seq)` order, in the heap otherwise — or when the
    /// queue has no such lane.
    ///
    /// A `seq` that was never reserved, or is filed twice, breaks no
    /// invariant of the queue, but its event's place among equal times is
    /// then unspecified.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::schedule`].
    pub fn schedule_reserved_on(&mut self, lane: usize, time_ms: f64, seq: u64, payload: T) {
        self.check_time(time_ms);
        self.q.push_reserved_on(lane, time_ms, seq, payload);
    }

    /// Schedules `payload` after a relative delay from the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ms` is negative or NaN.
    pub(crate) fn schedule_in(&mut self, delay_ms: f64, payload: T) {
        assert!(delay_ms >= 0.0, "delay must be non-negative");
        self.schedule(self.now_ms + delay_ms, payload);
    }

    /// Pops the earliest event and advances virtual time to it.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_at_or_before(f64::INFINITY)
    }

    /// Pops the earliest event if it is due at or before `barrier_ms`
    /// and advances virtual time to it; leaves queue and clock alone
    /// otherwise.
    #[inline]
    pub fn pop_at_or_before(&mut self, barrier_ms: f64) -> Option<(f64, T)> {
        self.pop_seq_at_or_before(barrier_ms).map(|(time_ms, _, payload)| (time_ms, payload))
    }

    /// [`EventQueue::pop_at_or_before`], also returning the popped
    /// event's `seq`: with its time, what a caller compares the events it
    /// keeps outside the queue against ([`EventQueue::reserve_seq`]).
    #[inline]
    pub(crate) fn pop_seq_at_or_before(&mut self, barrier_ms: f64) -> Option<(f64, u64, T)> {
        let ((time_ms, seq), payload) = self.q.pop_at_or_before(barrier_ms)?;
        debug_assert!(time_ms >= self.now_ms, "virtual clock ran backwards");
        self.now_ms = time_ms;
        Some((time_ms, seq, payload))
    }

    /// Current virtual time (time of the last popped event).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Virtual time of the earliest pending event, without popping it.
    pub fn peek_time_ms(&self) -> Option<f64> {
        self.peek_head().map(|(time_ms, _)| time_ms)
    }

    /// `(time, seq)` of the earliest pending event, without popping it:
    /// what `EventQueue::pop_seq_at_or_before` would return it with.
    pub fn peek_head(&self) -> Option<(f64, u64)> {
        self.q.peek_head()
    }

    /// Virtual time of `lane`'s last event, if the lane holds any.
    #[cfg(test)]
    pub(crate) fn lane_tail_ms(&self, lane: usize) -> Option<f64> {
        self.q.lane_tail_key(lane)
    }

    /// Number of pending events, in lanes, slots and heap together.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.q.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventQueue(pending={}, now={}ms)", self.len(), self.now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(30.0, 3);
        q.schedule(10.0, 1);
        q.schedule(20.0, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "a");
        q.schedule(5.0, "b");
        q.schedule(5.0, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule(12.5, ());
        assert_eq!(q.now_ms(), 0.0);
        let _ = q.pop();
        assert_eq!(q.now_ms(), 12.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "base");
        let _ = q.pop(); // now = 10
        q.schedule_in(5.0, "later");
        assert_eq!(q.pop(), Some((15.0, "later")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        let _ = q.pop();
        q.schedule(5.0, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn infinite_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "delay must be non-negative")]
    fn nan_delay_rejected() {
        // NaN fails the `delay >= 0` check before it can reach the heap.
        let mut q = EventQueue::new();
        q.schedule_in(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn infinite_delay_rejected() {
        let mut q = EventQueue::new();
        q.schedule_in(f64::INFINITY, ());
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(100.0, 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(50.0, 3);
        q.schedule(2.0, 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    /// Accounting must see the lanes: a queue whose every pending event
    /// sits in a lane is not empty, and its next event time is the
    /// earliest lane head (the sharded coordinator's barrier comes from
    /// it).
    #[test]
    fn lane_only_events_are_counted_and_peeked() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule_on(0, 7.0, "a");
        q.schedule_on(1, 3.0, "b");
        q.schedule_on(0, 9.0, "c");
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time_ms(), Some(3.0));
        assert_eq!(q.pop_at_or_before(2.9), None);
        assert_eq!(q.now_ms(), 0.0, "a refused pop must not move the clock");
        assert_eq!(q.pop_at_or_before(3.0), Some((3.0, "b")));
        assert_eq!(q.peek_time_ms(), Some(7.0));
        assert_eq!(q.pop(), Some((7.0, "a")));
        assert_eq!(q.pop(), Some((9.0, "c")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time_ms(), None);
        assert_eq!(q.pop(), None);
    }

    /// A lane insert earlier than the lane's tail goes to the heap and
    /// still pops in `(time, seq)` order; equal times across lanes and
    /// heap pop in scheduling order.
    #[test]
    fn lane_miss_and_cross_lane_ties_keep_schedule_order() {
        let mut q = EventQueue::with_lanes(2);
        q.schedule_on(0, 5.0, 0);
        q.schedule(5.0, 1);
        q.schedule_on(1, 5.0, 2);
        q.schedule_on(0, 4.0, 3); // below lane 0's tail: the heap
        q.schedule_on(0, 5.0, 4);
        q.schedule_on(9, 5.0, 5); // no such lane: the heap
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [3, 0, 1, 2, 4, 5]);
    }

    /// A slot holds one event: scheduling into a full slot drops the one
    /// it held — earlier or later — and the count does not grow.
    #[test]
    fn a_replace_drops_the_pending_entry() {
        let mut q = EventQueue::with_lanes_and_slots(0, 2);
        q.schedule_in_slot(0, 4.0, "first");
        q.schedule_in_slot(0, 6.0, "later");
        assert_eq!(q.len(), 1);
        q.schedule_in_slot(0, 2.0, "earlier");
        q.schedule_in_slot(1, 3.0, "other slot");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((2.0, "earlier")));
        assert_eq!(q.pop(), Some((3.0, "other slot")));
        assert_eq!(q.pop(), None);
        // A popped slot is empty: the next event fills it, not replaces.
        q.schedule_in_slot(0, 5.0, "refill");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((5.0, "refill")));
    }

    /// Accounting sees the slots, as it sees the lanes.
    #[test]
    fn slot_only_events_are_counted_and_peeked() {
        let mut q = EventQueue::with_lanes_and_slots(1, 2);
        q.schedule_in_slot(1, 7.0, "a");
        q.schedule_in_slot(0, 3.0, "b");
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time_ms(), Some(3.0));
        assert_eq!(q.pop_at_or_before(2.9), None);
        assert_eq!(q.now_ms(), 0.0, "a refused pop must not move the clock");
        assert_eq!(q.pop_at_or_before(3.0), Some((3.0, "b")));
        assert_eq!(q.peek_time_ms(), Some(7.0));
        assert_eq!(q.pop_at_or_before(7.0), Some((7.0, "a")));
        assert!(q.is_empty());
        assert_eq!(q.peek_time_ms(), None);
    }

    /// Equal times across slots, lanes and heap pop in scheduling order; a
    /// replaced event's place in that order is its replacement's.
    #[test]
    fn ties_across_slots_lanes_and_heap_keep_schedule_order() {
        let mut q = EventQueue::with_lanes_and_slots(1, 2);
        q.schedule_in_slot(0, 5.0, 0);
        q.schedule_on(0, 5.0, 1);
        q.schedule(5.0, 2);
        q.schedule_in_slot(1, 5.0, 3);
        q.schedule_in_slot(0, 5.0, 4); // replaces 0: pops after 3
        q.schedule(5.0, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [1, 2, 3, 4, 5]);
    }

    /// A reserved `seq` is the one scheduling would have taken: a queue
    /// that reserves where another schedules a dummy event gives every
    /// event scheduled in both the same `seq` and pops them in the same
    /// order, ties included — on lanes, in slots and in the heap.
    #[test]
    fn reserving_a_seq_counts_as_scheduling() {
        const DUMMY: i32 = -1;
        let mut reserved = EventQueue::with_lanes_and_slots(2, 1);
        let mut scheduled = EventQueue::with_lanes_and_slots(2, 1);
        let mut seqs = Vec::new();
        for i in 0..60 {
            // Few distinct times, so ties abound.
            let t = f64::from((i * 7) % 5);
            match i % 6 {
                0 | 3 => {
                    let seq = reserved.reserve_seq();
                    scheduled.schedule(t, DUMMY);
                    seqs.push(seq);
                }
                1 => {
                    reserved.schedule_on(i as usize % 3, t, i);
                    scheduled.schedule_on(i as usize % 3, t, i);
                }
                2 => {
                    reserved.schedule_in_slot(0, t, i);
                    scheduled.schedule_in_slot(0, t, i);
                }
                _ => {
                    reserved.schedule(t, i);
                    scheduled.schedule(t, i);
                }
            }
        }
        // Every call took one seq off the one counter, a reserve too.
        assert_eq!(seqs, (0..60).step_by(3).collect::<Vec<u64>>());
        let popped = |q: &mut EventQueue<i32>| {
            std::iter::from_fn(|| q.pop_seq_at_or_before(f64::INFINITY))
                .filter(|&(_, _, payload)| payload != DUMMY)
                .collect::<Vec<_>>()
        };
        let (a, b) = (popped(&mut reserved), popped(&mut scheduled));
        // 30 lane and heap events, and the last of the ten slot events.
        assert_eq!(a.len(), 31);
        assert_eq!(a, b);
        assert_eq!(reserved.reserve_seq(), scheduled.reserve_seq(), "counters in step");
    }

    /// An event filed under a reserved `seq` pops where one scheduled at
    /// the reservation would have: before later-scheduled events of its
    /// time, behind a lane tail it precedes (through the heap) or on the
    /// lane after a tail it follows; `peek_head` names its `seq`.
    #[test]
    fn a_reserved_seq_files_later_in_its_place() {
        let mut q = EventQueue::with_lanes(1);
        let early = q.reserve_seq();
        q.schedule_on(0, 5.0, "scheduled after the reserve");
        let late = q.reserve_seq();
        q.schedule_reserved_on(0, 5.0, early, "reserved first"); // before the tail: heap
        q.schedule_reserved_on(0, 5.0, late, "reserved second"); // after the tail: lane
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_head(), Some((5.0, early)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["reserved first", "scheduled after the reserve", "reserved second"]);
        assert_eq!(q.peek_head(), None);
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn nan_slot_time_rejected() {
        let mut q = EventQueue::with_lanes_and_slots(0, 1);
        q.schedule_in_slot(0, f64::NAN, ());
    }
}
