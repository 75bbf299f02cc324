//! The event queue, processor-sharing resource and shard merge this crate
//! shipped before monotone lanes, replaceable slots and run-length merging,
//! kept as the referees `des_reference.rs` holds the library to
//! **exactly**: one binary heap on `(time, seq)` for the queue, where a
//! superseded slot event waits until it reaches the top and is discarded
//! there by its slot's generation, one binary heap on `(finish credit,
//! seq)` for the PS resource, and a merge that compares every shard's head
//! for every outcome. Beside them, [`stepped`]: the serial barrier loop
//! multi-shard plans ran before the window loop, which `fleet.rs` drives
//! them with. Deliberately the plainest thing that is right. Not a model
//! to copy from.

#![allow(dead_code)]

pub mod stepped;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hec_sim::fleet::{JobEvent, JobRec};

/// A heap entry ordered earliest `key` first, insertion order on ties.
struct Keyed<T> {
    key: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// `(slot, generation)` of a slot event; `None` for any other.
type Stamp = Option<(usize, u64)>;

/// The single-heap `EventQueue`, with slots the way the engine kept its PS
/// completions before it had them: every event in the heap, a slot event
/// stamped with its slot's generation, and one whose slot has been
/// scheduled into since dropped when it reaches the top.
pub struct RefEventQueue<T> {
    heap: BinaryHeap<Keyed<(Stamp, T)>>,
    generations: Vec<u64>,
    /// Whether each slot's latest event is still pending.
    occupied: Vec<bool>,
    next_seq: u64,
    now_ms: f64,
    live: usize,
}

impl<T> RefEventQueue<T> {
    pub fn with_slots(slots: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            generations: vec![0; slots],
            occupied: vec![false; slots],
            next_seq: 0,
            now_ms: 0.0,
            live: 0,
        }
    }

    fn push(&mut self, time_ms: f64, stamp: Stamp, payload: T) {
        let seq = self.reserve_seq();
        self.push_with_seq(time_ms, seq, stamp, payload);
    }

    fn push_with_seq(&mut self, time_ms: f64, seq: u64, stamp: Stamp, payload: T) {
        assert!(time_ms.is_finite(), "event time must be finite, got {time_ms}");
        assert!(time_ms >= self.now_ms, "cannot schedule in the past");
        self.heap.push(Keyed { key: time_ms, seq, payload: (stamp, payload) });
    }

    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub fn schedule(&mut self, time_ms: f64, payload: T) {
        self.live += 1;
        self.push(time_ms, None, payload);
    }

    /// `schedule` under a `seq` taken earlier by `reserve_seq`.
    pub fn schedule_with_seq(&mut self, time_ms: f64, seq: u64, payload: T) {
        self.live += 1;
        self.push_with_seq(time_ms, seq, None, payload);
    }

    pub fn schedule_in_slot(&mut self, slot: usize, time_ms: f64, payload: T) {
        self.generations[slot] += 1;
        if !std::mem::replace(&mut self.occupied[slot], true) {
            self.live += 1;
        }
        self.push(time_ms, Some((slot, self.generations[slot])), payload);
    }

    /// Drops superseded slot events off the top of the heap.
    fn settle(&mut self) {
        while let Some(Keyed { payload: (Some((slot, generation)), _), .. }) = self.heap.peek() {
            if *generation == self.generations[*slot] {
                break;
            }
            self.heap.pop();
        }
    }

    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.settle();
        let ev = self.heap.pop()?;
        let (stamp, payload) = ev.payload;
        if let Some((slot, _)) = stamp {
            self.occupied[slot] = false;
        }
        self.live -= 1;
        self.now_ms = ev.key;
        Some((ev.key, payload))
    }

    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    pub fn peek_time_ms(&mut self) -> Option<f64> {
        self.peek_head().map(|(time_ms, _)| time_ms)
    }

    pub fn peek_head(&mut self) -> Option<(f64, u64)> {
        self.settle();
        self.heap.peek().map(|e| (e.key, e.seq))
    }

    pub fn len(&self) -> usize {
        self.live
    }
}

/// The heap-only `PsResource`.
pub struct RefPsResource {
    capacity: f64,
    rate_cap: f64,
    max_jobs: usize,
    credit: f64,
    last_ms: f64,
    heap: BinaryHeap<Keyed<JobRec>>,
    next_seq: u64,
    pub peak_inflight: usize,
}

impl RefPsResource {
    pub fn new(capacity: f64, rate_cap: f64, max_jobs: usize) -> Self {
        Self {
            capacity,
            rate_cap,
            max_jobs,
            credit: 0.0,
            last_ms: 0.0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak_inflight: 0,
        }
    }

    fn rate(&self) -> f64 {
        let n = self.heap.len();
        if n == 0 {
            0.0
        } else {
            (self.capacity / n as f64).min(self.rate_cap)
        }
    }

    fn advance(&mut self, now_ms: f64) {
        self.credit += self.rate() * (now_ms - self.last_ms);
        self.last_ms = now_ms;
    }

    pub fn offer(&mut self, now_ms: f64, work: f64, job: JobRec) -> bool {
        self.advance(now_ms);
        if self.heap.len() >= self.max_jobs {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Keyed { key: self.credit + work, seq, payload: job });
        self.peak_inflight = self.peak_inflight.max(self.heap.len());
        true
    }

    pub fn next_completion_ms(&self) -> Option<f64> {
        let top = self.heap.peek()?;
        let dt = ((top.key - self.credit) / self.rate()).max(0.0);
        Some(self.last_ms + dt)
    }

    pub fn pop_due_into(&mut self, now_ms: f64, out: &mut Vec<JobRec>) {
        self.advance(now_ms);
        let due = self.credit + 1e-9 + 1e-12 * self.credit.abs();
        while let Some(top) = self.heap.peek() {
            if top.key > due {
                break;
            }
            out.push(self.heap.pop().expect("peeked entry exists").payload);
        }
    }

    pub fn inflight(&self) -> usize {
        self.heap.len()
    }
}

/// The per-element `merge_window`: for every outcome, the earliest head
/// among all shards, ties to the lowest shard id.
pub fn ref_merge_window(outboxes: &mut [Vec<(f64, JobEvent)>], sink: &mut dyn FnMut(JobEvent)) {
    let mut cursors = vec![0usize; outboxes.len()];
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (s, outbox) in outboxes.iter().enumerate() {
            if let Some(&(t, _)) = outbox.get(cursors[s]) {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        sink(outboxes[s][cursors[s]].1);
        cursors[s] += 1;
    }
    for outbox in outboxes {
        outbox.clear();
    }
}
