//! The event queue, processor-sharing resource and shard merge this crate
//! shipped before monotone lanes and run-length merging, kept as the
//! referees `des_reference.rs` holds the library to **exactly**: one binary
//! heap on `(time, seq)` for the queue, one binary heap on `(finish credit,
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

/// The single-heap `EventQueue`.
pub struct RefEventQueue<T> {
    heap: BinaryHeap<Keyed<T>>,
    next_seq: u64,
    now_ms: f64,
}

impl<T> RefEventQueue<T> {
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now_ms: 0.0 }
    }

    pub fn schedule(&mut self, time_ms: f64, payload: T) {
        assert!(time_ms.is_finite(), "event time must be finite, got {time_ms}");
        assert!(time_ms >= self.now_ms, "cannot schedule in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Keyed { key: time_ms, seq, payload });
    }

    pub fn pop(&mut self) -> Option<(f64, T)> {
        let ev = self.heap.pop()?;
        self.now_ms = ev.key;
        Some((ev.key, ev.payload))
    }

    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    pub fn peek_time_ms(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
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
    pub epoch: u64,
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
            epoch: 0,
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
        self.epoch += 1;
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
        let mut popped = false;
        while let Some(top) = self.heap.peek() {
            if top.key > due {
                break;
            }
            out.push(self.heap.pop().expect("peeked entry exists").payload);
            popped = true;
        }
        if popped {
            self.epoch += 1;
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
