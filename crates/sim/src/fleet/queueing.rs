//! Service-queue primitives for the fleet simulator.
//!
//! Three contention models cover the testbed's resources:
//!
//! * `FifoQueue` — a bounded multi-server FIFO with batch dequeue, for
//!   the shared edge/cloud compute layers (server count =
//!   `DeviceProfile::concurrency`);
//! * [`PsResource`] — an egalitarian processor-sharing resource, used for
//!   bandwidth-shared uplinks (every in-flight transfer gets an equal
//!   share of the link);
//! * per-device dedicated service (layer 0) lives in the engine itself as
//!   a `busy_until` array — each IoT device is its own single server, so
//!   no shared structure is needed.
//!
//! Everything here is deterministic: state evolves only through explicit
//! method calls, ties break by insertion sequence, and no wall-clock or
//! OS entropy is consulted.

use std::collections::VecDeque;

use crate::event::LaneQueue;

/// A window in flight through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRec {
    /// Virtual emission time at the device, ms.
    pub emit_ms: f64,
    /// Global window sequence number (assigned at emission).
    pub seq: u64,
    /// Emitting device id (global across cohorts).
    pub device: u32,
}

/// A bounded multi-server FIFO queue with batch dequeue.
///
/// Jobs wait in arrival order; when a server frees it takes up to
/// `batch_max` waiting jobs and serves them together (the batch costs
/// `exec_ms × (1 + (B−1) × batch_factor)`, so `batch_factor = 1` means no
/// amortisation and `0` means a free ride for tag-alongs). Arrivals beyond
/// `capacity` waiting jobs are rejected — the caller counts them as drops.
#[derive(Debug)]
pub(crate) struct FifoQueue {
    free_servers: usize,
    capacity: usize,
    batch_max: usize,
    batch_factor: f64,
    waiting: VecDeque<JobRec>,
    slots: Vec<Vec<JobRec>>,
    free_slots: Vec<usize>,
    /// Largest waiting-queue depth observed.
    pub(crate) peak_depth: usize,
}

impl FifoQueue {
    /// Creates a queue with `servers` parallel servers, at most `capacity`
    /// waiting jobs and batches of up to `batch_max`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` or `batch_max` is zero, or `batch_factor` is
    /// not in `[0, 1]`.
    pub fn new(servers: usize, capacity: usize, batch_max: usize, batch_factor: f64) -> Self {
        assert!(servers >= 1, "queue needs at least one server");
        assert!(batch_max >= 1, "batch_max must be at least 1");
        assert!(
            (0.0..=1.0).contains(&batch_factor),
            "batch_factor must be in [0, 1], got {batch_factor}"
        );
        Self {
            free_servers: servers,
            capacity,
            batch_max,
            batch_factor,
            waiting: VecDeque::new(),
            slots: (0..servers).map(|_| Vec::with_capacity(batch_max)).collect(),
            free_slots: (0..servers).rev().collect(),
            peak_depth: 0,
        }
    }

    /// Offers a job; returns `false` (drop) when the waiting line is full.
    pub fn offer(&mut self, job: JobRec) -> bool {
        if self.waiting.len() >= self.capacity {
            return false;
        }
        self.waiting.push_back(job);
        self.peak_depth = self.peak_depth.max(self.waiting.len());
        true
    }

    /// Starts one service if a server is free and jobs are waiting:
    /// returns the slot id and the service duration for the dequeued
    /// batch. Call in a loop until `None` to saturate free servers.
    pub fn dispatch(&mut self, exec_ms: f64) -> Option<(usize, f64)> {
        if self.free_servers == 0 || self.waiting.is_empty() {
            return None;
        }
        let slot = self.free_slots.pop().expect("free_servers > 0 implies a free slot");
        self.free_servers -= 1;
        let batch = &mut self.slots[slot];
        debug_assert!(batch.is_empty());
        let take = self.batch_max.min(self.waiting.len());
        batch.extend(self.waiting.drain(..take));
        let duration = exec_ms * (1.0 + (take as f64 - 1.0) * self.batch_factor);
        Some((slot, duration))
    }

    /// Completes the service running in `slot`, appending its batch to
    /// `out` (the slot's buffer is retained for reuse) and freeing the
    /// server.
    pub(crate) fn complete_into(&mut self, slot: usize, out: &mut Vec<JobRec>) {
        let batch = &mut self.slots[slot];
        debug_assert!(!batch.is_empty(), "completing an idle slot");
        out.extend_from_slice(batch);
        batch.clear();
        self.free_slots.push(slot);
        self.free_servers += 1;
    }

    /// Jobs currently waiting (excludes jobs in service).
    pub fn depth(&self) -> usize {
        self.waiting.len()
    }
}

/// An egalitarian processor-sharing resource (the fluid model of a
/// bandwidth-shared link).
///
/// All `n` in-flight jobs progress at rate `min(rate_cap, capacity / n)`.
/// Instead of rescaling every job's remaining work on each arrival —
/// O(n) per event — the resource tracks a single cumulative *service
/// credit* `S(t) = ∫ rate(n(t)) dt`; a job with `work` remaining at
/// insertion completes when `S` has advanced by `work`. Jobs wait in a
/// min-queue on the completion credit, FIFO on ties. `S` never falls, so
/// jobs of equal work — one payload size on a link — arrive already sorted and the queue's one monotone lane is a
/// plain FIFO: O(1) arrivals and departures. A job that would finish
/// before the lane's tail (a smaller payload behind a larger one) goes to
/// the queue's heap, O(log n), and completes in the same order.
///
/// [`PsResource::next_completion_ms`] is an estimate under the current
/// share, valid until the next mutation. The simulator keeps one
/// completion event per resource, in a replaceable slot of its event
/// queue, and re-schedules it after every mutation: an estimate the share
/// changed is replaced, never popped.
#[derive(Debug)]
pub struct PsResource {
    capacity: f64,
    rate_cap: f64,
    max_jobs: usize,
    credit: f64,
    last_ms: f64,
    /// In-flight jobs by completion credit.
    jobs: LaneQueue<JobRec>,
    /// Largest in-flight count observed.
    pub peak_inflight: usize,
}

impl PsResource {
    /// Creates a PS resource.
    ///
    /// `capacity` is the total work served per ms when fully shared,
    /// `rate_cap` bounds one job's service rate (use `f64::INFINITY` for a
    /// link where a lone transfer gets the whole pipe; use `1.0` for a
    /// compute layer where one job cannot occupy more than one server),
    /// and `max_jobs` is the admission bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `rate_cap` is not positive.
    pub fn new(capacity: f64, rate_cap: f64, max_jobs: usize) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(rate_cap > 0.0, "rate_cap must be positive");
        Self {
            capacity,
            rate_cap,
            max_jobs,
            credit: 0.0,
            last_ms: 0.0,
            jobs: LaneQueue::new(1, 0),
            peak_inflight: 0,
        }
    }

    fn rate(&self) -> f64 {
        let n = self.jobs.len();
        if n == 0 {
            0.0
        } else {
            (self.capacity / n as f64).min(self.rate_cap)
        }
    }

    /// Advances the service credit to virtual time `now_ms`.
    fn advance(&mut self, now_ms: f64) {
        debug_assert!(now_ms >= self.last_ms, "PS clock moved backwards");
        self.credit += self.rate() * (now_ms - self.last_ms);
        self.last_ms = now_ms;
    }

    /// Admits a job needing `work` service units; returns `false` (drop)
    /// when `max_jobs` are already in flight.
    pub fn offer(&mut self, now_ms: f64, work: f64, job: JobRec) -> bool {
        self.advance(now_ms);
        if self.jobs.len() >= self.max_jobs {
            return false;
        }
        self.jobs.push_on(0, self.credit + work, job);
        self.peak_inflight = self.peak_inflight.max(self.jobs.len());
        true
    }

    /// Estimated virtual time of the next completion under the *current*
    /// share (`None` when idle). Valid until the next mutation.
    pub fn next_completion_ms(&self) -> Option<f64> {
        let (finish_credit, _) = self.jobs.peek_head()?;
        let dt = ((finish_credit - self.credit) / self.rate()).max(0.0);
        Some(self.last_ms + dt)
    }

    /// Pops every job whose service completed by `now_ms`, appending them
    /// to `out` in completion (credit, then FIFO) order.
    pub fn pop_due_into(&mut self, now_ms: f64, out: &mut Vec<JobRec>) {
        self.advance(now_ms);
        // Tolerance: the scheduled completion time is `credit`-exact up to
        // one rounding of `dt × rate`; scale the slack with the credit
        // magnitude so it stays far below any real job's work.
        let due = self.credit + 1e-9 + 1e-12 * self.credit.abs();
        while let Some((_, job)) = self.jobs.pop_at_or_before(due) {
            out.push(job);
        }
    }

    /// Jobs currently in flight.
    pub fn inflight(&self) -> usize {
        self.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64) -> JobRec {
        JobRec { emit_ms: 0.0, seq, device: 0 }
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut q = FifoQueue::new(1, 16, 1, 1.0);
        for s in 0..3 {
            assert!(q.offer(job(s)));
        }
        let (slot, dur) = q.dispatch(10.0).expect("server free");
        assert_eq!(dur, 10.0);
        let mut out = Vec::new();
        q.complete_into(slot, &mut out);
        assert_eq!(out[0].seq, 0);
        let (slot, _) = q.dispatch(10.0).unwrap();
        q.complete_into(slot, &mut out);
        assert_eq!(out[1].seq, 1);
    }

    #[test]
    fn fifo_bounds_and_drops() {
        let mut q = FifoQueue::new(1, 2, 1, 1.0);
        assert!(q.offer(job(0)));
        assert!(q.offer(job(1)));
        assert!(!q.offer(job(2)), "third job must be rejected");
        assert_eq!(q.peak_depth, 2);
    }

    #[test]
    fn fifo_batches_amortise_service_time() {
        let mut q = FifoQueue::new(1, 16, 4, 0.25);
        for s in 0..4 {
            q.offer(job(s));
        }
        let (slot, dur) = q.dispatch(10.0).unwrap();
        // 10 × (1 + 3 × 0.25) = 17.5 for four jobs vs 40 serially.
        assert!((dur - 17.5).abs() < 1e-12, "got {dur}");
        let mut out = Vec::new();
        q.complete_into(slot, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn fifo_multi_server_runs_concurrently() {
        let mut q = FifoQueue::new(3, 16, 1, 1.0);
        for s in 0..5 {
            q.offer(job(s));
        }
        let mut started = 0;
        while q.dispatch(5.0).is_some() {
            started += 1;
        }
        assert_eq!(started, 3, "three servers, three concurrent services");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn ps_single_job_gets_full_capacity() {
        // Link model: capacity 1 work/ms, no per-job cap.
        let mut ps = PsResource::new(1.0, f64::INFINITY, 1024);
        assert!(ps.offer(0.0, 8.0, job(0)));
        assert!((ps.next_completion_ms().unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn ps_sharing_halves_the_rate() {
        let mut ps = PsResource::new(1.0, f64::INFINITY, 1024);
        ps.offer(0.0, 10.0, job(0));
        // Second transfer arrives halfway: 5 units of the first remain,
        // now served at rate 1/2 → finishes at 5 + 10 = 15 ms.
        ps.offer(5.0, 10.0, job(1));
        let t = ps.next_completion_ms().unwrap();
        assert!((t - 15.0).abs() < 1e-9, "got {t}");
        let mut out = Vec::new();
        ps.pop_due_into(t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 0);
        // Remaining job now alone again: 5 units left at full rate.
        let t2 = ps.next_completion_ms().unwrap();
        assert!((t2 - 20.0).abs() < 1e-9, "got {t2}");
    }

    #[test]
    fn ps_rate_cap_models_server_limit() {
        // Compute model: 4 servers, one job can use at most one server.
        let mut ps = PsResource::new(4.0, 1.0, 1024);
        ps.offer(0.0, 10.0, job(0));
        // A lone job is capped at rate 1 → 10 ms, not 2.5 ms.
        assert!((ps.next_completion_ms().unwrap() - 10.0).abs() < 1e-12);
        // Eight identical jobs share 4 servers → rate 1/2 each → 20 ms.
        for s in 1..8 {
            ps.offer(0.0, 10.0, job(s));
        }
        assert!((ps.next_completion_ms().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ps_admission_bound_drops() {
        let mut ps = PsResource::new(1.0, f64::INFINITY, 2);
        assert!(ps.offer(0.0, 1.0, job(0)));
        assert!(ps.offer(0.0, 1.0, job(1)));
        assert!(!ps.offer(0.0, 1.0, job(2)));
        assert_eq!(ps.inflight(), 2);
        assert_eq!(ps.peak_inflight, 2);
    }
}
