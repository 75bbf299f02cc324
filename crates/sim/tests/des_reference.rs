//! The lane-and-slot queue, the lane-backed processor-sharing resource and
//! the run-length shard merge against the plain heaps and the per-element
//! merge they replaced, **exactly**.
//!
//! `reference/` keeps what this crate shipped before. Whatever goes in —
//! lane inserts that keep a lane sorted and ones that do not, slot events
//! that supersede a pending one and ones that refill an empty slot, events
//! filed under a `seq` reserved some operations earlier (in front of or
//! behind a lane's later tail), equal times spread over lanes, slots and
//! heap, jobs of mixed work, shards that tie or have nothing to merge — the
//! same things must come out in the same order, and every observable in
//! between (length, next time and `seq`, clock) must agree. The default suite runs 32 cases of each property; CI's
//! `sharded fleet` job also runs the ignored 512-case variants.

mod reference;

use proptest::prelude::*;

use hec_sim::fleet::{merge_window, JobEvent, JobRec, PsResource};
use hec_sim::EventQueue;
use reference::{ref_merge_window, RefEventQueue, RefPsResource};

/// Lanes of the queue under test; ops address `0..LANES + 2`, so some
/// name a lane the queue does not have.
const LANES: usize = 3;

/// Slots of the queue under test (a slot op takes its index mod this).
const SLOTS: usize = 2;

/// One queue operation: `(kind, lane, delay in half-ms, barrier in half-ms)`.
/// Delays and barriers come from a handful of values so times collide.
type QueueOp = (u8, usize, u32, u32);

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    collection::vec((0u8..12, 0usize..LANES + 2, 0u32..6, 0u32..4), 1..200)
}

/// Random interleavings of `schedule` / `schedule_on` /
/// `schedule_in_slot` / `reserve_seq` / `schedule_reserved_on` / `pop` /
/// `pop_at_or_before` on a laned, slotted queue and on the single heap
/// that drops superseded slot events by generation and takes reserved
/// `seq`s explicitly.
fn queue_matches_single_heap(ops: &[QueueOp]) {
    let mut q = EventQueue::with_lanes_and_slots(LANES, SLOTS);
    let mut r = RefEventQueue::with_slots(SLOTS);
    // `seq`s reserved and not filed yet.
    let mut reserved: Vec<u64> = Vec::new();
    for (id, &(kind, lane, delay, barrier)) in ops.iter().enumerate() {
        let t = r.now_ms() + delay as f64 * 0.5;
        match kind {
            // Lane inserts dominate, as in the engine; `t` is relative to
            // the clock, not to the lane's tail, so many of them miss.
            0..=3 => {
                q.schedule_on(lane, t, id);
                r.schedule(t, id);
            }
            4 => {
                q.schedule(t, id);
                r.schedule(t, id);
            }
            // Slot events, earlier or later than the one they replace.
            5 | 6 => {
                q.schedule_in_slot(lane % SLOTS, t, id);
                r.schedule_in_slot(lane % SLOTS, t, id);
            }
            7 | 8 => assert_eq!(q.pop(), r.pop(), "op {id}"),
            10 => {
                let seq = q.reserve_seq();
                assert_eq!(seq, r.reserve_seq(), "op {id}");
                reserved.push(seq);
            }
            // Filed ops later, at a time of the clock then: lane events
            // scheduled meanwhile have later `seq`s, so the reserved one
            // may pop before a later lane tail (the heap) or after it.
            11 => {
                if !reserved.is_empty() {
                    let seq = reserved.remove(lane % reserved.len());
                    q.schedule_reserved_on(lane, t, seq, id);
                    r.schedule_with_seq(t, seq, id);
                }
            }
            _ => {
                let barrier_ms = r.now_ms() + barrier as f64 * 0.5;
                let due = r.peek_time_ms().is_some_and(|next| next <= barrier_ms);
                let want = if due { r.pop() } else { None };
                assert_eq!(q.pop_at_or_before(barrier_ms), want, "op {id}");
            }
        }
        assert_eq!(q.len(), r.len(), "op {id}");
        assert_eq!(q.is_empty(), r.len() == 0, "op {id}");
        assert_eq!(q.peek_time_ms(), r.peek_time_ms(), "op {id}");
        assert_eq!(q.peek_head(), r.peek_head(), "op {id}");
        assert_eq!(q.now_ms(), r.now_ms(), "op {id}");
    }
    while let Some(want) = r.pop() {
        assert_eq!(q.pop(), Some(want), "drain");
    }
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

/// One PS operation: `(kind, delay in quarter-ms, work index)`.
type PsOp = (u8, u32, usize);

/// Mostly one job size — the sorted case the lane serves — with smaller
/// and larger ones that must overtake or be overtaken through the heap.
const WORK: [f64; 6] = [3.072, 3.072, 3.072, 12.288, 0.75, 0.0];

fn ps_ops() -> impl Strategy<Value = Vec<PsOp>> {
    collection::vec((0u8..5, 0u32..12, 0usize..WORK.len()), 1..160)
}

/// Offers of mixed work and completions on the lane-backed resource and
/// on the heap-only one: same admissions, same completion order, same
/// next-completion estimate to the bit.
fn ps_matches_heap_only(ops: &[PsOp], capacity: f64, rate_cap: f64, max_jobs: usize) {
    let mut ps = PsResource::new(capacity, rate_cap, max_jobs);
    let mut r = RefPsResource::new(capacity, rate_cap, max_jobs);
    let mut now = 0.0f64;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (id, &(kind, delay, work)) in ops.iter().enumerate() {
        now += delay as f64 * 0.25;
        match kind {
            0..=2 => {
                let job = JobRec { emit_ms: now, seq: id as u64, device: 0 };
                assert_eq!(
                    ps.offer(now, WORK[work], job),
                    r.offer(now, WORK[work], job),
                    "op {id}"
                );
            }
            // Completions as the engine asks for them: at the estimate.
            3 => {
                now = r.next_completion_ms().map_or(now, |t| t.max(now));
                ps.pop_due_into(now, &mut got);
                r.pop_due_into(now, &mut want);
            }
            // ... and at an arbitrary later time.
            _ => {
                ps.pop_due_into(now, &mut got);
                r.pop_due_into(now, &mut want);
            }
        }
        assert_eq!(got, want, "op {id}");
        assert_eq!(ps.inflight(), r.inflight(), "op {id}");
        assert_eq!(ps.peak_inflight, r.peak_inflight, "op {id}");
        assert_eq!(
            ps.next_completion_ms().map(f64::to_bits),
            r.next_completion_ms().map(f64::to_bits),
            "op {id}"
        );
    }
}

/// Per-shard gaps between consecutive outcome times, in half-ms: zero
/// gaps make runs of equal times, the few values make cross-shard ties,
/// and a shard may have nothing.
fn shard_gaps() -> impl Strategy<Value = Vec<Vec<u32>>> {
    collection::vec(collection::vec(0u32..3, 0..40), 1..6)
}

/// The run-length merge and the per-element merge on the same outboxes.
fn merge_matches_per_element(gaps: &[Vec<u32>]) {
    let mut seq = 0u64;
    let outboxes: Vec<Vec<(f64, JobEvent)>> = gaps
        .iter()
        .enumerate()
        .map(|(s, gaps)| {
            let mut t = 0.0;
            gaps.iter()
                .map(|&gap| {
                    t += gap as f64 * 0.5;
                    seq += 1;
                    (t, JobEvent::Served { seq, device: s as u32, layer: 0, latency_ms: t })
                })
                .collect()
        })
        .collect();

    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut mine, mut theirs) = (outboxes.clone(), outboxes);
    // Stale scratch from a wider window must not leak in.
    let mut cursors = vec![7usize; 9];
    merge_window(&mut mine, &mut cursors, &mut |ev| got.push(ev));
    ref_merge_window(&mut theirs, &mut |ev| want.push(ev));
    assert_eq!(got, want);
    assert_eq!(got.len() as u64, seq);
    assert!(mine.iter().all(Vec::is_empty), "outboxes not cleared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lane_queue_pops_exactly_like_the_single_heap(ops in queue_ops()) {
        queue_matches_single_heap(&ops);
    }

    #[test]
    fn ps_resource_completes_exactly_like_the_heap_only_one(
        ops in ps_ops(),
        link in any::<bool>(),
        max_jobs in 1usize..40,
    ) {
        // A link (one pipe, no per-job cap) or a 4-server compute layer.
        let (capacity, rate_cap) = if link { (1.0, f64::INFINITY) } else { (4.0, 1.0) };
        ps_matches_heap_only(&ops, capacity, rate_cap, max_jobs);
    }

    #[test]
    fn run_merge_equals_the_per_element_merge(gaps in shard_gaps()) {
        merge_matches_per_element(&gaps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    #[ignore = "512 cases; CI's sharded-fleet job runs it with --include-ignored"]
    fn lane_queue_pops_exactly_like_the_single_heap_512(ops in queue_ops()) {
        queue_matches_single_heap(&ops);
    }

    #[test]
    #[ignore = "512 cases; CI's sharded-fleet job runs it with --include-ignored"]
    fn ps_resource_completes_exactly_like_the_heap_only_one_512(
        ops in ps_ops(),
        link in any::<bool>(),
        max_jobs in 1usize..40,
    ) {
        let (capacity, rate_cap) = if link { (1.0, f64::INFINITY) } else { (4.0, 1.0) };
        ps_matches_heap_only(&ops, capacity, rate_cap, max_jobs);
    }

    #[test]
    #[ignore = "512 cases; CI's sharded-fleet job runs it with --include-ignored"]
    fn run_merge_equals_the_per_element_merge_512(gaps in shard_gaps()) {
        merge_matches_per_element(&gaps);
    }
}
