//! An unpinned [`thread_count`] asks the machine for its parallelism once
//! per process: every later call reads `HEC_THREADS` (unset here) and the
//! cached value, and allocates nothing.
//!
//! The binary holds one `#[test]`, so no concurrent test changes the
//! environment or disturbs the global allocation counter.

use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::parallel::thread_count;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_second_unpinned_thread_count_allocates_nothing() {
    std::env::remove_var("HEC_THREADS");
    let first = thread_count();
    assert!(first >= 1);

    // The counter is process-wide and the test harness occasionally
    // allocates from another thread; a call that allocated would dirty
    // every window, so one clean window of 16 calls is the proof.
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..16 {
            assert_eq!(thread_count(), first);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(last_delta, 0, "16 unpinned thread_count() calls allocated {last_delta} times");
}
