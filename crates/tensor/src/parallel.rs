//! Scoped-thread parallelism helpers (no external thread-pool crates).
//!
//! The scheme evaluation and the ablation sweeps are embarrassingly parallel
//! over windows / schemes / grid points. This module provides an
//! order-preserving `map` built on [`std::thread::scope`]:
//!
//! * the worker count comes from the **`HEC_THREADS`** environment variable
//!   (default: [`std::thread::available_parallelism`]); `HEC_THREADS=1`
//!   forces the serial path, which is also taken automatically for tiny
//!   inputs;
//! * items are split into **contiguous chunks**, one per worker, and chunk
//!   results are concatenated in spawn order — output ordering is therefore
//!   deterministic and identical to the serial map, regardless of the
//!   thread count or scheduling.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;

thread_local! {
    /// Per-thread override installed by [`with_thread_count`]; takes
    /// precedence over `HEC_THREADS`.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside [`parallel_map`] workers so nested calls (e.g. a sweep
    /// point evaluating a scheme) run serially instead of spawning
    /// `threads²` threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads parallel helpers may use.
///
/// A [`with_thread_count`] override on the calling thread wins; otherwise
/// reads `HEC_THREADS` (values `< 1` or unparsable fall back to the
/// default); defaults to the machine's available parallelism.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    match std::env::var("HEC_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Runs `f` with this thread's parallelism pinned to `threads`, restoring
/// the previous value afterwards (panic-safe).
///
/// This is how tests compare serial and parallel runs deterministically —
/// mutating the process-global `HEC_THREADS` from concurrent tests would
/// race both the comparison and (on some platforms) `getenv` itself.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads))));
    f()
}

/// Maps `f` over `items` (with the item's index) using scoped threads,
/// returning results **in item order**.
///
/// Work is split into one contiguous chunk per worker; each worker produces
/// its chunk's results which are concatenated in chunk order, so the output
/// equals the serial `items.iter().enumerate().map(f).collect()` exactly.
///
/// # Panics
///
/// Propagates panics from `f` with their payload: the whole map panics
/// with the message of the first failed worker in spawn order, which for
/// a panic that depends only on the index is the one the serial map
/// raises.
///
/// # Example
///
/// ```rust
/// let squares = hec_tensor::parallel::parallel_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_grained(items, 1, f)
}

/// [`parallel_map`] with a minimum number of items per worker.
///
/// Use a grain `> 1` when the per-item work is cheap: the worker count is
/// capped at `items.len() / grain`, so threads are only spawned once each
/// has at least `grain` items' worth of work to amortise its spawn cost.
/// Calls made from inside another `parallel_map` worker always run
/// serially (the outer fan-out already owns the machine's parallelism).
pub fn parallel_map_grained<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_range_grained(items.len(), grain, |i| f(i, &items[i]))
}

/// Maps `f` over the index range `0..len` using scoped threads, returning
/// results **in index order** — [`parallel_map_grained`] without the item
/// slice, for callers whose work is driven purely by an index (e.g. a
/// per-window evaluation over an oracle corpus). Allocates nothing beyond
/// the result vectors.
pub fn parallel_map_range_grained<R, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_spans(len, grain, |span| span.map(&f).collect())
}

/// Hands each worker one contiguous span of `0..len` and concatenates the
/// vectors `f` returns **in span order** — the form under every map in
/// this module, for callers that set something up once per worker (scratch
/// buffers, one output vector) and then walk their span themselves. With
/// one worker — fewer than two `grain`s of indices, one thread configured,
/// or a call from inside another worker — `f(0..len)` runs on the calling
/// thread and its vector is returned as is. `f` must not let the result
/// for an index depend on where its span starts.
///
/// # Panics
///
/// Propagates panics from `f` with their payload: the first failed worker
/// in span order re-raises its own, so an assertion inside `f` reads the
/// same at one worker and at many.
pub fn parallel_map_spans<R, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let threads = thread_count().min(len / grain.max(1)).max(1);
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return f(0..len);
    }
    let span_len = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..len)
            .step_by(span_len)
            .map(|start| {
                let end = (start + span_len).min(len);
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    f(start..end)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(span) => out.extend(span),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_indices() {
        let items: Vec<usize> = (0..103).collect();
        // Force a real fan-out regardless of machine size or HEC_THREADS.
        let out = with_thread_count(4, || {
            parallel_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            })
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grain_caps_worker_count() {
        // 10 items at grain 100 → serial path, still correct and ordered.
        let items: Vec<usize> = (0..10).collect();
        let out = with_thread_count(8, || parallel_map_grained(&items, 100, |_, &x| x + 1));
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn range_map_preserves_order() {
        // 101 items across 4 workers: uneven chunks, results in index order.
        let out = with_thread_count(4, || parallel_map_range_grained(101, 1, |i| i * 3));
        assert_eq!(out, (0..101).map(|i| i * 3).collect::<Vec<_>>());
        assert!(parallel_map_range_grained(0, 1, |i| i).is_empty());
    }

    /// A panic inside `f` reaches the caller with its own message, whether
    /// the map ran inline or on workers (index 70 sits in the last of three
    /// chunks; index 40 in the second, so the earlier chunk's payload wins).
    fn panic_at_40_and_70(threads: usize) {
        with_thread_count(threads, || {
            parallel_map_range_grained(90, 1, |i| {
                assert!(i != 40 && i != 70, "index {i} is not allowed");
                i
            })
        });
    }

    #[test]
    #[should_panic(expected = "index 40 is not allowed")]
    fn worker_panic_keeps_its_message_serial() {
        panic_at_40_and_70(1);
    }

    #[test]
    #[should_panic(expected = "index 40 is not allowed")]
    fn worker_panic_keeps_its_message_three_workers() {
        panic_at_40_and_70(3);
    }

    #[test]
    fn spans_tile_the_range_in_order() {
        for (threads, len) in [(1, 10), (3, 10), (4, 103), (8, 5)] {
            let spans = with_thread_count(threads, || parallel_map_spans(len, 1, |s| vec![s]));
            assert!(spans.len() <= threads, "threads={threads} len={len}");
            assert_eq!(spans.len() > 1, threads > 1, "threads={threads} len={len}");
            assert_eq!(spans.first().map(|s| s.start), Some(0));
            assert_eq!(spans.last().map(|s| s.end), Some(len));
            assert!(spans.windows(2).all(|pair| pair[0].end == pair[1].start));
        }
        // Below two grains the caller's thread gets the whole range.
        let spans = with_thread_count(4, || parallel_map_spans(19, 10, |s| vec![s]));
        assert_eq!(spans, vec![0..19]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<usize> = (0..8).collect();
        let out = with_thread_count(4, || {
            parallel_map(&outer, |_, &x| {
                // Inner map from a worker thread must not fan out again.
                let inner: Vec<usize> = (0..50).collect();
                parallel_map(&inner, |_, &y| y).len() + x
            })
        });
        assert_eq!(out, outer.iter().map(|x| x + 50).collect::<Vec<_>>());
    }

    #[test]
    fn override_beats_env_and_restores() {
        let ambient = thread_count();
        let inner = with_thread_count(7, thread_count);
        assert_eq!(inner, 7);
        assert_eq!(thread_count(), ambient);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
