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
//!   results are concatenated in chunk order — output ordering is therefore
//!   deterministic and identical to the serial map, regardless of the
//!   thread count or scheduling;
//! * the **calling thread is the first worker**: it takes the first chunk
//!   itself (on its own warm thread-local scratch) and only the other
//!   chunks get a spawned thread, so a two-worker map spawns once.
//!
//! [`parallel_map_mut`] is the `&mut` sibling for a handful of heavy,
//! independent items that are each *changed* by the work — the three
//! detectors of a catalog being fitted or scored side by side. Both forms
//! run one scope/spawn/join body (`run_chunks`).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread override installed by [`with_thread_count`]; takes
    /// precedence over `HEC_THREADS`.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while a thread works a chunk of a parallel helper — spawned
    /// workers and the calling thread on the first chunk alike — so nested
    /// calls (e.g. a sweep point evaluating a scheme, a detector scoring
    /// its corpus inside a catalog fan-out) run serially instead of
    /// spawning `threads²` threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads parallel helpers may use.
///
/// A [`with_thread_count`] override on the calling thread wins; otherwise
/// reads `HEC_THREADS` (values `< 1` or unparsable fall back to the
/// default); defaults to the machine's available parallelism, asked once
/// per process.
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

/// The machine's available parallelism, asked once per process: on Linux
/// every `available_parallelism` call re-reads the cgroup quota files
/// (about 25 µs and four allocations).
fn default_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE
        .get_or_init(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
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
/// with the message of the first failed worker in chunk order, which for
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
pub(crate) fn parallel_map_grained<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_range_grained(items.len(), grain, |i| f(i, &items[i]))
}

/// Maps `f` over the index range `0..len` using scoped threads, returning
/// results **in index order** — `parallel_map_grained` without the item
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
    let spans = (0..len).step_by(span_len).map(|start| start..(start + span_len).min(len));
    run_chunks(spans, len, f)
}

/// Maps `f` over `items` (with the item's index), each item handed out
/// **mutably**, returning results **in item order** — for a few heavy
/// items that own their state (a catalog's detectors). Items are split
/// into one contiguous chunk per worker, so three items at two workers run
/// as `[0, 1]` on the calling thread beside `[2]` on a spawned one, and at
/// three or more workers one item each. With one worker, one item, or from
/// inside another helper's worker, this is the serial
/// `items.iter_mut().enumerate().map(f).collect()` on the calling thread.
/// There is no grain: whether the work pays for a spawn is the caller's
/// call.
///
/// # Panics
///
/// Propagates panics from `f` with their payload: the first failed item in
/// item order re-raises its own.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let len = items.len();
    let work = |(first, chunk): (usize, &mut [T])| -> Vec<R> {
        chunk.iter_mut().enumerate().map(|(i, item)| f(first + i, item)).collect()
    };
    let threads = thread_count().min(len);
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return work((0, items));
    }
    let chunk_len = len.div_ceil(threads);
    let chunks = items.chunks_mut(chunk_len).enumerate().map(|(k, chunk)| (k * chunk_len, chunk));
    run_chunks(chunks, len, work)
}

/// The scope/spawn/join body under every helper here: the calling thread
/// works the first chunk while one spawned thread works each of the others,
/// and the vectors `work` returns are concatenated **in chunk order**.
/// [`IN_WORKER`] is set on every thread while it works and put back on the
/// calling thread afterwards, also when `work` unwinds. The first chunk in
/// order that panicked re-raises its own payload (the scope joins the other
/// threads first).
fn run_chunks<C, R, F>(chunks: impl Iterator<Item = C>, len: usize, work: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> Vec<R> + Sync,
{
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|c| c.set(self.0));
        }
    }
    let mut chunks = chunks;
    let Some(first) = chunks.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = chunks
            .map(|chunk| {
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    work(chunk)
                })
            })
            .collect();
        let mut out = {
            let _restore = Restore(IN_WORKER.with(|c| c.replace(true)));
            work(first)
        };
        out.reserve(len.saturating_sub(out.len()));
        for handle in handles {
            match handle.join() {
                Ok(chunk) => out.extend(chunk),
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
    fn map_mut_changes_every_item_once_in_order() {
        // One item, fewer items than workers, uneven chunks, one worker.
        for (threads, len) in [(4, 1), (4, 3), (2, 3), (3, 7), (1, 5)] {
            let mut items: Vec<usize> = (0..len).collect();
            let out = with_thread_count(threads, || {
                parallel_map_mut(&mut items, |i, item| {
                    assert_eq!(i, *item);
                    *item += 100;
                    i * 2
                })
            });
            assert_eq!(out, (0..len).map(|i| i * 2).collect::<Vec<_>>(), "{threads} x {len}");
            assert_eq!(items, (100..100 + len).collect::<Vec<_>>(), "{threads} x {len}");
        }
        assert!(parallel_map_mut(&mut [0u8; 0], |_, _| ()).is_empty());
    }

    #[test]
    fn map_mut_chunks_are_contiguous_and_the_caller_takes_the_first() {
        let caller = std::thread::current().id();
        let on_caller = |threads: usize| {
            let mut items = [0u8; 3];
            with_thread_count(threads, || {
                parallel_map_mut(&mut items, |_, _| std::thread::current().id() == caller)
            })
        };
        // Two workers: items 0 and 1 beside item 2; from three, one each.
        assert_eq!(on_caller(2), [true, true, false]);
        assert_eq!(on_caller(3), [true, false, false]);
        assert_eq!(on_caller(4), [true, false, false]);
        assert_eq!(on_caller(1), [true, true, true]);
    }

    #[test]
    fn map_mut_runs_nested_helpers_inline_and_restores_the_flag() {
        assert!(!IN_WORKER.with(Cell::get));
        let mut items = [0usize; 3];
        let nested = with_thread_count(4, || {
            parallel_map_mut(&mut items, |_, _| {
                assert!(IN_WORKER.with(Cell::get));
                // Whole range in one span: the nested call did not fan out.
                let spans = parallel_map_spans(64, 1, |s| vec![s]);
                let mut inner = [0u8; 4];
                let ids = parallel_map_mut(&mut inner, |_, _| std::thread::current().id());
                (spans, ids.iter().all(|&id| id == std::thread::current().id()))
            })
        });
        assert!(nested
            .iter()
            .all(|(spans, inline)| spans.len() == 1 && spans[0] == (0..64) && *inline));
        assert!(!IN_WORKER.with(Cell::get), "the caller's flag must come back");

        // A caller that is itself a worker stays one.
        IN_WORKER.with(|c| c.set(true));
        let _ = with_thread_count(4, || parallel_map_mut(&mut items, |i, _| i));
        assert!(IN_WORKER.with(Cell::get));
        IN_WORKER.with(|c| c.set(false));

        // Also after the caller's own chunk, or a spawned one, panicked.
        for bad in [0, 2] {
            let caught = std::panic::catch_unwind(|| {
                with_thread_count(3, || {
                    parallel_map_mut(&mut [0usize; 3], |i, _| assert!(i != bad, "item {i} failed"))
                })
            });
            assert!(caught.is_err());
            assert!(!IN_WORKER.with(Cell::get), "flag left set after item {bad} panicked");
        }
    }

    /// Items 1 and 2 both fail; whatever the chunking, item 1's payload is
    /// the one re-raised.
    fn map_mut_panic_at_1_and_2(threads: usize) {
        with_thread_count(threads, || {
            parallel_map_mut(&mut [0usize; 3], |i, _| assert!(i == 0, "item {i} failed"))
        });
    }

    #[test]
    #[should_panic(expected = "item 1 failed")]
    fn map_mut_first_failing_item_wins_serial() {
        map_mut_panic_at_1_and_2(1);
    }

    #[test]
    #[should_panic(expected = "item 1 failed")]
    fn map_mut_first_failing_item_wins_two_workers() {
        map_mut_panic_at_1_and_2(2);
    }

    #[test]
    #[should_panic(expected = "item 1 failed")]
    fn map_mut_first_failing_item_wins_three_workers() {
        map_mut_panic_at_1_and_2(3);
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
