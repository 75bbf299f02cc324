//! Shared allocation tracking — the counting global allocator that was
//! previously duplicated across `crates/nn/tests/zero_alloc.rs`,
//! `crates/anomaly/tests/detect_alloc.rs` and
//! `crates/tensor/tests/alloc_free.rs`, promoted to one implementation.
//!
//! Install it per binary:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;
//! ```
//!
//! [`allocations()`] then reports the process-wide count of `alloc` +
//! `realloc` calls. [`AllocPhase`] wraps a code region and folds the
//! allocation delta into the sidecar store (`alloc.<label>`), so
//! per-phase allocation behaviour shows up next to the wall-clock spans
//! in stderr dumps and `perf`'s per-layer rows — never in the deterministic
//! registry, since allocator traffic varies with thread count and warmup
//! state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::span::sidecar_add;
use crate::ENABLED;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// A counting global allocator: delegates to [`System`] and counts every
/// `alloc` and `realloc` call (SeqCst, so cross-thread reads in tests see
/// a consistent count).
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`; the only addition is an atomic
// counter bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Process-wide count of `alloc` + `realloc` calls. Stays 0 unless
/// [`CountingAlloc`] is installed as the binary's `#[global_allocator]`.
pub fn allocations() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

/// RAII allocation-phase tracker: records the [`allocations()`] delta
/// between construction and drop into the sidecar store as
/// `alloc.<label>`. Useful in binaries that install [`CountingAlloc`];
/// elsewhere (or with telemetry disabled) it records nothing.
#[must_use = "an AllocPhase measures until it is dropped"]
pub struct AllocPhase {
    label: &'static str,
    start: usize,
    armed: bool,
}

impl AllocPhase {
    /// Starts tracking allocations under `alloc.<label>`.
    pub fn new(label: &'static str) -> Self {
        Self { label, start: if ENABLED { allocations() } else { 0 }, armed: ENABLED }
    }
}

impl Drop for AllocPhase {
    fn drop(&mut self) {
        if self.armed {
            let delta = allocations().saturating_sub(self.start);
            // The sidecar name needs a String; build it only when enabled.
            let name = format!("alloc.{}", self.label);
            sidecar_add(&name, delta as u64);
        }
    }
}
