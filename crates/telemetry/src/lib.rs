//! # hec-telemetry — deterministic observability for the HEC-AD stack
//!
//! Metrics, spans and allocation tracking shared by every crate in the
//! workspace, designed around the repo's load-bearing invariant: **all
//! recorded output on the deterministic paths is byte-identical across
//! reruns and `HEC_THREADS` settings.** The subsystem is split by clock
//! domain to keep that true:
//!
//! * [`registry`] — counters, gauges and mergeable [`GeomHist`]
//!   histograms keyed by static name + label set. Holds *deterministic*
//!   quantities only (event counts, virtual-clock latencies, rates per
//!   virtual ms). Snapshots render in sorted order as text, CSV or
//!   NDJSON and byte-diff clean across thread counts (CI-enforced).
//! * [`span`] — virtual-clock spans/instants on named tracks, exported
//!   as Chrome-trace JSON for Perfetto; plus wall-clock [`WallSpan`]
//!   timers that aggregate into a sidecar store read by stderr dumps and
//!   the `perf` benchmark's per-layer rows only, so stdout stays
//!   byte-stable.
//! * [`alloc`] — the shared counting global allocator (promoted from
//!   three duplicated test harnesses) and [`AllocPhase`] for per-phase
//!   allocation deltas, which land in the sidecar next to wall spans.
//!
//! ## Zero overhead when off
//!
//! Recording is gated on the `enabled` cargo feature through the
//! [`ENABLED`] constant. Every recording entry point starts with
//! `if ENABLED { ... }`, which the compiler folds away when the feature
//! is off, and instrumentation sites that would *build* arguments
//! (format a track name, clone a label) guard themselves on `ENABLED`
//! or [`trace_capture_enabled`] first. `hec-bench` forwards the feature
//! via its default `telemetry` feature; building the library stack
//! without it (`cargo build -p hec-bench --no-default-features`) is the
//! guaranteed no-op configuration. `tests/compiled_out.rs` holds every
//! global entry point to that with the feature off, and `perf`'s
//! `telemetry.trace_overhead_share` row prices recording when it is on.

pub mod alloc;
pub mod hist;
pub mod registry;
pub mod span;

/// True when the `enabled` cargo feature is on. All recording entry
/// points fold to no-ops when this is `false`; instrumentation sites use
/// it to skip argument construction entirely.
pub const ENABLED: bool = cfg!(feature = "enabled");

pub use alloc::{allocations, AllocPhase, CountingAlloc};
pub use hist::GeomHist;
pub use registry::{
    counter_add, counter_set, gauge_set, hist_record, hist_set, reset, snapshot, FastCounter,
    MetricKey, MetricValue, Registry, Snapshot,
};
pub use span::{
    clear_trace, clear_wall_stats, export_chrome_trace, set_trace_capture, sidecar_add,
    trace_capture_enabled, vinstant, vspan, wall_stats, wall_stats_text, SidecarStat, WallSpan,
};
