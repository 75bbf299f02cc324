//! Telemetry compiled out is a no-op: with the `enabled` feature off,
//! every global recording entry point leaves the registry snapshot, the
//! virtual-clock trace and the wall-clock sidecar empty — even with trace
//! capture switched on.
//!
//! `cargo test -p hec-telemetry` builds the crate with the feature off
//! (nothing in its own dependency tree turns it on); a workspace test run
//! turns it on through `hec-bench`, and this file compiles to nothing. The
//! price of recording when it is on is `perf`'s
//! `telemetry.trace_overhead_share`.

#![cfg(not(feature = "enabled"))]

use hec_telemetry::{FastCounter, WallSpan};

static COUNTER: FastCounter = FastCounter::new("test.fast_counter");

#[test]
fn every_global_entry_point_records_nothing() {
    COUNTER.add(5);
    COUNTER.publish();
    hec_telemetry::counter_add("test.counter", &[("scenario", "x")], 1);
    hec_telemetry::gauge_set("test.gauge", &[], 2.5);
    hec_telemetry::hist_record("test.hist", &[], 3.0);
    drop(WallSpan::new("test.wall_span"));
    hec_telemetry::sidecar_add("test.sidecar", 7);
    hec_telemetry::set_trace_capture(true);
    hec_telemetry::vspan("test.track", "span", 0.0, 1.0);
    hec_telemetry::vinstant("test.track", "instant", 2.0);

    assert_eq!(COUNTER.get(), 0, "a fast counter counted");
    assert!(!hec_telemetry::trace_capture_enabled(), "trace capture switched on");
    let snapshot = hec_telemetry::snapshot();
    assert!(snapshot.is_empty(), "registry holds {}", snapshot.to_text());
    // Every Chrome-trace event, track metadata included, carries a phase.
    let trace = hec_telemetry::export_chrome_trace();
    assert!(!trace.contains("\"ph\""), "trace holds events: {trace}");
    assert_eq!(hec_telemetry::wall_stats(), Vec::new(), "sidecar holds stats");
}
