//! Criterion bench: telemetry recording cost, and proof that the
//! disabled configuration is free.
//!
//! Run with default features for the enabled-path numbers; run with
//! `--no-default-features` and the `*_gated` rows collapse to the cost
//! of an empty loop, because every recording entry point folds away on
//! `hec_telemetry::ENABLED == false` (the CI no-op build compiles this
//! configuration) — the one configuration `perf`, which always builds
//! telemetry in, cannot time. The end-to-end price of capture on an
//! instrumented fleet run is `perf`'s `telemetry.trace_overhead_share`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hec_telemetry::{FastCounter, WallSpan};

static BENCH_COUNTER: FastCounter = FastCounter::new("bench.fast_counter");

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");

    // A Relaxed atomic bump when enabled; an empty body when not.
    group.bench_function("fast_counter_add_gated", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                BENCH_COUNTER.add(black_box(1));
            }
        })
    });

    // Registry mutex + BTreeMap lookup when enabled; empty when not.
    group.bench_function("registry_counter_add_gated", |b| {
        b.iter(|| {
            for _ in 0..100 {
                hec_telemetry::counter_add("bench.registry_counter", &[], black_box(1));
            }
        })
    });

    // Two Instant reads + a sidecar fold when enabled; empty when not.
    group.bench_function("wall_span_gated", |b| {
        b.iter(|| {
            for _ in 0..100 {
                let _s = WallSpan::new("bench.wall_span");
                black_box(());
            }
        })
    });

    // Capture defaults to off, so this is the per-event cost every
    // un-traced fleet run pays at each instrumentation site: one
    // relaxed load (enabled) or nothing (disabled).
    group.bench_function("vspan_capture_off_gated", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                hec_telemetry::vspan(black_box("bench.track"), "ev", 0.0, 1.0);
            }
        })
    });

    group.finish();
    hec_telemetry::clear_wall_stats();
    hec_telemetry::reset();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
