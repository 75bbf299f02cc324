//! End-to-end telemetry invariants over the sharded fleet driver:
//!
//! * the global metric snapshot — in every sink format — and the virtual-
//!   clock trace export are **byte-identical** across `HEC_THREADS`
//!   values for the same run (the repo's determinism invariant extended
//!   to the telemetry subsystem; CI enforces the same property on
//!   `repro_fleet --telemetry` output);
//! * window conservation is visible end to end: the per-layer drop
//!   breakdown [`hec_core::stream::DropBreakdown`] sums to the fleet
//!   report's drop count, `emitted == served + dropped`, and the
//!   registry's `stream.drops` / `fleet.*` counters agree with both.
//!
//! Everything lives in one `#[test]`: the registry, trace store and
//! capture flag are binary-global, so concurrent tests would disturb
//! each other. When the crate is built without `hec-telemetry/enabled`
//! the test degenerates to the conservation checks (the registry is
//! inert), so it stays meaningful in the no-op configuration too.

use hec_bandit::{ContextScaler, RewardModel};
use hec_core::parallel::with_thread_count;
use hec_core::stream::stream_through_fleet;
use hec_core::{run_scenario_sharded, Oracle, SchemeKind, WindowOutcome};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
use hec_telemetry::{MetricValue, Snapshot};
use hec_tensor::Matrix;

/// Synthetic oracle (the shape `fleet_train`'s tests use): truth on
/// every third window, all layers confident.
fn oracle(n: usize) -> Oracle {
    let outcomes = (0..n)
        .map(|i| {
            let truth = i % 3 == 0;
            WindowOutcome {
                truth,
                min_log_pd: [
                    if truth { -60.0 } else { -1.0 },
                    if truth { -60.0 } else { -1.0 },
                    if truth { -60.0 } else { -1.0 },
                ],
                anomalous_fraction: [0.4; 3].map(|f| if truth { f } else { 0.0 }),
            }
        })
        .collect();
    let contexts = (0..n).flat_map(|i| [(i % 2) as f32, (i % 3) as f32 / 2.0]).collect();
    Oracle {
        outcomes,
        contexts: Some(Matrix::from_vec(n, 2, contexts)),
        thresholds: [-10.0; 3],
        confidence: hec_anomaly::ConfidenceRule::default(),
    }
}

/// A fleet hot enough that routing everything to the edge drops windows:
/// 60 devices × 8 windows / 25 ms against a 40-deep edge queue.
fn hot_scenario() -> FleetScenario {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "telemetry_test".into();
    sc.batch_max = 1;
    sc.queue_capacity = 40;
    sc.trace_interval_ms = 25.0;
    sc.cohorts = vec![CohortSpec::uniform(60, 8, 25.0, 0.0, RoutePlan::Fixed(0))];
    sc
}

/// Sum of a named counter across all label sets in a snapshot.
fn counter_total(snap: &Snapshot, name: &str) -> u64 {
    snap.entries()
        .iter()
        .filter(|(k, _)| k.name() == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn telemetry_is_thread_count_invariant_and_conserves_windows() {
    // --- Part 1: snapshot + trace byte-identity across HEC_THREADS. ---
    if hec_telemetry::ENABLED {
        let sc = FleetScenario::edge_saturated(FleetScale::Quick);
        let mut dumps: Vec<(String, String, String, String)> = Vec::new();
        for threads in [1usize, 2, 4] {
            hec_telemetry::reset();
            hec_telemetry::clear_trace();
            hec_telemetry::set_trace_capture(true);
            let run = with_thread_count(threads, || run_scenario_sharded(&sc, 4));
            hec_telemetry::set_trace_capture(false);
            let snap = hec_telemetry::snapshot();
            assert!(!snap.is_empty(), "instrumented run recorded no metrics");
            assert_eq!(
                counter_total(&snap, "fleet.shard.events"),
                run.report.events,
                "per-shard event counters disagree with the report"
            );
            dumps.push((
                snap.to_text(),
                snap.to_csv(),
                snap.to_ndjson(),
                hec_telemetry::export_chrome_trace(),
            ));
        }
        hec_telemetry::clear_trace();
        for d in &dumps[1..] {
            assert_eq!(dumps[0].0, d.0, "snapshot text depends on HEC_THREADS");
            assert_eq!(dumps[0].1, d.1, "snapshot CSV depends on HEC_THREADS");
            assert_eq!(dumps[0].2, d.2, "snapshot NDJSON depends on HEC_THREADS");
            assert_eq!(dumps[0].3, d.3, "chrome trace depends on HEC_THREADS");
        }
        let trace = &dumps[0].3;
        assert!(trace.contains("edge_saturated/shard0"), "advance track missing");
        assert!(trace.contains("edge_saturated/coordinator"), "barrier track missing");
        assert!(trace.contains("\"ph\":\"X\""), "no complete spans captured");
        hec_telemetry::reset();
    } else {
        eprintln!("telemetry disabled: skipping snapshot byte-identity section");
    }

    // --- Part 2: drop conservation, engine -> stream -> registry. ---
    hec_telemetry::reset();
    let o = oracle(48);
    let scaler = ContextScaler::fit(o.contexts());
    let sc = hot_scenario();
    let reward = RewardModel::new(0.0005);
    // Everything to the edge: the 40-deep queue must shed load.
    let r = stream_through_fleet(&sc, &o, SchemeKind::Edge, None, Some(&scaler), &reward, None);
    assert!(r.fleet.dropped > 0, "scenario failed to produce drops");
    assert_eq!(
        r.fleet.served + r.fleet.dropped,
        r.fleet.emitted,
        "fleet lost windows: emitted != served + dropped"
    );
    let breakdown_total: u64 = r.drops.iter().map(|d| d.queue + d.link).sum();
    assert_eq!(
        breakdown_total, r.fleet.dropped,
        "drop breakdown does not sum to the fleet's drop count"
    );
    // Every drop in this scenario is a queue overflow at the edge.
    for d in &r.drops {
        assert_eq!(d.link, 0, "unexpected link drop at layer {}", d.layer);
        if d.queue > 0 {
            assert_eq!(d.layer, 1, "queue drops must be at the edge layer");
        }
    }
    if hec_telemetry::ENABLED {
        let snap = hec_telemetry::snapshot();
        assert_eq!(
            counter_total(&snap, "stream.drops"),
            r.fleet.dropped,
            "stream.drops counters disagree with the report"
        );
        assert_eq!(counter_total(&snap, "fleet.dropped"), r.fleet.dropped);
        assert_eq!(counter_total(&snap, "fleet.served"), r.fleet.served);
        assert_eq!(counter_total(&snap, "fleet.emitted"), r.fleet.emitted);
        hec_telemetry::reset();
    }
}
