//! `run_plan` against the engine's own serial `step` loop, on both sides
//! of its work grain: for shards ∈ {2, 4, 7} × `HEC_THREADS` ∈ {1, 2, 3, 4}
//! the outcome stream, the [`ShardedFleetRun`], the registry snapshot and
//! the exported Chrome trace must be the step loop's, byte for byte —
//! whether `run_plan` went serial (the scenario just below the grain) or
//! spawned workers that held uneven chunks (7 shards over 2, 3 and 4).
//!
//! The grain is private to `hec_core::sharded`, so the test does not
//! trust its two sizes: the router records which threads called it, and
//! the test asserts that the small scenario never left the calling thread
//! and the large one did whenever it was allowed more than one.
//!
//! One `#[test]`: the registry, the trace store and the capture flag are
//! binary-global (see `telemetry.rs`). Without `hec-telemetry/enabled`
//! the snapshot and the trace are empty and only the stream and the run
//! are compared.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use hec_core::parallel::with_thread_count;
use hec_core::replay::replay_scenario;
use hec_core::{run_plan, ShardedFleetRun};
use hec_sim::fleet::{
    FleetScale, FleetScenario, JobEvent, RouteCtx, ShardPlan, ShardedFleetEngine,
};
use hec_sim::DatasetKind;

/// Everything one run leaves behind.
#[derive(PartialEq)]
struct Artifacts {
    outcomes: Vec<JobEvent>,
    run: ShardedFleetRun,
    snapshot: String,
    chrome_trace: String,
}

/// Runs `drive` with a clean registry and trace store, capture on.
fn captured(drive: impl FnOnce(&mut Vec<JobEvent>) -> ShardedFleetRun) -> Artifacts {
    hec_telemetry::reset();
    hec_telemetry::clear_trace();
    hec_telemetry::set_trace_capture(true);
    let mut outcomes = Vec::new();
    let run = drive(&mut outcomes);
    hec_telemetry::set_trace_capture(false);
    Artifacts {
        outcomes,
        run,
        snapshot: hec_telemetry::snapshot().to_text(),
        chrome_trace: hec_telemetry::export_chrome_trace(),
    }
}

#[test]
fn run_plan_matches_the_step_loop_on_both_sides_of_the_grain() {
    // 65 530 windows: one short of two workers' worth.
    let below = replay_scenario(DatasetKind::Univariate, 384, 65_526);
    // ~140 000 windows: enough for four.
    let mut above = FleetScenario::edge_saturated(FleetScale::Quick);
    above.scale_fleet(7.0);

    for (sc, parallel) in [(&below, false), (&above, true)] {
        let planned = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
        for shards in [2, 4, 7] {
            let plan = ShardPlan::new(sc, shards);
            let reference = captured(|outcomes| {
                let mut engine = ShardedFleetEngine::new(&plan);
                while let Some(ev) = engine.step(&mut |ctx| planned(ctx)) {
                    outcomes.push(ev);
                }
                let shard_events = engine.shards_mut().iter().map(|sh| sh.events()).collect();
                ShardedFleetRun { report: engine.report(), shard_events }
            });
            assert_eq!(reference.run.report.emitted, sc.total_windows());
            if hec_telemetry::ENABLED {
                assert!(reference.snapshot.contains("fleet.shard.barriers"), "no shard metrics");
                let barrier_track = format!("{}/coordinator", sc.name);
                assert!(reference.chrome_trace.contains(&barrier_track), "no barrier track");
            }

            for threads in [1, 2, 3, 4] {
                let callers: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                let router = |ctx: &RouteCtx| {
                    callers.lock().unwrap().insert(std::thread::current().id());
                    planned(ctx)
                };
                let got = captured(|outcomes| {
                    with_thread_count(threads, || {
                        run_plan(&plan, &router, &mut |ev| outcomes.push(*ev))
                    })
                });
                let at = format!("{} shards={shards} threads={threads}", sc.name);
                let callers = callers.into_inner().unwrap();
                if parallel && threads > 1 {
                    assert!(callers.len() > 1, "{at}: expected workers, the run stayed serial");
                } else {
                    assert_eq!(callers.len(), 1, "{at}: expected the serial loop");
                }
                // `assert_eq!` would print megabytes on failure.
                assert!(got.outcomes == reference.outcomes, "{at}: outcome streams diverged");
                assert_eq!(got.run, reference.run, "{at}");
                assert!(got.snapshot == reference.snapshot, "{at}: registry snapshots diverged");
                assert!(got.chrome_trace == reference.chrome_trace, "{at}: Chrome traces diverged");
            }
        }
    }
    hec_telemetry::clear_trace();
    hec_telemetry::reset();
}
