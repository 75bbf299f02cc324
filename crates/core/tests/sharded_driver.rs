//! `run_plan` against the serial barrier loop multi-shard plans ran before
//! the window loop (`step_loop` below, a copy of the referee in
//! `hec-sim`'s `tests/reference/stepped.rs` over the public primitives).
//! One-shard plans run the same window loop, at one worker, and are held
//! to the same referee.
//!
//! On both sides of its work grain — the replay fleet just below it, every
//! named scenario grown above it for four workers — for shards ∈
//! {1, 2, 4, 7} × `HEC_THREADS` ∈ {1, 2, 3, 4} the outcome stream, the
//! [`ShardedFleetRun`], the registry snapshot and the exported Chrome trace
//! must be the referee's, byte for byte — whether `run_plan` kept every
//! shard on the calling thread or spawned workers that held uneven chunks
//! (7 shards over 2, 3 and 4). The grain is private to `hec_core::sharded`,
//! so the test does not trust its two sizes: the router records which
//! threads called it, and the test asserts that the small scenario and
//! every one-shard plan never left the calling thread and the large ones
//! did whenever they were allowed more than one worker.
//!
//! On small plans — random scenarios of a few dozen devices, each at one
//! shard and at several, and more shards than devices — the stream and
//! the run must be the referee's too, every window must be accounted for
//! and every sequence number delivered once.
//!
//! A run nobody observes (`run_plan(.., None)`) buffers and merges no
//! outcome, and must leave exactly what an observed one leaves: the
//! [`ShardedFleetRun`], the report's text and CSVs, the registry snapshot
//! and, with capture on, the Chrome trace with every outcome's job span.
//!
//! The registry, the trace store and the capture flag are binary-global
//! (see `telemetry.rs`), so the tests take turns. Without
//! `hec-telemetry/enabled` the snapshot and the trace are empty and only
//! the stream and the run are compared.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

use hec_core::parallel::with_thread_count;
use hec_core::replay::replay_scenario;
use hec_core::{run_plan, ShardedFleetRun};
use hec_sim::fleet::{
    earliest_event_ms, merge_window, CohortSpec, FleetScale, FleetScenario, JobEvent, RouteCtx,
    RoutePlan, ShardPlan, ShardedFleetEngine,
};
use hec_sim::DatasetKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Held by each test for its whole run: the recorder is binary-global.
fn recorder() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The referee: every shard advanced to each barrier in shard order on
/// the calling thread, each window's outcomes merged before the next.
fn step_loop(
    plan: &ShardPlan,
    router: &mut dyn FnMut(&RouteCtx) -> usize,
    outcomes: &mut Vec<JobEvent>,
) -> ShardedFleetRun {
    let mut engine = ShardedFleetEngine::new(plan);
    let shards = engine.shards_mut();
    let (mut outboxes, mut cursors) = (vec![Vec::new(); shards.len()], Vec::new());
    while let Some(barrier) = plan.barrier_after(earliest_event_ms(shards)) {
        for (shard, outbox) in shards.iter_mut().zip(&mut outboxes) {
            shard.advance_to(barrier, router, Some(outbox));
        }
        merge_window(&mut outboxes, &mut cursors, &mut |ev| outcomes.push(ev));
    }
    let shard_events = shards.iter().map(|shard| shard.events()).collect();
    ShardedFleetRun { report: engine.report(), shard_events }
}

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
    let _recorder = recorder();
    // 65 530 windows: one short of two workers' worth.
    let mut scenarios = vec![(replay_scenario(DatasetKind::Univariate, 384, 65_526), false)];
    // Enough for four.
    for name in FleetScenario::NAMES {
        let mut sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        sc.scale_fleet(4.0 * 33_000.0 / sc.total_windows() as f64);
        assert!(sc.total_windows() >= 4 * 32_768, "{name}: below four workers' worth");
        scenarios.push((sc, true));
    }

    for (sc, parallel) in &scenarios {
        let parallel = *parallel;
        let planned = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
        for shards in [1, 2, 4, 7] {
            let plan = ShardPlan::new(sc, shards);
            let reference =
                captured(|outcomes| step_loop(&plan, &mut |ctx| planned(ctx), outcomes));
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
                        run_plan(&plan, &router, Some(&mut |ev| outcomes.push(*ev)))
                    })
                });
                let at = format!("{} shards={shards} threads={threads}", sc.name);
                let callers = callers.into_inner().unwrap();
                if parallel && threads > 1 && shards > 1 {
                    assert!(callers.len() > 1, "{at}: expected workers, the run stayed serial");
                } else {
                    assert_eq!(callers.len(), 1, "{at}: expected one worker");
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

/// A random scenario of one cohort, a few dozen devices at most.
fn small_scenario(rng: &mut StdRng) -> FleetScenario {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "small".into();
    sc.queue_capacity = rng.gen_range(1..64);
    sc.batch_max = rng.gen_range(1..6);
    sc.trace_interval_ms = 25.0;
    let weights = [(); 3].map(|()| rng.gen_range(0.05..1.0));
    let (devices, windows) = (rng.gen_range(1..40), rng.gen_range(1..8));
    let period_ms = rng.gen_range(1.0..500.0);
    sc.cohorts =
        vec![CohortSpec::uniform(devices, windows, period_ms, 0.0, RoutePlan::Mixture(weights))];
    sc
}

#[test]
fn run_plan_matches_the_step_loop_on_small_plans() {
    let _recorder = recorder();
    // Eight shards over three devices: five of them stay empty.
    let mut few_devices = FleetScenario::light_load(FleetScale::Quick);
    few_devices.cohorts[0].devices = 3;
    let mut plans = vec![(few_devices, 8)];
    let mut rng = StdRng::seed_from_u64(25);
    for _ in 0..32 {
        let sc = small_scenario(&mut rng);
        plans.push((sc.clone(), 1));
        plans.push((sc, rng.gen_range(2..9)));
    }

    for (i, (sc, shards)) in plans.iter().enumerate() {
        let at = format!("plan {i} ({} devices, {shards} shards)", sc.total_devices());
        let plan = ShardPlan::new(sc, *shards);
        let planned = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
        let mut reference = Vec::new();
        let reference_run = step_loop(&plan, &mut |ctx| planned(ctx), &mut reference);
        for threads in [1, 4] {
            let mut outcomes = Vec::new();
            let run = with_thread_count(threads, || {
                run_plan(&plan, &planned, Some(&mut |ev| outcomes.push(*ev)))
            });
            assert_eq!(outcomes, reference, "{at} threads={threads}");
            assert_eq!(run, reference_run, "{at} threads={threads}");
        }

        let report = &reference_run.report;
        assert_eq!(report.emitted, sc.total_windows(), "{at}");
        assert_eq!(report.served + report.dropped, report.emitted, "{at}");
        let mut delivered = vec![false; sc.total_windows() as usize];
        for ev in &reference {
            let (JobEvent::Served { seq, device, .. } | JobEvent::Dropped { seq, device, .. }) =
                *ev;
            assert!(u64::from(device) < sc.total_devices(), "{at}: device {device} out of range");
            let seen = delivered.get_mut(seq as usize).expect("seq out of range");
            assert!(!std::mem::replace(seen, true), "{at}: seq {seq} delivered twice");
        }
        assert!(delivered.iter().all(|&d| d), "{at}: a window was never delivered");
    }
}

/// `run_plan` without an observer against the same plan with one that
/// ignores every outcome: every named scenario at quick size (below the
/// grain: one worker whatever `HEC_THREADS` is) at 1, 2 and 4 shards, and
/// grown for four workers at 4 shards, each at 1, 2 and 4 `HEC_THREADS`.
#[test]
fn an_unobserved_run_leaves_what_an_observed_one_leaves() {
    let _recorder = recorder();
    for name in FleetScenario::NAMES {
        let quick = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        let mut grown = quick.clone();
        grown.scale_fleet(4.0 * 33_000.0 / quick.total_windows() as f64);
        for (sc, shards) in [(&quick, 1), (&quick, 2), (&quick, 4), (&grown, 4)] {
            let plan = ShardPlan::new(sc, shards);
            let planned = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
            for threads in [1, 2, 4] {
                let windows = sc.total_windows();
                let at = format!("{name} ({windows} windows) shards={shards} threads={threads}");
                let run = |observer: Option<&mut dyn FnMut(&JobEvent)>| {
                    with_thread_count(threads, || run_plan(&plan, &planned, observer))
                };
                let observed = captured(|_| run(Some(&mut |_| {})));
                let unobserved = captured(|_| run(None));
                let (a, b) = (&observed.run.report, &unobserved.run.report);
                assert_eq!(unobserved.run, observed.run, "{at}");
                assert_eq!(b.to_text(), a.to_text(), "{at}");
                assert_eq!(b.layers_csv(), a.layers_csv(), "{at}");
                assert_eq!(b.trace_csv(), a.trace_csv(), "{at}");
                assert!(unobserved.snapshot == observed.snapshot, "{at}: snapshots diverged");
                assert!(
                    unobserved.chrome_trace == observed.chrome_trace,
                    "{at}: Chrome traces diverged"
                );
                if hec_telemetry::ENABLED {
                    assert!(unobserved.chrome_trace.contains("\"serve L"), "{at}: no job spans");
                }
            }
        }
    }
    hec_telemetry::clear_trace();
    hec_telemetry::reset();
}
