//! Metamorphic relations of the fleet simulator: a change to a scenario
//! that must not change the run, checked by running both scenarios.
//!
//! **The null cohort.** A cohort with no devices emits nothing, so adding
//! one — before the others or after them — must leave the outcome stream
//! and the [`FleetReport`] byte-identical, at one shard (run closed, each
//! handled event's outcomes heard before the next) and at four (the
//! barrier loop in `reference/stepped.rs`).
//! The engine numbers its queue lanes by cohort count (a lane per cohort's
//! emissions, then per shared layer), so the relation also holds the lane
//! mapping to being invisible.
//!
//! A cohort with devices but no windows is a documented exception: its
//! devices are fleet devices. They take device ids — prepending it shifts
//! every later device's id by its device count — and they count as
//! layer-0 servers, so layer-0 utilization (busy time over servers ×
//! horizon) falls. Everything else is byte-identical, which is what the
//! relation checks for it: the outcome stream with device ids mapped back,
//! and the report with layer-0 utilization set aside.

mod common;
mod reference;

use proptest::prelude::*;

use common::{run_closed, scenario_from};
use hec_sim::fleet::{
    CohortSpec, FleetReport, FleetScale, FleetScenario, JobEvent, RoutePlan, ShardPlan,
};
use reference::stepped::run_stepped;

/// The merged outcome stream and report of `sc` at `shards` shards, under
/// its own routing plans: run closed through the one shard of a one-shard
/// plan, through the barrier loop otherwise.
fn run(sc: &FleetScenario, shards: usize) -> (Vec<JobEvent>, FleetReport) {
    if shards > 1 {
        return run_stepped(&ShardPlan::new(sc, shards), &mut sc.planned_router());
    }
    run_closed(sc)
}

/// `sc` with `null` before its cohorts and after them.
fn wrapped(sc: &FleetScenario, null: &CohortSpec) -> FleetScenario {
    let mut out = sc.clone();
    out.cohorts.insert(0, null.clone());
    out.cohorts.push(null.clone());
    out
}

/// `event` with its device id moved down by `by`.
fn shift_device(event: JobEvent, by: u32) -> JobEvent {
    match event {
        JobEvent::Served { seq, device, layer, latency_ms } => {
            JobEvent::Served { seq, device: device - by, layer, latency_ms }
        }
        JobEvent::Dropped { seq, device, layer, reason } => {
            JobEvent::Dropped { seq, device: device - by, layer, reason }
        }
    }
}

/// Checks both null-cohort relations on `sc` at one and four shards.
/// `period_ms` and `start_ms` place the null cohorts' (empty) schedules.
fn null_cohorts_change_nothing(sc: &FleetScenario, period_ms: f64, start_ms: f64, devices: u32) {
    let no_devices = CohortSpec::uniform(0, 5, period_ms, start_ms, RoutePlan::Fixed(2));
    let no_windows = CohortSpec::uniform(devices, 0, period_ms, start_ms, RoutePlan::Fixed(1));
    for shards in [1, 4] {
        let (outcomes, report) = run(sc, shards);
        assert_eq!(report.emitted, sc.total_windows(), "{}/{shards}", sc.name);

        let (with_null, with_null_report) = run(&wrapped(sc, &no_devices), shards);
        assert_eq!(with_null, outcomes, "{}/{shards}: zero-device cohort", sc.name);
        assert_eq!(with_null_report, report, "{}/{shards}: zero-device cohort", sc.name);
        assert_eq!(with_null_report.to_text(), report.to_text());
        assert_eq!(with_null_report.layers_csv(), report.layers_csv());
        assert_eq!(with_null_report.trace_csv(), report.trace_csv());

        let (idle, mut idle_report) = run(&wrapped(sc, &no_windows), shards);
        let mapped: Vec<JobEvent> = idle.into_iter().map(|ev| shift_device(ev, devices)).collect();
        assert_eq!(mapped, outcomes, "{}/{shards}: zero-window cohort", sc.name);
        let utilization = idle_report.layers[0].utilization;
        assert!(
            utilization <= report.layers[0].utilization,
            "{}/{shards}: idle devices raised layer-0 utilization",
            sc.name
        );
        idle_report.layers[0].utilization = report.layers[0].utilization;
        assert_eq!(idle_report, report, "{}/{shards}: zero-window cohort", sc.name);
    }
}

#[test]
fn null_cohorts_leave_named_scenarios_unchanged() {
    for name in FleetScenario::NAMES {
        let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        // A period shorter than every real cohort's: if the null cohorts
        // counted, the four-shard plan's lookahead would shrink.
        null_cohorts_change_nothing(&sc, 0.5, 0.0, 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn null_cohorts_leave_random_scenarios_unchanged(
        devices in 1u32..40,
        windows in 1u32..8,
        period_ms in 1.0f64..500.0,
        w0 in 0.05f64..1.0,
        w1 in 0.05f64..1.0,
        w2 in 0.05f64..1.0,
        queue_capacity in 1usize..64,
        batch_max in 1usize..6,
        null_period_ms in 0.5f64..600.0,
        null_start_ms in 0.0f64..100.0,
        null_devices in 1u32..9,
    ) {
        let sc = scenario_from(devices, windows, period_ms, [w0, w1, w2], queue_capacity, batch_max);
        null_cohorts_change_nothing(&sc, null_period_ms, null_start_ms, null_devices);
    }
}
