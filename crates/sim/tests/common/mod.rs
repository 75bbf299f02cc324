//! Scenario builders the fleet test files share.

#![allow(dead_code)]

use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};

/// Builds a small scenario from sampled parameters: one cohort routed by
/// a mixture over the three layers.
pub fn scenario_from(
    devices: u32,
    windows: u32,
    period_ms: f64,
    weights: [f64; 3],
    queue_capacity: usize,
    batch_max: usize,
) -> FleetScenario {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "prop".into();
    sc.queue_capacity = queue_capacity;
    sc.batch_max = batch_max;
    sc.trace_interval_ms = 25.0;
    sc.cohorts =
        vec![CohortSpec::uniform(devices, windows, period_ms, 0.0, RoutePlan::Mixture(weights))];
    sc
}
