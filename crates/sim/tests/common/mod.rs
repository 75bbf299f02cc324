//! Scenario builders and a closed-loop router the fleet test files share.

#![allow(dead_code)]

use hec_sim::fleet::{
    CohortSpec, FeedbackRouter, FleetReport, FleetScale, FleetScenario, JobEvent, RoutePlan,
    ShardPlan, ShardedFleetEngine,
};

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

/// A closed loop's router that routes as its scenario plans and keeps
/// every outcome it hears.
struct Planned<R> {
    route: R,
    outcomes: Vec<JobEvent>,
}

impl<R: Fn(&hec_sim::fleet::RouteCtx) -> usize> FeedbackRouter for Planned<R> {
    fn route(&mut self, ctx: &hec_sim::fleet::RouteCtx) -> usize {
        (self.route)(ctx)
    }

    fn heard(&mut self, outcomes: &[JobEvent]) {
        self.outcomes.extend_from_slice(outcomes);
    }
}

/// The outcome stream and report of `sc` under its own routing plans, run
/// closed through the shard of a one-shard plan.
pub fn run_closed(sc: &FleetScenario) -> (Vec<JobEvent>, FleetReport) {
    let plan = ShardPlan::new(sc, 1);
    let mut engine = ShardedFleetEngine::new(&plan);
    let mut lp = Planned { route: sc.planned_router(), outcomes: vec![] };
    engine.shards_mut()[0].run_closed(&mut lp);
    (lp.outcomes, engine.report())
}
