//! The barrier loop `ShardedFleetEngine::step` ran for a plan of more than
//! one shard, before `hec_core::sharded`'s window loop became the only
//! driver of such plans: every shard advanced to each barrier in shard
//! order on the calling thread, each window's outcomes merged by the
//! per-element [`ref_merge_window`] before the next barrier. The router
//! may be `FnMut`: it is consulted shard by shard within each window.

use hec_sim::fleet::{
    earliest_event_ms, FleetReport, JobEvent, RouteCtx, ShardPlan, ShardedFleetEngine,
};

use super::ref_merge_window;

/// Runs `plan` to completion under `router`: the merged outcome stream and
/// the fleet report.
pub fn run_stepped(
    plan: &ShardPlan,
    router: &mut dyn FnMut(&RouteCtx) -> usize,
) -> (Vec<JobEvent>, FleetReport) {
    let mut engine = ShardedFleetEngine::new(plan);
    let shards = engine.shards_mut();
    let mut outboxes = vec![Vec::new(); shards.len()];
    let mut outcomes = Vec::new();
    while let Some(barrier) = plan.barrier_after(earliest_event_ms(shards)) {
        for (shard, outbox) in shards.iter_mut().zip(&mut outboxes) {
            shard.advance_to(barrier, router, Some(outbox));
        }
        ref_merge_window(&mut outboxes, &mut |ev| outcomes.push(ev));
    }
    (outcomes, engine.report())
}
