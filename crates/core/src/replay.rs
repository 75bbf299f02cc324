//! Sharded trace replay: an (amplified) real-trace corpus streamed
//! through the **sharded** fleet engine at engine rate.
//!
//! The scale tier of the crate's closed loop (`closed_loop.rs`; README,
//! "The closed loop"), composed of: [`replay_scenario`]'s one-cohort
//! fleet, partitioned into a [`ShardPlan`]'s contiguous device slices;
//! the scheme's precomputed [`scheme_action_table`] as the router; and no
//! probe cohort. A table is a stateless `Fn + Sync` router, so the replay
//! hands it straight to [`crate::sharded::run_plan`]'s window loop at
//! every shard count: the shards advance in parallel on the `HEC_THREADS`
//! workers when the trace is long enough to pay for them (an adaptation
//! pass's few thousand run on the calling thread), and outcomes merge
//! in the deterministic `(time, shard-id)` order — the replayed
//! [`FleetStreamResult`] is byte-identical across reruns and thread
//! counts. Each outcome is priced and scored by the loop's own pricing
//! function and scorecard, which also hold the conservation checks —
//! the same code [`crate::stream::stream_through_fleet`] scores with;
//! this module adds the `core.replay` span and the `replay.*` counters.
//!
//! A replay keeps **no queue trace**: [`replay_scenario`] turns the
//! preset's queue-depth sampler off, so `FleetStreamResult::fleet.trace`
//! is empty and `fleet.events` counts no sample events. Nothing read the
//! trace of a replay, and at the preset's 2 048 samples a shard a
//! 50-window replay at 4 shards spent 8 192 of its ≈ 8 300 events on it.
//!
//! Window `seq` replays oracle window `seq % corpus len`. A window's
//! `seq` is shard-major — its shard's first sequence number plus its own
//! emission index within the shard — so this is round-robin over the
//! corpus in each shard's emission order, and in fleet-wide emission
//! order only at one shard. There it is the mapping `stream_through_fleet`
//! uses without a probe cohort, so a one-shard replay reproduces its
//! results exactly (asserted in tests).

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel};
use hec_sim::fleet::{
    CohortSpec, FleetScale, FleetScenario, JobEvent, RouteCtx, RoutePlan, ShardPlan,
};
use hec_sim::DatasetKind;

use crate::closed_loop::{price, Scorecard};
use crate::oracle::Oracle;
use crate::scheme::SchemeKind;
use crate::sharded::run_plan;
use crate::stream::{scheme_action_table, FleetStreamResult};

/// Windows each replay device emits: the corpus spreads over
/// `n / 10` devices, so a million-window trace exercises a
/// hundred-thousand-device fleet.
pub(crate) const WINDOWS_PER_DEVICE: u32 = 10;

/// Builds the replay fleet for an `n_windows` trace: one cohort of
/// `ceil(n / WINDOWS_PER_DEVICE)` devices, each emitting
/// `WINDOWS_PER_DEVICE` windows a minute apart, on the `light_load`
/// queue/link parameters with the dataset's payload and without its
/// queue-depth sampler (module docs). Device ids are contiguous, so
/// [`ShardPlan::new`] splits the cohort into per-shard device slices.
/// When `WINDOWS_PER_DEVICE` does not divide `n_windows` the fleet emits
/// up to one device's extra windows; the oracle mapping wraps
/// round-robin, keeping every emitted window scored.
///
/// # Panics
///
/// Panics if `n_windows == 0`.
pub fn replay_scenario(kind: DatasetKind, payload_bytes: usize, n_windows: u64) -> FleetScenario {
    assert!(n_windows > 0, "cannot replay an empty trace");
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "trace_replay".into();
    sc.kind = kind;
    sc.payload_bytes = payload_bytes;
    sc.max_trace_samples = 0;
    let devices = n_windows.div_ceil(WINDOWS_PER_DEVICE as u64).min(u32::MAX as u64) as u32;
    let windows_per_device = n_windows.div_ceil(devices as u64) as u32;
    sc.cohorts =
        vec![CohortSpec::uniform(devices, windows_per_device, 60_000.0, 0.0, RoutePlan::Fixed(0))];
    sc
}

/// Streams the oracle corpus through the sharded fleet under a scheme:
/// every emitted window maps to an oracle window (`seq % corpus len`,
/// with `seq` shard-major: module docs), the precomputed action table
/// chooses its layer, the sharded engine charges the load-dependent
/// delay, and the serving layer's frozen verdict is scored against ground
/// truth — the accounting of [`crate::stream::stream_through_fleet`] (it
/// is the same code), at shard scale.
///
/// `policy`/`scaler` are required only for [`SchemeKind::Adaptive`],
/// which must be a **static** policy (see [`scheme_action_table`]).
///
/// Deterministic: same inputs ⇒ an identical [`FleetStreamResult`],
/// regardless of `HEC_THREADS` or rerun. The shard count is part of the
/// simulated physics (each shard owns a `1/shards` slice of the queue
/// and link capacity), so different `shards` values model different —
/// individually deterministic — fleets.
///
/// # Panics
///
/// Panics if the oracle is empty, `shards == 0`, or the
/// policy/scaler requirements above are violated.
pub fn replay_trace_sharded(
    scenario: &FleetScenario,
    oracle: &Oracle,
    kind: SchemeKind,
    policy: Option<&mut PolicyNetwork>,
    scaler: Option<&ContextScaler>,
    reward: &RewardModel,
    shards: usize,
) -> FleetStreamResult {
    assert!(!oracle.is_empty(), "cannot replay an empty oracle corpus");
    let _span = hec_telemetry::WallSpan::new("core.replay");
    let actions = scheme_action_table(scenario, oracle, kind, policy, scaler);
    replay_table(scenario, oracle, kind, &actions, reward, shards, |_, _, _| {})
}

/// [`replay_trace_sharded`] once the scheme's action table is known:
/// window `seq` is routed by `actions[seq % n]` and priced and scored as
/// oracle window `seq % n`, where `n = oracle.len()`. `tap` also hears
/// every outcome, with its `seq` and what it earned.
pub(crate) fn replay_table(
    scenario: &FleetScenario,
    oracle: &Oracle,
    kind: SchemeKind,
    actions: &[usize],
    reward: &RewardModel,
    shards: usize,
    mut tap: impl FnMut(u64, &JobEvent, f64),
) -> FleetStreamResult {
    let plan = ShardPlan::new(scenario, shards);
    let n = oracle.len() as u64;
    let mut score = Scorecard::new(oracle, plan.num_layers());
    let mut heard = 0u64;
    let mut hear = |ev: &JobEvent| {
        let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
        let i = (seq % n) as usize;
        let r = price(reward, oracle, ev, i);
        score.record(ev, Some((i, r)));
        tap(seq, ev, r);
        heard += 1;
    };
    let run = run_plan(&plan, &|ctx: &RouteCtx| actions[(ctx.seq % n) as usize], Some(&mut hear));
    assert_eq!(heard, scenario.total_windows(), "fleet leaked scheme-routed windows");
    let result = score.finish(kind, run.report);
    if hec_telemetry::ENABLED {
        let scheme = kind.to_string();
        hec_telemetry::counter_add("replay.windows", &[("scheme", &scheme)], result.fleet.emitted);
        hec_telemetry::counter_add("replay.missed", &[("scheme", &scheme)], result.missed);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use crate::parallel::with_thread_count;
    use crate::stream::stream_through_fleet;
    use hec_anomaly::ConfidenceRule;
    use hec_tensor::Matrix;

    fn oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| {
                let truth = i % 3 == 0;
                WindowOutcome {
                    truth,
                    min_log_pd: [-5.0, -5.0, if truth { -60.0 } else { -1.0 }],
                    anomalous_fraction: [
                        0.0,
                        if truth && i % 2 == 0 { 0.4 } else { 0.0 },
                        if truth { 0.4 } else { 0.0 },
                    ],
                }
            })
            .collect();
        let contexts = (n > 0).then(|| Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect()));
        Oracle { outcomes, contexts, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
    }

    fn rm() -> RewardModel {
        RewardModel::new(0.0005)
    }

    #[test]
    fn replay_scenario_covers_the_trace() {
        let sc = replay_scenario(DatasetKind::Univariate, 384, 1_000_000);
        assert_eq!(sc.total_devices(), 100_000);
        assert_eq!(sc.total_windows(), 1_000_000);
        // Non-divisible traces round up, never down.
        let sc = replay_scenario(DatasetKind::Univariate, 384, 95);
        assert!(sc.total_windows() >= 95);
        // A tiny trace still has at least one device.
        let sc = replay_scenario(DatasetKind::Univariate, 384, 3);
        assert_eq!(sc.total_devices(), 1);
        assert!(sc.total_windows() >= 3);
    }

    /// At a fixed shard count the replay is byte-identical across
    /// reruns and thread counts. (Different shard counts model
    /// different fleets — each shard owns a capacity slice — so only
    /// conservation is asserted across them.)
    #[test]
    fn replay_is_rerun_and_thread_invariant() {
        let o = oracle(120);
        let sc = replay_scenario(DatasetKind::Univariate, 384, o.len() as u64);
        for shards in [1, 2, 4] {
            let base = with_thread_count(1, || {
                replay_trace_sharded(&sc, &o, SchemeKind::Successive, None, None, &rm(), shards)
            });
            for threads in [1, 2, 4] {
                let run = with_thread_count(threads, || {
                    replay_trace_sharded(&sc, &o, SchemeKind::Successive, None, None, &rm(), shards)
                });
                assert_eq!(base, run, "shards={shards} threads={threads}");
            }
            assert_eq!(base.fleet.served + base.fleet.dropped, base.fleet.emitted);
        }
    }

    /// Dropping the queue-depth sampler removes the samples and nothing
    /// else: against the same fleet with the `light_load` preset's
    /// sampler restored (2 048 samples a shard over this horizon), the
    /// result differs only in `fleet.trace` and, by exactly the sample
    /// events, in `fleet.events`.
    #[test]
    fn replay_without_the_sampler_differs_only_in_the_samples() {
        let o = oracle(120);
        let lean = replay_scenario(DatasetKind::Univariate, 384, o.len() as u64);
        let mut sampled = lean.clone();
        sampled.max_trace_samples = FleetScenario::light_load(FleetScale::Quick).max_trace_samples;
        for shards in [1, 4] {
            let replay = |sc| {
                replay_trace_sharded(sc, &o, SchemeKind::Successive, None, None, &rm(), shards)
            };
            let (lean, mut sampled) = (replay(&lean), replay(&sampled));
            assert!(lean.fleet.trace.is_empty());
            assert_eq!(sampled.fleet.trace.len(), 2048);
            assert_eq!(sampled.fleet.events - lean.fleet.events, shards as u64 * 2048);
            sampled.fleet.trace.clear();
            sampled.fleet.events = lean.fleet.events;
            assert_eq!(lean, sampled, "shards={shards}");
        }
    }

    /// A one-shard replay must reproduce `stream_through_fleet` on the
    /// same scenario exactly: the window loop and the closed loop are
    /// different drivers over the same action table, oracle
    /// mapping, pricing and scorecard, so any divergence is a bug. Two
    /// fleets: the replay fleet, which sheds nothing, and one with every
    /// bound tight — one job per dequeue, a two-deep queue, a one-megabit
    /// cloud link admitting two transfers, a window a millisecond from
    /// each device — which sheds windows for both causes, so drop pricing
    /// and the drop breakdown are compared too.
    #[test]
    fn one_shard_replay_matches_the_streaming_driver() {
        let o = oracle(60);
        let sc = replay_scenario(DatasetKind::Univariate, 384, o.len() as u64);
        let mut saturated = sc.clone();
        saturated.batch_max = 1;
        saturated.queue_capacity = 2;
        saturated.link_max_inflight = 2;
        saturated.cloud_bandwidth_mbps = Some(1.0);
        saturated.cohorts[0].period_ms = 1.0;
        let scaler = hec_bandit::ContextScaler::fit(o.contexts());
        let mut policy = PolicyNetwork::new(scaler.dim(), 8, 3, 0);
        let mut drops = [0; 2];
        for sc in [&sc, &saturated] {
            for kind in
                [SchemeKind::IoTDevice, SchemeKind::Edge, SchemeKind::Cloud, SchemeKind::Successive]
            {
                let replayed = replay_trace_sharded(sc, &o, kind, None, None, &rm(), 1);
                let streamed = stream_through_fleet(sc, &o, kind, None, None, &rm(), None);
                assert_eq!(replayed, streamed, "{}: {kind}", sc.name);
                if sc == &saturated {
                    drops[0] += replayed.drops.iter().map(|d| d.queue).sum::<u64>();
                    drops[1] += replayed.drops.iter().map(|d| d.link).sum::<u64>();
                }
            }
            // And the bandit scheme, under a static policy.
            let kind = SchemeKind::Adaptive;
            let (p, s) = (Some(&mut policy), Some(&scaler));
            let replayed = replay_trace_sharded(sc, &o, kind, p, s, &rm(), 1);
            let streamed = stream_through_fleet(sc, &o, kind, Some(&mut policy), s, &rm(), None);
            assert_eq!(replayed, streamed, "{}: {kind}", sc.name);
        }
        assert!(drops.iter().all(|&d| d > 0), "the tight fleet shed {drops:?} (queue, link)");
    }

    #[test]
    fn replay_routes_static_adaptive_policies() {
        let o = oracle(90);
        let scaler = hec_bandit::ContextScaler::fit(o.contexts());
        let mut policy = PolicyNetwork::new(scaler.dim(), 8, 3, 0);
        let sc = replay_scenario(DatasetKind::Univariate, 384, o.len() as u64);
        let a = replay_trace_sharded(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &rm(),
            3,
        );
        let b = replay_trace_sharded(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &rm(),
            3,
        );
        assert_eq!(a, b, "adaptive replay must be deterministic");
        assert_eq!(a.fleet.served + a.fleet.dropped, a.fleet.emitted);
    }

    #[test]
    fn replay_scores_every_emitted_window() {
        let o = oracle(95); // not divisible by WINDOWS_PER_DEVICE
        let sc = replay_scenario(DatasetKind::Univariate, 384, o.len() as u64);
        let r = replay_trace_sharded(&sc, &o, SchemeKind::Cloud, None, None, &rm(), 2);
        assert_eq!(
            r.confusion.total() as u64 + r.missed,
            r.fleet.emitted,
            "wrap-around windows must still be scored"
        );
    }
}
