//! The closed loop, written once.
//!
//! The paper's method is one transaction — context → action (a layer) →
//! reward = accuracy − cost(observed delay) — and every fleet driver of
//! this crate is that transaction repeated over a [`ShardPlan`]. Three
//! decisions make it up, and each has one home:
//!
//! 1. **what a scheme does with a window** lives with the schemes:
//!    [`crate::scheme`]'s action table is the only place a
//!    [`SchemeKind`] picks a layer;
//! 2. **what a routed window scores** — [`run_closed_loop`] prices every
//!    scheme-routed outcome at its *observed* delay (or the drop penalty)
//!    before anyone hears it, and [`Evaluation`] accumulates a run's
//!    confusion, reward, routed latency and per-layer × per-cause drops;
//!    [`Evaluation::finish`] is the only place a [`FleetStreamResult`] is
//!    assembled and the only copy of the window-conservation checks,
//!    which hold in release builds too;
//! 3. **how the engine is driven** — [`run_closed_loop`] drains a plan
//!    for one [`ClosedLoop`] (a router and the hearer of its outcomes):
//!    a stateless action table over a fleet without background cohorts
//!    goes to [`run_plan`] at any shard count; anything whose routing or
//!    bookkeeping changes between windows — a load-aware policy, a probe
//!    cohort, a trainer mid-update — needs a one-shard plan, whose shard
//!    hands over outcome *n* before it routes window *n + 1*.
//!
//! The compositions: [`crate::stream::stream_through_fleet`] (one shard,
//! any router, optional probe cohort) and
//! [`crate::replay::replay_trace_sharded`] (any shard count, a table)
//! run an [`Evaluation`]; [`crate::fleet_train::train_policy_in_fleet`]
//! runs a sampling trainer, once per epoch.

use hec_bandit::{LoadNormalizer, PolicyNetwork, RewardModel};
use hec_data::BinaryConfusion;
use hec_sim::fleet::{
    DropReason, FleetReport, FleetScenario, JobEvent, RouteCtx, ShardPlan, ShardedFleetEngine,
};
use hec_telemetry::GeomHist;

use crate::oracle::Oracle;
use crate::scheme::SchemeKind;
use crate::sharded::run_plan;
use crate::stream::{DropBreakdown, FleetStreamResult};

/// Windows the scheme routes in `scenario`: every cohort's, or only the
/// probe cohort's (the rest keep their scenario routing plans and act as
/// background load).
///
/// # Panics
///
/// Panics if the probe cohort is out of range.
pub(crate) fn routed_windows(scenario: &FleetScenario, probe: Option<u32>) -> u64 {
    let Some(pc) = probe else { return scenario.total_windows() };
    let cohort = scenario.cohorts.get(pc as usize);
    cohort.unwrap_or_else(|| panic!("probe cohort {pc} out of range")).total_windows()
}

/// Writes a load-aware policy's input over `out`: a window's scaled base
/// context with the emitting moment's normalised load gauges appended
/// ([`crate::stream::scenario_load_normalizer`]). The trainer samples on
/// it and the evaluation router acts greedily on it, so the two cannot
/// build different features.
pub(crate) fn load_features(
    base: &[f32],
    norm: &LoadNormalizer,
    ctx: &RouteCtx<'_>,
    out: &mut Vec<f32>,
) {
    out.clear();
    out.extend_from_slice(base);
    norm.append_features(ctx.queue_depth, ctx.link_inflight, out);
}

/// One side of the transaction each: `route` picks a scheme-routed
/// window's layer, `hear` receives every outcome of the run. One object
/// holds both because what is heard may change the next routing (a
/// trainer's update).
pub(crate) trait ClosedLoop<'t> {
    /// The per-oracle-window action table, when routing reads nothing
    /// else — no live load, nothing `hear` changes.
    fn table(&self) -> Option<&'t [usize]> {
        None
    }

    /// The layer for oracle window `i`, emitted under `ctx`.
    fn route(&mut self, ctx: &RouteCtx<'_>, i: usize) -> usize;

    /// An outcome of the run; for a scheme-routed window, its oracle
    /// window and the reward it earned (`None`: a background window).
    fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>);
}

/// Runs `plan` to completion for one closed loop. Every window of the
/// probe cohort (`None`: of every cohort) maps to a window of `oracle` —
/// round-robin over the corpus in emission order — and is routed by `lp`;
/// the other cohorts keep their scenario routing plans and act as
/// background load, contributing queueing but no scores or updates. `lp`
/// hears every outcome in the merged `(time, shard-id)` order, the
/// scheme-routed ones with what they earn under `reward`:
/// `accuracy − cost` at the *observed* load-dependent delay, or the
/// explicit drop penalty when admission control shed the window. See the
/// module docs for which driver runs.
///
/// Returns the fleet report, rendered on call: rendering also sets the
/// `fleet.*` registry totals, which a training epoch never did.
///
/// # Panics
///
/// Panics if the probe cohort is out of range, if a stateful router or a
/// probe cohort gets a plan of more than one shard, or if the fleet lost a
/// scheme-routed window (not every one of them was heard).
pub(crate) fn run_closed_loop<'p, 't>(
    plan: &'p ShardPlan,
    probe: Option<u32>,
    oracle: &Oracle,
    reward: &RewardModel,
    lp: &mut impl ClosedLoop<'t>,
) -> Box<dyn FnOnce() -> FleetReport + 'p> {
    let scenario = plan.scenario();
    let expected = routed_windows(scenario, probe);
    let n = oracle.len() as u64;
    let mut heard = 0u64;
    let score = |ev: &JobEvent, i: usize| match *ev {
        JobEvent::Served { layer, latency_ms, .. } => {
            (i, reward.reward(oracle.correct(i, layer), latency_ms))
        }
        JobEvent::Dropped { .. } => (i, reward.reward_dropped()),
    };
    let report: Box<dyn FnOnce() -> FleetReport> = if let (Some(table), None) = (lp.table(), probe)
    {
        // Without background windows emission order is sequence order.
        let mut hear = |ev: &JobEvent| {
            let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
            lp.hear(ev, Some(score(ev, (seq % n) as usize)));
            heard += 1;
        };
        let run = run_plan(plan, &|ctx: &RouteCtx| table[(ctx.seq % n) as usize], Some(&mut hear));
        Box::new(move || run.report)
    } else {
        let mut engine = ShardedFleetEngine::new(plan);
        let [shard] = engine.shards_mut() else {
            panic!("a stateful router needs a one-shard plan, got {} shards", plan.num_shards())
        };
        // The oracle window of each scheme-routed window, noted at its
        // emission by sequence number (`u32::MAX`: a background window).
        let mut oracle_of = vec![u32::MAX; scenario.total_windows() as usize];
        let mut emitted = 0u64;
        while let Some(ev) = shard.step(&mut |ctx| {
            if probe.is_some_and(|pc| pc != ctx.cohort) {
                return scenario.planned_layer(ctx.cohort, ctx.seq);
            }
            let i = (if probe.is_some() { emitted } else { ctx.seq } % n) as usize;
            emitted += 1;
            oracle_of[ctx.seq as usize] = i as u32;
            lp.route(ctx, i)
        }) {
            let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = ev;
            let i = oracle_of[seq as usize];
            lp.hear(&ev, (i != u32::MAX).then(|| score(&ev, i as usize)));
            heard += u64::from(i != u32::MAX);
        }
        Box::new(move || engine.report())
    };
    assert_eq!(heard, expected, "fleet leaked scheme-routed windows");
    report
}

/// How a scheme picks each emitted window's layer.
pub(crate) enum SchemeRouter<'a> {
    /// Per-oracle-window precomputed actions
    /// ([`crate::stream::scheme_action_table`]): a table lookup on the hot
    /// path (fixed schemes, Successive, and the static Adaptive policy).
    Table(&'a [usize]),
    /// A load-aware policy runs greedily per window on [`load_features`] —
    /// the action genuinely depends on the queues the earlier actions
    /// built up.
    LoadAware {
        policy: &'a mut PolicyNetwork,
        base: Vec<Vec<f32>>,
        norm: LoadNormalizer,
        scratch: Vec<f32>,
    },
}

/// An evaluation run as a closed loop: a scheme routes, and what comes
/// back is scored into a [`FleetStreamResult`].
pub(crate) struct Evaluation<'a> {
    router: SchemeRouter<'a>,
    oracle: &'a Oracle,
    confusion: BinaryConfusion,
    missed: u64,
    reward_sum: f64,
    routed_latency: GeomHist,
    /// Every drop of the run by layer and cause — background cohorts
    /// included, so the totals reconcile against the fleet report.
    drops: Vec<DropBreakdown>,
}

impl Evaluation<'_> {
    /// Closes the run against the fleet's own report — the only place a
    /// [`FleetStreamResult`] is assembled.
    ///
    /// # Panics
    ///
    /// Panics if windows were lost: the tallied drops disagree with the
    /// report, or `emitted != served + dropped`.
    pub(crate) fn finish(self, scheme: SchemeKind, fleet: FleetReport) -> FleetStreamResult {
        let total_drops: u64 = self.drops.iter().map(|d| d.queue + d.link).sum();
        assert_eq!(total_drops, fleet.dropped, "drop breakdown diverged from the fleet report");
        assert_eq!(fleet.served + fleet.dropped, fleet.emitted, "window conservation violated");
        let routed = self.confusion.total() as u64 + self.missed;
        FleetStreamResult {
            scheme,
            fleet,
            confusion: self.confusion,
            missed: self.missed,
            drops: self.drops,
            mean_reward_x100: 100.0 * self.reward_sum / routed.max(1) as f64,
            routed_mean_ms: self.routed_latency.mean(),
            routed_p99_ms: self.routed_latency.quantile(0.99),
        }
    }
}

impl<'a> ClosedLoop<'a> for Evaluation<'a> {
    fn table(&self) -> Option<&'a [usize]> {
        match self.router {
            SchemeRouter::Table(actions) => Some(actions),
            SchemeRouter::LoadAware { .. } => None,
        }
    }

    fn route(&mut self, ctx: &RouteCtx<'_>, i: usize) -> usize {
        match &mut self.router {
            SchemeRouter::Table(actions) => actions[i],
            SchemeRouter::LoadAware { policy, base, norm, scratch } => {
                load_features(&base[i], norm, ctx, scratch);
                policy.greedy(scratch)
            }
        }
    }

    fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>) {
        if let JobEvent::Dropped { layer, reason, .. } = *ev {
            match reason {
                DropReason::QueueFull => self.drops[layer].queue += 1,
                DropReason::LinkSaturated => self.drops[layer].link += 1,
            }
        }
        // Background windows under a probe cohort only contribute load.
        let Some((i, r)) = scored else { return };
        self.reward_sum += r;
        match *ev {
            JobEvent::Served { layer, latency_ms, .. } => {
                self.confusion.record(self.oracle.verdict(i, layer), self.oracle.outcomes[i].truth);
                self.routed_latency.record(latency_ms);
            }
            JobEvent::Dropped { .. } => self.missed += 1,
        }
    }
}

/// Streams the corpus through `plan` under `router` and scores it: the
/// body [`crate::stream::stream_through_fleet`] and
/// [`crate::replay::replay_trace_sharded`] share.
pub(crate) fn evaluate_in_fleet(
    plan: &ShardPlan,
    oracle: &Oracle,
    kind: SchemeKind,
    router: SchemeRouter<'_>,
    reward: &RewardModel,
    probe_cohort: Option<u32>,
) -> FleetStreamResult {
    let mut lp = Evaluation {
        router,
        oracle,
        confusion: BinaryConfusion::new(),
        missed: 0,
        reward_sum: 0.0,
        routed_latency: GeomHist::new(),
        drops: (0..plan.num_layers())
            .map(|layer| DropBreakdown { layer, queue: 0, link: 0 })
            .collect(),
    };
    let fleet = run_closed_loop(plan, probe_cohort, oracle, reward, &mut lp)();
    lp.finish(kind, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use crate::sharded::run_scenario_sharded;
    use hec_anomaly::ConfidenceRule;
    use hec_sim::fleet::FleetScale;

    /// Closes an evaluation that heard nothing against `light_load`'s own
    /// report after `tamper` had a go at it.
    fn finish_against(tamper: impl FnOnce(&mut FleetReport)) -> FleetStreamResult {
        let oracle = Oracle {
            outcomes: vec![],
            thresholds: [0.0; 3],
            confidence: ConfidenceRule::default(),
        };
        let mut fleet =
            run_scenario_sharded(&FleetScenario::light_load(FleetScale::Quick), 1).report;
        assert_eq!((fleet.dropped, fleet.served), (0, fleet.emitted), "light_load sheds nothing");
        tamper(&mut fleet);
        let evaluation = Evaluation {
            router: SchemeRouter::Table(&[]),
            oracle: &oracle,
            confusion: BinaryConfusion::new(),
            missed: 0,
            reward_sum: 0.0,
            routed_latency: GeomHist::new(),
            drops: vec![DropBreakdown { layer: 0, queue: 0, link: 0 }],
        };
        evaluation.finish(SchemeKind::IoTDevice, fleet)
    }

    #[test]
    fn finish_accepts_a_report_that_conserves_windows() {
        let result = finish_against(|_| {});
        assert_eq!(result.missed, 0);
        assert_eq!(result.mean_reward_x100, 0.0);
    }

    /// The conservation checks are `assert!`s, not `debug_assert!`s: they
    /// run in the release profile the repro bins and the benchmark ship
    /// in (CI runs this crate's tests under `--release` too).
    #[test]
    #[should_panic(expected = "drop breakdown diverged from the fleet report")]
    fn finish_rejects_a_report_whose_drops_were_never_heard() {
        finish_against(|fleet| fleet.dropped += 1);
    }

    #[test]
    #[should_panic(expected = "window conservation violated")]
    fn finish_rejects_a_report_that_lost_a_window() {
        finish_against(|fleet| fleet.emitted += 1);
    }

    /// A load-aware policy reads the live queues as each window is
    /// emitted, so it cannot ride the window loop: on a plan of two shards
    /// the loop refuses it rather than pick a driver that would route it
    /// differently.
    #[test]
    #[should_panic(expected = "needs a one-shard plan, got 2 shards")]
    fn a_load_aware_router_needs_a_one_shard_plan() {
        let oracle = Oracle {
            outcomes: vec![WindowOutcome {
                truth: false,
                min_log_pd: [-1.0; 3],
                anomalous_fraction: [0.0; 3],
                context: vec![0.0],
            }],
            thresholds: [-10.0; 3],
            confidence: ConfidenceRule::default(),
        };
        let sc = FleetScenario::light_load(FleetScale::Quick);
        let norm = crate::stream::scenario_load_normalizer(&sc);
        let mut policy = PolicyNetwork::new(1 + norm.dims(), 4, 3, 0);
        let router = SchemeRouter::LoadAware {
            policy: &mut policy,
            base: vec![vec![0.0]],
            norm,
            scratch: Vec::new(),
        };
        let plan = ShardPlan::new(&sc, 2);
        let reward = RewardModel::new(0.0005);
        evaluate_in_fleet(&plan, &oracle, SchemeKind::Adaptive, router, &reward, None);
    }
}
