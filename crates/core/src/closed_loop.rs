//! The closed loop, written once.
//!
//! The paper's method is one transaction — context → action (a layer) →
//! reward = accuracy − cost(observed delay) — and every fleet driver of
//! this crate is that transaction repeated over a fleet. Three decisions
//! make it up, and each has one home:
//!
//! 1. **what a scheme does with a window** lives with the schemes:
//!    [`crate::scheme`]'s action table is the only place a
//!    [`SchemeKind`] picks a layer;
//! 2. **what a routed window scores** — [`price`] is the reward of a
//!    scheme-routed outcome at its *observed* delay (or the drop penalty),
//!    a [`Tally`] sums scored windows' confusion and reward, and a
//!    [`Scorecard`] a run's tally, routed latency and per-layer ×
//!    per-cause drops; [`Scorecard::finish`] is
//!    the only place a [`FleetStreamResult`] is assembled and the only
//!    copy of the window-conservation checks, which hold in release
//!    builds too;
//! 3. **how the engine is driven** — one event loop, two jobs. A
//!    stateless `Fn + Sync` router goes to [`crate::sharded::run_plan`]'s
//!    window loop at any shard count. [`run_closed_loop`] runs a
//!    scenario's one-shard plan to completion for a [`ClosedLoop`] (a
//!    router and the hearer of its outcomes), each handled event's
//!    outcomes heard before the next event — what a load-aware policy, a
//!    probe cohort or a trainer mid-update needs.
//!
//! The compositions: [`crate::stream::stream_through_fleet`] (one shard,
//! any router, optional probe cohort) runs a scheme's router and a
//! [`Scorecard`] through [`run_closed_loop`];
//! [`crate::replay::replay_trace_sharded`] (any shard count, a table)
//! hands its table to `run_plan` and scores with a [`Scorecard`] and
//! [`price`], as [`crate::adapt`] replays a pass, with a [`Tally`] per
//! chunk; [`crate::fleet_train::train_policy_in_fleet`] runs a
//! sampling trainer through [`run_closed_loop`], once per epoch.

use hec_bandit::{LoadNormalizer, RewardModel};
use hec_data::BinaryConfusion;
use hec_sim::fleet::{
    DropReason, FeedbackRouter, FleetReport, FleetScenario, JobEvent, RouteCtx, ShardPlan,
    ShardedFleetEngine,
};
use hec_telemetry::GeomHist;

use crate::oracle::Oracle;
use crate::scheme::SchemeKind;
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

/// What a scheme-routed outcome for oracle window `i` earns under
/// `reward`: `accuracy − cost` at the *observed* load-dependent delay, or
/// the explicit drop penalty when admission control shed the window.
pub(crate) fn price(reward: &RewardModel, oracle: &Oracle, ev: &JobEvent, i: usize) -> f64 {
    match *ev {
        JobEvent::Served { layer, latency_ms, .. } => {
            reward.reward(oracle.correct(i, layer), latency_ms)
        }
        JobEvent::Dropped { .. } => reward.reward_dropped(),
    }
}

/// One side of the transaction each: `route` picks a scheme-routed
/// window's layer, `hear` receives every outcome of the run. One object
/// holds both because what is heard may change the next routing (a
/// trainer's update).
pub(crate) trait ClosedLoop {
    /// The layer for oracle window `i`, emitted under `ctx`.
    fn route(&mut self, ctx: &RouteCtx<'_>, i: usize) -> usize;

    /// An outcome of the run; for a scheme-routed window, its oracle
    /// window and the reward it earned (`None`: a background window).
    fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>);
}

/// Runs `scenario`'s one-shard plan to completion for one closed loop,
/// each handled event's outcomes heard before the next event (an emission
/// bucket's windows are all routed before any of theirs is heard). Every
/// window of the probe cohort (`None`: of every cohort) maps to a window
/// of `oracle` — round-robin over the corpus in emission order, which
/// without a probe cohort is `seq % corpus len` — and is routed by `lp`;
/// the other cohorts keep their scenario routing plans and act as
/// background load, contributing queueing but no scores or updates. The
/// scheme-routed outcomes come with what they earn ([`price`]).
///
/// Returns what `render` makes of the drained engine: the fleet report
/// (`ShardedFleetEngine::report`, which also sets the `fleet.*` registry
/// totals), or nothing for a training epoch.
///
/// # Panics
///
/// Panics if the probe cohort is out of range, or if the fleet lost a
/// scheme-routed window (not every one of them was heard).
pub(crate) fn run_closed_loop<R>(
    scenario: &FleetScenario,
    probe: Option<u32>,
    oracle: &Oracle,
    reward: &RewardModel,
    lp: &mut impl ClosedLoop,
    render: impl FnOnce(&ShardedFleetEngine<'_>) -> R,
) -> R {
    let expected = routed_windows(scenario, probe);
    let plan = ShardPlan::new(scenario, 1);
    let mut engine = ShardedFleetEngine::new(&plan);
    let oracle_of = vec![u32::MAX; scenario.total_windows() as usize];
    let planned = scenario.planned_router();
    let mut run =
        Transactions { lp, probe, planned, oracle, reward, oracle_of, emitted: 0, heard: 0 };
    engine.shards_mut()[0].run_closed(&mut run);
    assert_eq!(run.heard, expected, "fleet leaked scheme-routed windows");
    // Freed before the report is built, which it would otherwise add to
    // the run's peak memory.
    drop(run);
    render(&engine)
}

/// One closed loop's run as the engine's [`FeedbackRouter`]: the windows
/// it routes (the rest by the scenario's `planned` router), the oracle
/// window of each — noted at its emission by sequence number, `u32::MAX`
/// for a background window — and what each outcome earned.
struct Transactions<'r, L, P> {
    lp: &'r mut L,
    probe: Option<u32>,
    planned: P,
    oracle: &'r Oracle,
    reward: &'r RewardModel,
    oracle_of: Vec<u32>,
    emitted: u64,
    heard: u64,
}

impl<L: ClosedLoop, P: Fn(&RouteCtx) -> usize> FeedbackRouter for Transactions<'_, L, P> {
    fn route(&mut self, ctx: &RouteCtx) -> usize {
        if self.probe.is_some_and(|pc| pc != ctx.cohort) {
            return (self.planned)(ctx);
        }
        let i = (self.emitted % self.oracle.len() as u64) as usize;
        self.emitted += 1;
        self.oracle_of[ctx.seq as usize] = i as u32;
        self.lp.route(ctx, i)
    }

    fn heard(&mut self, outcomes: &[JobEvent]) {
        for ev in outcomes {
            let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
            let i = self.oracle_of[seq as usize];
            let scored = (i != u32::MAX)
                .then(|| (i as usize, price(self.reward, self.oracle, ev, i as usize)));
            self.lp.hear(ev, scored);
            self.heard += u64::from(i != u32::MAX);
        }
    }
}

/// What a set of scheme-routed windows scored: confusion over the served
/// ones, the shed count and the summed reward.
#[derive(Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) confusion: BinaryConfusion,
    pub(crate) missed: u64,
    reward_sum: f64,
}

impl Tally {
    /// Scores outcome `ev` of oracle window `i`, which earned `reward`
    /// ([`price`]).
    pub(crate) fn record(&mut self, oracle: &Oracle, ev: &JobEvent, i: usize, reward: f64) {
        self.reward_sum += reward;
        match *ev {
            JobEvent::Served { layer, .. } => {
                self.confusion.record(oracle.verdict(i, layer), oracle.outcomes[i].truth)
            }
            JobEvent::Dropped { .. } => self.missed += 1,
        }
    }

    /// `100 × mean(reward)` over the scored windows (0 for none).
    pub(crate) fn mean_reward_x100(&self) -> f64 {
        let routed = self.confusion.total() as u64 + self.missed;
        100.0 * self.reward_sum / routed.max(1) as f64
    }
}

/// What a run's outcomes score, accumulated into a
/// [`FleetStreamResult`].
pub(crate) struct Scorecard<'a> {
    oracle: &'a Oracle,
    tally: Tally,
    routed_latency: GeomHist,
    /// Every drop of the run by layer and cause — background cohorts
    /// included, so the totals reconcile against the fleet report.
    drops: Vec<DropBreakdown>,
}

impl<'a> Scorecard<'a> {
    /// An empty scorecard over `oracle` for a fleet of `layers` layers.
    pub(crate) fn new(oracle: &'a Oracle, layers: usize) -> Self {
        Scorecard {
            oracle,
            tally: Tally::default(),
            routed_latency: GeomHist::new(),
            drops: (0..layers).map(|layer| DropBreakdown { layer, queue: 0, link: 0 }).collect(),
        }
    }

    /// Records an outcome of the run; a scheme-routed one comes with its
    /// oracle window and the reward it earned ([`price`]), a background
    /// one (`None`) only counts among the drops.
    pub(crate) fn record(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>) {
        if let JobEvent::Dropped { layer, reason, .. } = *ev {
            match reason {
                DropReason::QueueFull => self.drops[layer].queue += 1,
                DropReason::LinkSaturated => self.drops[layer].link += 1,
            }
        }
        let Some((i, r)) = scored else { return };
        self.tally.record(self.oracle, ev, i, r);
        if let JobEvent::Served { latency_ms, .. } = *ev {
            self.routed_latency.record(latency_ms);
        }
    }

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
        FleetStreamResult {
            scheme,
            fleet,
            confusion: self.tally.confusion,
            missed: self.tally.missed,
            drops: self.drops,
            mean_reward_x100: self.tally.mean_reward_x100(),
            routed_mean_ms: self.routed_latency.mean(),
            routed_p99_ms: self.routed_latency.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::run_scenario_sharded;
    use hec_anomaly::ConfidenceRule;
    use hec_sim::fleet::FleetScale;

    /// Closes a scorecard that recorded nothing against `light_load`'s own
    /// report after `tamper` had a go at it.
    fn finish_against(tamper: impl FnOnce(&mut FleetReport)) -> FleetStreamResult {
        let oracle = Oracle {
            outcomes: vec![],
            contexts: None,
            thresholds: [0.0; 3],
            confidence: ConfidenceRule::default(),
        };
        let mut fleet =
            run_scenario_sharded(&FleetScenario::light_load(FleetScale::Quick), 1).report;
        assert_eq!((fleet.dropped, fleet.served), (0, fleet.emitted), "light_load sheds nothing");
        tamper(&mut fleet);
        Scorecard::new(&oracle, 1).finish(SchemeKind::IoTDevice, fleet)
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

    /// The loop's contract within an emission bucket: two devices share
    /// one bucket and are served at layer 0, each outcome produced as its
    /// window is routed. Both windows are routed before either outcome is
    /// heard — not "outcome *n* before window *n + 1*" — and the next
    /// bucket's routes come after both hears.
    #[test]
    fn a_bucket_is_routed_whole_before_its_outcomes_are_heard() {
        use hec_sim::fleet::{CohortSpec, RoutePlan};

        #[derive(Debug, Clone, PartialEq)]
        enum Step {
            Route(u64),
            Hear(u64),
        }
        struct Log(Vec<Step>);
        impl ClosedLoop for Log {
            fn route(&mut self, ctx: &RouteCtx<'_>, _: usize) -> usize {
                self.0.push(Step::Route(ctx.seq));
                0
            }
            fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>) {
                let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
                assert!(matches!(ev, JobEvent::Served { layer: 0, .. }) && scored.is_some());
                self.0.push(Step::Hear(seq));
            }
        }

        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.emit_buckets = 1;
        sc.cohorts = vec![CohortSpec::uniform(2, 2, 100.0, 0.0, RoutePlan::Fixed(0))];
        let outcome = crate::oracle::WindowOutcome {
            truth: false,
            min_log_pd: [0.0; 3],
            anomalous_fraction: [0.0; 3],
        };
        let oracle = Oracle {
            outcomes: vec![outcome],
            contexts: None,
            thresholds: [0.0; 3],
            confidence: Default::default(),
        };
        let mut log = Log(vec![]);
        let reward = RewardModel::new(0.0005);
        run_closed_loop(&sc, None, &oracle, &reward, &mut log, |_| ());
        use Step::{Hear, Route};
        let bucket = |a, b| [Route(a), Route(b), Hear(a), Hear(b)];
        assert_eq!(log.0, [bucket(0, 1), bucket(2, 3)].concat());
    }
}
