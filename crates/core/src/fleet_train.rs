//! Fleet-in-the-loop bandit training.
//!
//! The paper trains its policy against the *static* per-action delay
//! table, so the learned trade-off is blind to load: offloading into a
//! saturated edge looks exactly as cheap as offloading into an idle one.
//! This module closes the loop instead: the policy trains **inside** the
//! discrete-event fleet simulator. An epoch is one run of the crate's
//! closed loop (`closed_loop.rs`; README, "The closed loop") with the
//! trainer on both sides of it:
//!
//! 1. *route* — sample an action from the policy on the window's scaled
//!    base context **plus the live normalised load gauges** (queue depths
//!    and link occupancy at the emitting moment);
//! 2. *hear* — when the window's simulated completion (or drop) arrives,
//!    the loop has priced it with the [`RewardModel`] at the **observed
//!    load-dependent delay** (drops pay the explicit drop penalty), the
//!    same pricing the evaluation drivers score with;
//! 3. *update* — apply the deferred REINFORCE update
//!    ([`PolicyTrainer::observe`]) with the reinforcement-comparison
//!    baseline.
//!
//! A trainer mid-update is stateful, so it goes through the closed loop:
//! the scenario's one-shard plan runs to completion, and the updates for
//! the outcomes of each handled event land before the next event (an
//! emission bucket's windows are all sampled before any is heard) — the
//! sample → observe → update interleaving the byte-identical weights
//! depend on. The epoch leaves the fleet report unrendered.
//!
//! Because actions shape queueing, the policy's own exploration changes
//! the delays it learns from — exactly the closed loop a deployed
//! adaptive scheme lives in. One epoch = one full scenario replay; the
//! corpus maps onto emitted windows as `seq mod corpus`, so every oracle
//! window is visited under many load states.
//!
//! Everything is single-threaded and seeded: same scenario + oracle +
//! config ⇒ byte-identical trained weights, curve and drop counts on any
//! host and under any `HEC_THREADS` setting.

use std::fmt;

use hec_bandit::{
    ContextScaler, LoadNormalizer, PolicyNetwork, PolicyTrainer, RewardModel, TrainConfig,
    TrainingCurve,
};
use hec_sim::fleet::{FleetScenario, JobEvent, RouteCtx};
use hec_tensor::Matrix;

use crate::closed_loop::{load_features, routed_windows, run_closed_loop, ClosedLoop};
use crate::oracle::Oracle;
use crate::stream::scenario_load_normalizer;

/// Result of training a policy inside the fleet.
#[derive(Debug)]
pub struct FleetTrainOutcome {
    /// The trained load-aware policy
    /// (`input_dim = scaler.dim() + load dims`).
    pub policy: PolicyNetwork,
    /// Mean observed reward per epoch (drops included at the penalty).
    pub curve: TrainingCurve,
    /// Windows shed by admission control in each epoch — falling drop
    /// counts are the visible sign the policy is learning to route
    /// around saturation.
    pub drops_per_epoch: Vec<u64>,
}

/// Why [`try_train_policy_in_fleet`] could not start: each is a mismatch
/// between its arguments, found before anything is trained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetTrainError {
    /// The oracle holds no windows.
    EmptyOracle,
    /// The scenario — or its probe cohort — emits no windows.
    NothingToTrain,
    /// The probe cohort is not one of the scenario's.
    ProbeOutOfRange {
        /// The probe cohort asked for.
        probe: u32,
        /// How many cohorts the scenario has.
        cohorts: usize,
    },
    /// The oracle's contexts are not as wide as the scaler was fitted for.
    ContextDimMismatch {
        /// The scaler's dimensionality.
        scaler: usize,
        /// The oracle's context width.
        context: usize,
    },
}

impl fmt::Display for FleetTrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::EmptyOracle => write!(f, "cannot train on an empty oracle corpus"),
            Self::NothingToTrain => {
                write!(f, "nothing to train on: the scenario or its probe cohort emits no windows")
            }
            Self::ProbeOutOfRange { probe, cohorts } => {
                write!(f, "probe cohort {probe} out of range (the scenario has {cohorts})")
            }
            Self::ContextDimMismatch { scaler, context } => write!(
                f,
                "context dimension mismatch: the scaler takes {scaler} features, \
                 the oracle's contexts have {context}"
            ),
        }
    }
}

impl std::error::Error for FleetTrainError {}

/// Trains a load-aware policy inside `scenario`'s fleet —
/// [`try_train_policy_in_fleet`] for callers whose arguments come from one
/// pipeline and cannot disagree.
///
/// # Panics
///
/// Panics with the [`FleetTrainError`] if the oracle is empty, the scaler's
/// dimensionality does not match the oracle contexts, the probe cohort is
/// out of range or emits nothing, or the scenario emits no windows.
pub fn train_policy_in_fleet(
    scenario: &FleetScenario,
    oracle: &Oracle,
    scaler: &ContextScaler,
    reward: &RewardModel,
    hidden: usize,
    config: TrainConfig,
    probe_cohort: Option<u32>,
) -> FleetTrainOutcome {
    try_train_policy_in_fleet(scenario, oracle, scaler, reward, hidden, config, probe_cohort)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Trains a load-aware policy inside `scenario`'s fleet.
///
/// The policy's context is the scaled oracle context concatenated with
/// the scenario's normalised load features ([`scenario_load_normalizer`];
/// evaluation must use the same normaliser, which
/// [`crate::stream::stream_through_fleet`] does automatically for
/// policies of this dimensionality). `config.epochs` full scenario
/// replays are performed; `config.seed` seeds both the weight
/// initialisation and the exploration sampling.
///
/// `probe_cohort` mirrors the evaluation driver: `None` trains on every
/// emitted window (the policy's own exploration is the only load);
/// `Some(c)` trains only on cohort `c`'s windows while the remaining
/// cohorts replay their scenario routing plans as background load — the
/// congestion regime the policy must learn to route around.
///
/// # Errors
///
/// A [`FleetTrainError`] when the arguments do not fit each other; nothing
/// has been trained then.
///
/// # Panics
///
/// Panics if `hidden` is zero, or if the fleet loses a window (a bug in
/// the engine, not in the arguments).
pub fn try_train_policy_in_fleet(
    scenario: &FleetScenario,
    oracle: &Oracle,
    scaler: &ContextScaler,
    reward: &RewardModel,
    hidden: usize,
    config: TrainConfig,
    probe_cohort: Option<u32>,
) -> Result<FleetTrainOutcome, FleetTrainError> {
    if oracle.is_empty() {
        return Err(FleetTrainError::EmptyOracle);
    }
    let cohorts = scenario.cohorts.len();
    if let Some(probe) = probe_cohort.filter(|&pc| pc as usize >= cohorts) {
        return Err(FleetTrainError::ProbeOutOfRange { probe, cohorts });
    }
    if routed_windows(scenario, probe_cohort) == 0 {
        return Err(FleetTrainError::NothingToTrain);
    }
    let dim = scaler.dim();
    // An oracle never scored at layer 0 has contexts of width 0.
    let context = oracle.contexts.as_ref().map_or(0, Matrix::cols);
    if context != dim {
        return Err(FleetTrainError::ContextDimMismatch { scaler: dim, context });
    }

    let norm = scenario_load_normalizer(scenario);
    let input_dim = dim + norm.dims();
    let policy =
        PolicyNetwork::new(input_dim, hidden, scenario.topology().num_layers(), config.seed);
    let windows = scenario.total_windows() as usize;
    let mut lp = Training {
        trainer: PolicyTrainer::new(policy, config),
        base: scaler.transform(oracle.contexts()),
        norm,
        contexts: vec![0.0; windows * input_dim],
        actions: vec![UNROUTED; windows],
        scratch: Vec::with_capacity(input_dim),
        total: 0.0,
        outcomes: 0,
        drops: 0,
    };

    let (curve, drops_per_epoch) = (0..config.epochs)
        .map(|_epoch| {
            let _span = hec_telemetry::WallSpan::new("core.train_epoch");
            (lp.total, lp.outcomes, lp.drops) = (0.0, 0, 0);
            run_closed_loop(scenario, probe_cohort, oracle, reward, &mut lp, |_| ());
            // Deterministic training-progress counts (per-epoch updates
            // and drops are seed-fixed, so these belong in the registry).
            if hec_telemetry::ENABLED {
                let labels = [("scenario", scenario.name.as_str())];
                hec_telemetry::counter_add("train.updates", &labels, lp.outcomes);
                hec_telemetry::counter_add("train.drops", &labels, lp.drops);
            }
            (lp.total / lp.outcomes.max(1) as f32, lp.drops)
        })
        .unzip();

    Ok(FleetTrainOutcome {
        policy: lp.trainer.into_policy(),
        curve: TrainingCurve { mean_reward_per_epoch: curve },
        drops_per_epoch,
    })
}

/// `Training::actions` of a window not routed, or already heard.
const UNROUTED: usize = usize::MAX;

/// Training as a closed loop: route = sample an action on the window's
/// load features, hear = score the outcome and apply the deferred
/// REINFORCE update.
struct Training {
    trainer: PolicyTrainer,
    /// The scaled oracle contexts, row `i` window `i`'s.
    base: Matrix,
    norm: LoadNormalizer,
    /// Routed-but-unresolved trained windows by global sequence number:
    /// row `seq` (the policy's `input_dim` wide) is the augmented context the action in
    /// `actions[seq]` was sampled on. Sized once, so neither `route` nor
    /// `hear` allocates.
    contexts: Vec<f32>,
    actions: Vec<usize>,
    /// `route`'s feature row while it is being built.
    scratch: Vec<f32>,
    /// This epoch's reward sum over the trained windows, an `f32`
    /// accumulation in event order (the curve is byte-compared).
    total: f32,
    outcomes: u64,
    drops: u64,
}

impl Training {
    /// Where window `seq`'s row sits in `contexts`.
    fn row(&self, seq: u64) -> std::ops::Range<usize> {
        let dim = self.trainer.policy().input_dim();
        seq as usize * dim..(seq as usize + 1) * dim
    }
}

impl ClosedLoop for Training {
    fn route(&mut self, ctx: &RouteCtx<'_>, i: usize) -> usize {
        load_features(self.base.row(i), &self.norm, ctx, &mut self.scratch);
        let action = self.trainer.sample_action(&self.scratch);
        let row = self.row(ctx.seq);
        self.contexts[row].copy_from_slice(&self.scratch);
        self.actions[ctx.seq as usize] = action;
        action
    }

    fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>) {
        let Some((_, r)) = scored else { return }; // background window: load only, no update
        let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
        // The loop scores only what it routed through `route`, once each
        // (a release build that breaks this fails `observe`'s action check).
        let action = std::mem::replace(&mut self.actions[seq as usize], UNROUTED);
        debug_assert_ne!(action, UNROUTED, "heard a window never routed");
        let row = self.row(seq);
        self.trainer.observe(&self.contexts[row], action, r as f32);
        self.total += r as f32;
        self.outcomes += 1;
        self.drops += u64::from(matches!(ev, JobEvent::Dropped { .. }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use crate::scheme::SchemeKind;
    use crate::stream::stream_through_fleet;
    use hec_anomaly::ConfidenceRule;
    use hec_sim::fleet::{CohortSpec, FleetScale, RoutePlan};

    /// Synthetic oracle: layer 0 is right only on easy (even) windows,
    /// layers 1 and 2 are always right — so offloading pays in accuracy.
    fn oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| {
                let truth = i % 3 == 0;
                let easy = i % 2 == 0;
                let verdict0 = if easy { truth } else { !truth };
                let frac = |v: bool| if v { 0.4f32 } else { 0.0 };
                WindowOutcome {
                    truth,
                    min_log_pd: [
                        -5.0,
                        if truth { -60.0 } else { -1.0 },
                        if truth { -60.0 } else { -1.0 },
                    ],
                    anomalous_fraction: [frac(verdict0), frac(truth), frac(truth)],
                }
            })
            .collect();
        let contexts = (0..n).flat_map(|i| [(i % 2 == 0) as u8 as f32, (i % 3) as f32 / 2.0]);
        let contexts = (n > 0).then(|| Matrix::from_vec(n, 2, contexts.collect()));
        Oracle { outcomes, contexts, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
    }

    /// A small fleet whose edge saturates if everything offloads there:
    /// 60 devices × 1 window / 25 ms ≈ 2.4k/s offered against ~540/s.
    fn hot_scenario() -> FleetScenario {
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.name = "train_test".into();
        sc.batch_max = 1;
        sc.queue_capacity = 40;
        sc.trace_interval_ms = 25.0;
        sc.cohorts = vec![CohortSpec::uniform(60, 8, 25.0, 0.0, RoutePlan::Fixed(0))];
        sc
    }

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig { epochs, learning_rate: 5e-3, ..Default::default() }
    }

    #[test]
    fn training_produces_a_load_aware_policy_and_full_curve() {
        let o = oracle(48);
        let scaler = ContextScaler::fit(o.contexts());
        let sc = hot_scenario();
        let reward = RewardModel::new(0.0005);
        let out = train_policy_in_fleet(&sc, &o, &scaler, &reward, 16, quick_config(4), None);
        assert_eq!(out.curve.mean_reward_per_epoch.len(), 4);
        assert_eq!(out.drops_per_epoch.len(), 4);
        let norm = scenario_load_normalizer(&sc);
        let mut policy = out.policy;
        assert_eq!(policy.input_dim(), scaler.dim() + norm.dims());
        // The trained policy slots straight into the closed-loop driver.
        let r = stream_through_fleet(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &reward,
            None,
        );
        assert_eq!(r.fleet.served + r.missed, r.fleet.emitted);
    }

    #[test]
    fn training_improves_observed_reward() {
        let o = oracle(48);
        let scaler = ContextScaler::fit(o.contexts());
        let sc = hot_scenario();
        let reward = RewardModel::new(0.0005);
        let out = train_policy_in_fleet(&sc, &o, &scaler, &reward, 16, quick_config(12), None);
        let c = &out.curve.mean_reward_per_epoch;
        let early: f32 = c[..3].iter().sum::<f32>() / 3.0;
        let late: f32 = c[c.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(late > early, "no improvement: early {early}, late {late}");
    }

    /// Same seed + scenario ⇒ byte-identical trained weights, curve and
    /// drop counts, whatever `HEC_THREADS` says — and the closed-loop
    /// evaluation of the result is identical too.
    #[test]
    fn fleet_training_is_thread_count_invariant() {
        let o = oracle(36);
        let scaler = ContextScaler::fit(o.contexts());
        let sc = hot_scenario();
        let reward = RewardModel::new(0.0005);
        let run = |threads: usize| {
            crate::parallel::with_thread_count(threads, || {
                let mut out =
                    train_policy_in_fleet(&sc, &o, &scaler, &reward, 16, quick_config(3), None);
                let weights = out.policy.weights_le_bytes();
                let report = stream_through_fleet(
                    &sc,
                    &o,
                    SchemeKind::Adaptive,
                    Some(&mut out.policy),
                    Some(&scaler),
                    &reward,
                    None,
                );
                (weights, out.curve, out.drops_per_epoch, report)
            })
        };
        let serial = run(1);
        let threaded = run(2);
        assert_eq!(serial.0, threaded.0, "trained weights diverged across HEC_THREADS");
        assert_eq!(serial.1, threaded.1, "training curve diverged");
        assert_eq!(serial.2, threaded.2, "drop accounting diverged");
        assert_eq!(serial.3, threaded.3, "closed-loop report diverged");
    }

    /// The shared-fleet setting end to end: a background cohort pegs the
    /// edge queue, a probe cohort is scheme-routed. A policy trained
    /// against the *static* delay table keeps sending hard windows into
    /// the saturated edge; the policy trained inside the loaded fleet
    /// learns to route around it and earns strictly more observed reward.
    #[test]
    fn fleet_trained_beats_static_under_background_saturation() {
        use hec_bandit::{PolicyNetwork, PolicyTrainer};

        let o = oracle(48);
        let scaler = ContextScaler::fit(o.contexts());
        let scaled = scaler.transform(o.contexts());
        let reward = RewardModel::new(0.0005);

        // Background: 2.5k win/s at 90% edge (capacity ~540/s) — pegged.
        // Probe: 30 devices × 8 windows through the same fleet.
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.name = "probe_test".into();
        sc.batch_max = 1;
        sc.cohorts = vec![
            CohortSpec::uniform(250, 10, 100.0, 0.0, RoutePlan::Mixture([0.05, 0.90, 0.05])),
            CohortSpec::uniform(30, 8, 100.0, 0.0, RoutePlan::Fixed(0)),
        ];
        let probe = Some(1u32);

        // The paper's regime: REINFORCE against the static table.
        let delays = crate::experiment::static_delay_table(&sc.topology(), sc.payload_bytes);
        let mut static_trainer =
            PolicyTrainer::new(PolicyNetwork::new(scaler.dim(), 16, 3, 0), quick_config(40));
        static_trainer.train_with_delays(&scaled, &mut |i, a| o.correct(i, a), &delays, &reward);
        let mut static_policy = static_trainer.into_policy();

        // Ours: trained inside the loaded fleet.
        let out = train_policy_in_fleet(&sc, &o, &scaler, &reward, 16, quick_config(12), probe);
        let mut fleet_policy = out.policy;

        let eval = |policy: &mut PolicyNetwork| {
            stream_through_fleet(
                &sc,
                &o,
                SchemeKind::Adaptive,
                Some(policy),
                Some(&scaler),
                &reward,
                probe,
            )
        };
        let r_static = eval(&mut static_policy);
        let r_fleet = eval(&mut fleet_policy);
        assert!(
            r_fleet.mean_reward_x100 > r_static.mean_reward_x100,
            "fleet-trained {:.2} must beat static {:.2} under background saturation",
            r_fleet.mean_reward_x100,
            r_static.mean_reward_x100
        );
    }

    /// Each way the arguments can disagree comes back as its own error,
    /// before anything is trained.
    #[test]
    fn mismatched_arguments_are_typed_errors() {
        let o = oracle(12);
        let scaler = ContextScaler::fit(o.contexts());
        let reward = RewardModel::new(0.0005);
        let try_with = |sc: &FleetScenario, o: &Oracle, scaler: &ContextScaler, probe| {
            try_train_policy_in_fleet(sc, o, scaler, &reward, 8, quick_config(1), probe).map(|_| ())
        };
        let sc = hot_scenario();
        assert_eq!(try_with(&sc, &o, &scaler, None), Ok(()));
        assert_eq!(try_with(&sc, &oracle(0), &scaler, None), Err(FleetTrainError::EmptyOracle));
        assert_eq!(
            try_with(&sc, &o, &scaler, Some(1)),
            Err(FleetTrainError::ProbeOutOfRange { probe: 1, cohorts: 1 })
        );
        let mut silent = hot_scenario();
        silent.cohorts.push(CohortSpec::uniform(0, 8, 25.0, 0.0, RoutePlan::Fixed(0)));
        assert_eq!(try_with(&silent, &o, &scaler, Some(1)), Err(FleetTrainError::NothingToTrain));
        let narrow = ContextScaler::fit(&Matrix::zeros(1, 1));
        let err = try_with(&sc, &o, &narrow, None).unwrap_err();
        assert_eq!(err, FleetTrainError::ContextDimMismatch { scaler: 1, context: 2 });
        assert!(err.to_string().starts_with("context dimension mismatch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "empty oracle")]
    fn empty_oracle_rejected() {
        let o = Oracle {
            outcomes: vec![],
            contexts: None,
            thresholds: [0.0; 3],
            confidence: ConfidenceRule::default(),
        };
        let scaler = ContextScaler::fit(&Matrix::zeros(1, 1));
        let _ = train_policy_in_fleet(
            &hot_scenario(),
            &o,
            &scaler,
            &RewardModel::new(0.0005),
            8,
            quick_config(1),
            None,
        );
    }
}
