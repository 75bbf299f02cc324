//! REINFORCE training with the reinforcement-comparison baseline.
//!
//! §II-B: *"To reduce the variance of reward value and increase the
//! convergence rate, we utilize reinforcement comparison \[11\] with a baseline
//! R(ã, z_x)"* — i.e. the advantage fed to the policy gradient is the reward
//! minus a running reference reward (Williams 1992, Sutton & Barto §2.8).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use hec_nn::Adam;

use crate::delay::StaticDelays;
use crate::policy::PolicyNetwork;
use crate::reward::RewardModel;

/// The reinforcement-comparison baseline: an exponentially-weighted running
/// mean of observed rewards, `r̄ ← r̄ + β (r − r̄)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReinforcementComparison {
    reference: f32,
    beta: f32,
    initialized: bool,
}

impl ReinforcementComparison {
    /// Creates a baseline with smoothing step `β ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < beta <= 1`.
    pub fn new(beta: f32) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Self { reference: 0.0, beta, initialized: false }
    }

    /// Current reference reward `r̄`.
    pub fn reference(&self) -> f32 {
        self.reference
    }

    /// Computes the advantage `r − r̄` and then updates `r̄`.
    pub fn advantage_and_update(&mut self, reward: f32) -> f32 {
        if !self.initialized {
            // Seed the reference with the first observation so the first
            // advantage is 0 rather than a full-magnitude spike.
            self.reference = reward;
            self.initialized = true;
            return 0.0;
        }
        let advantage = reward - self.reference;
        self.reference += self.beta * (reward - self.reference);
        advantage
    }
}

/// Training hyper-parameters for [`PolicyTrainer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the context set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Baseline smoothing β.
    pub baseline_beta: f32,
    /// Whether to use the reinforcement-comparison baseline (the paper does;
    /// `false` gives plain REINFORCE for the ablation bench).
    pub use_baseline: bool,
    /// Entropy-regularisation strength β (0 = plain REINFORCE, the
    /// paper's regime and the default). Long in-fleet runs apply one
    /// update per *emitted window* and saturate the softmax on the
    /// on-average-best action; a small β (~0.01) keeps the policy
    /// exploratory there — see
    /// [`PolicyNetwork::reinforce_update_with_entropy`].
    pub entropy_beta: f32,
    /// Sampling / shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 1e-3,
            baseline_beta: 0.05,
            use_baseline: true,
            entropy_beta: 0.0,
            seed: 0,
        }
    }
}

/// Per-epoch mean rewards — the policy's learning curve (used by the
/// convergence-ablation bench).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingCurve {
    /// Mean observed reward per epoch, in training order.
    pub mean_reward_per_epoch: Vec<f32>,
}

impl TrainingCurve {
    /// Mean reward of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    pub fn final_reward(&self) -> f32 {
        *self.mean_reward_per_epoch.last().expect("empty training curve")
    }
}

/// Trains a [`PolicyNetwork`] on a corpus of contexts against a black-box
/// reward oracle (the oracle hides the AD models, delays and labels).
pub struct PolicyTrainer {
    policy: PolicyNetwork,
    baseline: ReinforcementComparison,
    optimizer: Adam,
    rng: StdRng,
    config: TrainConfig,
    /// Deferred `(context, action, reward)` observations for continual
    /// mode: accumulated via [`PolicyTrainer::buffer`], applied FIFO by
    /// [`PolicyTrainer::refresh`].
    pending: Vec<(Vec<f32>, usize, f32)>,
}

impl PolicyTrainer {
    /// Creates a trainer that owns the policy.
    pub fn new(policy: PolicyNetwork, config: TrainConfig) -> Self {
        Self {
            baseline: ReinforcementComparison::new(config.baseline_beta),
            optimizer: Adam::new(config.learning_rate),
            rng: StdRng::seed_from_u64(config.seed),
            policy,
            config,
            pending: Vec::new(),
        }
    }

    /// Immutable access to the policy.
    pub fn policy(&self) -> &PolicyNetwork {
        &self.policy
    }

    /// Mutable access to the policy (e.g. for greedy evaluation mid-run).
    pub fn policy_mut(&mut self) -> &mut PolicyNetwork {
        &mut self.policy
    }

    /// Consumes the trainer, returning the trained policy.
    pub fn into_policy(self) -> PolicyNetwork {
        self.policy
    }

    /// One REINFORCE step on a single context: sample an action, query the
    /// reward oracle, update baseline and policy. Returns `(action, reward)`.
    ///
    /// Exactly [`PolicyTrainer::sample_action`] then
    /// [`PolicyTrainer::observe`], from one forward pass: nothing updates
    /// the weights between the two here, so the update backpropagates from
    /// the activations the sampling forward left.
    pub fn step(
        &mut self,
        context: &[f32],
        reward_of: &mut dyn FnMut(usize) -> f32,
    ) -> (usize, f32) {
        let Self { policy, baseline, optimizer, rng, config, .. } = self;
        let mut reward = 0.0;
        let action =
            policy.sample_and_update(context, rng, config.entropy_beta, optimizer, |action| {
                reward = reward_of(action);
                advantage(baseline, config, reward)
            });
        (action, reward)
    }

    /// Samples an action from the current policy *without* updating —
    /// the first half of a step whose reward arrives later (e.g. when the
    /// window's simulated completion is observed only after it drains
    /// through the fleet's queues). Pair with [`PolicyTrainer::observe`].
    pub fn sample_action(&mut self, context: &[f32]) -> usize {
        self.policy.sample(context, &mut self.rng)
    }

    /// Applies the deferred REINFORCE update for an action sampled
    /// earlier via [`PolicyTrainer::sample_action`], once its reward is
    /// known: updates the baseline and the policy. `context` must be the
    /// exact context the action was sampled from.
    pub fn observe(&mut self, context: &[f32], action: usize, reward: f32) {
        let advantage = advantage(&mut self.baseline, &self.config, reward);
        self.policy.reinforce_update_with_entropy(
            context,
            action,
            advantage,
            self.config.entropy_beta,
            &mut self.optimizer,
        );
    }

    /// Continual mode, half one: queues a deferred observation without
    /// updating anything. The streaming adaptation loop samples shadow
    /// actions over each chunk and buffers each `(context, action,
    /// reward)` here; [`PolicyTrainer::refresh`] applies them between
    /// chunks, so a chunk's greedy routing table is fixed before its
    /// windows are shadowed, while the policy still learns inside the
    /// stream.
    pub fn buffer(&mut self, context: Vec<f32>, action: usize, reward: f32) {
        self.pending.push((context, action, reward));
    }

    /// Observations currently buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Continual mode, half two: applies every buffered observation in
    /// FIFO order through [`PolicyTrainer::observe`] (baseline update +
    /// `reinforce_update`, PR 4's deferred-reward split) and clears the
    /// buffer. Returns how many updates were applied. Deterministic:
    /// same buffered sequence, same resulting weights.
    pub fn refresh(&mut self) -> usize {
        let pending = std::mem::take(&mut self.pending);
        let n = pending.len();
        for (context, action, reward) in pending {
            self.observe(&context, action, reward);
        }
        n
    }

    /// Trains for `config.epochs` passes over `contexts`; the oracle is
    /// called as `reward_of(context_index, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty.
    pub fn train(
        &mut self,
        contexts: &[Vec<f32>],
        reward_of: &mut dyn FnMut(usize, usize) -> f32,
    ) -> TrainingCurve {
        assert!(!contexts.is_empty(), "no training contexts");
        let mut curve = Vec::with_capacity(self.config.epochs);
        let mut order: Vec<usize> = (0..contexts.len()).collect();
        for _ in 0..self.config.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut self.rng);
            let mut total = 0.0f32;
            for &i in &order {
                let (_, r) = self.step(&contexts[i], &mut |a| reward_of(i, a));
                total += r;
            }
            curve.push(total / contexts.len() as f32);
        }
        TrainingCurve { mean_reward_per_epoch: curve }
    }

    /// Trains against a [`RewardModel`] at the static per-action delays:
    /// the paper's original training. `correct_of(i, a)` is the frozen
    /// oracle's verdict-correctness for window `i` at action `a`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty.
    pub fn train_with_delays(
        &mut self,
        contexts: &[Vec<f32>],
        correct_of: &mut dyn FnMut(usize, usize) -> bool,
        delays: &StaticDelays,
        reward: &RewardModel,
    ) -> TrainingCurve {
        let mut reward_of = |i: usize, a: usize| -> f32 {
            reward.reward(correct_of(i, a), delays.delay_ms(a)) as f32
        };
        self.train(contexts, &mut reward_of)
    }
}

/// What `reward` is worth to the policy gradient: the reward against the
/// running reference (which it then moves), or the raw reward without one.
fn advantage(baseline: &mut ReinforcementComparison, config: &TrainConfig, reward: f32) -> f32 {
    if config.use_baseline {
        baseline.advantage_and_update(reward)
    } else {
        reward
    }
}

impl std::fmt::Debug for PolicyTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PolicyTrainer({:?}, baseline_ref={:.4})", self.policy, self.baseline.reference())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_tracks_rewards() {
        let mut b = ReinforcementComparison::new(0.5);
        assert_eq!(b.advantage_and_update(1.0), 0.0); // seeds the reference
        assert_eq!(b.reference(), 1.0);
        let adv = b.advantage_and_update(2.0);
        assert!((adv - 1.0).abs() < 1e-6);
        assert!((b.reference() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn baseline_reduces_advantage_magnitude_over_time() {
        let mut b = ReinforcementComparison::new(0.2);
        let mut last_adv = f32::INFINITY;
        for _ in 0..20 {
            last_adv = b.advantage_and_update(3.0);
        }
        assert!(last_adv.abs() < 0.1, "advantage should decay to 0 for constant rewards");
    }

    #[test]
    fn trainer_learns_context_dependent_optimum() {
        // Context [1,0] → action 0 pays; context [0,1] → action 2 pays.
        let contexts: Vec<Vec<f32>> =
            (0..40).map(|i| if i % 2 == 0 { vec![1.0, 0.0] } else { vec![0.0, 1.0] }).collect();
        let mut reward = |i: usize, a: usize| -> f32 {
            let best = if i.is_multiple_of(2) { 0 } else { 2 };
            if a == best {
                1.0
            } else {
                0.0
            }
        };
        let policy = PolicyNetwork::new(2, 32, 3, 9);
        let mut trainer = PolicyTrainer::new(
            policy,
            TrainConfig { epochs: 60, learning_rate: 5e-3, ..Default::default() },
        );
        let curve = trainer.train(&contexts, &mut reward);
        assert!(curve.final_reward() > 0.85, "final mean reward {} too low", curve.final_reward());
        let policy = trainer.policy_mut();
        assert_eq!(policy.greedy(&[1.0, 0.0]), 0);
        assert_eq!(policy.greedy(&[0.0, 1.0]), 2);
    }

    #[test]
    fn curve_improves_on_average() {
        let contexts: Vec<Vec<f32>> = (0..20).map(|_| vec![0.5, 0.5]).collect();
        let mut reward = |_i: usize, a: usize| if a == 1 { 1.0 } else { -0.2 };
        let policy = PolicyNetwork::new(2, 16, 3, 5);
        let mut trainer = PolicyTrainer::new(
            policy,
            TrainConfig { epochs: 40, learning_rate: 5e-3, ..Default::default() },
        );
        let curve = trainer.train(&contexts, &mut reward);
        let early: f32 = curve.mean_reward_per_epoch[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = curve.mean_reward_per_epoch[35..].iter().sum::<f32>() / 5.0;
        assert!(late > early, "no improvement: early {early}, late {late}");
    }

    #[test]
    fn delay_table_training_matches_equivalent_closure() {
        // Identical seeds and rewards ⇒ identical curves and weights,
        // whether the reward comes from the closure or the table path.
        let contexts: Vec<Vec<f32>> =
            (0..30).map(|i| if i % 2 == 0 { vec![1.0, 0.0] } else { vec![0.0, 1.0] }).collect();
        let delays = StaticDelays::new(vec![12.4, 257.43, 504.5]);
        let reward = RewardModel::new(0.0005);
        let correct = |i: usize, a: usize| if i.is_multiple_of(2) { a == 0 } else { a == 2 };
        let config = TrainConfig { epochs: 10, ..Default::default() };

        let mut via_table = PolicyTrainer::new(PolicyNetwork::new(2, 16, 3, 5), config);
        let curve_table =
            via_table.train_with_delays(&contexts, &mut { correct }, &delays, &reward);

        let mut via_closure = PolicyTrainer::new(PolicyNetwork::new(2, 16, 3, 5), config);
        let ladder = [12.4, 257.43, 504.5];
        let mut reward_of =
            |i: usize, a: usize| -> f32 { reward.reward(correct(i, a), ladder[a]) as f32 };
        let curve_closure = via_closure.train(&contexts, &mut reward_of);

        assert_eq!(curve_table, curve_closure);
        assert_eq!(
            via_table.policy_mut().weights_le_bytes(),
            via_closure.policy_mut().weights_le_bytes()
        );
    }

    #[test]
    fn entropy_beta_keeps_long_runs_unsaturated() {
        // One action always pays: a long run of identical updates — the
        // in-fleet saturation regime in miniature. With β = 0 the softmax
        // pins to the winner; with a small β the policy keeps sampling
        // the alternatives at a visible rate while still preferring the
        // winner.
        let contexts: Vec<Vec<f32>> = (0..20).map(|_| vec![0.5, 0.5]).collect();
        let run = |entropy_beta: f32| {
            let mut trainer = PolicyTrainer::new(
                PolicyNetwork::new(2, 16, 3, 5),
                TrainConfig {
                    epochs: 120,
                    learning_rate: 5e-3,
                    entropy_beta,
                    ..Default::default()
                },
            );
            let mut reward = |_i: usize, a: usize| if a == 1 { 1.0 } else { -0.2 };
            let curve = trainer.train(&contexts, &mut reward);
            (trainer.policy_mut().probabilities(&[0.5, 0.5]), curve)
        };
        let (plain, _) = run(0.0);
        let (regularised, curve) = run(0.01);
        assert!(plain[1] > regularised[1], "{plain:?} vs {regularised:?}");
        assert!(regularised[1] > 0.5, "winner must still dominate: {regularised:?}");
        assert!(curve.final_reward() > 0.5, "regularised training still learns");
    }

    #[test]
    fn buffered_refresh_matches_immediate_observes() {
        // Continual mode is exactly the deferred-reward split batched:
        // buffering a sequence and refreshing must produce the same
        // weights as calling `observe` immediately in the same order.
        let config = TrainConfig { learning_rate: 5e-3, ..Default::default() };
        let obs: Vec<(Vec<f32>, usize, f32)> = (0..30)
            .map(|i| {
                let ctx = if i % 2 == 0 { vec![1.0, 0.0] } else { vec![0.0, 1.0] };
                (ctx, i % 3, if i % 3 == 0 { 1.0 } else { -0.2 })
            })
            .collect();

        let mut immediate = PolicyTrainer::new(PolicyNetwork::new(2, 16, 3, 5), config);
        for (ctx, a, r) in &obs {
            immediate.observe(ctx, *a, *r);
        }

        let mut buffered = PolicyTrainer::new(PolicyNetwork::new(2, 16, 3, 5), config);
        for (ctx, a, r) in &obs {
            buffered.buffer(ctx.clone(), *a, *r);
        }
        assert_eq!(buffered.pending_len(), obs.len());
        assert_eq!(buffered.refresh(), obs.len());
        assert_eq!(buffered.pending_len(), 0, "refresh drains the buffer");
        assert_eq!(buffered.refresh(), 0, "empty refresh is a no-op");

        assert_eq!(
            immediate.policy_mut().weights_le_bytes(),
            buffered.policy_mut().weights_le_bytes()
        );
    }

    #[test]
    fn continual_refresh_tracks_a_regime_change() {
        // Pre-drift the best arm is 0; post-drift it is 2. Chunked
        // buffer→refresh cycles must move the greedy choice. Pre-drift
        // training is deliberately moderate: a fully saturated softmax
        // cannot escape under REINFORCE (both the policy gradient and
        // the entropy gradient scale with π(1−π) → 0), which is why the
        // continual mode keeps a small entropy β in the stream.
        let mut trainer = PolicyTrainer::new(
            PolicyNetwork::new(2, 16, 3, 7),
            TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
        );
        let ctx = vec![0.7, 0.3];
        for phase in 0..2 {
            let best = if phase == 0 { 0 } else { 2 };
            let chunks = if phase == 0 { 6 } else { 30 };
            for _chunk in 0..chunks {
                for _ in 0..20 {
                    let a = trainer.sample_action(&ctx);
                    let r = if a == best { 1.0 } else { -0.2 };
                    trainer.buffer(ctx.clone(), a, r);
                }
                trainer.refresh();
            }
            assert_eq!(trainer.policy_mut().greedy(&ctx), best, "phase {phase}");
        }
    }

    #[test]
    #[should_panic(expected = "no training contexts")]
    fn empty_contexts_panics() {
        let policy = PolicyNetwork::new(2, 8, 3, 0);
        let mut trainer = PolicyTrainer::new(policy, TrainConfig::default());
        let _ = trainer.train(&[], &mut |_, _| 0.0);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_rejected() {
        let _ = ReinforcementComparison::new(0.0);
    }
}
