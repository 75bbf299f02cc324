//! The REINFORCE policy network (§II-B, Fig. 2).
//!
//! *"we build the policy network as a single hidden neural network with 100
//! hidden units and an output layer with 3 units"* (§III-B). The network
//! maps the context `z_x` to logits whose softmax is the categorical policy
//! `π_θ(a | z_x) = ∏_k s_k^{a_k}`; the selected action is
//! `argmax_k s_k` at evaluation time and a sample from the distribution
//! during training.

use rand::Rng;

use hec_nn::{Activation, Dense, Optimizer, PingPong, Sequential};
use hec_tensor::{math, vecops, Matrix};

/// Contexts per forward pass of [`PolicyNetwork::greedy_batch`]: at the
/// paper's 100 hidden units a block's activations are 25 KB and stay in
/// cache, where the whole corpus's (18 000 windows) would be 7 MB.
const GREEDY_BLOCK_ROWS: usize = 64;

/// The policy network `f_θ(z_x) → s ∈ Δ^{K-1}`.
///
/// # Example
///
/// ```rust
/// use hec_bandit::PolicyNetwork;
///
/// let mut policy = PolicyNetwork::new(4, 100, 3, 7);
/// let probs = policy.probabilities(&[0.0, 1.0, 0.5, 0.2]);
/// assert_eq!(probs.len(), 3);
/// ```
pub struct PolicyNetwork {
    net: Sequential,
    input_dim: usize,
    num_actions: usize,
    /// The one-window paths' reused buffers: the context as a `1 × input`
    /// row, the inference activations, and `π(· | context)` — which a
    /// REINFORCE update then turns, in place, into `∂L/∂logits`.
    context_row: Matrix,
    acts: PingPong,
    probs: Matrix,
}

impl PolicyNetwork {
    /// Builds the network: `Dense(input → hidden, ReLU)` then
    /// `Dense(hidden → actions, linear)` with softmax applied on top.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `num_actions < 2`.
    pub fn new(input_dim: usize, hidden: usize, num_actions: usize, seed: u64) -> Self {
        assert!(input_dim > 0 && hidden > 0, "dimensions must be non-zero");
        assert!(num_actions >= 2, "need at least two actions");
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Box::new(Dense::new_he(&mut rng, input_dim, hidden, Activation::Relu)),
            Box::new(Dense::new(&mut rng, hidden, num_actions, Activation::Linear)),
        ]);
        Self {
            net,
            input_dim,
            num_actions,
            context_row: Matrix::zeros(1, input_dim),
            acts: PingPong::new(),
            probs: Matrix::zeros(1, num_actions),
        }
    }

    /// Context dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of actions K (HEC layers).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// The policy `π_θ(· | context)` as a probability vector.
    ///
    /// # Panics
    ///
    /// Panics if `context.len() != input_dim`.
    pub fn probabilities(&mut self, context: &[f32]) -> Vec<f32> {
        self.infer_probabilities(context).to_vec()
    }

    /// [`PolicyNetwork::probabilities`] in the network's own buffers: a
    /// warmed call allocates nothing.
    fn infer_probabilities(&mut self, context: &[f32]) -> &[f32] {
        assert_eq!(context.len(), self.input_dim, "context dimension mismatch");
        self.context_row.as_mut_slice().copy_from_slice(context);
        let logits = self.net.infer(&self.context_row, &mut self.acts);
        self.probs.copy_from(logits);
        vecops::softmax_inplace(self.probs.as_mut_slice());
        self.probs.as_slice()
    }

    /// Samples an action from the policy (training-time exploration).
    pub fn sample(&mut self, context: &[f32], rng: &mut impl Rng) -> usize {
        draw(self.infer_probabilities(context), rng)
    }

    /// The greedy action `|a| = argmax_k s_k` (evaluation-time selection).
    pub fn greedy(&mut self, context: &[f32]) -> usize {
        vecops::argmax(self.infer_probabilities(context))
    }

    /// Greedy actions for a whole corpus in **batched forward passes**: the
    /// contexts are stacked `GREEDY_BLOCK_ROWS` (64) at a time into a
    /// `block × input_dim` matrix so the dense kernels see a real batch
    /// instead of per-window row vectors, through the network's own
    /// buffers — a warmed call allocates only the returned vector.
    ///
    /// Each row goes through the same softmax + argmax as
    /// [`PolicyNetwork::greedy`] (not a raw-logit argmax — f32 softmax can
    /// round two distinct logits to equal probabilities, which would flip
    /// tie resolution), and dense rows do not depend on the rows beside
    /// them, so the selected actions are identical to the per-window path
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if any context's length differs from `input_dim`.
    pub fn greedy_batch(&mut self, contexts: &[Vec<f32>]) -> Vec<usize> {
        for (i, ctx) in contexts.iter().enumerate() {
            assert_eq!(ctx.len(), self.input_dim, "context {i} dimension mismatch");
        }
        let mut actions = Vec::with_capacity(contexts.len());
        for block in contexts.chunks(GREEDY_BLOCK_ROWS) {
            self.context_row.resize(block.len(), self.input_dim);
            let rows = self.context_row.as_mut_slice().chunks_exact_mut(self.input_dim);
            for (row, ctx) in rows.zip(block) {
                row.copy_from_slice(ctx);
            }
            self.probs.copy_from(self.net.infer(&self.context_row, &mut self.acts));
            actions.extend(self.probs.as_mut_slice().chunks_exact_mut(self.num_actions).map(
                |probs| {
                    vecops::softmax_inplace(probs);
                    vecops::argmax(probs)
                },
            ));
        }
        self.context_row.resize(1, self.input_dim);
        actions
    }

    /// Serialises every trainable parameter (in layer visitation order)
    /// as little-endian `f32` bytes. Two policies trained through
    /// byte-identical update sequences produce byte-identical digests —
    /// the determinism contract the fleet-in-the-loop trainer is tested
    /// against.
    pub fn weights_le_bytes(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.param_count() * 4);
        self.net.visit_params(&mut |param, _grad| {
            for &v in param.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        });
        out
    }

    /// One REINFORCE update minimising `−advantage · log π_θ(action | ctx)`:
    /// backpropagates `advantage · (π − e_action)` through the network and
    /// applies the optimizer.
    ///
    /// Returns `log π_θ(action | ctx)` *before* the update (useful for
    /// monitoring convergence).
    ///
    /// # Panics
    ///
    /// Panics if `context.len() != input_dim` or `action >= num_actions`.
    pub fn reinforce_update(
        &mut self,
        context: &[f32],
        action: usize,
        advantage: f32,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        self.reinforce_update_with_entropy(context, action, advantage, 0.0, optimizer)
    }

    /// [`PolicyNetwork::reinforce_update`] with an **entropy bonus**: the
    /// minimised objective becomes
    /// `−advantage · log π_θ(action | ctx) − β · H(π_θ(· | ctx))`.
    ///
    /// Plain REINFORCE saturates its softmax once one action is on
    /// average best — the logit gap grows without bound, gradients for
    /// the other actions vanish, and the policy freezes before it can
    /// discriminate per context. This bites on long in-fleet training
    /// runs, where each epoch applies one update per *emitted window*
    /// (thousands) rather than per corpus window (hundreds). The entropy
    /// term pushes back with gradient `β · π_k (log π_k + H)` on each
    /// logit, keeping a saturating distribution exploratory without
    /// having to shrink the learning rate for everything else.
    ///
    /// `entropy_beta == 0` is exactly [`PolicyNetwork::reinforce_update`].
    ///
    /// # Panics
    ///
    /// Panics if `context.len() != input_dim`, `action >= num_actions`,
    /// or `entropy_beta` is negative or non-finite.
    pub fn reinforce_update_with_entropy(
        &mut self,
        context: &[f32],
        action: usize,
        advantage: f32,
        entropy_beta: f32,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        assert!(action < self.num_actions, "action out of range");
        self.forward_for_update(context);
        self.backward_from_probs(action, advantage, entropy_beta, optimizer)
    }

    /// One whole REINFORCE step from a **single** forward pass: samples an
    /// action from `π_θ(· | context)`, asks `advantage_of` what it earned,
    /// and backpropagates from the activations the sampling forward left —
    /// nothing can change the weights between the two halves, so this is
    /// [`PolicyNetwork::sample`] then
    /// [`PolicyNetwork::reinforce_update_with_entropy`] bit for bit, minus
    /// the second, identical forward. Returns the sampled action.
    pub(crate) fn sample_and_update(
        &mut self,
        context: &[f32],
        rng: &mut impl Rng,
        entropy_beta: f32,
        optimizer: &mut dyn Optimizer,
        advantage_of: impl FnOnce(usize) -> f32,
    ) -> usize {
        self.forward_for_update(context);
        let action = draw(self.probs.as_slice(), rng);
        let advantage = advantage_of(action);
        self.backward_from_probs(action, advantage, entropy_beta, optimizer);
        action
    }

    /// Training-mode forward: every layer boundary's activation stays in
    /// the network for the backward pass, `π(· | context)` lands in `probs`.
    fn forward_for_update(&mut self, context: &[f32]) {
        assert_eq!(context.len(), self.input_dim, "context dimension mismatch");
        self.context_row.as_mut_slice().copy_from_slice(context);
        self.probs.copy_from(self.net.forward_training(&self.context_row));
        vecops::softmax_inplace(self.probs.as_mut_slice());
    }

    /// The update half: turns the `π` [`Self::forward_for_update`] left in
    /// `probs` into `∂L/∂logits`, backpropagates it through that forward's
    /// activations and applies the optimizer. Returns `log π(action)`.
    fn backward_from_probs(
        &mut self,
        action: usize,
        advantage: f32,
        entropy_beta: f32,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        assert!(
            entropy_beta >= 0.0 && entropy_beta.is_finite(),
            "entropy_beta must be finite and non-negative"
        );
        let probs = self.probs.as_mut_slice();
        let log_prob = math::ln(probs[action].max(1e-12));

        // H = −Σ π log π; descent on −βH adds β·π_k(log π_k + H).
        let entropy: f32 = if entropy_beta > 0.0 {
            -probs.iter().map(|&p| p * math::ln(p.max(1e-12))).sum::<f32>()
        } else {
            0.0
        };
        // π becomes ∂L/∂logits = advantage · (π − e_action) [+ entropy term].
        for (k, d) in probs.iter_mut().enumerate() {
            let p = *d;
            *d = advantage * p;
            if k == action {
                *d -= advantage;
            }
            if entropy_beta > 0.0 {
                *d += entropy_beta * p * (math::ln(p.max(1e-12)) + entropy);
            }
        }
        // A saturated softmax leaves subnormal entries here, and every
        // product the backward pass forms with one is a microcode assist
        // and a subnormal on its way into the optimizer's moments.
        math::flush_subnormal_slice(probs);
        self.net.backward(&self.probs, false);
        self.net.apply_gradients(optimizer);
        log_prob
    }
}

/// The action a uniform draw from `rng` picks under `probs` (the last one
/// when rounding leaves the cumulative sum short of the draw).
fn draw(probs: &[f32], rng: &mut impl Rng) -> usize {
    let u: f32 = rng.gen();
    let mut acc = 0.0f32;
    for (k, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return k;
        }
    }
    probs.len() - 1
}

impl std::fmt::Debug for PolicyNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PolicyNetwork({} → {} actions, params={})",
            self.input_dim,
            self.num_actions,
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_nn::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_form_distribution() {
        let mut p = PolicyNetwork::new(4, 16, 3, 0);
        let probs = p.probabilities(&[0.5, -0.5, 1.0, 0.0]);
        assert_eq!(probs.len(), 3);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(probs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn paper_dimensions() {
        // 4 context features → 100 hidden → 3 actions.
        let p = PolicyNetwork::new(4, 100, 3, 0);
        assert_eq!(p.param_count(), 4 * 100 + 100 + 100 * 3 + 3);
    }

    #[test]
    fn reinforce_increases_probability_of_rewarded_action() {
        let mut p = PolicyNetwork::new(2, 16, 3, 1);
        let ctx = [0.3, -0.7];
        let before = p.probabilities(&ctx)[2];
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            p.reinforce_update(&ctx, 2, 1.0, &mut opt);
        }
        let after = p.probabilities(&ctx)[2];
        assert!(after > before, "P(a=2) did not increase: {before} -> {after}");
        assert!(after > 0.9, "P(a=2) = {after} not dominant after training");
    }

    #[test]
    fn negative_advantage_decreases_probability() {
        let mut p = PolicyNetwork::new(2, 16, 3, 2);
        let ctx = [1.0, 1.0];
        let before = p.probabilities(&ctx)[0];
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            p.reinforce_update(&ctx, 0, -1.0, &mut opt);
        }
        let after = p.probabilities(&ctx)[0];
        assert!(after < before, "P(a=0) did not decrease: {before} -> {after}");
    }

    #[test]
    fn policy_is_context_dependent_after_training() {
        // Reward action 0 in context A and action 2 in context B.
        let mut p = PolicyNetwork::new(2, 32, 3, 3);
        let ctx_a = [1.0, 0.0];
        let ctx_b = [0.0, 1.0];
        let mut opt = Sgd::new(0.05);
        for _ in 0..200 {
            p.reinforce_update(&ctx_a, 0, 1.0, &mut opt);
            p.reinforce_update(&ctx_b, 2, 1.0, &mut opt);
        }
        assert_eq!(p.greedy(&ctx_a), 0);
        assert_eq!(p.greedy(&ctx_b), 2);
    }

    #[test]
    fn greedy_batch_matches_greedy() {
        let mut p = PolicyNetwork::new(3, 16, 3, 9);
        let b = GREEDY_BLOCK_ROWS;
        for len in [0, 1, b - 1, b, b + 1, 3 * b + 5] {
            let contexts: Vec<Vec<f32>> = (0..len)
                .map(|i| vec![(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos(), i as f32 / 17.0])
                .collect();
            let batched = p.greedy_batch(&contexts);
            let single: Vec<usize> = contexts.iter().map(|c| p.greedy(c)).collect();
            assert_eq!(batched, single, "{len} contexts");
        }
    }

    #[test]
    #[should_panic(expected = "context 70 dimension mismatch")]
    fn greedy_batch_names_a_bad_context_by_its_global_index() {
        let mut p = PolicyNetwork::new(3, 8, 3, 0);
        let mut contexts = vec![vec![0.5f32; 3]; 3 * GREEDY_BLOCK_ROWS];
        contexts[70] = vec![0.5; 2];
        let _ = p.greedy_batch(&contexts);
    }

    #[test]
    fn sampling_follows_distribution() {
        let mut p = PolicyNetwork::new(2, 16, 3, 4);
        let ctx = [0.2, 0.8];
        let probs = p.probabilities(&ctx);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[p.sample(&ctx, &mut rng)] += 1;
        }
        for k in 0..3 {
            let freq = counts[k] as f32 / 3000.0;
            assert!((freq - probs[k]).abs() < 0.05, "action {k}: sampled {freq} vs π {}", probs[k]);
        }
    }

    #[test]
    fn log_prob_is_returned() {
        let mut p = PolicyNetwork::new(2, 8, 3, 5);
        let mut opt = Sgd::new(0.01);
        let lp = p.reinforce_update(&[0.1, 0.1], 1, 0.5, &mut opt);
        assert!(lp < 0.0, "log-prob must be negative, got {lp}");
        assert!(lp > -10.0, "log-prob suspiciously small: {lp}");
    }

    #[test]
    fn weight_digest_is_deterministic_and_tracks_updates() {
        let mut a = PolicyNetwork::new(3, 8, 3, 7);
        let mut b = PolicyNetwork::new(3, 8, 3, 7);
        assert_eq!(a.weights_le_bytes(), b.weights_le_bytes());
        assert_eq!(a.weights_le_bytes().len(), a.param_count() * 4);
        let mut opt = Sgd::new(0.1);
        a.reinforce_update(&[1.0, 0.0, 0.0], 1, 1.0, &mut opt);
        assert_ne!(a.weights_le_bytes(), b.weights_le_bytes());
        // The same update applied to the twin restores byte equality.
        let mut opt_b = Sgd::new(0.1);
        b.reinforce_update(&[1.0, 0.0, 0.0], 1, 1.0, &mut opt_b);
        assert_eq!(a.weights_le_bytes(), b.weights_le_bytes());
    }

    #[test]
    fn zero_entropy_beta_is_exactly_plain_reinforce() {
        let mut a = PolicyNetwork::new(2, 16, 3, 6);
        let mut b = PolicyNetwork::new(2, 16, 3, 6);
        let mut opt_a = Sgd::new(0.05);
        let mut opt_b = Sgd::new(0.05);
        for i in 0..20 {
            let ctx = [0.1 * i as f32, -0.3];
            a.reinforce_update(&ctx, i % 3, 0.7, &mut opt_a);
            b.reinforce_update_with_entropy(&ctx, i % 3, 0.7, 0.0, &mut opt_b);
        }
        assert_eq!(a.weights_le_bytes(), b.weights_le_bytes());
    }

    #[test]
    fn entropy_regularisation_resists_softmax_saturation() {
        // Hammer one action with positive advantage: plain REINFORCE
        // saturates (max prob → 1), the entropy-regularised policy keeps
        // a visibly softer distribution under the same update stream.
        let ctx = [0.4, -0.2];
        let run = |beta: f32| {
            let mut p = PolicyNetwork::new(2, 16, 3, 8);
            let mut opt = Sgd::new(0.1);
            for _ in 0..400 {
                p.reinforce_update_with_entropy(&ctx, 1, 1.0, beta, &mut opt);
            }
            p.probabilities(&ctx)
        };
        let plain = run(0.0);
        let regularised = run(0.5);
        assert!(plain[1] > 0.99, "plain REINFORCE should saturate, got {:?}", plain);
        assert!(
            regularised[1] < 0.98,
            "entropy bonus failed to cap saturation: {:?} vs {:?}",
            regularised,
            plain
        );
        // The rewarded action still dominates — regularisation tempers,
        // it does not overturn.
        assert!(regularised[1] > 0.5, "{regularised:?}");
    }

    #[test]
    fn entropy_term_alone_pushes_toward_uniform() {
        let ctx = [1.0, -1.0];
        let mut p = PolicyNetwork::new(2, 16, 3, 9);
        // Skew the policy hard first.
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            p.reinforce_update(&ctx, 0, 1.0, &mut opt);
        }
        let skewed = p.probabilities(&ctx);
        // Advantage 0 ⇒ only the entropy gradient acts.
        for _ in 0..400 {
            p.reinforce_update_with_entropy(&ctx, 0, 0.0, 0.5, &mut opt);
        }
        let relaxed = p.probabilities(&ctx);
        let spread = |probs: &[f32]| {
            probs.iter().cloned().fold(f32::MIN, f32::max)
                - probs.iter().cloned().fold(f32::MAX, f32::min)
        };
        assert!(
            spread(&relaxed) < spread(&skewed),
            "entropy-only updates must flatten the distribution: {relaxed:?} vs {skewed:?}"
        );
    }

    #[test]
    #[should_panic(expected = "entropy_beta must be finite and non-negative")]
    fn negative_entropy_beta_rejected() {
        let mut p = PolicyNetwork::new(2, 8, 3, 0);
        let mut opt = Sgd::new(0.01);
        let _ = p.reinforce_update_with_entropy(&[0.0, 0.0], 0, 1.0, -0.1, &mut opt);
    }

    #[test]
    #[should_panic(expected = "context dimension mismatch")]
    fn wrong_context_width_panics() {
        let mut p = PolicyNetwork::new(4, 8, 3, 0);
        let _ = p.probabilities(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "action out of range")]
    fn bad_action_panics() {
        let mut p = PolicyNetwork::new(2, 8, 3, 0);
        let mut opt = Sgd::new(0.01);
        let _ = p.reinforce_update(&[0.0, 0.0], 3, 1.0, &mut opt);
    }
}
