//! The REINFORCE policy network (§II-B, Fig. 2).
//!
//! *"we build the policy network as a single hidden neural network with 100
//! hidden units and an output layer with 3 units"* (§III-B). The network
//! maps the context `z_x` to logits whose softmax is the categorical policy
//! `π_θ(a | z_x) = ∏_k s_k^{a_k}`; the selected action is
//! `argmax_k s_k` at evaluation time and a sample from the distribution
//! during training.

use rand::Rng;

use hec_nn::Optimizer;
use hec_tensor::kernel::gemm_nn;
use hec_tensor::{init, math, vecops, Matrix};

/// Contexts per forward pass of [`PolicyNetwork::probabilities_batch`]: at the
/// paper's 100 hidden units a block's activations are 25 KB and stay in
/// cache, where the whole corpus's (18 000 windows) would be 7 MB.
const FORWARD_BLOCK_ROWS: usize = 64;

/// The policy network `f_θ(z_x) → s ∈ Δ^{K-1}`.
///
/// Two dense layers, `input → hidden` (ReLU) and `hidden → actions`
/// (linear), with softmax on top. All four parameter tensors live in **one
/// flat buffer** in visit order `W1 | b1 | W2 | b2` (`W1` is
/// `input × hidden` and `W2` `hidden × actions`, row-major), which is also
/// the byte order of [`PolicyNetwork::weights_le_bytes`]. A forward pass
/// is two `gemm_nn` calls over slices of it. A REINFORCE update
/// **writes** `∂L/∂θ` into a second buffer of the same layout — every
/// element, so nothing is zeroed between updates — and hands both to
/// **one** `optimizer.step(0, ..)`: one Adam pass over all parameters and
/// one step of its count, as four per-tensor passes opened by slot 0 were.
///
/// Every gradient element is what the `Sequential` stack of two `Dense`
/// layers this replaced computed, bit for bit (`tests/reference.rs` keeps
/// that stack as the referee): each outer-product and bias element is
/// `0.0 + a·b` (the staged product added into a zeroed gradient,
/// `0.0 + ((0.0 + a·b)·1.0)`, which turns a `−0` into `+0` the same way),
/// and the hidden gradient `δ·W2ᵀ` is summed over the actions in ascending
/// order from `0.0`, before `W2` moves.
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
    input_dim: usize,
    hidden: usize,
    num_actions: usize,
    /// `W1 | b1 | W2 | b2`, one `1 × param_count` row.
    params: Matrix,
    /// `∂L/∂θ` in `params`' layout, written whole by each update.
    grad: Matrix,
    /// The one-window paths' context row (a batched forward reads its
    /// rows in place).
    contexts: Vec<f32>,
    /// The forward pass's buffers, grown to the largest block seen (one
    /// row for the one-window paths, up to `FORWARD_BLOCK_ROWS` for the
    /// batched forward): the hidden ReLU activations, and the logits
    /// turned into `π(· | context)` — which a REINFORCE update then turns,
    /// in place, into `∂L/∂logits`.
    hidden_act: Vec<f32>,
    probs: Vec<f32>,
}

impl PolicyNetwork {
    /// Builds the network: `input → hidden` (ReLU) then `hidden → actions`
    /// (linear) with softmax applied on top. `W1` is He-uniform and `W2`
    /// Glorot-uniform, drawn in that order from a generator seeded with
    /// `seed`; both biases start at zero.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `num_actions < 2`.
    pub fn new(input_dim: usize, hidden: usize, num_actions: usize, seed: u64) -> Self {
        assert!(input_dim > 0 && hidden > 0, "dimensions must be non-zero");
        assert!(num_actions >= 2, "need at least two actions");
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w1 = init::he_uniform(&mut rng, input_dim, hidden);
        let w2 = init::glorot_uniform(&mut rng, hidden, num_actions);
        let count = input_dim * hidden + hidden + hidden * num_actions + num_actions;
        let mut params = Vec::with_capacity(count);
        params.extend_from_slice(w1.as_slice());
        params.resize(params.len() + hidden, 0.0);
        params.extend_from_slice(w2.as_slice());
        params.resize(count, 0.0);
        Self {
            input_dim,
            hidden,
            num_actions,
            params: Matrix::from_vec(1, count, params),
            grad: Matrix::zeros(1, count),
            contexts: vec![0.0; input_dim],
            hidden_act: vec![0.0; hidden],
            probs: vec![0.0; num_actions],
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
        self.params.len()
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
    /// warmed call allocates nothing. The activations it leaves are what a
    /// REINFORCE update backpropagates through.
    fn infer_probabilities(&mut self, context: &[f32]) -> &[f32] {
        assert_eq!(context.len(), self.input_dim, "context dimension mismatch");
        let (i, h, a) = (self.input_dim, self.hidden, self.num_actions);
        self.contexts.copy_from_slice(context);
        let (hidden, probs) = (&mut self.hidden_act[..h], &mut self.probs[..a]);
        forward(self.params.as_slice(), (i, h, a), &self.contexts, hidden, probs);
        probs
    }

    /// Samples an action from the policy (training-time exploration).
    pub fn sample(&mut self, context: &[f32], rng: &mut impl Rng) -> usize {
        draw(self.infer_probabilities(context), rng)
    }

    /// The greedy action `|a| = argmax_k s_k` (evaluation-time selection).
    pub fn greedy(&mut self, context: &[f32]) -> usize {
        vecops::argmax(self.infer_probabilities(context))
    }

    /// `π_θ(· | context)` for every row of `contexts` (`n × input_dim`), as
    /// an `n × num_actions` matrix, from **batched forward passes**: the
    /// rows go through the network `FORWARD_BLOCK_ROWS` (64) at a time, read
    /// in place, so the dense kernels see a real batch instead of one-row
    /// vectors.
    ///
    /// Row `r` is [`PolicyNetwork::probabilities`] of row `r` alone, bit
    /// for bit: a dense row does not depend on the rows beside it, the gemm
    /// kernels fix each element's summation order whatever the row count
    /// and the row's position in its block, and every row gets the same
    /// bias, ReLU and softmax (`tests/batched_rows.rs` holds this on random
    /// weights). So an action drawn from a row here is the action
    /// [`PolicyNetwork::sample`] would draw on that context with the same
    /// generator.
    ///
    /// # Panics
    ///
    /// Panics if `contexts.cols() != input_dim`.
    pub fn probabilities_batch(&mut self, contexts: &Matrix) -> Matrix {
        let mut probs = Matrix::zeros(contexts.rows(), self.num_actions);
        let mut rows = probs.as_mut_slice().chunks_exact_mut(self.num_actions);
        self.forward_batch(contexts, |pi| {
            rows.next().expect("one row per context").copy_from_slice(pi)
        });
        probs
    }

    /// The greedy action of every row of `contexts`: the argmax of each
    /// [`PolicyNetwork::probabilities_batch`] row — the same forward, the
    /// same softmax (not a raw-logit argmax: f32 softmax can round two
    /// distinct logits to equal probabilities, which would flip tie
    /// resolution) — so each is [`PolicyNetwork::greedy`] of its row. A
    /// warmed call allocates only the returned vector.
    ///
    /// # Panics
    ///
    /// Panics if `contexts.cols() != input_dim`.
    pub fn greedy_batch(&mut self, contexts: &Matrix) -> Vec<usize> {
        let mut actions = Vec::with_capacity(contexts.rows());
        self.forward_batch(contexts, |pi| actions.push(vecops::argmax(pi)));
        actions
    }

    /// The batched forward pass: hands each row's `π`, in row order, to
    /// `each`, through the network's own activation buffers.
    fn forward_batch(&mut self, contexts: &Matrix, mut each: impl FnMut(&[f32])) {
        assert_eq!(contexts.cols(), self.input_dim, "context dimension mismatch");
        let (i, h, a) = (self.input_dim, self.hidden, self.num_actions);
        for block in contexts.as_slice().chunks(FORWARD_BLOCK_ROWS * i) {
            let rows = block.len() / i;
            grow(&mut self.hidden_act, rows * h);
            grow(&mut self.probs, rows * a);
            let (hidden, probs) = (&mut self.hidden_act[..rows * h], &mut self.probs[..rows * a]);
            forward(self.params.as_slice(), (i, h, a), block, hidden, probs);
            probs.chunks_exact(a).for_each(&mut each);
        }
    }

    /// Serialises every trainable parameter (in layer visitation order,
    /// `W1 | b1 | W2 | b2`) as little-endian `f32` bytes. Two policies
    /// trained through byte-identical update sequences produce
    /// byte-identical digests — the determinism contract the
    /// fleet-in-the-loop trainer is tested against.
    pub fn weights_le_bytes(&self) -> Vec<u8> {
        self.params.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// One REINFORCE update with an **entropy bonus**, minimising
    /// `−advantage · log π_θ(action | ctx) − β · H(π_θ(· | ctx))`: at
    /// `entropy_beta == 0` it backpropagates `advantage · (π − e_action)`
    /// through the network and applies the optimizer.
    ///
    /// Returns `log π_θ(action | ctx)` *before* the update (useful for
    /// monitoring convergence).
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
        self.infer_probabilities(context);
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
        let action = self.sample(context, rng);
        let advantage = advantage_of(action);
        self.backward_from_probs(action, advantage, entropy_beta, optimizer);
        action
    }

    /// The update half: turns the `π` a one-row forward left in `probs`
    /// into `∂L/∂logits`, writes `∂L/∂θ` from that forward's activations
    /// and applies the optimizer. Returns `log π(action)`.
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
        let (i, h, a) = (self.input_dim, self.hidden, self.num_actions);
        let delta = &mut self.probs[..a];
        let log_prob = math::ln(delta[action].max(1e-12));

        // H = −Σ π log π; descent on −βH adds β·π_k(log π_k + H).
        let entropy: f32 = if entropy_beta > 0.0 {
            -delta.iter().map(|&p| p * math::ln(p.max(1e-12))).sum::<f32>()
        } else {
            0.0
        };
        // π becomes δ = ∂L/∂logits = advantage · (π − e_action) [+ entropy term].
        for (k, d) in delta.iter_mut().enumerate() {
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
        math::flush_subnormal_slice(delta);
        let delta = &*delta;

        let (x, hidden) = (&self.contexts[..i], &self.hidden_act[..h]);
        let (_, _, w2, _) = split_layers(self.params.as_slice(), (i, h, a));
        let (g_w1, rest) = self.grad.as_mut_slice().split_at_mut(i * h);
        let (g_b1, rest) = rest.split_at_mut(h);
        let (g_w2, g_b2) = rest.split_at_mut(h * a);
        // The paper's three actions get a copy with the width a constant:
        // with it a runtime value, a 4-input update read ≈ 0.8 µs slower.
        if a == 3 {
            head_gradients(3, delta, hidden, w2, g_w2, g_b1);
        } else {
            head_gradients(a, delta, hidden, w2, g_w2, g_b1);
        }
        for (g, &d) in g_b2.iter_mut().zip(delta) {
            *g = 0.0 + d;
        }
        // ∂W1 = x ⊗ dh, read through ∂b1: `0 + dh` differs from `dh` at
        // most in the sign of a zero, which `0 + x·_` erases.
        for (g_row, &xv) in g_w1.chunks_exact_mut(h).zip(x) {
            for (g, &dh) in g_row.iter_mut().zip(&*g_b1) {
                *g = 0.0 + xv * dh;
            }
        }
        optimizer.step(0, &mut self.params, &self.grad);
        log_prob
    }
}

/// The head's half of a REINFORCE gradient for `a` actions: `∂W2 = h ⊗ δ`
/// into `g_w2` and, per hidden unit, `dh = (δ·W2ᵀ) ⊙ ReLU'(h)` filed as
/// `∂b1 = 0 + dh` into `g_b1`.
#[inline(always)]
fn head_gradients(
    a: usize,
    delta: &[f32],
    hidden: &[f32],
    w2: &[f32],
    g_w2: &mut [f32],
    g_b1: &mut [f32],
) {
    let delta = &delta[..a];
    for (((g_row, &hv), w_row), g_b) in
        g_w2.chunks_exact_mut(a).zip(hidden).zip(w2.chunks_exact(a)).zip(g_b1)
    {
        for (g, &d) in g_row.iter_mut().zip(delta) {
            *g = 0.0 + hv * d;
        }
        let dh = delta.iter().zip(w_row).fold(0.0, |acc, (&d, &w)| acc + d * w);
        *g_b = 0.0 + dh * if hv > 0.0 { 1.0 } else { 0.0 };
    }
}

/// The forward pass over the contexts `x` (row-major, `i` wide) of a
/// network with parameters `params`: the hidden ReLU activations into
/// `hidden`, `π` row by row into `probs` (each holding exactly the rows of
/// `x`).
fn forward(
    params: &[f32],
    (i, h, a): (usize, usize, usize),
    x: &[f32],
    hidden: &mut [f32],
    probs: &mut [f32],
) {
    let rows = x.len() / i;
    let (w1, b1, w2, b2) = split_layers(params, (i, h, a));
    gemm_nn(rows, i, h, x, w1, hidden);
    for row in hidden.chunks_exact_mut(h) {
        for (z, &b) in row.iter_mut().zip(b1) {
            *z = (*z + b).max(0.0);
        }
    }
    gemm_nn(rows, h, a, hidden, w2, probs);
    for row in probs.chunks_exact_mut(a) {
        for (z, &b) in row.iter_mut().zip(b2) {
            *z += b;
        }
        vecops::softmax_inplace(row);
    }
}

/// `W1 | b1 | W2 | b2` of a flat parameter buffer with `i` inputs, `h`
/// hidden units and `a` actions.
fn split_layers(
    params: &[f32],
    (i, h, a): (usize, usize, usize),
) -> (&[f32], &[f32], &[f32], &[f32]) {
    let (w1, rest) = params.split_at(i * h);
    let (b1, rest) = rest.split_at(h);
    let (w2, b2) = rest.split_at(h * a);
    (w1, b1, w2, b2)
}

/// Grows `buf` to at least `len` elements (never shrinks it).
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The action a uniform draw from `rng` picks under `probs` (the last one
/// when rounding leaves the cumulative sum short of the draw).
pub(crate) fn draw(probs: &[f32], rng: &mut impl Rng) -> usize {
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
            p.reinforce_update_with_entropy(&ctx, 2, 1.0, 0.0, &mut opt);
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
            p.reinforce_update_with_entropy(&ctx, 0, -1.0, 0.0, &mut opt);
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
            p.reinforce_update_with_entropy(&ctx_a, 0, 1.0, 0.0, &mut opt);
            p.reinforce_update_with_entropy(&ctx_b, 2, 1.0, 0.0, &mut opt);
        }
        assert_eq!(p.greedy(&ctx_a), 0);
        assert_eq!(p.greedy(&ctx_b), 2);
    }

    #[test]
    fn greedy_batch_matches_greedy() {
        let mut p = PolicyNetwork::new(3, 16, 3, 9);
        let b = FORWARD_BLOCK_ROWS;
        for len in [1, b - 1, b, b + 1, 3 * b + 5] {
            let contexts: Vec<f32> = (0..len)
                .flat_map(|i| [(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos(), i as f32 / 17.0])
                .collect();
            let contexts = Matrix::from_vec(len, 3, contexts);
            let batched = p.greedy_batch(&contexts);
            let single: Vec<usize> = contexts.iter_rows().map(|c| p.greedy(c)).collect();
            assert_eq!(batched, single, "{len} contexts");
        }
    }

    #[test]
    #[should_panic(expected = "context dimension mismatch")]
    fn greedy_batch_rejects_a_matrix_of_another_width() {
        let mut p = PolicyNetwork::new(3, 8, 3, 0);
        let _ = p.greedy_batch(&Matrix::zeros(3 * FORWARD_BLOCK_ROWS, 2));
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
        let lp = p.reinforce_update_with_entropy(&[0.1, 0.1], 1, 0.5, 0.0, &mut opt);
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
        a.reinforce_update_with_entropy(&[1.0, 0.0, 0.0], 1, 1.0, 0.0, &mut opt);
        assert_ne!(a.weights_le_bytes(), b.weights_le_bytes());
        // The same update applied to the twin restores byte equality.
        let mut opt_b = Sgd::new(0.1);
        b.reinforce_update_with_entropy(&[1.0, 0.0, 0.0], 1, 1.0, 0.0, &mut opt_b);
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
            p.reinforce_update_with_entropy(&ctx, 0, 1.0, 0.0, &mut opt);
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
        let _ = p.reinforce_update_with_entropy(&[0.0, 0.0], 3, 1.0, 0.0, &mut opt);
    }
}
