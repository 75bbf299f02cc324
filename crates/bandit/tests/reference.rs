//! `PolicyNetwork` against the policy it replaced, bit for bit.
//!
//! The library keeps the policy's four tensors in one flat buffer, writes
//! its REINFORCE gradient element by element and steps the optimizer once
//! per update. [`SequentialPolicy`] below is the network as it was before:
//! a `Sequential` of two `Dense` layers that stages each gradient product,
//! accumulates it into zeroed gradients, and steps the optimizer once per
//! tensor. Not a model to copy from.
//!
//! Both are built from the same seed and fed the same stream — random
//! contexts (exact zeros and large magnitudes among them, so hidden units
//! die and the softmax saturates), random actions, random advantages
//! (`±0` among them) — and must agree **by `to_bits`** on the returned
//! `log π`, on `π` itself, on every weight and on `Adam`'s moments after
//! every update, with `entropy_beta` ∈ {0, 0.08}, under `Sgd` and `Adam`.
//! The long runs cross `Adam`'s step 17 321, where `1 − β₂ᵗ` rounds to
//! `1.0` and its division is skipped. `greedy_batch` must pick the
//! referee's per-context argmax.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hec_bandit::PolicyNetwork;
use hec_nn::{Activation, Adam, Dense, Optimizer, PingPong, Sequential, Sgd};
use hec_tensor::{math, vecops, Matrix};

/// The policy network before the flat rebuild: a `Sequential` stack.
struct SequentialPolicy {
    net: Sequential,
    context_row: Matrix,
    acts: PingPong,
    probs: Matrix,
}

impl SequentialPolicy {
    fn new(input_dim: usize, hidden: usize, num_actions: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Box::new(Dense::new_he(&mut rng, input_dim, hidden, Activation::Relu)),
            Box::new(Dense::new(&mut rng, hidden, num_actions, Activation::Linear)),
        ]);
        Self {
            net,
            context_row: Matrix::zeros(1, input_dim),
            acts: PingPong::new(),
            probs: Matrix::zeros(1, num_actions),
        }
    }

    fn probabilities(&mut self, context: &[f32]) -> Vec<f32> {
        self.context_row.as_mut_slice().copy_from_slice(context);
        self.probs.copy_from(self.net.infer(&self.context_row, &mut self.acts));
        vecops::softmax_inplace(self.probs.as_mut_slice());
        self.probs.as_slice().to_vec()
    }

    fn reinforce_update_with_entropy(
        &mut self,
        context: &[f32],
        action: usize,
        advantage: f32,
        entropy_beta: f32,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        self.context_row.as_mut_slice().copy_from_slice(context);
        self.probs.copy_from(self.net.forward_training(&self.context_row));
        vecops::softmax_inplace(self.probs.as_mut_slice());
        let probs = self.probs.as_mut_slice();
        let log_prob = math::ln(probs[action].max(1e-12));
        let entropy: f32 = if entropy_beta > 0.0 {
            -probs.iter().map(|&p| p * math::ln(p.max(1e-12))).sum::<f32>()
        } else {
            0.0
        };
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
        math::flush_subnormal_slice(probs);
        self.net.backward(&self.probs, false);
        self.net.apply_gradients(optimizer);
        log_prob
    }

    /// Reads the weights through an optimizer that moves nothing:
    /// `apply_gradients` hands it every parameter in order, then zeroes
    /// gradients that every update has already zeroed.
    fn weight_bits(&mut self) -> Vec<u32> {
        struct Read(Vec<u32>);
        impl Optimizer for Read {
            fn step(&mut self, _slot: usize, param: &mut Matrix, _grad: &Matrix) {
                self.0.extend(param.as_slice().iter().map(|w| w.to_bits()));
            }
        }
        let mut read = Read(Vec::new());
        self.net.apply_gradients(&mut read);
        read.0
    }
}

fn weight_bits(policy: &PolicyNetwork) -> Vec<u32> {
    let bytes = policy.weights_le_bytes();
    bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Context `update` of `dim` features: noise around a centre four units
/// out on every axis, whose signs change every 2 500 updates — a unit the
/// centre puts below zero stays dead until the next change — with some
/// exact zeros and some outliers.
fn random_context(rng: &mut StdRng, dim: usize, update: usize) -> Vec<f32> {
    let phase = update / 2_500;
    (0..dim)
        .map(|f| {
            let centre: f32 = if (f * 7 + phase * 3) % 5 < 2 { -4.0 } else { 4.0 };
            match rng.gen_range(0..10) {
                0 => 0.0,
                1 => rng.gen_range(-8.0..8.0),
                _ => centre + rng.gen_range(-1.0f32..1.0),
            }
        })
        .collect()
}

/// An advantage: mostly moderate, sometimes `+0`/`−0`, sometimes large.
fn random_advantage(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen_range(-6.0..6.0),
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// An optimizer whose state the comparison reads as well as the weights:
/// the moments of `Adam`'s slots in `slots`, every `m` then every `v`;
/// nothing for `Sgd`. The weights alone would miss a gradient that differs
/// only in the sign of a zero: that can flip a moment's zero, which then
/// moves no weight.
trait Stateful: Optimizer {
    fn state_bits(&self, slots: Range<usize>) -> Vec<u32>;
}

impl Stateful for Sgd {
    fn state_bits(&self, _slots: Range<usize>) -> Vec<u32> {
        Vec::new()
    }
}

impl Stateful for Adam {
    fn state_bits(&self, slots: Range<usize>) -> Vec<u32> {
        let (mut m, mut v) = (Vec::new(), Vec::new());
        for slot in slots {
            let (ms, vs) = self.moments(slot).expect("every slot is stepped by an update");
            m.extend(bits(ms.as_slice()));
            v.extend(bits(vs.as_slice()));
        }
        m.extend(v);
        m
    }
}

/// `updates` random REINFORCE updates on the library and the referee, each
/// with its own optimizer from `make`, compared after each one. The
/// library steps one slot an update, the referee four.
fn run<O: Stateful>(
    (input_dim, hidden, num_actions): (usize, usize, usize),
    entropy_beta: f32,
    make: impl Fn() -> O,
    updates: usize,
    seed: u64,
) {
    let (mut lib_opt, mut ref_opt) = (make(), make());
    let mut policy = PolicyNetwork::new(input_dim, hidden, num_actions, seed);
    let mut referee = SequentialPolicy::new(input_dim, hidden, num_actions, seed);
    let what = format!("{input_dim} → {hidden} → {num_actions}, β = {entropy_beta}");
    assert_eq!(weight_bits(&policy), referee.weight_bits(), "{what}: initial weights");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for update in 0..updates {
        let context = random_context(&mut rng, input_dim, update);
        let action = rng.gen_range(0..num_actions);
        let advantage = random_advantage(&mut rng);
        assert_eq!(
            bits(&policy.probabilities(&context)),
            bits(&referee.probabilities(&context)),
            "{what}: π before update {update}"
        );
        let got = policy.reinforce_update_with_entropy(
            &context,
            action,
            advantage,
            entropy_beta,
            &mut lib_opt,
        );
        let want = referee.reinforce_update_with_entropy(
            &context,
            action,
            advantage,
            entropy_beta,
            &mut ref_opt,
        );
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: log π of update {update}");
        assert_eq!(weight_bits(&policy), referee.weight_bits(), "{what}: after update {update}");
        assert_eq!(
            lib_opt.state_bits(0..1),
            ref_opt.state_bits(0..4),
            "{what}: optimizer state after update {update}"
        );
    }
}

#[test]
fn flat_update_equals_the_sequential_stack_under_sgd() {
    for shape in [(4, 100, 3), (9, 100, 3), (68, 100, 3), (3, 17, 4)] {
        for beta in [0.0, 0.08] {
            run(shape, beta, || Sgd::new(0.05), 1_500, 11);
        }
    }
}

#[test]
fn flat_update_equals_the_sequential_stack_under_adam() {
    for shape in [(68, 100, 3), (3, 17, 4)] {
        for beta in [0.0, 0.08] {
            run(shape, beta, || Adam::new(1e-2), 2_000, 12);
        }
    }
}

/// Past Adam's step 17 321, where `(1 − β₁ᵗ, 1 − β₂ᵗ)` becomes `(1, 1)`,
/// at the univariate and the in-fleet-like context widths.
#[test]
fn flat_update_equals_the_sequential_stack_past_adams_last_bias_switch() {
    for shape in [(4, 100, 3), (9, 100, 3)] {
        for beta in [0.0, 0.08] {
            run(shape, beta, || Adam::new(2e-3), 17_500, 13);
        }
    }
}

/// `greedy_batch`'s blocks of 64 against the referee's one-row forwards,
/// before and after training.
#[test]
fn greedy_batch_picks_the_referees_argmax() {
    let (input_dim, hidden, num_actions) = (9, 100, 3);
    let mut policy = PolicyNetwork::new(input_dim, hidden, num_actions, 21);
    let mut referee = SequentialPolicy::new(input_dim, hidden, num_actions, 21);
    let mut rng = StdRng::seed_from_u64(22);
    let corpus: Vec<Vec<f32>> =
        (0..197).map(|i| random_context(&mut rng, input_dim, i * 50)).collect();
    let rows = Matrix::from_vec(corpus.len(), input_dim, corpus.concat());
    let (mut lib_opt, mut ref_opt) = (Adam::new(1e-2), Adam::new(1e-2));
    for round in 0..3 {
        let want: Vec<usize> =
            corpus.iter().map(|c| vecops::argmax(&referee.probabilities(c))).collect();
        assert_eq!(policy.greedy_batch(&rows), want, "round {round}");
        for (i, context) in corpus.iter().enumerate() {
            let (action, advantage) = (i % num_actions, random_advantage(&mut rng));
            policy.reinforce_update_with_entropy(context, action, advantage, 0.0, &mut lib_opt);
            referee.reinforce_update_with_entropy(context, action, advantage, 0.0, &mut ref_opt);
        }
    }
}
