//! 20 000 entropy-regularised REINFORCE updates on a stream that kills
//! hidden units — large contexts, a learning rate that walks ReLU
//! pre-activations below zero for good, rewards that saturate the softmax:
//! the regime in which the in-fleet trainer's Adam moments used to fill up
//! with subnormals. Two facts are held here:
//!
//! * the single-forward `PolicyTrainer::step` leaves the weights
//!   **byte-identical** to `sample_action` + `observe` (two forwards) on a
//!   twin trainer, all the way through;
//! * no trained weight is subnormal at the end (the optimizer's own state
//!   is held to that in `hec-nn`'s `optim_reference.rs`);
//! * the trained weights themselves are pinned by an FNV-1a digest of
//!   `weights_le_bytes`, here, at the in-fleet shape (10 load-aware
//!   inputs, 1 403 parameters, `lr = 2e-3`, `β = 0.08`) and at the
//!   multivariate static shape (68 inputs, 7 203 parameters, `lr = 2e-3`,
//!   `β = 0`): an optimizer or kernel change that is meant to move no bit
//!   must leave all three as they are.

use hec_bandit::{PolicyNetwork, PolicyTrainer, TrainConfig};

const UPDATES: usize = 20_000;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Contexts far from the origin that drift as the stream goes on, so units
/// that fire early stop firing later.
fn context(i: usize) -> [f32; 4] {
    let phase = (i / 2_500) as f32;
    let wobble = (i % 7) as f32 * 0.25;
    [3.0 - phase, wobble - 2.0, 0.5 * phase, if i.is_multiple_of(2) { 4.0 } else { -4.0 }]
}

/// Action 2 always pays, the others cost: the softmax saturates against
/// the entropy bonus.
fn reward(action: usize) -> f32 {
    if action == 2 {
        1.0
    } else {
        -0.5
    }
}

#[test]
fn single_forward_step_matches_its_two_halves_and_leaves_no_subnormal_weight() {
    let config =
        TrainConfig { learning_rate: 1e-2, entropy_beta: 0.08, seed: 3, ..Default::default() };
    let mut stepped = PolicyTrainer::new(PolicyNetwork::new(4, 100, 3, 5), config);
    let mut halves = PolicyTrainer::new(PolicyNetwork::new(4, 100, 3, 5), config);
    for i in 0..UPDATES {
        let ctx = context(i);
        let (action, r) = stepped.step(&ctx, &mut reward);
        let twin_action = halves.sample_action(&ctx);
        halves.observe(&ctx, twin_action, reward(twin_action));
        assert_eq!((action, r), (twin_action, reward(twin_action)), "update {i}");
    }
    let weights = stepped.policy_mut().weights_le_bytes();
    assert_eq!(weights, halves.policy_mut().weights_le_bytes(), "step != sample_action + observe");
    assert_eq!(fnv1a(&weights), WEIGHTS_4_100_3, "trained weights moved");

    let subnormal = weights
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .filter(|w| w.is_subnormal())
        .count();
    assert_eq!(subnormal, 0, "{subnormal} of {} weights are subnormal", weights.len() / 4);
}

/// The in-fleet trainer's shape: the four contexts above plus six
/// load-like features in `[0, 1]` that fill and drain with the stream.
fn fleet_context(i: usize) -> [f32; 10] {
    let [a, b, c, d] = context(i);
    let load = |k: usize| ((i / 500 + 3 * k) % 11) as f32 / 10.0;
    [a, b, c, d, load(0), load(1), load(2), load(3), load(4), load(5)]
}

/// `weights_le_bytes` after the 20 000 updates of the test above,
/// recorded before `Adam` skipped any product.
const WEIGHTS_4_100_3: u64 = 0xb7216d19ba0daed9;
/// The same at the in-fleet shape.
const WEIGHTS_10_100_3: u64 = 0x33b7fdd4a856169e;
/// The same at the multivariate static shape, after the 4 000 updates of
/// its test; recorded on the policy's `Sequential` stack, before the flat
/// parameter buffer.
const WEIGHTS_68_100_3: u64 = 0xfcb58f41813fc103;

#[test]
fn in_fleet_shape_trains_to_the_pinned_weights() {
    let config =
        TrainConfig { learning_rate: 2e-3, entropy_beta: 0.08, seed: 3, ..Default::default() };
    let mut trainer = PolicyTrainer::new(PolicyNetwork::new(10, 100, 3, 5), config);
    for i in 0..UPDATES {
        trainer.step(&fleet_context(i), &mut reward);
    }
    let weights = trainer.policy_mut().weights_le_bytes();
    assert_eq!(weights.len(), 4 * 1_403);
    assert_eq!(fnv1a(&weights), WEIGHTS_10_100_3, "trained weights moved");
}

/// The multivariate static policy's shape: 68 features, the four contexts
/// above repeated at 17 scales with a slow per-feature drift.
fn multivariate_context(i: usize) -> [f32; 68] {
    let base = context(i);
    std::array::from_fn(|f| {
        let scale = 0.25 + (f / 4) as f32 * 0.125;
        base[f % 4] * scale + ((i / 250 + f) % 9) as f32 * 0.05
    })
}

#[test]
fn multivariate_static_shape_trains_to_the_pinned_weights() {
    let config =
        TrainConfig { learning_rate: 2e-3, entropy_beta: 0.0, seed: 3, ..Default::default() };
    let mut trainer = PolicyTrainer::new(PolicyNetwork::new(68, 100, 3, 5), config);
    for i in 0..4_000 {
        trainer.step(&multivariate_context(i), &mut reward);
    }
    let weights = trainer.policy_mut().weights_le_bytes();
    assert_eq!(weights.len(), 4 * 7_203);
    let digest = fnv1a(&weights);
    assert_eq!(digest, WEIGHTS_68_100_3, "trained weights moved: {digest:#018x}");
}
