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
//!   is held to that in `hec-nn`'s `optim_reference.rs`).

use hec_bandit::{PolicyNetwork, PolicyTrainer, TrainConfig};

const UPDATES: usize = 20_000;

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

    let subnormal = weights
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .filter(|w| w.is_subnormal())
        .count();
    assert_eq!(subnormal, 0, "{subnormal} of {} weights are subnormal", weights.len() / 4);
}
