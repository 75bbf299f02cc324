//! Allocation accounting for the policy network's one-window paths: a
//! warmed `sample` / `greedy` and a warmed REINFORCE update (with and
//! without the entropy bonus) perform **zero** heap allocations — the
//! context row, the activations, the probabilities and the gradients all
//! live in the network (proved with a counting global allocator). The same
//! for the trainer around it: a warmed `PolicyTrainer::step` (one forward)
//! and a warmed `sample_action` + `observe` (the in-fleet pair, two), with
//! Adam's slot state grown. A warmed `greedy_batch` over several blocks of
//! contexts allocates its result vector and nothing else (a warmed
//! `probabilities_batch` its result matrix), and leaves the one-window
//! paths allocation-free; a warmed chunk of `draw_action` + `buffer` and
//! its `refresh` allocate nothing.
//!
//! One `#[test]`, so no concurrent test can disturb the global counter.

use hec_bandit::{PolicyNetwork, PolicyTrainer, TrainConfig};
use hec_nn::RmsProp;
use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn one_window_policy_paths_are_allocation_free() {
    let mut policy = PolicyNetwork::new(4, 100, 3, 7);
    let mut opt = RmsProp::new(1e-3);
    let mut rng = StdRng::seed_from_u64(1);
    let contexts = [[0.1f32, -0.4, 0.9, 0.0], [1.2, 0.3, -0.7, 0.5]];
    let mut step = |policy: &mut PolicyNetwork, i: usize| {
        let ctx = &contexts[i % 2];
        let action = policy.sample(ctx, &mut rng);
        policy.reinforce_update_with_entropy(ctx, action, 0.5, 0.0, &mut opt);
        let greedy = policy.greedy(ctx);
        policy.reinforce_update_with_entropy(ctx, greedy, -0.25, 0.01, &mut opt);
    };
    step(&mut policy, 0); // warmup: workspace and optimizer state grow here
    assert_eq!(
        allocations_of(|i| step(&mut policy, i)),
        0,
        "warmed sample/greedy/reinforce_update_with_entropy allocated"
    );

    // 197 contexts: three full blocks of the batched forward and a partial one.
    let corpus: Vec<f32> =
        (0..197).flat_map(|i| contexts[i % 2].map(|x| x * (i as f32 / 50.0))).collect();
    let corpus = Matrix::from_vec(197, 4, corpus);
    let batch = |policy: &mut PolicyNetwork, i: usize| {
        assert_eq!(policy.greedy_batch(&corpus).len(), corpus.rows());
        policy.greedy(&contexts[i % 2]);
    };
    batch(&mut policy, 0);
    assert_eq!(
        allocations_of(|i| batch(&mut policy, i)),
        32,
        "a warmed greedy_batch allocated more than its result vector"
    );
    assert_eq!(
        allocations_of(|_| drop(policy.probabilities_batch(&corpus))),
        32,
        "a warmed probabilities_batch allocated more than its result matrix"
    );

    let config = TrainConfig { entropy_beta: 0.01, ..Default::default() };
    let mut trainer = PolicyTrainer::new(PolicyNetwork::new(4, 100, 3, 7), config);
    let step = |trainer: &mut PolicyTrainer, i: usize| {
        let ctx = &contexts[i % 2];
        trainer.step(ctx, &mut |action| action as f32 - 1.0);
        let action = trainer.sample_action(ctx);
        trainer.observe(ctx, action, 0.5);
    };
    step(&mut trainer, 0);
    assert_eq!(
        allocations_of(|i| step(&mut trainer, i)),
        0,
        "warmed PolicyTrainer::step / sample_action + observe allocated"
    );

    // The continual pair: a chunk of contexts buffered with actions drawn
    // from their π rows, then refreshed. The buffer keeps its capacity.
    let probs = trainer.policy_mut().probabilities_batch(&corpus);
    let chunk = |trainer: &mut PolicyTrainer, i: usize| {
        for (row, pi) in corpus.iter_rows().zip(probs.iter_rows()).skip(i).take(50) {
            let action = trainer.draw_action(pi);
            trainer.buffer(row, action, 0.25);
        }
        assert_eq!(trainer.refresh(), 50);
    };
    chunk(&mut trainer, 0);
    assert_eq!(
        allocations_of(|i| chunk(&mut trainer, i)),
        0,
        "a warmed buffer + refresh allocated"
    );
}

/// Heap allocations of 32 calls of `window`. The harness occasionally
/// allocates from another thread mid-run; a path that really allocated
/// would dirty every attempt, so the cleanest of five counts.
fn allocations_of(mut window: impl FnMut(usize)) -> usize {
    let mut fewest = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for i in 0..32 {
            window(i);
        }
        fewest = fewest.min(allocations() - before);
        if fewest == 0 {
            break;
        }
    }
    fewest
}
