//! The licence for drawing an action from a batched `π` row: every row of
//! `PolicyNetwork::probabilities_batch` is `probabilities` of that context
//! alone, by `to_bits`, wherever the row sits in its 64-row block and
//! whether or not the last block is partial — and `greedy_batch` is the
//! argmax of those rows. The adaptation loop draws its shadow actions from
//! these rows with the trainer's generator; this is why they are the
//! actions a one-row `sample_action` per window would draw.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hec_bandit::PolicyNetwork;
use hec_nn::Sgd;
use hec_tensor::{vecops, Matrix};

/// Rows per block of the batched forward.
const BLOCK: usize = 64;

/// A policy with random weights: seeded initial weights, then a few
/// REINFORCE updates so the biases are not all zero.
fn policy(seed: u64, (input, hidden, actions): (usize, usize, usize)) -> PolicyNetwork {
    let mut policy = PolicyNetwork::new(input, hidden, actions, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut opt = Sgd::new(0.05);
    for _ in 0..rng.gen_range(0..6) {
        let context = random_rows(&mut rng, 1, input);
        let action = rng.gen_range(0..actions);
        policy.reinforce_update_with_entropy(
            context.row(0),
            action,
            rng.gen_range(-2.0..2.0),
            0.0,
            &mut opt,
        );
    }
    policy
}

/// `rows` random contexts, `dim` wide: mostly unit-scale, some zeros and
/// some large values.
fn random_rows(rng: &mut StdRng, rows: usize, dim: usize) -> Matrix {
    let data = (0..rows * dim)
        .map(|_| match rng.gen_range(0..10) {
            0 => 0.0,
            1 => rng.gen_range(-40.0f32..40.0),
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Matrix::from_vec(rows, dim, data)
}

/// Every batched row against the one-row forward, and the greedy table
/// against the rows' argmax.
fn assert_rows_are_the_one_row_forwards(policy: &mut PolicyNetwork, contexts: &Matrix) {
    let batched = policy.probabilities_batch(contexts);
    assert_eq!(batched.shape(), (contexts.rows(), policy.num_actions()));
    for (r, (context, row)) in contexts.iter_rows().zip(batched.iter_rows()).enumerate() {
        let alone = policy.probabilities(context);
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(row), bits(&alone), "row {r} (position {} of its block)", r % BLOCK);
    }
    let argmax: Vec<usize> = batched.iter_rows().map(vecops::argmax).collect();
    assert_eq!(policy.greedy_batch(contexts), argmax);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_rows_carry_the_one_row_forwards_bits(
        seed in any::<u64>(),
        input in 1usize..12,
        hidden in 1usize..130,
        actions in 2usize..5,
        rows in 1usize..201,
        whole_blocks in any::<bool>(),
    ) {
        // Half the cases end on a full block (64, 128 or 192 rows).
        let rows = if whole_blocks { (rows % 3 + 1) * BLOCK } else { rows };
        let mut policy = policy(seed, (input, hidden, actions));
        let contexts = random_rows(&mut StdRng::seed_from_u64(seed.rotate_left(17)), rows, input);
        assert_rows_are_the_one_row_forwards(&mut policy, &contexts);
    }
}

/// One context at each of the 64 positions of a block (and of a partial
/// last block), at the paper's univariate and in-fleet widths.
#[test]
fn one_context_at_every_position_of_a_block() {
    for (seed, shape) in [(3, (4, 100, 3)), (4, (10, 100, 3)), (5, (68, 100, 3))] {
        let mut policy = policy(seed, shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let probe = random_rows(&mut rng, 1, shape.0);
        let alone: Vec<u32> =
            policy.probabilities(probe.row(0)).iter().map(|x| x.to_bits()).collect();
        for rows in [BLOCK, BLOCK + 37] {
            for position in 0..rows {
                let mut contexts = random_rows(&mut rng, rows, shape.0);
                contexts.row_mut(position).copy_from_slice(probe.row(0));
                let batched = policy.probabilities_batch(&contexts);
                let got: Vec<u32> = batched.row(position).iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, alone, "{shape:?}: position {position} of {rows} rows");
            }
        }
        assert_rows_are_the_one_row_forwards(
            &mut policy,
            &random_rows(&mut rng, 3 * BLOCK + 5, shape.0),
        );
    }
}
