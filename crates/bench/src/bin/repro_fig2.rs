//! Regenerates **Fig. 2** — the adaptive model-selection policy network — as
//! a textual schematic plus a worked selection trace on real contexts.
//!
//! Run with `cargo run -p hec-bench --bin repro_fig2`.

use hec_bandit::{PolicyNetwork, PolicyTrainer, RewardModel, TrainConfig};
use hec_bench::cli::Spec;
use hec_core::static_delay_table;
use hec_sim::{DatasetKind, HecTopology};

fn main() {
    Spec { bin: "repro_fig2", usage: "usage: repro_fig2\n", values: &[], switches: &[] }
        .parse_without_positional();
    println!("== repro_fig2: adaptive model selection with a policy network ==\n");

    let mut policy = PolicyNetwork::new(4, 100, 3, 0);
    println!("policy network f_theta(.): context z_x ({} dims)", policy.input_dim());
    println!("  -> Dense(4 -> 100, ReLU)");
    println!("  -> Dense(100 -> 3, linear)");
    println!("  -> softmax  =>  pi_theta(a | z_x) over K = 3 HEC layers");
    println!("  total parameters: {}\n", policy.param_count());

    // Worked trace: train on a toy contextual problem where feature 3 (the
    // window's std) encodes hardness, then show the selection for three
    // representative contexts.
    let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
    let reward = RewardModel::new(DatasetKind::Univariate.paper_alpha());
    let contexts: Vec<Vec<f32>> = (0..60)
        .map(|i| {
            let hardness = (i % 3) as f32 / 2.0; // 0, 0.5, 1
            vec![0.0, 1.0, 0.5, hardness]
        })
        .collect();
    // Oracle: layer k is correct iff its capacity (k) covers the hardness.
    let delays = static_delay_table(&topo, 384);
    let mut reward_of = |i: usize, a: usize| -> f32 {
        let hardness = (i % 3) as f32 / 2.0;
        let capable = a as f32 / 2.0 >= hardness;
        reward.reward(capable, delays.delay_ms(a)) as f32
    };
    let mut trainer = PolicyTrainer::new(
        policy,
        TrainConfig { epochs: 60, learning_rate: 2e-3, ..Default::default() },
    );
    let curve = trainer.train(&contexts, &mut reward_of);
    policy = trainer.into_policy();

    println!("training curve (mean reward per epoch, first/mid/last):");
    let c = &curve.mean_reward_per_epoch;
    println!(
        "  epoch 1: {:.3}   epoch {}: {:.3}   epoch {}: {:.3}\n",
        c[0],
        c.len() / 2,
        c[c.len() / 2],
        c.len(),
        c[c.len() - 1]
    );

    println!("worked selection trace:");
    for (desc, hardness) in [("easy window", 0.0f32), ("medium window", 0.5), ("hard window", 1.0)]
    {
        let ctx = vec![0.0, 1.0, 0.5, hardness];
        let probs = policy.probabilities(&ctx);
        let action = policy.greedy(&ctx);
        println!(
            "  {desc:<14} z_x = {ctx:?}  pi = [{:.3}, {:.3}, {:.3}]  ->  |a| = {} ({})",
            probs[0],
            probs[1],
            probs[2],
            action,
            ["IoT", "Edge", "Cloud"][action]
        );
    }
}
