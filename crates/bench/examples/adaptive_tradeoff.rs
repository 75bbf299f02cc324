//! The accuracy–delay tradeoff knob: sweep the cost parameter α of Eq. 1 and
//! watch the learned policy slide between "everything local" and "everything
//! to the cloud" — the tuning the paper does per dataset (§III-B).
//!
//! ```text
//! cargo run --release --example adaptive_tradeoff
//! ```

use hec_bandit::TrainConfig;
use hec_core::ablation::alpha_sweep;
use hec_core::{DatasetConfig, Experiment, ExperimentConfig};
use hec_data::power::PowerConfig;

fn main() {
    let config = ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days: 300,
            samples_per_day: 48,
            anomaly_rate: 0.15,
            noise_std: 0.03,
            seed: 3,
        }),
        ad_epochs: 100,
        seed: 3,
        ..ExperimentConfig::univariate()
    };
    let payload = config.payload_bytes();
    let policy_hidden = config.policy_hidden;
    let train = TrainConfig { epochs: 30, learning_rate: 2e-3, ..Default::default() };

    let mut exp = Experiment::prepare(config);
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let train_oracle = exp.oracle_over(&policy_corpus);
    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);

    println!("alpha sweep on the univariate dataset (Eq. 1 cost):\n");
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>8}",
        "alpha", "accuracy(%)", "delay(ms)", "reward", "local(%)"
    );
    let alphas = [1e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2];
    for row in alpha_sweep(
        &train_oracle,
        &eval_oracle,
        exp.topology(),
        payload,
        &alphas,
        policy_hidden,
        train,
    ) {
        println!(
            "{:<10.0e} {:>12.2} {:>12.2} {:>9.2} {:>8.1}",
            row.alpha,
            row.accuracy_pct,
            row.mean_delay_ms,
            row.reward,
            row.local_fraction * 100.0
        );
    }
    println!(
        "\nsmall alpha: delay is nearly free, the policy chases accuracy upward;\n\
         large alpha: offloading is punished, windows stay on the IoT device.\n\
         The paper picked alpha = 5e-4 (univariate) as the sweet spot."
    );
}
