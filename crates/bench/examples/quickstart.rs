//! Quickstart: train the univariate catalog, train the bandit policy, and
//! compare all five schemes — the whole paper in one small binary.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hec_core::{format_table1, format_table2, DatasetConfig, Experiment, ExperimentConfig};
use hec_data::power::PowerConfig;

fn main() {
    // A mid-sized configuration that finishes in seconds in release mode.
    let config = ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days: 300,
            samples_per_day: 48,
            anomaly_rate: 0.12,
            noise_std: 0.03,
            seed: 1,
        }),
        ad_epochs: 100,
        seed: 1,
        ..ExperimentConfig::univariate()
    };

    println!("running the full pipeline: generate -> split -> train 3 AD models");
    println!("-> calibrate logPD scorers -> train policy network -> evaluate\n");

    let report = Experiment::run(config);

    println!("{}", format_table1(&report.table1));
    println!("{}", format_table2(&report.table2));
    println!(
        "adaptive action histogram (IoT/Edge/Cloud): {:?} over {} windows",
        report.adaptive_actions, report.eval_windows
    );
    let curve = &report.training_curve.mean_reward_per_epoch;
    println!(
        "policy training: mean reward epoch 1 = {:.3}, final = {:.3}",
        curve[0],
        report.training_curve.final_reward()
    );
}
