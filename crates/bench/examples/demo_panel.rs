//! A terminal rendition of the paper's demo GUI (Fig. 3): stream the test
//! corpus through the trained policy, print the live panel rows (outcome
//! vs truth, delay vs action, cumulative accuracy/F1) and a final summary.
//! Each row's delay is the testbed's end-to-end delay to the chosen layer
//! (transfer over the emulated WAN plus execution there).
//!
//! ```text
//! cargo run --release --example demo_panel
//! ```

use hec_bandit::RewardModel;
use hec_core::stream::stream_records;
use hec_core::{DatasetConfig, Experiment, ExperimentConfig, SchemeEvaluator, SchemeKind};
use hec_data::power::PowerConfig;

fn main() {
    let config = ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days: 200,
            samples_per_day: 48,
            anomaly_rate: 0.15,
            noise_std: 0.03,
            seed: 9,
        }),
        ad_epochs: 100,
        seed: 9,
        ..ExperimentConfig::univariate()
    };
    let payload = config.payload_bytes();
    let alpha = config.dataset.kind().paper_alpha();

    let mut exp = Experiment::prepare(config);
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut policy, scaler, _) = exp.train_policy(&policy_oracle);

    let eval_corpus = exp.split.ad_test.clone();
    let oracle = exp.oracle_over(&eval_corpus);
    let ev = SchemeEvaluator::new(exp.topology(), payload, RewardModel::new(alpha));
    let records =
        stream_records(&ev, &oracle, SchemeKind::Adaptive, Some(&mut policy), Some(&scaler));

    println!("┌──────┬───────┬──────┬────────┬───────────┬─────────┬────────┐");
    println!("│  #   │ truth │ pred │ action │ delay(ms) │ cum.acc │ cum.F1 │");
    println!("├──────┼───────┼──────┼────────┼───────────┼─────────┼────────┤");
    for r in records.iter().take(25) {
        println!(
            "│ {:>4} │   {}   │  {}   │ {:<6} │ {:>9.1} │  {:>5.3}  │ {:>5.3}  │",
            r.index,
            r.truth as u8,
            r.predicted as u8,
            ["IoT", "Edge", "Cloud"][r.action],
            r.delay_ms,
            r.cumulative_accuracy,
            r.cumulative_f1
        );
    }
    println!("└──────┴───────┴──────┴────────┴───────────┴─────────┴────────┘");
    if records.len() > 25 {
        println!("… {} more rows", records.len() - 25);
    }

    let last = records.last().expect("non-empty stream");
    let mean_delay: f64 = records.iter().map(|r| r.delay_ms).sum::<f64>() / records.len() as f64;
    let mut hist = [0usize; 3];
    for r in &records {
        hist[r.action] += 1;
    }
    println!(
        "\nfinal: accuracy {:.2}%  f1 {:.3}  mean delay {:.1} ms",
        last.cumulative_accuracy * 100.0,
        last.cumulative_f1,
        mean_delay
    );
    println!("actions: IoT {} / Edge {} / Cloud {}", hist[0], hist[1], hist[2]);
}
