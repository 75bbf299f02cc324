//! The `demo_panel` example: a terminal rendition of the paper's demo GUI
//! (Fig. 3). Streams the test corpus through the trained policy, prints
//! the live panel rows (outcome vs truth, delay vs action, cumulative
//! accuracy/F1) and a final summary. Each row's delay is the testbed's
//! end-to-end delay to the chosen layer (transfer over the emulated WAN
//! plus execution there).

use std::io::{self, Write};

use hec_bandit::RewardModel;
use hec_core::stream::stream_records;
use hec_core::{DatasetConfig, Experiment, ExperimentConfig, SchemeEvaluator, SchemeKind};
use hec_data::power::PowerConfig;

use crate::cli::{Cli, Spec};
use crate::Profile;

/// The example's command line: no argument.
pub const SPEC: Spec =
    Spec { bin: "demo_panel", usage: "usage: demo_panel\n", values: &[], switches: &[] };

/// Runs the example, writing its stdout to `out`. The example sets its
/// own sizes, so the profile does not reach it.
///
/// # Errors
///
/// A failed write to `out`.
pub fn run(_profile: Profile, _cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
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

    writeln!(out, "┌──────┬───────┬──────┬────────┬───────────┬─────────┬────────┐")?;
    writeln!(out, "│  #   │ truth │ pred │ action │ delay(ms) │ cum.acc │ cum.F1 │")?;
    writeln!(out, "├──────┼───────┼──────┼────────┼───────────┼─────────┼────────┤")?;
    for r in records.iter().take(25) {
        writeln!(
            out,
            "│ {:>4} │   {}   │  {}   │ {:<6} │ {:>9.1} │  {:>5.3}  │ {:>5.3}  │",
            r.index,
            r.truth as u8,
            r.predicted as u8,
            ["IoT", "Edge", "Cloud"][r.action],
            r.delay_ms,
            r.cumulative_accuracy,
            r.cumulative_f1
        )?;
    }
    writeln!(out, "└──────┴───────┴──────┴────────┴───────────┴─────────┴────────┘")?;
    if records.len() > 25 {
        writeln!(out, "… {} more rows", records.len() - 25)?;
    }

    let last = records.last().expect("non-empty stream");
    let mean_delay: f64 = records.iter().map(|r| r.delay_ms).sum::<f64>() / records.len() as f64;
    let mut hist = [0usize; 3];
    for r in &records {
        hist[r.action] += 1;
    }
    writeln!(
        out,
        "\nfinal: accuracy {:.2}%  f1 {:.3}  mean delay {:.1} ms",
        last.cumulative_accuracy * 100.0,
        last.cumulative_f1,
        mean_delay
    )?;
    writeln!(out, "actions: IoT {} / Edge {} / Cloud {}", hist[0], hist[1], hist[2])
}
