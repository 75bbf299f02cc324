//! Regenerates **Fig. 3b** — the demo result panel: detection outcome vs
//! ground truth, detection delay vs policy actions, and cumulative
//! accuracy/F1, streamed over the evaluation corpus.
//!
//! Prints a textual summary and, when an output directory is given as the
//! first argument, writes one CSV per scheme:
//!
//! ```text
//! cargo run --release -p hec-bench --bin repro_fig3 -- out/
//! ```

use hec_bandit::RewardModel;
use hec_bench::cli::Spec;
use hec_bench::{univariate_config, Profile};
use hec_core::stream::{stream_records, to_csv};
use hec_core::{Experiment, SchemeEvaluator, SchemeKind};

fn main() {
    let cli = Spec {
        bin: "repro_fig3",
        usage: "usage: repro_fig3 [out_dir]\n",
        values: &[],
        switches: &[],
    }
    .parse();
    let out_dir = cli.positional();
    let profile = Profile::from_env();
    println!("== repro_fig3 (profile: {profile:?}) ==\n");

    let config = univariate_config(profile);
    let payload = config.payload_bytes();
    let alpha = config.dataset.kind().paper_alpha();
    let mut exp = Experiment::prepare(config);
    exp.train_detectors();

    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut policy, scaler, _) = exp.train_policy(&policy_oracle);

    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);
    let ev = SchemeEvaluator::new(exp.topology(), payload, RewardModel::new(alpha));

    for kind in SchemeKind::ALL {
        let records = match kind {
            SchemeKind::Adaptive => {
                stream_records(&ev, &eval_oracle, kind, Some(&mut policy), Some(&scaler))
            }
            _ => stream_records(&ev, &eval_oracle, kind, None, None),
        };
        let last = records.last().expect("non-empty corpus");
        let mean_delay: f64 =
            records.iter().map(|r| r.delay_ms).sum::<f64>() / records.len() as f64;
        println!(
            "{:<12} windows={:<5} final acc={:.4} final f1={:.4} mean delay={:.2} ms",
            kind.to_string(),
            records.len(),
            last.cumulative_accuracy,
            last.cumulative_f1,
            mean_delay
        );
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path =
                format!("{dir}/fig3_{}.csv", kind.to_string().to_lowercase().replace(' ', "_"));
            std::fs::write(&path, to_csv(&records)).expect("write CSV");
            println!("  wrote {path}");
        }
    }
    println!(
        "\nEach CSV column maps to a Fig. 3b panel: predicted vs truth (detection\n\
         outcome plot), delay_ms + action (delay-vs-action plot), and the\n\
         cumulative accuracy / F1 series."
    );
}
