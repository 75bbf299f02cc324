//! `repro_fig3`: **Fig. 3b** — the demo result panel: detection outcome vs
//! ground truth, detection delay vs policy actions, and cumulative
//! accuracy/F1, streamed over the evaluation corpus.
//!
//! Prints a textual summary and, when an output directory is given as the
//! positional argument, writes one CSV per scheme there.

use std::io::{self, Write};

use hec_bandit::RewardModel;
use hec_core::stream::{stream_records, to_csv};
use hec_core::{Experiment, SchemeEvaluator, SchemeKind};

use crate::cli::{Cli, Spec};
use crate::{univariate_config, Profile};

/// The binary's command line: an optional CSV directory.
pub const SPEC: Spec =
    Spec { bin: "repro_fig3", usage: "usage: repro_fig3 [out_dir]\n", values: &[], switches: &[] };

/// Runs the binary, writing its stdout to `out` and, given a positional
/// directory, `fig3_<scheme>.csv` into it.
///
/// # Errors
///
/// A failed write to `out` or to a CSV.
pub fn run(profile: Profile, cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
    let out_dir = cli.positional();
    writeln!(out, "== repro_fig3 (profile: {profile:?}) ==\n")?;

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
        writeln!(
            out,
            "{:<12} windows={:<5} final acc={:.4} final f1={:.4} mean delay={:.2} ms",
            kind.to_string(),
            records.len(),
            last.cumulative_accuracy,
            last.cumulative_f1,
            mean_delay
        )?;
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir)?;
            let path =
                format!("{dir}/fig3_{}.csv", kind.to_string().to_lowercase().replace(' ', "_"));
            std::fs::write(&path, to_csv(&records))?;
            writeln!(out, "  wrote {path}")?;
        }
    }
    writeln!(
        out,
        "\nEach CSV column maps to a Fig. 3b panel: predicted vs truth (detection\n\
         outcome plot), delay_ms + action (delay-vs-action plot), and the\n\
         cumulative accuracy / F1 series."
    )
}
