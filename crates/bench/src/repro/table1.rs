//! `repro_table1`: **Table I** — comparison among AD models: #parameters,
//! accuracy, F1-score and execution time for the three univariate
//! autoencoders and the three multivariate seq2seq models.

use std::io::{self, Write};

use hec_core::{format_table1, Experiment};

use crate::cli::{Cli, Spec};
use crate::{multivariate_config, paper, paper_table1, univariate_config, Profile};

/// The binary's command line: no argument.
pub const SPEC: Spec =
    Spec { bin: "repro_table1", usage: "usage: repro_table1\n", values: &[], switches: &[] };

/// Runs the binary, writing its stdout to `out`.
///
/// # Errors
///
/// A failed write to `out`.
pub fn run(profile: Profile, _cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== repro_table1 (profile: {profile:?}) ==\n")?;

    writeln!(out, "--- Univariate (power demand, autoencoders) ---")?;
    let mut exp = Experiment::prepare(univariate_config(profile));
    exp.train_detectors();
    let rows = exp.table1();
    writeln!(out, "{}", format_table1(&rows))?;
    writeln!(out, "{}", paper_table1(&paper::TABLE1_UNIVARIATE))?;

    writeln!(out, "--- Multivariate (MHEALTH-like, LSTM seq2seq) ---")?;
    let mut exp = Experiment::prepare(multivariate_config(profile));
    exp.train_detectors();
    let rows = exp.table1();
    writeln!(out, "{}", format_table1(&rows))?;
    writeln!(out, "{}", paper_table1(&paper::TABLE1_MULTIVARIATE))?;

    writeln!(
        out,
        "note: absolute #parameters/accuracies differ from the paper because the\n\
         datasets are synthetic substitutes and the models are sized for them; the\n\
         ladder (params/accuracy up, exec time down from IoT to Cloud) is the\n\
         reproduced claim. Exec times are the testbed-calibrated delay model;\n\
         this Rust implementation's own inference times are measured by the\n\
         `perf` benchmark (`anomaly.detect.ns_per_window`)."
    )
}
