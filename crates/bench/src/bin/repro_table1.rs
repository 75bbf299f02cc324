//! Regenerates **Table I** — comparison among AD models: #parameters,
//! accuracy, F1-score and execution time for the three univariate
//! autoencoders and the three multivariate seq2seq models.
//!
//! Run with `cargo run --release -p hec-bench --bin repro_table1`
//! (`HEC_PROFILE=quick` for a fast smoke run).

use hec_bench::cli::Spec;
use hec_bench::{multivariate_config, paper, paper_table1, univariate_config, Profile};
use hec_core::{format_table1, Experiment};

fn main() {
    Spec { bin: "repro_table1", usage: "usage: repro_table1\n", values: &[], switches: &[] }
        .parse_without_positional();
    let profile = Profile::from_env();
    println!("== repro_table1 (profile: {profile:?}) ==\n");

    println!("--- Univariate (power demand, autoencoders) ---");
    let mut exp = Experiment::prepare(univariate_config(profile));
    exp.train_detectors();
    let rows = exp.table1();
    println!("{}", format_table1(&rows));
    println!("{}", paper_table1(&paper::TABLE1_UNIVARIATE));

    println!("--- Multivariate (MHEALTH-like, LSTM seq2seq) ---");
    let mut exp = Experiment::prepare(multivariate_config(profile));
    exp.train_detectors();
    let rows = exp.table1();
    println!("{}", format_table1(&rows));
    println!("{}", paper_table1(&paper::TABLE1_MULTIVARIATE));

    println!(
        "note: absolute #parameters/accuracies differ from the paper because the\n\
         datasets are synthetic substitutes and the models are sized for them; the\n\
         ladder (params/accuracy up, exec time down from IoT to Cloud) is the\n\
         reproduced claim. Exec times are the testbed-calibrated delay model;\n\
         this Rust implementation's own inference times are measured by the\n\
         `perf` benchmark (`anomaly.detect.ns_per_window`)."
    );
}
