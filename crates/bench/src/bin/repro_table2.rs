//! Regenerates **Table II** — comparison among the five model-selection
//! schemes (IoT Device / Edge / Cloud / Successive / Our Method): F1,
//! accuracy, mean end-to-end delay and reward, for both datasets.
//!
//! Run with `cargo run --release -p hec-bench --bin repro_table2`
//! (`HEC_PROFILE=quick` for a fast smoke run).

use hec_bench::{multivariate_config, paper, paper_table2, univariate_config, Profile};
use hec_core::{format_table2, Experiment, ExperimentConfig, SchemeKind};

/// The comparison the paper's abstract makes, from two `(accuracy %, delay
/// ms)` pairs: Our Method's mean-delay change against always-Cloud (%) and
/// its accuracy gap (points).
fn against_cloud(ours: (f64, f64), cloud: (f64, f64)) -> (f64, f64) {
    (100.0 * (ours.1 - cloud.1) / cloud.1, ours.0 - cloud.0)
}

fn run(label: &str, config: ExperimentConfig, reference: &[(&str, f64, f64, f64)]) {
    println!("--- {label} ---");
    let report = Experiment::run(config);
    println!("{}", format_table2(&report.table2));
    println!(
        "adaptive action histogram (IoT/Edge/Cloud): {:?} over {} windows\n",
        report.adaptive_actions, report.eval_windows
    );
    println!("{}", paper_table2(reference));
    let measured = |kind| {
        let row = report.table2.iter().find(|r| r.scheme == kind).expect("Table II has all five");
        (row.accuracy_pct, row.delay_ms)
    };
    let cited = |name| {
        let row = reference.iter().find(|r| r.0 == name).expect("reference has all five");
        (row.2, row.3)
    };
    let (delay, gap) = against_cloud(measured(SchemeKind::Adaptive), measured(SchemeKind::Cloud));
    let (paper_delay, paper_gap) = against_cloud(cited("Our Method"), cited("Cloud"));
    println!(
        "Our Method vs Cloud: mean delay {delay:+.1} %, accuracy {gap:+.2} points \
         (paper: {paper_delay:+.1} %, {paper_gap:+.2} points)\n"
    );
}

fn main() {
    let profile = Profile::from_env();
    println!("== repro_table2 (profile: {profile:?}) ==\n");

    run("Univariate (power demand)", univariate_config(profile), &paper::TABLE2_UNIVARIATE);
    run("Multivariate (MHEALTH-like)", multivariate_config(profile), &paper::TABLE2_MULTIVARIATE);

    println!(
        "note: the paper's Reward column uses an unreproducible absolute scale;\n\
         we report 100 x mean(accuracy - cost) with the paper's alpha. The\n\
         qualitative claim under test: Our Method's accuracy is within ~1% of\n\
         always-Cloud at substantially lower delay, and its reward is the best\n\
         of all reward-bearing schemes."
    );
}
