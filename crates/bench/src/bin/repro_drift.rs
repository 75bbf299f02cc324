//! Frozen vs adaptive pipelines under an injected regime change.
//!
//! The paper's pipeline fits everything offline and freezes it. This
//! binary measures what that costs once the input distribution moves —
//! and what the online-adaptation loop (`hec_core::adapt`) buys back:
//!
//! 1. Train the univariate pipeline (detectors, scorers, policy) on the
//!    clean corpus, exactly as `repro_table2` does.
//! 2. Build a drift-injected stream: a fresh raw corpus (different
//!    generator seed), amplified ×4 (`hec_data::amplify`, labels stay
//!    truthful), with a **step regime change** injected mid-stream
//!    (`DriftSchedule`: +1.5σ level, +20% scale — a sensor
//!    recalibration-style shift).
//! 3. Stream it twice through the chunked fleet-replay loop on identical
//!    starting state: once **frozen** (no refresh of any kind — the
//!    paper's regime) and once **adaptive** (Page–Hinkley drift detection
//!    on the layer-0 score stream; on alarm refit the standardizer from
//!    the raw-window reservoir and recalibrate the detector scorers; the
//!    bandit refreshes continually between chunks). The frozen run goes
//!    first and mutates nothing, so both runs start from the same
//!    weights.
//! 4. Compare recovery: chunks until F1 returns to the pre-drift
//!    baseline, cumulative reward foregone post-onset, and post-drift
//!    mean F1.
//!
//! Everything on stdout is deterministic — same profile ⇒ byte-identical
//! output across reruns and `HEC_THREADS` settings, which the CI
//! drift-smoke job enforces by diffing two runs (timing goes to stderr).
//!
//! ```text
//! cargo run --release -p hec-bench --bin repro_drift -- [out_dir] \
//!     [--telemetry <dir>]
//! ```
//!
//! With `out_dir`, a `drift.csv` per-chunk trajectory table (both
//! pipelines) is written there.

use std::fmt::Write as _;
use std::time::Instant;

use hec_bandit::{PolicyTrainer, TrainConfig};
use hec_bench::cli::Spec;
use hec_bench::{univariate_config, Profile};
use hec_core::adapt::{run_adaptive_stream, AdaptConfig, AdaptReport, RecoveryStats};
use hec_core::Experiment;
use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::{
    amplify_corpus, DatasetSource, DriftKind, DriftSchedule, LabeledWindow, OnlineStandardizer,
    PerturbConfig,
};

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

/// Per-profile sizing of the drift experiment.
struct DriftSizing {
    /// Generator config of the *stream* corpus (decorrelated seed).
    stream_base: PowerConfig,
    /// Amplification factor over the base corpus.
    amplify: usize,
    /// Windows per adaptation chunk.
    chunk: usize,
    /// Fleet shards for the chunk replay.
    shards: usize,
    /// Drift onset, in stream window index.
    onset: usize,
}

fn sizing(profile: Profile) -> DriftSizing {
    match profile {
        Profile::Full => DriftSizing {
            stream_base: PowerConfig {
                days: 600,
                samples_per_day: 96,
                anomaly_rate: 0.12,
                noise_std: 0.03,
                seed: 11,
            },
            amplify: 4,
            chunk: 50,
            shards: 4,
            onset: 1200,
        },
        Profile::Quick => DriftSizing {
            stream_base: PowerConfig {
                days: 150,
                samples_per_day: 24,
                anomaly_rate: 0.15,
                noise_std: 0.03,
                seed: 11,
            },
            amplify: 4,
            chunk: 25,
            shards: 2,
            onset: 300,
        },
    }
}

fn print_report(report: &AdaptReport, recovery: &RecoveryStats) {
    println!("{} pipeline:", report.label);
    println!(
        "  drift detections at chunks {:?}; refreshes at chunks {:?}",
        report.detections, report.refreshes
    );
    println!(
        "  baseline (pre-onset): f1={:.4} reward={:.2}",
        recovery.baseline_f1, recovery.baseline_reward_x100
    );
    println!(
        "  post-drift: f1={:.4} reward={:.2} | recovery={} | reward loss={:.2}",
        recovery.post_f1,
        recovery.post_reward_x100,
        match recovery.recovery_chunks {
            Some(k) => format!("{k} chunks"),
            None => "never".into(),
        },
        recovery.cumulative_reward_loss
    );
}

fn append_csv(csv: &mut String, report: &AdaptReport) {
    for c in &report.chunks {
        let _ = writeln!(
            csv,
            "{},{},{},{:.6},{:.6},{:.4},{:.4},{},{},{},{:.4}",
            report.label,
            c.index,
            c.windows,
            c.f1,
            c.accuracy,
            c.mean_reward_x100,
            c.drift_statistic,
            c.drift_alarm as u8,
            c.refreshed as u8,
            c.policy_updates,
            c.threshold_iot
        );
    }
}

fn main() {
    let cli = Spec {
        bin: "repro_drift",
        usage: "usage: repro_drift [out_dir] [--telemetry <dir>]\n",
        values: &["--telemetry"],
        switches: &[],
    }
    .parse();
    let out_dir = cli.positional();
    hec_bench::telemetry::init("repro_drift", cli.telemetry_dir());
    let profile = Profile::from_env();
    let size = sizing(profile);
    println!("== repro_drift (profile: {profile:?}) ==\n");

    // Stage 1: the clean offline pipeline.
    let t0 = Instant::now();
    let mut exp = Experiment::prepare(univariate_config(profile));
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let mut trainer = PolicyTrainer::new(
        policy,
        TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
    );
    let pipeline_wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] offline pipeline: {pipeline_wall:.2} s");

    // Stage 2: the drift-injected stream. Amplify a decorrelated raw
    // corpus, then shift level by 1.5σ and scale by +20% from the onset
    // window onward (σ measured on the raw base corpus).
    let base = PowerGenerator::new(size.stream_base.clone()).load().expect("synthetic source");
    let amplified = amplify_corpus(&base, size.amplify, &PerturbConfig::default());
    let mut moments = OnlineStandardizer::new(1);
    for w in &amplified.windows {
        moments.update(&w.data);
    }
    let sigma = moments.freeze().std()[0];
    let drift =
        DriftSchedule { kind: DriftKind::Step, onset: size.onset, level: 1.5 * sigma, scale: 0.2 };
    let stream: Vec<LabeledWindow> = drift.apply(&amplified).windows;
    let onset_chunk = size.onset / size.chunk;
    println!(
        "stream: {} windows ({} base x{} amplified), step drift at window {} \
         (chunk {}): level +1.5 sigma, scale +20%",
        stream.len(),
        base.len(),
        size.amplify,
        size.onset,
        onset_chunk
    );
    println!(
        "loop: chunks of {} windows, {} fleet shards, Page-Hinkley on the layer-0 \
         anomalous-fraction stream\n",
        size.chunk, size.shards
    );

    // Stage 3: frozen first (mutates neither the experiment nor the
    // policy weights), then adaptive on the identical starting state.
    let frozen_cfg = AdaptConfig::frozen(size.chunk, size.shards);
    let t0 = Instant::now();
    let frozen = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &frozen_cfg);
    let frozen_wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] frozen stream: {frozen_wall:.2} s");

    let adaptive_cfg = AdaptConfig::adaptive(size.chunk, size.shards);
    let t0 = Instant::now();
    let adaptive = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &adaptive_cfg);
    let adaptive_wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] adaptive stream: {adaptive_wall:.2} s");

    // Stage 4: recovery comparison.
    let eps = 0.05;
    let fr = frozen.recovery(onset_chunk, eps);
    let ar = adaptive.recovery(onset_chunk, eps);
    print_report(&frozen, &fr);
    println!();
    print_report(&adaptive, &ar);
    println!("\ncomparison (adaptive - frozen):");
    println!("  post-drift f1:     {:+.4}", ar.post_f1 - fr.post_f1);
    println!("  post-drift reward: {:+.2}", ar.post_reward_x100 - fr.post_reward_x100);
    println!(
        "  reward loss:       {:+.2} ({:.2} -> {:.2})",
        ar.cumulative_reward_loss - fr.cumulative_reward_loss,
        fr.cumulative_reward_loss,
        ar.cumulative_reward_loss
    );
    let fmt_rec = |r: Option<usize>| r.map_or("never".to_string(), |k| format!("{k} chunks"));
    println!(
        "  recovery:          {} vs {}",
        fmt_rec(ar.recovery_chunks),
        fmt_rec(fr.recovery_chunks)
    );

    if let Some(dir) = out_dir {
        let mut csv = String::from(
            "pipeline,chunk,windows,f1,accuracy,reward_x100,ph_statistic,alarm,refreshed,\
             policy_updates,threshold_iot\n",
        );
        append_csv(&mut csv, &frozen);
        append_csv(&mut csv, &adaptive);
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = format!("{dir}/drift.csv");
        std::fs::write(&path, csv).expect("write drift CSV");
        println!("\nwrote {path}");
    }

    hec_bench::telemetry::dump("repro_drift", cli.telemetry_dir());
}
