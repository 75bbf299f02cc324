//! Satellite guarantee of the online-adaptation loop: the drift
//! detections, the refresh schedule and every chunk statistic are a pure
//! function of the inputs — byte-identical across reruns and
//! `HEC_THREADS` settings, even though the pass replays through the
//! parallel sharded fleet engine and the refresh path refits the
//! standardizer and recalibrates the detectors mid-stream — under a step,
//! a step from the first window, a ramp and a recurring drift.

use hec_bandit::{PolicyTrainer, TrainConfig};
use hec_core::adapt::{run_adaptive_stream, AdaptConfig, AdaptReport};
use hec_core::parallel::with_thread_count;
use hec_core::{DatasetConfig, Experiment, ExperimentConfig};
use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::{DatasetSource, DriftKind, DriftSchedule, LabeledWindow, OnlineStandardizer};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days: 100,
            samples_per_day: 24,
            anomaly_rate: 0.15,
            noise_std: 0.03,
            seed: 7,
        }),
        ad_epochs: 50,
        policy: TrainConfig { epochs: 8, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 16,
        seed: 7,
    }
}

/// The drift test inputs: a step at window 50 (the one that must detect
/// and refresh), a step from the first window, a ramp, and a recurring
/// drift switching every 15 windows.
fn drifted_streams() -> Vec<(&'static str, Vec<LabeledWindow>)> {
    let base = PowerGenerator::new(PowerConfig {
        days: 100,
        samples_per_day: 24,
        anomaly_rate: 0.15,
        noise_std: 0.03,
        seed: 11,
    })
    .load()
    .unwrap();
    let mut moments = OnlineStandardizer::new(1);
    for w in &base.windows {
        moments.update(&w.data);
    }
    let sigma = moments.freeze().std()[0];
    let drift = |kind, onset| {
        DriftSchedule { kind, onset, level: 1.5 * sigma, scale: 0.2 }.apply(&base).windows
    };
    vec![
        ("step", drift(DriftKind::Step, 50)),
        ("step at onset 0", drift(DriftKind::Step, 0)),
        ("ramp", drift(DriftKind::Ramp { ramp_windows: 30 }, 30)),
        ("recurring", drift(DriftKind::Recurring { period: 15 }, 30)),
    ]
}

/// The full pipeline (prepare → train → adapt) rebuilt from scratch —
/// thread-count invariance must hold for the *whole* construction, not
/// just the final loop.
fn run_once(stream: &[LabeledWindow]) -> AdaptReport {
    let mut exp = Experiment::prepare(tiny_config());
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let mut trainer = PolicyTrainer::new(
        policy,
        TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
    );
    run_adaptive_stream(&mut exp, &mut trainer, &scaler, stream, &AdaptConfig::adaptive(20, 2))
}

#[test]
fn adapt_schedule_is_thread_and_rerun_invariant() {
    for (name, stream) in drifted_streams() {
        let base = with_thread_count(1, || run_once(&stream));
        let chunked: usize = base.chunks.iter().map(|c| c.windows).sum();
        assert_eq!(chunked, stream.len(), "{name}: chunks must cover the stream");
        if name == "step" {
            assert!(!base.detections.is_empty(), "fixture must actually drift: {base:?}");
            assert!(!base.refreshes.is_empty(), "fixture must actually refresh: {base:?}");
        }
        for threads in [1, 2, 4] {
            let run = with_thread_count(threads, || run_once(&stream));
            assert_eq!(
                base, run,
                "{name}: adaptive run diverged at HEC_THREADS={threads}: detections/refreshes/chunk \
                 statistics must be byte-identical"
            );
        }
    }
}
