//! Allocation accounting for the adaptation loop: a frozen and an adaptive
//! `run_adaptive_stream` pass each allocate at most **two times a window**
//! on a fixed univariate pipeline — per window the standardised copy
//! (`Experiment::standardize_windows`) and, in amortised share, the
//! chunk's vectors and the pass's one replay. A window's context is a row
//! of its chunk's context matrix and its scaled copy a row of one scaled
//! matrix, where each used to be a `Vec<f32>` of its own (≈ 3.7
//! allocations a window before).
//!
//! One `#[test]`, so no concurrent test can disturb the global counter.

use hec_bandit::{PolicyTrainer, TrainConfig};
use hec_core::parallel::with_thread_count;
use hec_core::{run_adaptive_stream, AdaptConfig, DatasetConfig, Experiment, ExperimentConfig};
use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::{
    amplify_corpus, DatasetSource, DriftKind, DriftSchedule, OnlineStandardizer, PerturbConfig,
};
use hec_telemetry::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn power(seed: u64) -> PowerConfig {
    PowerConfig { days: 150, samples_per_day: 24, anomaly_rate: 0.15, noise_std: 0.03, seed }
}

#[test]
fn each_pass_allocates_at_most_twice_a_window() {
    let config = ExperimentConfig {
        dataset: DatasetConfig::Univariate(power(42)),
        ad_epochs: 30,
        policy: TrainConfig { epochs: 8, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: 42,
    };
    let mut exp = Experiment::prepare(config);
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let mut trainer = PolicyTrainer::new(
        policy,
        TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
    );

    // 3 000 windows in 60 chunks of 50, a 1.5 σ step at the midpoint: the
    // shape of the benchmark's `drift_adapt` stream.
    let base = PowerGenerator::new(power(7)).load().expect("synthetic sources are infallible");
    let amplified = amplify_corpus(&base, 20, &PerturbConfig::default());
    let mut moments = OnlineStandardizer::new(1);
    for w in &amplified.windows {
        moments.update(&w.data);
    }
    let sigma = moments.freeze().std()[0];
    let drift =
        DriftSchedule { kind: DriftKind::Step, onset: 1_500, level: 1.5 * sigma, scale: 0.2 };
    let stream = drift.apply(&amplified).windows;
    assert_eq!(stream.len(), 3_000);

    for config in [AdaptConfig::frozen(50, 4), AdaptConfig::adaptive(50, 4)] {
        // Two workers pinned, as the benchmark pins them: an unpinned
        // `thread_count()` reads the environment and the cgroup limits,
        // four allocations a call, and the loop asks it twice a chunk.
        let before = allocations();
        let report = with_thread_count(2, || {
            run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &config)
        });
        let allocated = allocations() - before;
        eprintln!("{}: {allocated} allocations over {} windows", report.label, stream.len());
        assert!(
            allocated <= 2 * stream.len(),
            "the {} pass allocated {allocated} times over {} windows",
            report.label,
            stream.len()
        );
    }
}
