//! `run_adaptive_stream` scores a window only at the layers it reads;
//! this file keeps the loop that scored every window at all three as a
//! referee and holds the library's whole [`AdaptReport`] to it, floats
//! by bits.
//!
//! The referee's chunk step is the full one: `Experiment::oracle_over`
//! per chunk (every window at every layer), the greedy table, the drift
//! statistic, the refresh block with a full reservoir oracle, and only
//! then the shadow samples, priced on the full oracle. Its pass replays
//! through `run_plan` with the routing table and the scoring the library
//! gives `replay::replay_table`. Any entry the library left unscored and
//! then read would differ here (and panics first in a debug build).
//!
//! The default test covers a univariate and a tiny seq2seq pipeline over
//! step, step-at-onset-0, ramp and recurring drift, frozen and adaptive,
//! at chunk sizes 1, 7 and 50, one and four shards, one and four
//! workers, as a sparse grid; the ignored twin runs every combination:
//! `cargo test --release -p hec-core --test adapt_reference -- --include-ignored`.

use hec_anomaly::{ConfidenceRule, PageHinkley};
use hec_bandit::{ContextScaler, PolicyTrainer, RewardModel, TrainConfig};
use hec_core::adapt::{run_adaptive_stream, AdaptConfig, AdaptReport, ChunkStats};
use hec_core::parallel::with_thread_count;
use hec_core::replay::replay_scenario;
use hec_core::{run_plan, DatasetConfig, Experiment, ExperimentConfig, Oracle};
use hec_data::mhealth::{MhealthConfig, MhealthGenerator};
use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::{
    BinaryConfusion, DatasetSource, DriftKind, DriftSchedule, LabeledCorpus, LabeledWindow,
    OnlineStandardizer,
};
use hec_sim::fleet::{JobEvent, RouteCtx, ShardPlan};

/// Minimum chunks between two refreshes (the library's rate limiter).
const MIN_REFRESH_GAP: usize = 2;

fn univariate() -> ExperimentConfig {
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

fn seq2seq() -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig::Multivariate(MhealthConfig {
            subjects: 2,
            window: 32,
            stride: 32,
            session_len: 128,
            normal_session_multiplier: 4,
            noise_std: 0.12,
            seed: 7,
        }),
        ad_epochs: 6,
        policy: TrainConfig { epochs: 4, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 16,
        seed: 7,
    }
}

/// The raw corpus the stream drifts: a fresh univariate draw (another
/// generator seed); the training generator's multivariate draw, since the
/// tiny seq2seq ladder flags every window of another one and its drift
/// statistic would never move.
fn raw_corpus(config: &ExperimentConfig) -> LabeledCorpus {
    match &config.dataset {
        DatasetConfig::Univariate(c) => {
            PowerGenerator::new(PowerConfig { seed: 11, ..c.clone() }).load().unwrap()
        }
        DatasetConfig::Multivariate(c) => MhealthGenerator::new(c.clone()).load().unwrap(),
    }
}

#[derive(Clone, Copy, Debug)]
enum Drift {
    Step,
    StepAtZero,
    Ramp,
    Recurring,
}

/// `config`'s raw stream under `drift`, 1.5 σ (of channel 0) at full
/// intensity.
fn drifted(config: &ExperimentConfig, drift: Drift) -> Vec<LabeledWindow> {
    let base = raw_corpus(config);
    let mut moments = OnlineStandardizer::new(base.windows[0].channels());
    for w in &base.windows {
        moments.update(&w.data);
    }
    let sigma = moments.freeze().std()[0];
    let onset = base.len() / 2;
    let (kind, onset) = match drift {
        Drift::Step => (DriftKind::Step, onset),
        Drift::StepAtZero => (DriftKind::Step, 0),
        Drift::Ramp => (DriftKind::Ramp { ramp_windows: onset / 2 }, onset / 2),
        Drift::Recurring => (DriftKind::Recurring { period: 15 }, onset / 2),
    };
    DriftSchedule { kind, onset, level: 1.5 * sigma, scale: 0.2 }.apply(&base).windows
}

/// The pipeline `run_adaptive_stream` starts from, trained from nothing.
fn pipeline(config: &ExperimentConfig) -> (Experiment, PolicyTrainer, ContextScaler) {
    let mut exp = Experiment::prepare(config.clone());
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let trainer = PolicyTrainer::new(
        policy,
        TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
    );
    (exp, trainer, scaler)
}

/// The loop that scored every window at every layer, chunk by chunk.
fn referee(
    exp: &mut Experiment,
    trainer: &mut PolicyTrainer,
    scaler: &ContextScaler,
    stream: &[LabeledWindow],
    chunk: usize,
    shards: usize,
    adaptive: bool,
) -> AdaptReport {
    let kind = exp.config().dataset.kind();
    let reward = RewardModel::new(kind.paper_alpha());
    let delays = exp.static_delays();
    let mut ph = PageHinkley::new();
    let (mut outcomes, mut actions, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut detections, mut refreshes, mut last_refresh) = (Vec::new(), Vec::new(), None);

    for (index, raw) in stream.chunks(chunk).enumerate() {
        let standardized = exp.standardize_windows(raw);
        let oracle = exp.oracle_over(&standardized);
        let contexts = scaler.transform(oracle.contexts());
        actions.extend(trainer.policy_mut().greedy_batch(&contexts));

        let mut drift_alarm = false;
        for outcome in &oracle.outcomes {
            if ph.observe(outcome.anomalous_fraction[0]) {
                drift_alarm = true;
            }
        }
        if drift_alarm {
            detections.push(index);
        }

        let gap_ok = last_refresh.is_none_or(|c: usize| index - c >= MIN_REFRESH_GAP);
        let refreshed = drift_alarm && gap_ok && adaptive;
        if refreshed {
            let end = index * chunk + raw.len();
            let reservoir = &stream[end.saturating_sub(chunk)..end];
            let mut online = OnlineStandardizer::new(exp.standardizer().channels());
            for w in reservoir {
                online.update(&w.data);
            }
            exp.set_standardizer(online.freeze());
            let std_reservoir = exp.standardize_windows(reservoir);
            let reservoir_oracle = exp.oracle_over(&std_reservoir);
            let normals: Vec<LabeledWindow> = std_reservoir
                .iter()
                .enumerate()
                .filter(|(i, _)| !reservoir_oracle.verdict(*i, 2))
                .map(|(_, w)| LabeledWindow::new(w.data.clone(), false))
                .collect();
            if !normals.is_empty() {
                let _ = exp.recalibrate_detectors(&normals);
            }
            ph.reset();
            last_refresh = Some(index);
            refreshes.push(index);
        }

        let mut policy_updates = 0;
        if adaptive {
            for (i, context) in contexts.iter_rows().enumerate() {
                let action = trainer.sample_action(context);
                let r = reward.reward(oracle.correct(i, action), delays.delay_ms(action)) as f32;
                trainer.buffer(context, action, r);
            }
            policy_updates = trainer.refresh();
        }

        chunks.push(ChunkStats {
            index,
            windows: raw.len(),
            f1: 0.0,
            accuracy: 0.0,
            mean_reward_x100: 0.0,
            drift_statistic: ph.statistic(),
            drift_alarm,
            refreshed,
            policy_updates,
            threshold_iot: exp.thresholds()[0],
        });
        outcomes.extend(oracle.outcomes);
    }

    // The pass's replay: window `seq` routed by `actions[seq % n]`, and a
    // stream window scored once, into chunk `seq / chunk`.
    let scenario = replay_scenario(kind, exp.config().payload_bytes(), stream.len() as u64);
    let pass = Oracle {
        outcomes,
        contexts: None,
        thresholds: [0.0; 3],
        confidence: ConfidenceRule::default(),
    };
    let n = pass.len() as u64;
    let mut tallies = vec![(BinaryConfusion::new(), 0u64, 0.0f64); chunks.len()];
    let mut hear = |ev: &JobEvent| {
        let (JobEvent::Served { seq, .. } | JobEvent::Dropped { seq, .. }) = *ev;
        if seq >= n {
            return;
        }
        let i = seq as usize;
        let (confusion, missed, reward_sum) = &mut tallies[i / chunk];
        match *ev {
            JobEvent::Served { layer, latency_ms, .. } => {
                *reward_sum += reward.reward(pass.correct(i, layer), latency_ms);
                confusion.record(pass.verdict(i, layer), pass.outcomes[i].truth);
            }
            JobEvent::Dropped { .. } => {
                *reward_sum += reward.reward_dropped();
                *missed += 1;
            }
        }
    };
    let plan = ShardPlan::new(&scenario, shards);
    run_plan(&plan, &|ctx: &RouteCtx| actions[(ctx.seq % n) as usize], Some(&mut hear));
    for (stats, (confusion, missed, reward_sum)) in chunks.iter_mut().zip(tallies) {
        (stats.f1, stats.accuracy) = (confusion.f1(), confusion.accuracy());
        let routed = confusion.total() as u64 + missed;
        stats.mean_reward_x100 = 100.0 * reward_sum / routed.max(1) as f64;
    }

    AdaptReport {
        label: if adaptive { "adaptive" } else { "frozen" }.into(),
        chunks,
        detections,
        refreshes,
        total_windows: stream.len(),
    }
}

/// `got == want`, every float compared by its bits.
fn assert_same(got: &AdaptReport, want: &AdaptReport, case: &str) {
    assert_eq!(got.label, want.label, "{case}");
    assert_eq!(got.detections, want.detections, "{case}");
    assert_eq!(got.refreshes, want.refreshes, "{case}");
    assert_eq!(got.total_windows, want.total_windows, "{case}");
    assert_eq!(got.chunks.len(), want.chunks.len(), "{case}");
    for (g, w) in got.chunks.iter().zip(&want.chunks) {
        let case = format!("{case}, chunk {}", w.index);
        let bits = |c: &ChunkStats| {
            [c.f1, c.accuracy, c.mean_reward_x100, c.drift_statistic, c.threshold_iot.into()]
                .map(f64::to_bits)
        };
        assert_eq!(bits(g), bits(w), "{case}: f1, accuracy, reward, statistic, threshold");
        let flags =
            |c: &ChunkStats| (c.index, c.windows, c.drift_alarm, c.refreshed, c.policy_updates);
        assert_eq!(flags(g), flags(w), "{case}");
    }
}

/// One cell of the grid: a frozen then an adaptive pass, as `repro_drift`
/// and `perf` run them, on the library and on the referee, each from a
/// freshly trained pipeline.
fn check(config: &ExperimentConfig, drift: Drift, chunk: usize, shards: usize, threads: usize) {
    let case = format!(
        "{:?} {drift:?} chunk {chunk} shards {shards} threads {threads}",
        config.dataset.kind()
    );
    let stream = drifted(config, drift);
    with_thread_count(threads, || {
        let (mut exp, mut trainer, scaler) = pipeline(config);
        let library = [AdaptConfig::frozen(chunk, shards), AdaptConfig::adaptive(chunk, shards)]
            .map(|c| run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &c));
        let (mut exp, mut trainer, scaler) = pipeline(config);
        let reference = [false, true].map(|adaptive| {
            referee(&mut exp, &mut trainer, &scaler, &stream, chunk, shards, adaptive)
        });
        for (got, want) in library.iter().zip(&reference) {
            assert_same(got, want, &format!("{case} {}", want.label));
        }
        if matches!(drift, Drift::Step) && chunk == 7 {
            assert!(!reference[1].refreshes.is_empty(), "{case}: the fixture must refresh");
        }
    });
}

#[test]
fn the_adaptation_loop_matches_the_all_layers_referee() {
    let uni = univariate();
    for drift in [Drift::Step, Drift::StepAtZero, Drift::Ramp, Drift::Recurring] {
        check(&uni, drift, 7, 4, 1);
    }
    check(&uni, Drift::Step, 1, 1, 1);
    check(&uni, Drift::Step, 50, 1, 4);
    check(&uni, Drift::Recurring, 7, 1, 4);
    let seq2seq = seq2seq();
    check(&seq2seq, Drift::Step, 7, 4, 1);
    // A refresh in a chunk that reads above IoT whose verdicts the
    // recalibration moves: scoring those entries after the refresh
    // instead of before fails here (no univariate cell shows it).
    check(&seq2seq, Drift::Ramp, 50, 1, 1);
}

#[test]
#[ignore = "the whole grid, ≈ minutes; CI's parallel-smoke runs it"]
fn the_adaptation_loop_matches_the_all_layers_referee_on_the_whole_grid() {
    for config in [univariate(), seq2seq()] {
        for drift in [Drift::Step, Drift::StepAtZero, Drift::Ramp, Drift::Recurring] {
            for chunk in [1, 7, 50] {
                for shards in [1, 4] {
                    for threads in [1, 4] {
                        check(&config, drift, chunk, shards, threads);
                    }
                }
            }
        }
    }
}
