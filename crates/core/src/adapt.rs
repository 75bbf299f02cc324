//! Online adaptation under drift: the closed loop that keeps the
//! pipeline calibrated while the input distribution moves.
//!
//! The offline pipeline ([`crate::experiment`]) fits its standardizer,
//! detectors and policy once and freezes them. Under a regime change
//! (sensor recalibration, seasonal level shift, fleet firmware update —
//! modelled by `hec_data::DriftSchedule`) the frozen pipeline's layer-0
//! anomalous-fraction stream shifts, detection quality collapses, and the
//! bandit keeps routing on stale context statistics. This module closes
//! the loop:
//!
//! 1. **Stream in chunks.** The raw (unstandardised) window stream is
//!    processed chunk by chunk: standardise with the *current*
//!    standardizer, score every window at IoT (its layer-0 outcome and
//!    its context, a row of the chunk's context matrix, scaled once), and
//!    run the policy as it stands **once** over the scaled rows
//!    (`PolicyNetwork::probabilities_batch`): the chunk's greedy routing
//!    table is each row's argmax, and an adaptive run draws the chunk's
//!    shadow actions (step 4) from the same rows with the trainer's
//!    generator, in window order — one forward per window per chunk. Then
//!    each window is scored at the layer above IoT it is routed or
//!    shadow-sampled to, if any — about 2 % of the windows — under the
//!    calibration the chunk was scored under; no other entry is scored,
//!    and none is read.
//! 2. **Detect drift.** Each window's layer-0 anomalous-point fraction (a
//!    bounded statistic the IoT-tier detector already computes) feeds a
//!    Page–Hinkley mean-shift detector — O(1) per window, deterministic.
//! 3. **Refresh in-fleet.** On an alarm (at most one refresh every two
//!    chunks): refit the standardizer from the last `chunk` **raw**
//!    windows of the stream
//!    (`hec_data::OnlineStandardizer`, Welford moments, no second pass
//!    over history), re-standardise them, keep the windows the
//!    cloud-tier model still deems normal (self-labelling — ground truth
//!    is not available in deployment; only the cloud layer scores the
//!    reservoir) and recalibrate every detector's logPD scorer and
//!    threshold on them ([`crate::Experiment::recalibrate_detectors`]) —
//!    no weight retraining anywhere.
//! 4. **Track the policy.** Independently of alarms, the bandit shadows
//!    each chunk with sampled actions (drawn in step 1: the refresh
//!    touches neither the policy nor its RNG, so they are the actions a
//!    draw after it would give, and a batched `π` row carries the bits of
//!    the one-row forward a per-window `sample_action` would run — the
//!    licence `hec-bandit`'s `tests/batched_rows.rs` holds) scored against
//!    the static delay ladder, buffers each window's scaled context row
//!    with its action and reward, and applies them between chunks
//!    (`PolicyTrainer::buffer`/`refresh`) — so the greedy routing table
//!    stays fixed *within* a chunk and moves only at chunk boundaries.
//! 5. **Replay the pass.** Nothing above reads the fleet, so the chunks'
//!    tables replay once, end to end, through one sharded fleet
//!    ([`crate::replay`]); each window is priced at its observed delay and
//!    scored once, into its chunk.
//!
//! Everything is deterministic: same inputs ⇒ a byte-identical
//! [`AdaptReport`] across reruns and `HEC_THREADS` settings (asserted in
//! `tests/adapt_determinism.rs`), and the report of the loop that scored
//! every window at every layer, floats by bits (`tests/adapt_reference.rs`).
//!
//! **Clock domains.** Drift detection and refresh run in *window-index*
//! time (the ingestion clock); the pass's replay runs in *simulated*
//! milliseconds (the DES clock) on the replay fleet's own schedule. A
//! refresh takes effect at the next chunk boundary, never mid-chunk —
//! matching a fleet where new calibration is pushed between reporting rounds.

use hec_anomaly::{ConfidenceRule, PageHinkley};
use hec_bandit::{ContextScaler, PolicyTrainer, RewardModel};
use hec_data::{LabeledWindow, OnlineStandardizer};
use hec_sim::fleet::FleetScenario;
use hec_tensor::vecops;

use crate::closed_loop::Tally;
use crate::experiment::Experiment;
use crate::oracle::{Oracle, Rows, WindowOutcome};
use crate::replay::{replay_scenario, replay_table};
use crate::scheme::SchemeKind;

/// Minimum chunks between two refreshes (the alarm rate limiter).
const MIN_REFRESH_GAP: usize = 2;

/// Configuration of one adaptive (or deliberately frozen) streaming run.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Windows per chunk (refresh granularity; the routing table is
    /// fixed within a chunk). Also how many of the latest raw windows a
    /// refresh refits from — one chunk: at detection time (the chunk
    /// after a step onset) they are all post-shift windows, so the refit
    /// lands on the new regime instead of halfway between the old and new
    /// ones.
    pub chunk: usize,
    /// Fleet shards for the pass's replay (part of the simulated physics,
    /// see [`crate::replay::replay_trace_sharded`]).
    pub shards: usize,
    /// Whether the run refreshes at all: adaptive = standardizer refit +
    /// detector recalibration on alarm and buffered policy updates at
    /// every chunk boundary; frozen = none of them.
    adaptive: bool,
}

impl AdaptConfig {
    /// A fully frozen pipeline: same replay and drift *detection* (so
    /// both arms report the same statistic stream), but no refresh of any
    /// kind — the paper's offline regime, used as the comparison
    /// baseline.
    pub fn frozen(chunk: usize, shards: usize) -> Self {
        Self { chunk, shards, adaptive: false }
    }

    /// The full adaptive pipeline: standardizer refit + detector
    /// recalibration on alarm, continual policy refresh every chunk.
    pub fn adaptive(chunk: usize, shards: usize) -> Self {
        Self { adaptive: true, ..Self::frozen(chunk, shards) }
    }

    /// The run's telemetry label and [`AdaptReport::label`].
    fn label(&self) -> &'static str {
        if self.adaptive {
            "adaptive"
        } else {
            "frozen"
        }
    }

    fn validate(&self) {
        assert!(self.chunk > 0, "chunk size must be positive");
        assert!(self.shards > 0, "need at least one fleet shard");
    }
}

/// Per-chunk outcome of the streaming loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Chunk index (0-based, ingestion order).
    pub index: usize,
    /// Windows in this chunk.
    pub windows: usize,
    /// Detection F1 over the chunk's served windows.
    pub f1: f64,
    /// Detection accuracy over the chunk's served windows.
    pub accuracy: f64,
    /// `100 × mean(accuracy − cost)` over the chunk's routed windows,
    /// at observed load-dependent delays (drops pay the drop penalty).
    pub mean_reward_x100: f64,
    /// Page–Hinkley statistic after the chunk's last window.
    pub drift_statistic: f64,
    /// Whether the drift detector alarmed during this chunk.
    pub drift_alarm: bool,
    /// Whether a refresh (standardizer and/or recalibration) executed at
    /// this chunk's boundary.
    pub refreshed: bool,
    /// Buffered policy observations applied at this chunk's boundary.
    pub policy_updates: usize,
    /// The layer-0 logPD threshold in force *after* this chunk (moves
    /// when recalibration fires).
    pub threshold_iot: f32,
}

/// Result of one [`run_adaptive_stream`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptReport {
    /// The run's telemetry label: `"frozen"` or `"adaptive"`, by the
    /// [`AdaptConfig`] preset.
    pub label: String,
    /// Per-chunk statistics, in stream order.
    pub chunks: Vec<ChunkStats>,
    /// Chunk indices where the drift detector alarmed.
    pub detections: Vec<usize>,
    /// Chunk indices where a refresh executed.
    pub refreshes: Vec<usize>,
    /// Total windows streamed.
    pub total_windows: usize,
}

impl AdaptReport {
    /// Recovery metrics relative to a known drift onset (the injection
    /// harness knows where it put the drift; deployment would use the
    /// first detection instead).
    ///
    /// The pre-onset chunks establish baseline F1 and reward; recovery is
    /// the number of post-onset chunks until F1 first returns to within
    /// `epsilon` of baseline (`None` if it never does).
    ///
    /// # Panics
    ///
    /// Panics if `onset_chunk` is 0 or ≥ the chunk count (no baseline or
    /// no post-drift region to score).
    pub fn recovery(&self, onset_chunk: usize, epsilon: f64) -> RecoveryStats {
        assert!(
            onset_chunk > 0 && onset_chunk < self.chunks.len(),
            "onset chunk {onset_chunk} leaves no pre- or post-drift region in {} chunks",
            self.chunks.len()
        );
        let (pre, post) = self.chunks.split_at(onset_chunk);
        let mean = |xs: &[ChunkStats], f: fn(&ChunkStats) -> f64| {
            xs.iter().map(f).sum::<f64>() / xs.len() as f64
        };
        let baseline_f1 = mean(pre, |c| c.f1);
        let baseline_reward = mean(pre, |c| c.mean_reward_x100);
        let recovery_chunks = post.iter().position(|c| c.f1 >= baseline_f1 - epsilon);
        // Reward foregone post-onset vs the pre-drift baseline, in
        // absolute reward units (the per-window mean is `x100`).
        let cumulative_reward_loss = post
            .iter()
            .map(|c| (baseline_reward - c.mean_reward_x100).max(0.0) * c.windows as f64 / 100.0)
            .sum();
        RecoveryStats {
            baseline_f1,
            baseline_reward_x100: baseline_reward,
            recovery_chunks,
            cumulative_reward_loss,
            post_f1: mean(post, |c| c.f1),
            post_reward_x100: mean(post, |c| c.mean_reward_x100),
        }
    }
}

/// Recovery metrics of one run relative to a drift onset
/// (see [`AdaptReport::recovery`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Mean F1 over the pre-onset chunks.
    pub baseline_f1: f64,
    /// Mean reward (×100) over the pre-onset chunks.
    pub baseline_reward_x100: f64,
    /// Post-onset chunks until F1 returned to within ε of baseline
    /// (`Some(0)` = the first post-onset chunk already held), `None` if
    /// it never recovered within the stream.
    pub recovery_chunks: Option<usize>,
    /// Total reward foregone post-onset vs baseline, in absolute reward
    /// units (never negative; chunks above baseline contribute 0).
    pub cumulative_reward_loss: f64,
    /// Mean F1 over the post-onset chunks.
    pub post_f1: f64,
    /// Mean reward (×100) over the post-onset chunks.
    pub post_reward_x100: f64,
}

/// Streams raw (unstandardised) windows through the experiment's
/// pipeline in chunks, detecting drift and — per `config` — refreshing
/// the standardizer, the detector calibration and the policy in-fleet.
/// See the module docs for the loop structure.
///
/// `trainer` owns the routing policy (frozen runs never update it, so
/// one trainer can serve a frozen run and then an adaptive run on the
/// same weights); `scaler` is the context scaler the policy was trained
/// with.
///
/// Deterministic: same inputs ⇒ a byte-identical [`AdaptReport`], across
/// reruns and `HEC_THREADS`.
///
/// # Panics
///
/// Panics if `stream` is empty, if the config is invalid, or if the
/// windows' shape does not match the experiment's dataset.
pub fn run_adaptive_stream(
    exp: &mut Experiment,
    trainer: &mut PolicyTrainer,
    scaler: &ContextScaler,
    stream: &[LabeledWindow],
    config: &AdaptConfig,
) -> AdaptReport {
    assert!(!stream.is_empty(), "cannot adapt over an empty stream");
    config.validate();
    let _span = hec_telemetry::WallSpan::new("core.adapt");

    let kind = exp.config().dataset.kind();
    let scenario = replay_scenario(kind, exp.config().payload_bytes(), stream.len() as u64);
    let reward = RewardModel::new(kind.paper_alpha());
    let delays = exp.static_delays();

    let mut ph = PageHinkley::new();
    // The pass to replay: each chunk's outcomes under its own calibration,
    // routed greedily by the policy as it stood before the chunk's refresh.
    let mut outcomes = Vec::with_capacity(stream.len());
    let mut actions = Vec::with_capacity(stream.len());
    let mut chunks = Vec::with_capacity(stream.len().div_ceil(config.chunk));
    let mut detections = Vec::new();
    let mut refreshes = Vec::new();
    let mut last_refresh: Option<usize> = None;

    for (index, raw) in stream.chunks(config.chunk).enumerate() {
        let standardized = exp.standardize_windows(raw);
        // Every window at IoT: the drift statistic and the context rows,
        // scaled once. One batched forward gives each window's π: the
        // greedy table is its argmax, the shadow samples are drawn from it.
        let mut oracle = Oracle::unscored(&standardized);
        exp.score_into(&mut oracle, &standardized, [Rows::All, Rows::NONE, Rows::NONE]);
        let contexts = scaler.transform(oracle.contexts());
        let probs = trainer.policy_mut().probabilities_batch(&contexts);
        let greedy: Vec<usize> = probs.iter_rows().map(vecops::argmax).collect();

        // Drift detection on the layer-0 anomalous-fraction stream.
        let mut drift_alarm = false;
        for outcome in &oracle.outcomes {
            if ph.observe(outcome.anomalous_fraction[0]) {
                drift_alarm = true;
            }
        }
        if drift_alarm {
            detections.push(index);
        }

        // Continual policy tracking, half one: shadow the chunk with
        // actions drawn from its π rows, in window order. The refresh
        // below touches neither the policy nor its RNG, so drawing them
        // first draws the same actions.
        let shadow: Vec<usize> = if config.adaptive {
            probs.iter_rows().map(|pi| trainer.draw_action(pi)).collect()
        } else {
            Vec::new()
        };
        // The entries above IoT the chunk reads: each window's greedy
        // layer and shadow-sampled layer, scored before a refresh moves
        // the calibration.
        let reads = |layer| {
            (0..greedy.len())
                .filter(|&i| greedy[i] == layer || shadow.get(i) == Some(&layer))
                .collect::<Vec<_>>()
        };
        let (edge, cloud) = (reads(1), reads(2));
        #[cfg(test)]
        tests::DECISIONS.with_borrow_mut(|d| d.push((greedy.clone(), shadow.clone())));
        exp.score_into(
            &mut oracle,
            &standardized,
            [Rows::NONE, Rows::Only(&edge), Rows::Only(&cloud)],
        );

        // Two-stage refresh on alarm, rate-limited, from the last chunk's
        // worth of raw windows.
        let gap_ok = last_refresh.is_none_or(|c| index - c >= MIN_REFRESH_GAP);
        let refreshed = drift_alarm && gap_ok && config.adaptive;
        if refreshed {
            let end = index * config.chunk + raw.len();
            let reservoir = &stream[end.saturating_sub(config.chunk)..end];
            let mut online = OnlineStandardizer::new(exp.standardizer().channels());
            for w in reservoir {
                online.update(&w.data);
            }
            exp.set_standardizer(online.freeze());
            // Self-label the reservoir under the *new* standardizer:
            // keep what the cloud-tier model still deems normal
            // (ground truth is unavailable in deployment). With nothing
            // left to recalibrate on, or a refit that fails, the
            // detectors stay as they were and the standardizer refit
            // alone is the refresh.
            let std_reservoir = exp.standardize_windows(reservoir);
            let mut reservoir_oracle = Oracle::unscored(&std_reservoir);
            exp.score_into(
                &mut reservoir_oracle,
                &std_reservoir,
                [Rows::NONE, Rows::NONE, Rows::All],
            );
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

        // Half two: price the shadow actions against the static delay
        // ladder, buffer them with their context rows, apply between
        // chunks.
        let mut policy_updates = 0;
        if config.adaptive {
            for (i, (context, &action)) in contexts.iter_rows().zip(&shadow).enumerate() {
                let r = reward.reward(oracle.correct(i, action), delays.delay_ms(action)) as f32;
                trainer.buffer(context, action, r);
            }
            policy_updates = trainer.refresh();
        }
        actions.extend(greedy);

        // F1, accuracy and reward: scored by the pass's replay below.
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

    let scores = score_pass(&scenario, outcomes, &actions, &reward, config.chunk, config.shards);
    for (stats, t) in chunks.iter_mut().zip(scores) {
        (stats.f1, stats.accuracy) = (t.confusion.f1(), t.confusion.accuracy());
        stats.mean_reward_x100 = t.mean_reward_x100();
    }

    if hec_telemetry::ENABLED {
        let labels: &[(&'static str, &str)] = &[("pipeline", config.label())];
        hec_telemetry::counter_add("drift.detections", labels, detections.len() as u64);
        hec_telemetry::counter_add("adapt.refreshes", labels, refreshes.len() as u64);
        hec_telemetry::counter_add(
            "adapt.policy_updates",
            labels,
            chunks.iter().map(|c| c.policy_updates as u64).sum(),
        );
        hec_telemetry::gauge_set("adapt.chunks", labels, chunks.len() as f64);
    }

    AdaptReport {
        label: config.label().into(),
        chunks,
        detections,
        refreshes,
        total_windows: stream.len(),
    }
}

/// Replays the pass through one fleet, window `i` (`outcomes[i]`) routed
/// by `actions[i]`, and scores each stream window once, into chunk
/// `i / chunk`. The windows the fleet emits past the stream (it rounds
/// up to whole devices, [`replay_scenario`]) load its queues but score
/// nowhere.
fn score_pass(
    scenario: &FleetScenario,
    outcomes: Vec<WindowOutcome>,
    actions: &[usize],
    reward: &RewardModel,
    chunk: usize,
    shards: usize,
) -> Vec<Tally> {
    let _span = hec_telemetry::WallSpan::new("core.replay");
    // Verdicts are read off the outcomes: the pass needs no thresholds.
    let pass = Oracle {
        outcomes,
        contexts: None,
        thresholds: [0.0; 3],
        confidence: ConfidenceRule::default(),
    };
    let n = pass.len();
    let mut tallies = vec![Tally::default(); n.div_ceil(chunk)];
    replay_table(scenario, &pass, SchemeKind::Adaptive, actions, reward, shards, |seq, ev, r| {
        if seq < n as u64 {
            let i = seq as usize;
            tallies[i / chunk].record(&pass, ev, i, r);
        }
    });
    tallies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DatasetConfig, Experiment, ExperimentConfig};
    use hec_anomaly::{
        AeArchitecture, AnomalyDetector, AutoencoderDetector, Detection, FitError, FitReport,
    };
    use hec_data::power::{PowerConfig, PowerGenerator};
    use hec_data::{DatasetSource, DriftKind, DriftSchedule};
    use hec_tensor::Matrix;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetConfig::Univariate(PowerConfig {
                days: 120,
                samples_per_day: 24,
                anomaly_rate: 0.15,
                noise_std: 0.03,
                seed: 7,
            }),
            ad_epochs: 60,
            policy: hec_bandit::TrainConfig {
                epochs: 10,
                learning_rate: 2e-3,
                ..Default::default()
            },
            seq2seq_hidden: 8,
            policy_hidden: 16,
            seed,
        }
    }

    /// A prepared experiment plus a drift-injected raw stream.
    fn fixture() -> (Experiment, PolicyTrainer, ContextScaler, Vec<LabeledWindow>) {
        let mut exp = Experiment::prepare(tiny_config(7));
        exp.train_detectors();
        let policy_corpus = exp.split.policy_train.clone();
        let policy_oracle = exp.oracle_over(&policy_corpus);
        let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
        let trainer = PolicyTrainer::new(
            policy,
            hec_bandit::TrainConfig {
                learning_rate: 5e-3,
                entropy_beta: 0.02,
                ..Default::default()
            },
        );

        // A fresh raw corpus (different generator seed), drifted mid-way.
        let base = PowerGenerator::new(PowerConfig {
            days: 120,
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
        let drift =
            DriftSchedule { kind: DriftKind::Step, onset: 60, level: 1.5 * sigma, scale: 0.2 };
        let stream = drift.apply(&base).windows;
        (exp, trainer, scaler, stream)
    }

    #[test]
    fn frozen_run_detects_but_never_refreshes() {
        let (mut exp, mut trainer, scaler, stream) = fixture();
        let config = AdaptConfig::frozen(20, 2);
        let report = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &config);
        assert_eq!(report.total_windows, stream.len());
        assert_eq!(report.chunks.len(), stream.len().div_ceil(20));
        assert!(report.refreshes.is_empty(), "frozen must never refresh");
        assert!(report.chunks.iter().all(|c| c.policy_updates == 0));
        assert!(
            !report.detections.is_empty(),
            "a 1.5σ step must trip the drift detector: {report:?}"
        );
        // Detection must be post-onset (window 60 ⇒ chunk 3+).
        assert!(report.detections[0] >= 3, "detections: {:?}", report.detections);
        // Thresholds never move in a frozen run.
        let t0 = report.chunks[0].threshold_iot;
        assert!(report.chunks.iter().all(|c| c.threshold_iot == t0));
    }

    #[test]
    fn adaptive_run_refreshes_after_detection() {
        let (mut exp, mut trainer, scaler, stream) = fixture();
        let config = AdaptConfig::adaptive(20, 2);
        let report = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &config);
        assert!(!report.detections.is_empty());
        assert!(!report.refreshes.is_empty(), "adaptive must refresh on alarm: {report:?}");
        assert!(report.refreshes[0] >= report.detections[0]);
        assert!(report.chunks.iter().any(|c| c.policy_updates > 0));
        // Refresh must move the layer-0 threshold (recalibration) at the
        // refresh chunk.
        let refresh_chunk = report.refreshes[0];
        if refresh_chunk > 0 {
            let before = report.chunks[refresh_chunk - 1].threshold_iot;
            let after = report.chunks[refresh_chunk].threshold_iot;
            assert_ne!(before, after, "recalibration must re-estimate the threshold");
        }
    }

    #[test]
    fn adaptive_recovers_better_than_frozen() {
        let (mut exp_f, mut trainer_f, scaler, stream) = fixture();
        let frozen_cfg = AdaptConfig::frozen(20, 2);
        let frozen = run_adaptive_stream(&mut exp_f, &mut trainer_f, &scaler, &stream, &frozen_cfg);

        let (mut exp_a, mut trainer_a, scaler_a, stream_a) = fixture();
        let adaptive_cfg = AdaptConfig::adaptive(20, 2);
        let adaptive =
            run_adaptive_stream(&mut exp_a, &mut trainer_a, &scaler_a, &stream_a, &adaptive_cfg);

        // Onset at window 60 / chunk 3.
        let fr = frozen.recovery(3, 0.05);
        let ar = adaptive.recovery(3, 0.05);
        // Same pre-drift pipeline ⇒ same baseline.
        assert_eq!(fr.baseline_f1, ar.baseline_f1);
        assert!(
            ar.post_f1 >= fr.post_f1,
            "adaptive post-drift F1 {:.3} must not trail frozen {:.3}",
            ar.post_f1,
            fr.post_f1
        );
    }

    #[test]
    fn recovery_stats_are_sane() {
        let (mut exp, mut trainer, scaler, stream) = fixture();
        let config = AdaptConfig::frozen(20, 2);
        let report = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &config);
        let r = report.recovery(3, 0.05);
        assert!((0.0..=1.0).contains(&r.baseline_f1));
        assert!(r.cumulative_reward_loss >= 0.0);
        if let Some(k) = r.recovery_chunks {
            assert!(k < report.chunks.len());
        }
    }

    /// A 115-window pass at 25-window chunks: the replay fleet emits 120
    /// windows (12 devices × 10), yet every stream window scores exactly
    /// once, into its own chunk, at every shard count.
    #[test]
    fn every_stream_window_scores_once_into_its_chunk() {
        use hec_sim::DatasetKind;

        let n = 115;
        let outcomes: Vec<WindowOutcome> = (0..n)
            .map(|i| WindowOutcome {
                truth: i % 4 == 0,
                min_log_pd: [-5.0; 3],
                anomalous_fraction: [0.0, 0.2, if i % 4 == 0 { 0.4 } else { 0.0 }],
            })
            .collect();
        let actions: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scenario = replay_scenario(DatasetKind::Univariate, 384, n as u64);
        assert_eq!(scenario.total_windows(), 120);
        let reward = RewardModel::new(0.0005);
        for shards in [1, 2, 4] {
            let tallies = score_pass(&scenario, outcomes.clone(), &actions, &reward, 25, shards);
            let routed: Vec<u64> =
                tallies.iter().map(|t| t.confusion.total() as u64 + t.missed).collect();
            assert_eq!(routed, [25, 25, 25, 25, 15], "shards={shards}");
        }
    }

    thread_local! {
        /// Each chunk's greedy and shadow-sampled actions, in stream order.
        pub(super) static DECISIONS: std::cell::RefCell<Vec<(Vec<usize>, Vec<usize>)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// A detector that counts the windows it is asked to score.
    struct Counting {
        inner: Box<dyn AnomalyDetector>,
        scored: Arc<AtomicUsize>,
    }

    impl AnomalyDetector for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn param_count(&self) -> usize {
            self.inner.param_count()
        }
        fn fit(&mut self, train: &[LabeledWindow], epochs: usize) -> Result<FitReport, FitError> {
            self.inner.fit(train, epochs)
        }
        fn detect(&mut self, window: &LabeledWindow) -> Detection {
            self.scored.fetch_add(1, Ordering::Relaxed);
            self.inner.detect(window)
        }
        fn detect_batch(&mut self, windows: &[LabeledWindow]) -> Vec<Detection> {
            self.scored.fetch_add(windows.len(), Ordering::Relaxed);
            self.inner.detect_batch(windows)
        }
        fn scoring_work(&self, windows: &[LabeledWindow]) -> u64 {
            self.inner.scoring_work(windows)
        }
        fn context_features_batch(&mut self, windows: &[LabeledWindow]) -> Option<Matrix> {
            self.inner.context_features_batch(windows)
        }
        fn threshold(&self) -> Option<f32> {
            self.inner.threshold()
        }
        fn recalibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
            self.inner.recalibrate(calibration)
        }
    }

    /// What a frozen and an adaptive pass ask the detectors for: every
    /// window at IoT, above it exactly the windows routed or
    /// shadow-sampled there, plus each refresh's reservoir at the cloud.
    #[test]
    fn the_loop_scores_only_the_entries_it_reads() {
        let (mut exp, mut trainer, scaler, stream) = fixture();
        let counts: [Arc<AtomicUsize>; 3] = Default::default();
        for (det, scored) in exp.catalog.detectors_mut().iter_mut().zip(&counts) {
            let placeholder = Box::new(AutoencoderDetector::new("-", AeArchitecture::iot(24), 0));
            let inner = std::mem::replace(det, placeholder);
            *det = Box::new(Counting { inner, scored: scored.clone() });
        }
        DECISIONS.take();
        let chunk = 20;
        let mut reservoirs = 0;
        for config in [AdaptConfig::frozen(chunk, 2), AdaptConfig::adaptive(chunk, 2)] {
            let report = run_adaptive_stream(&mut exp, &mut trainer, &scaler, &stream, &config);
            let end = |c: usize| ((c + 1) * chunk).min(stream.len());
            reservoirs += report.refreshes.iter().map(|&c| end(c).min(chunk)).sum::<usize>();
        }
        assert!(reservoirs > 0, "the fixture must refresh");
        let decisions = DECISIONS.take();
        assert_eq!(decisions.len(), 2 * stream.len().div_ceil(chunk));
        let reads = |layer| -> usize {
            decisions
                .iter()
                .map(|(greedy, shadow)| {
                    (0..greedy.len())
                        .filter(|&i| greedy[i] == layer || shadow.get(i) == Some(&layer))
                        .count()
                })
                .sum()
        };
        let scored = counts.map(|c| c.load(Ordering::Relaxed));
        assert_eq!(scored, [2 * stream.len(), reads(1), reads(2) + reservoirs]);
        assert!(reads(1) + reads(2) > 0, "the fixture must read some layer above IoT");
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_is_rejected() {
        let (mut exp, mut trainer, scaler, _stream) = fixture();
        let config = AdaptConfig::frozen(20, 2);
        run_adaptive_stream(&mut exp, &mut trainer, &scaler, &[], &config);
    }
}
