//! The end-to-end experiment pipeline.
//!
//! Mirrors the paper's procedure: generate the dataset → standardise →
//! split (§III-A) → train the three AD models on normal data → calibrate
//! the logPD scorers → precompute the frozen oracle → train the policy
//! network on the policy-training split → evaluate all five schemes on the
//! whole dataset (Tables I and II).

use hec_anomaly::{FitError, FitReport, ModelCatalog};
use hec_bandit::{
    ContextScaler, PolicyNetwork, PolicyTrainer, RewardModel, StaticDelays, TrainConfig,
    TrainingCurve,
};
use hec_data::{
    mhealth::{MhealthConfig, MhealthGenerator},
    paper_split,
    power::{PowerConfig, PowerGenerator},
    standardize::Standardizer,
    BinaryConfusion, DatasetSource, LabeledCorpus, LabeledWindow, PaperSplit,
};
use hec_sim::{DatasetKind, HecTopology};
use hec_tensor::parallel::parallel_map_mut;
use hec_tensor::Matrix;

use crate::oracle::Oracle;
use crate::report::{Table1Row, Table2Row};
use crate::scheme::{SchemeEvaluator, SchemeKind};

/// Which dataset to run, with its generator configuration.
#[derive(Debug, Clone)]
pub enum DatasetConfig {
    /// Synthetic power-demand data and the autoencoder catalog.
    Univariate(PowerConfig),
    /// Synthetic MHEALTH-like data and the seq2seq catalog.
    Multivariate(MhealthConfig),
}

impl DatasetConfig {
    /// The dataset family.
    pub fn kind(&self) -> DatasetKind {
        match self {
            DatasetConfig::Univariate(_) => DatasetKind::Univariate,
            DatasetConfig::Multivariate(_) => DatasetKind::Multivariate,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset and generator parameters.
    pub dataset: DatasetConfig,
    /// Training epochs for the AD models.
    pub ad_epochs: usize,
    /// Policy-network training hyper-parameters.
    pub policy: TrainConfig,
    /// Hidden units of the IoT seq2seq model (multivariate only; the edge
    /// model doubles this and the cloud model is bidirectional, §II-A2).
    pub seq2seq_hidden: usize,
    /// Hidden units of the policy network (paper: 100).
    pub policy_hidden: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Default univariate configuration (sized for release-mode runs).
    pub fn univariate() -> Self {
        Self {
            dataset: DatasetConfig::Univariate(PowerConfig::default()),
            ad_epochs: 150,
            policy: TrainConfig { epochs: 40, learning_rate: 1e-3, ..Default::default() },
            seq2seq_hidden: 32,
            policy_hidden: 100,
            seed: 42,
        }
    }

    /// Default multivariate configuration (sized for release-mode runs).
    pub fn multivariate() -> Self {
        Self {
            dataset: DatasetConfig::Multivariate(MhealthConfig {
                subjects: 4,
                session_len: 512,
                normal_session_multiplier: 6,
                ..Default::default()
            }),
            ad_epochs: 15,
            policy: TrainConfig { epochs: 30, learning_rate: 1e-3, ..Default::default() },
            seq2seq_hidden: 32,
            policy_hidden: 100,
            seed: 42,
        }
    }

    /// Payload size of one window in bytes (f32 samples over the socket).
    pub fn payload_bytes(&self) -> usize {
        match &self.dataset {
            DatasetConfig::Univariate(c) => c.samples_per_day * 4,
            DatasetConfig::Multivariate(c) => c.window * 18 * 4,
        }
    }
}

/// Everything the harness needs to print Tables I and II and the figures.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Dataset family this report covers.
    pub kind: DatasetKind,
    /// Table I rows (per-model comparison).
    pub table1: Vec<Table1Row>,
    /// Table II rows (per-scheme comparison).
    pub table2: Vec<Table2Row>,
    /// The policy network's learning curve.
    pub training_curve: TrainingCurve,
    /// Adaptive scheme's action histogram (windows per layer).
    pub adaptive_actions: [usize; 3],
    /// Number of windows in the evaluation corpus.
    pub eval_windows: usize,
}

/// A fully assembled experiment, exposing each pipeline stage.
pub struct Experiment {
    config: ExperimentConfig,
    topology: HecTopology,
    /// The standardised, split corpora.
    pub split: PaperSplit,
    /// The per-channel scaling fitted on the corpus' normal windows —
    /// kept so externally supplied windows (e.g. an amplified replay
    /// trace) can be brought into the same space the detectors were
    /// trained in.
    standardizer: Standardizer,
    catalog: ModelCatalog,
    thresholds: [f32; 3],
}

impl Experiment {
    /// Stage 1–2: generate, standardise and split the dataset; build the
    /// (untrained) model catalog and the calibrated testbed topology.
    pub fn prepare(config: ExperimentConfig) -> Self {
        let corpus = match &config.dataset {
            DatasetConfig::Univariate(power) => PowerGenerator::new(power.clone()).load(),
            DatasetConfig::Multivariate(mh) => MhealthGenerator::new(mh.clone()).load(),
        }
        .expect("synthetic sources are infallible");
        Self::prepare_with_corpus(config, corpus)
    }

    /// Like [`Experiment::prepare`], but on an externally supplied corpus
    /// — the entry point for **real traces** loaded through a
    /// [`DatasetSource`] (see `hec_data::ingest`, feature `real-data`).
    /// `config.dataset` still selects the model catalog, delay
    /// calibration and payload sizing; its generator parameters must
    /// describe the corpus' window shape.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty, if any window's shape differs from
    /// the configured one (`samples_per_day × 1` univariate,
    /// `window × 18` multivariate), or if any window holds non-finite
    /// samples (real-trace ingestion resolves those through its
    /// missing-value policy before the corpus reaches this point).
    pub fn prepare_with_corpus(config: ExperimentConfig, corpus: LabeledCorpus) -> Self {
        assert!(!corpus.is_empty(), "cannot prepare an experiment on an empty corpus");
        let kind = config.dataset.kind();
        let topology = HecTopology::paper_testbed(kind);
        let expected = match &config.dataset {
            DatasetConfig::Univariate(power) => (power.samples_per_day, 1),
            DatasetConfig::Multivariate(mh) => (mh.window, 18),
        };
        for (i, w) in corpus.windows.iter().enumerate() {
            assert_eq!(
                w.data.shape(),
                expected,
                "corpus window {i} has shape {:?}, but the configured dataset expects {:?}",
                w.data.shape(),
                expected
            );
        }
        let LabeledCorpus { windows, classes: class_of } = corpus;

        // Standardise with statistics from normal windows only (the paper
        // standardises all training tasks; detectors must not see anomaly
        // statistics).
        let normal_rows: Vec<Matrix> =
            windows.iter().filter(|w| !w.anomalous).map(|w| w.data.clone()).collect();
        assert!(!normal_rows.is_empty(), "corpus has no normal windows to standardise on");
        let stacked = stack_rows(&normal_rows);
        let standardizer = Standardizer::fit(&stacked);
        let windows: Vec<LabeledWindow> = windows
            .into_iter()
            .map(|w| LabeledWindow::new(standardizer.transform(&w.data), w.anomalous))
            .collect();

        let split = paper_split(&windows, &|i| class_of[i], config.seed);

        let catalog = match &config.dataset {
            DatasetConfig::Univariate(power) => {
                ModelCatalog::univariate(power.samples_per_day, config.seed)
            }
            DatasetConfig::Multivariate(_) => {
                ModelCatalog::multivariate(18, config.seq2seq_hidden, config.seed)
            }
        };

        Self { config, topology, split, standardizer, catalog, thresholds: [0.0; 3] }
    }

    /// Standardises externally supplied raw windows with the same
    /// per-channel statistics the experiment's corpus was standardised
    /// with — the bridge from an amplified ingestion-side corpus to the
    /// space the detectors and the oracle operate in.
    pub fn standardize_windows(&self, windows: &[LabeledWindow]) -> Vec<LabeledWindow> {
        windows
            .iter()
            .map(|w| LabeledWindow::new(self.standardizer.transform(&w.data), w.anomalous))
            .collect()
    }

    /// The calibrated testbed topology.
    pub fn topology(&self) -> &HecTopology {
        &self.topology
    }

    /// The per-channel standardizer currently bridging raw windows into
    /// the detectors' space (fitted on the corpus' normal windows at
    /// [`Experiment::prepare`] time, possibly refit since by online
    /// adaptation).
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Replaces the standardizer — the online-adaptation path: a refit
    /// from a recent reservoir (see [`crate::adapt`]) takes effect for
    /// every subsequent [`Experiment::standardize_windows`] call. The
    /// detectors themselves are untouched; pair with
    /// [`Experiment::recalibrate_detectors`] when the score distribution
    /// moved too.
    ///
    /// # Panics
    ///
    /// Panics if `standardizer`'s channel count differs from the fitted
    /// one.
    pub fn set_standardizer(&mut self, standardizer: Standardizer) {
        assert_eq!(
            standardizer.channels(),
            self.standardizer.channels(),
            "replacement standardizer must keep the corpus channel count"
        );
        self.standardizer = standardizer;
    }

    /// The calibrated logPD thresholds currently in force (bottom-up),
    /// as last set by [`Experiment::train_detectors`] or
    /// [`Experiment::recalibrate_detectors`].
    pub fn thresholds(&self) -> [f32; 3] {
        self.thresholds
    }

    /// Recalibrates every detector's logPD scorer and threshold on fresh
    /// **normal** windows without retraining weights — the cheap
    /// in-fleet refresh of online adaptation. On success the experiment's
    /// threshold table is updated and returned (bottom-up).
    ///
    /// # Errors
    ///
    /// Propagates the first detector's [`FitError`]; detectors earlier in
    /// the ladder keep their new calibration in that case (callers treat
    /// a failed refresh as "skip this round", and the next successful
    /// refresh re-aligns all three).
    pub fn recalibrate_detectors(
        &mut self,
        calibration: &[LabeledWindow],
    ) -> Result<[f32; 3], FitError> {
        let mut thresholds = self.thresholds;
        for (layer, det) in self.catalog.detectors_mut().iter_mut().enumerate() {
            thresholds[layer] = det.recalibrate(calibration)?;
        }
        self.thresholds = thresholds;
        Ok(thresholds)
    }

    /// Replaces `layer`'s execution time in this experiment's topology —
    /// every downstream consumer (the static delay table, policy training,
    /// scheme evaluation) sees the override. This is how `repro_quant`'s
    /// measured quantised layer-0 delay feeds the reward economy.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `ms` is not finite and positive.
    pub fn override_exec_ms(&mut self, layer: usize, ms: f64) {
        self.topology = self.topology.clone().with_exec_ms(layer, ms);
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Stage 3: train all three detectors on the AD training split and
    /// calibrate their scorers — [`Experiment::try_train_detectors`] for
    /// callers that treat a failed fit as a bug in their split.
    ///
    /// # Panics
    ///
    /// Panics if a detector fails to fit (invalid split).
    pub fn train_detectors(&mut self) {
        if let Err((name, e)) = self.fit_detectors() {
            panic!("failed to fit {name}: {e}");
        }
    }

    /// Stage 3 with a typed error: fits and calibrates the three detectors
    /// **side by side**, one per [`crate::parallel`] worker (at two
    /// workers: IoT and edge on the calling thread, cloud — about 60 % of
    /// the work — beside them), and returns their reports bottom-up. The
    /// fits share nothing, so every weight and threshold is the one the
    /// serial loop (`HEC_THREADS=1`) produces.
    ///
    /// # Errors
    ///
    /// The [`FitError`] of the first detector in the ladder that failed;
    /// the threshold table is then left as it was (the detectors
    /// themselves have been trained on, so re-`prepare` before retrying).
    ///
    /// # Panics
    ///
    /// A panic inside a fit reaches the caller with its own payload.
    pub fn try_train_detectors(&mut self) -> Result<[FitReport; 3], FitError> {
        self.fit_detectors().map_err(|(_, e)| e)
    }

    /// The fan-out behind both entry points; an error names its detector.
    fn fit_detectors(&mut self) -> Result<[FitReport; 3], (String, FitError)> {
        let (train, epochs) = (&self.split.ad_train, self.config.ad_epochs);
        let fits = parallel_map_mut(self.catalog.detectors_mut(), |_, det| {
            det.fit(train, epochs).map_err(|e| (det.name().to_owned(), e))
        });
        let reports: Vec<FitReport> = fits.into_iter().collect::<Result<_, _>>()?;
        let reports: [FitReport; 3] =
            reports.try_into().expect("a catalog holds exactly K = 3 detectors");
        self.thresholds = reports.map(|r| r.threshold);
        Ok(reports)
    }

    /// Stage 4: Table I — evaluate each detector on the AD test split.
    pub fn table1(&mut self) -> Vec<Table1Row> {
        let test = &self.split.ad_test;
        let mut rows = Vec::with_capacity(3);
        for (layer, det) in self.catalog.detectors_mut().iter_mut().enumerate() {
            let mut confusion = BinaryConfusion::new();
            for (d, w) in det.detect_batch(test).into_iter().zip(test.iter()) {
                confusion.record(d.anomalous, w.anomalous);
            }
            rows.push(Table1Row {
                model: det.name().to_owned(),
                layer: hec_anomaly::HecLayer::from_index(layer),
                params: det.param_count(),
                accuracy_pct: confusion.accuracy() * 100.0,
                f1: confusion.f1(),
                exec_ms: self.topology.exec_ms(layer),
            });
        }
        rows
    }

    /// Stage 5: precompute the frozen oracle over a corpus.
    pub fn oracle_over(&mut self, windows: &[LabeledWindow]) -> Oracle {
        Oracle::precompute_with_thresholds(&mut self.catalog, windows, self.thresholds)
    }

    /// The static per-action delay table of this experiment's topology
    /// and payload — the unloaded `t_e2e` ladder behind Table II, which
    /// training and ablations price rewards at.
    pub fn static_delays(&self) -> StaticDelays {
        static_delay_table(&self.topology, self.config.payload_bytes())
    }

    /// Stage 6: train the policy network on the policy-training corpus
    /// against the **static** delay table (the paper's original training
    /// regime; see [`crate::fleet_train`] for the load-aware variant).
    /// Returns the trained policy, its context scaler and the learning curve.
    pub fn train_policy(
        &mut self,
        policy_oracle: &Oracle,
    ) -> (PolicyNetwork, ContextScaler, TrainingCurve) {
        let contexts = policy_oracle.contexts();
        let scaler = ContextScaler::fit(&contexts);
        let scaled = scaler.transform_all(&contexts);
        let reward = RewardModel::new(self.config.dataset.kind().paper_alpha());
        let delays = self.static_delays();

        let input_dim = scaled[0].len();
        let policy = PolicyNetwork::new(
            input_dim,
            self.config.policy_hidden,
            self.topology.num_layers(),
            self.config.seed,
        );
        let mut trainer = PolicyTrainer::new(policy, self.config.policy);
        let curve = trainer.train_with_delays(
            &scaled,
            &mut |i, a| policy_oracle.correct(i, a),
            &delays,
            &reward,
        );
        (trainer.into_policy(), scaler, curve)
    }

    /// Stage 7: Table II — evaluate all five schemes on an oracle corpus.
    pub fn table2(
        &self,
        eval_oracle: &Oracle,
        policy: &mut PolicyNetwork,
        scaler: &ContextScaler,
    ) -> (Vec<Table2Row>, [usize; 3]) {
        let reward = RewardModel::new(self.config.dataset.kind().paper_alpha());
        let ev = SchemeEvaluator::new(&self.topology, self.config.payload_bytes(), reward);
        let mut rows = Vec::with_capacity(5);
        let mut adaptive_actions = [0usize; 3];
        for kind in SchemeKind::ALL {
            let result = match kind {
                SchemeKind::Adaptive => ev.evaluate(kind, eval_oracle, Some(policy), Some(scaler)),
                _ => ev.evaluate(kind, eval_oracle, None, None),
            };
            if kind == SchemeKind::Adaptive {
                adaptive_actions = result.action_histogram;
            }
            rows.push(Table2Row {
                scheme: kind,
                f1: result.confusion.f1(),
                accuracy_pct: result.confusion.accuracy() * 100.0,
                delay_ms: result.mean_delay_ms,
                reward: result.reward_x100,
            });
        }
        (rows, adaptive_actions)
    }

    /// Runs the whole pipeline and assembles the report.
    pub fn run(config: ExperimentConfig) -> ExperimentReport {
        let kind = config.dataset.kind();
        let mut exp = Self::prepare(config);
        exp.train_detectors();
        let table1 = exp.table1();

        let policy_corpus = exp.split.policy_train.clone();
        let policy_oracle = exp.oracle_over(&policy_corpus);
        let (mut policy, scaler, training_curve) = exp.train_policy(&policy_oracle);

        let eval_corpus = exp.split.full.clone();
        let eval_oracle = exp.oracle_over(&eval_corpus);
        let (table2, adaptive_actions) = exp.table2(&eval_oracle, &mut policy, &scaler);

        ExperimentReport {
            kind,
            table1,
            table2,
            training_curve,
            adaptive_actions,
            eval_windows: eval_oracle.len(),
        }
    }
}

/// The static per-action delay table for a topology and payload: the
/// unloaded end-to-end `t_e2e` of every layer, as [`StaticDelays`]. Every
/// consumer of the fixed-delay reward path goes through this (training,
/// ablations, figures).
pub fn static_delay_table(topology: &HecTopology, payload_bytes: usize) -> StaticDelays {
    StaticDelays::new(
        (0..topology.num_layers()).map(|l| topology.end_to_end_ms(l, payload_bytes)).collect(),
    )
}

/// Vertically stacks matrices (same column count).
fn stack_rows(mats: &[Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "nothing to stack");
    let mut out = mats[0].clone();
    for m in &mats[1..] {
        out = out.vconcat(m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_univariate() -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetConfig::Univariate(PowerConfig {
                days: 120,
                samples_per_day: 24,
                anomaly_rate: 0.15,
                noise_std: 0.03,
                seed: 7,
            }),
            ad_epochs: 60,
            policy: TrainConfig { epochs: 25, learning_rate: 2e-3, ..Default::default() },
            seq2seq_hidden: 8,
            policy_hidden: 32,
            seed: 7,
        }
    }

    #[test]
    fn univariate_pipeline_end_to_end() {
        let report = Experiment::run(tiny_univariate());
        assert_eq!(report.kind, DatasetKind::Univariate);
        assert_eq!(report.table1.len(), 3);
        assert_eq!(report.table2.len(), 5);

        // Table I invariants: params ladder up, exec time ladders down.
        assert!(report.table1[0].params < report.table1[2].params);
        assert!(report.table1[0].exec_ms > report.table1[2].exec_ms);

        // Table II invariants.
        let by_scheme =
            |k: SchemeKind| report.table2.iter().find(|r| r.scheme == k).expect("scheme present");
        let iot = by_scheme(SchemeKind::IoTDevice);
        let cloud = by_scheme(SchemeKind::Cloud);
        let adaptive = by_scheme(SchemeKind::Adaptive);
        let successive = by_scheme(SchemeKind::Successive);

        assert!(iot.delay_ms < cloud.delay_ms);
        assert!(adaptive.delay_ms < cloud.delay_ms, "adaptive should undercut always-cloud");
        assert!(successive.reward.is_none());
        assert!(adaptive.reward.is_some());
        // Sanity: every accuracy is a percentage.
        for row in &report.table2 {
            assert!((0.0..=100.0).contains(&row.accuracy_pct), "{row:?}");
        }
        // The policy must actually mix actions or pick a sensible single
        // layer; at minimum the histogram sums to the corpus size.
        assert_eq!(report.adaptive_actions.iter().sum::<usize>(), report.eval_windows);
    }

    #[test]
    fn stages_can_run_separately() {
        let mut exp = Experiment::prepare(tiny_univariate());
        assert_eq!(exp.topology().num_layers(), 3);
        exp.train_detectors();
        let t1 = exp.table1();
        assert_eq!(t1.len(), 3);
        let corpus = exp.split.policy_train.clone();
        let oracle = exp.oracle_over(&corpus);
        assert_eq!(oracle.len(), corpus.len());
        let (_policy, scaler, curve) = exp.train_policy(&oracle);
        assert_eq!(scaler.dim(), 4);
        assert!(!curve.mean_reward_per_epoch.is_empty());
    }

    /// Small enough for a debug build, large enough (3 800 deployed steps
    /// over 18 k parameters) that `Oracle::precompute` scores the whole
    /// corpus side by side.
    fn tiny_multivariate() -> ExperimentConfig {
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
            ad_epochs: 1,
            policy: TrainConfig { epochs: 2, ..Default::default() },
            seq2seq_hidden: 8,
            policy_hidden: 16,
            seed: 7,
        }
    }

    /// Stage 3 and stage 5 from nothing under `threads` workers.
    fn fit_and_score(
        config: &ExperimentConfig,
        catalog: Option<fn() -> ModelCatalog>,
        threads: usize,
    ) -> ([FitReport; 3], [f32; 3], Oracle) {
        crate::parallel::with_thread_count(threads, || {
            let mut exp = Experiment::prepare(config.clone());
            if let Some(build) = catalog {
                exp.catalog = build();
            }
            let reports = exp.try_train_detectors().expect("valid split");
            let corpus = exp.split.full.clone();
            (reports, exp.thresholds(), exp.oracle_over(&corpus))
        })
    }

    #[test]
    fn detectors_fit_and_score_the_same_at_any_worker_count() {
        let quantized: fn() -> ModelCatalog = || {
            use hec_anomaly::{AeArchitecture as Arch, AutoencoderDetector as Ae};
            use hec_anomaly::{QuantMode, QuantScheme};
            let mut iot = Ae::new("AE-IoT", Arch::iot(24), 7);
            iot.set_quant_mode(Some(QuantMode::int8(QuantScheme::PerRow)));
            ModelCatalog::from_detectors(vec![
                Box::new(iot),
                Box::new(Ae::new("AE-Edge", Arch::edge(24), 8)),
                Box::new(Ae::new("AE-Cloud", Arch::cloud(24), 9)),
            ])
        };
        let mut uni = tiny_univariate();
        uni.ad_epochs = 10;
        for (name, config, catalog) in [
            ("univariate", &uni, None),
            ("univariate_quantized", &uni, Some(quantized)),
            ("multivariate", &tiny_multivariate(), None),
        ] {
            let serial = fit_and_score(config, catalog, 1);
            assert_eq!(serial.1, serial.0.map(|r| r.threshold), "{name}");
            // Only the multivariate corpus is heavy enough to score side by
            // side; the autoencoders' fan-out is the fit alone.
            let mut exp = Experiment::prepare(config.clone());
            let work: u64 =
                exp.catalog.detectors_mut().iter().map(|d| d.scoring_work(&exp.split.full)).sum();
            assert_eq!(work >= crate::oracle::SIDE_BY_SIDE_MACS, name == "multivariate", "{work}");
            assert!(serial.1.iter().all(|t| t.is_finite()), "{name}");
            for threads in [2, 3, 4] {
                assert_eq!(fit_and_score(config, catalog, threads), serial, "{name} x {threads}");
            }
        }
    }

    #[test]
    fn a_failed_fit_is_a_typed_error_and_leaves_the_thresholds() {
        for threads in [1, 3] {
            crate::parallel::with_thread_count(threads, || {
                let mut exp = Experiment::prepare(tiny_univariate());
                exp.split.ad_train[5].anomalous = true;
                let err = exp.try_train_detectors().unwrap_err();
                assert!(matches!(err, FitError::InvalidTrainingSet { .. }), "{err}");
                assert_eq!(exp.thresholds(), [0.0; 3], "thresholds must stay untouched");
            });
        }
    }

    #[test]
    #[should_panic(expected = "failed to fit AE-IoT: invalid training set")]
    fn train_detectors_panics_with_the_first_detectors_message() {
        crate::parallel::with_thread_count(2, || {
            let mut exp = Experiment::prepare(tiny_univariate());
            exp.split.ad_train[0].anomalous = true;
            exp.train_detectors();
        });
    }

    #[test]
    fn payload_bytes_reflect_window_shape() {
        assert_eq!(ExperimentConfig::univariate().payload_bytes(), 96 * 4);
        assert_eq!(ExperimentConfig::multivariate().payload_bytes(), 128 * 18 * 4);
    }

    #[test]
    fn prepare_with_corpus_matches_prepare_for_synthetic_sources() {
        let config = tiny_univariate();
        let via_prepare = Experiment::prepare(config.clone());
        let corpus = match &config.dataset {
            DatasetConfig::Univariate(power) => PowerGenerator::new(power.clone()).load().unwrap(),
            _ => unreachable!(),
        };
        let via_corpus = Experiment::prepare_with_corpus(config, corpus);
        assert_eq!(via_prepare.split.sizes(), via_corpus.split.sizes());
        for (a, b) in via_prepare.split.ad_train.iter().zip(via_corpus.split.ad_train.iter()) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    #[should_panic(expected = "expects (24, 1)")]
    fn prepare_with_corpus_rejects_mismatched_window_shapes() {
        use hec_data::LabeledWindow;
        use hec_tensor::Matrix;
        let windows: Vec<LabeledWindow> =
            (0..12).map(|_| LabeledWindow::new(Matrix::zeros(8, 1), false)).collect();
        let classes = vec![None; 12];
        let _ = Experiment::prepare_with_corpus(
            tiny_univariate(),
            LabeledCorpus::new(windows, classes),
        );
    }
}
