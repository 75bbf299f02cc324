//! Autoencoder detectors for univariate data (AE-IoT / AE-Edge / AE-Cloud).
//!
//! §II-A1: *"we build three AE-based models called AE-IoT, AE-Edge, and
//! AE-Cloud … These models have three, five, seven layers and thus have
//! different capabilities of learning features for data representation."*
//! Layer counts follow the paper's convention of counting neuron layers
//! (input + hidden(s) + output).
//!
//! # Inference
//!
//! Every scoring entry point — [`AnomalyDetector::detect`],
//! [`AnomalyDetector::detect_batch`], calibration inside `fit` and
//! `recalibrate` — runs one routine: gather a block of windows into
//! reused scratch, push the block through the layers in two ping/pong
//! activation buffers (`affine_into` + in-place activation), subtract in
//! place, score each row. The weights are only read, the scratch is per
//! thread, so a warmed call allocates nothing and blocks are independent:
//! dense rows are, and the gemm kernels fix each element's accumulation
//! order.
//! `detect_batch` therefore walks its corpus in `BLOCK_ROWS`-window blocks
//! and, once every worker would get `PAR_GRAIN_ROWS` windows, gives each
//! [`hec_tensor::parallel`] worker a contiguous span of the corpus to walk
//! — with results equal to per-window `detect` bit for bit at any worker
//! count. `detect` is a one-row block; calibration gathers its errors block
//! by block straight into the one flat matrix the scorer is fitted on.
//!
//! That row split is the only thread a detector ever spawns, and only from
//! [`ROW_SPLIT_WINDOWS`]. Below it a *catalog's* three detectors can still
//! run side by side — fitted, or scored when
//! [`AnomalyDetector::scoring_work`] pays for a worker — which is
//! `hec-core`'s decision (`Experiment::train_detectors`,
//! `Oracle::precompute`), not this module's; inside such a worker the row
//! split runs inline.
//!
//! At the paper's 96-sample window the narrow layers — the 96 → 3, 32 → 8
//! and 24 → 12 bottlenecks, the last 8 columns of 48 → 24 and 12 → 24 —
//! are not a multiple of the gemm's 16-column tile. A block of 4 or more
//! windows (every full block) runs their columns through a zero-padded
//! full register tile rather than a scalar loop ([`hec_tensor::kernel`]),
//! and each window's minimum logPD and below-threshold count fold over 8
//! independent lanes (`LogPdScorer::score_window_scalar`); neither
//! changes a bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use std::cell::RefCell;

use hec_data::LabeledWindow;
use hec_nn::{Activation, Dense, Layer, Mse, PingPong, RmsProp, Sequential};
use hec_tensor::parallel::parallel_map_spans;
use hec_tensor::Matrix;

use crate::detector::{validate_training_set, AnomalyDetector, Detection, FitError, FitReport};
use crate::scorer::LogPdScorer;

/// Windows gathered per inference block: four of the f32 kernel's 4-row
/// register tiles. At the paper's 96-sample window the gathered rows and
/// both activation buffers are 3 × 6 KB, so a block goes through every
/// layer, the subtraction and the scoring without leaving L1d. Swept 4–1024
/// at one and two workers (EXPERIMENTS.md, PR 13): 8 and 16 tie for
/// fastest, 32 and up cost 4–10 % more.
const BLOCK_ROWS: usize = 16;

/// Fewest windows per worker before `detect_batch` fans out. A worker's
/// spawn and cold scratch cost about what a hundred windows do: at 128
/// windows per worker fanning out loses, at 256–512 it is a wash, from
/// 1024 it wins clearly (EXPERIMENTS.md, PR 13). So a call below 2048
/// windows runs inline on the caller's warm scratch — 50-window adaptation
/// chunks and the offline splits never spawn — and an 18 000-window replay
/// segment uses every worker.
const PAR_GRAIN_ROWS: usize = 1024;

/// The corpus size from which [`AnomalyDetector::detect_batch`] of an
/// autoencoder splits its rows between the parallel workers (two
/// `PAR_GRAIN_ROWS`); below it the call runs on the calling thread alone,
/// and a caller holding several detectors may give each a thread instead.
pub const ROW_SPLIT_WINDOWS: usize = 2 * PAR_GRAIN_ROWS;

/// Per-thread inference scratch: grows once to the largest block the
/// thread has seen, then serves every detector on it.
struct Scratch {
    /// The block's gathered windows, then — in place — their per-point
    /// reconstruction errors.
    rows: Matrix,
    acts: PingPong,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        rows: Matrix::zeros(1, 1),
        acts: PingPong::new(),
    });
}

/// Neuron-layer sizes of an autoencoder, including input and output
/// (`[96, 64, 96]` is the paper's "three layers").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AeArchitecture {
    /// Sizes of every neuron layer, first and last must be equal.
    pub layer_sizes: Vec<usize>,
}

impl AeArchitecture {
    /// The 3-layer AE-IoT architecture for the given input width: a very
    /// narrow single bottleneck (~input/32). The bottleneck cannot track the
    /// data's latent factors, so its reconstruction envelope on normal data
    /// is wide and subtle deviations stay inside it — this is what limits
    /// the IoT model to "easy" anomalies.
    pub fn iot(input: usize) -> Self {
        Self { layer_sizes: vec![input, (input / 32).max(2), input] }
    }

    /// The 5-layer AE-Edge architecture: a deeper funnel down to ~input/12,
    /// enough capacity for most of the latent factors.
    pub fn edge(input: usize) -> Self {
        Self {
            layer_sizes: vec![
                input,
                (input / 3).max(4),
                (input / 12).max(3),
                (input / 3).max(4),
                input,
            ],
        }
    }

    /// The 7-layer AE-Cloud architecture: the widest and deepest
    /// (bottleneck ~input/8), with the tightest normal-data envelope and
    /// hence the best sensitivity.
    pub fn cloud(input: usize) -> Self {
        Self {
            layer_sizes: vec![
                input,
                input / 2,
                input / 4,
                (input / 8).max(4),
                input / 4,
                input / 2,
                input,
            ],
        }
    }

    /// Number of neuron layers (the paper's "three/five/seven").
    pub fn depth(&self) -> usize {
        self.layer_sizes.len()
    }

    /// Validates the architecture.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 layers, any layer is zero-width, or the input
    /// and output widths differ.
    fn validate(&self) {
        assert!(self.depth() >= 3, "autoencoder needs at least 3 neuron layers");
        assert!(self.layer_sizes.iter().all(|&s| s > 0), "zero-width layer");
        assert_eq!(
            self.layer_sizes.first(),
            self.layer_sizes.last(),
            "autoencoder input and output widths must match"
        );
    }
}

/// An autoencoder anomaly detector over flattened univariate windows.
///
/// Scoring: per-timestep scalar reconstruction errors, 1-D Gaussian logPD
/// (§II-A3), threshold calibrated under `CALIBRATION_RULE`.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::{AeArchitecture, AnomalyDetector, AutoencoderDetector};
/// use hec_data::LabeledWindow;
/// use hec_tensor::Matrix;
///
/// // Normal windows: a fixed ramp + tiny jitter.
/// let train: Vec<LabeledWindow> = (0..40)
///     .map(|i| {
///         let v: Vec<f32> = (0..16).map(|t| t as f32 / 16.0 + 0.001 * (i % 5) as f32).collect();
///         LabeledWindow::new(Matrix::from_vec(16, 1, v), false)
///     })
///     .collect();
/// let mut det = AutoencoderDetector::new("AE-demo", AeArchitecture::cloud(16), 0);
/// det.fit(&train, 120)?;
/// let spiky: Vec<f32> = (0..16).map(|t| if t % 2 == 0 { 2.0 } else { -2.0 }).collect();
/// let anomaly = LabeledWindow::new(Matrix::from_vec(16, 1, spiky), true);
/// assert!(det.detect(&anomaly).anomalous);
/// # Ok::<(), hec_anomaly::FitError>(())
/// ```
pub struct AutoencoderDetector {
    name: String,
    architecture: AeArchitecture,
    net: Sequential,
    scorer: Option<LogPdScorer>,
    batch_size: usize,
    learning_rate: f32,
    rng: StdRng,
}

impl AutoencoderDetector {
    /// Builds the detector with Glorot-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if the architecture is invalid (see [`AeArchitecture`]).
    pub fn new(name: &str, architecture: AeArchitecture, seed: u64) -> Self {
        architecture.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let sizes = &architecture.layer_sizes;
        for i in 0..sizes.len() - 1 {
            let act = if i == sizes.len() - 2 { Activation::Linear } else { Activation::Tanh };
            layers.push(Box::new(Dense::new(&mut rng, sizes[i], sizes[i + 1], act)));
        }
        Self {
            name: name.to_owned(),
            net: Sequential::new(layers),
            architecture,
            scorer: None,
            batch_size: 32,
            learning_rate: 1e-3,
            rng,
        }
    }

    /// The architecture this detector was built with.
    pub fn architecture(&self) -> &AeArchitecture {
        &self.architecture
    }

    fn input_dim(&self) -> usize {
        self.architecture.layer_sizes[0]
    }

    /// Scores the per-point scalar errors in `errors` through the calibrated
    /// scorer (which leaves their logPDs there).
    fn detection_from_scalar_errors(&self, errors: &mut [f32]) -> Detection {
        let scorer = self.scorer.as_ref().expect("detect called before fit");
        let (min_log_pd, anomalous_fraction) = scorer.score_window_scalar(errors);
        scorer.detection(min_log_pd, anomalous_fraction)
    }

    /// The one inference routine: hands `read` the per-point reconstruction
    /// errors of a block of windows, one row per window, computed in this
    /// thread's scratch. `first` is the block's offset in the caller's
    /// corpus, for the panic message only.
    ///
    /// # Panics
    ///
    /// Panics if a window's length differs from the model input.
    fn with_block_errors<R>(
        &self,
        block: &[LabeledWindow],
        first: usize,
        read: impl FnOnce(&mut Matrix) -> R,
    ) -> R {
        let dim = self.input_dim();
        SCRATCH.with(|scratch| {
            let Scratch { rows, acts } = &mut *scratch.borrow_mut();
            rows.resize(block.len(), dim);
            for (r, w) in block.iter().enumerate() {
                let flat = w.data.as_slice();
                assert_eq!(
                    flat.len(),
                    dim,
                    "window {} length {} does not match model input {dim}",
                    first + r,
                    flat.len()
                );
                rows.row_mut(r).copy_from_slice(flat);
            }
            let reconstruction = self.net.infer(rows, acts);
            for (x, y) in rows.as_mut_slice().iter_mut().zip(reconstruction.as_slice()) {
                *x -= y;
            }
            read(rows)
        })
    }

    /// Walks `windows[span]` in `BLOCK_ROWS`-window blocks, handing `read`
    /// each block's per-point errors (one row per window) in corpus order.
    fn for_each_block_errors(
        &self,
        windows: &[LabeledWindow],
        span: std::ops::Range<usize>,
        mut read: impl FnMut(&mut Matrix),
    ) {
        for first in span.clone().step_by(BLOCK_ROWS) {
            let block = &windows[first..span.end.min(first + BLOCK_ROWS)];
            self.with_block_errors(block, first, &mut read);
        }
    }

    /// Calibrates the scorer on the net's per-point errors over
    /// `calibration` (all-normal windows): every error of every window,
    /// window after window, as one flat `N × 1` matrix — the order the
    /// Gaussian's sums run in.
    fn calibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        if calibration.is_empty() {
            return Err(FitError::InvalidTrainingSet {
                reason: "no calibration errors produced".into(),
            });
        }
        let dim = self.input_dim();
        let mut errors = Vec::with_capacity(calibration.len() * dim);
        self.for_each_block_errors(calibration, 0..calibration.len(), |block| {
            errors.extend_from_slice(block.as_slice());
        });
        let errors = Matrix::from_vec(errors.len(), 1, errors);
        let window_ends = (1..=calibration.len()).map(|w| w * dim);
        let scorer = LogPdScorer::fit(&errors, window_ends, 1e-6)?;
        let threshold = scorer.threshold();
        self.scorer = Some(scorer);
        Ok(threshold)
    }
}

impl AnomalyDetector for AutoencoderDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.net.param_count()
    }

    fn fit(&mut self, train: &[LabeledWindow], epochs: usize) -> Result<FitReport, FitError> {
        let _span = hec_telemetry::WallSpan::new("anomaly.fit");
        validate_training_set(train)?;
        let dim = self.input_dim();
        for (i, w) in train.iter().enumerate() {
            if w.data.len() != dim {
                return Err(FitError::InvalidTrainingSet {
                    reason: format!("window {i} has {} points, model expects {dim}", w.data.len()),
                });
            }
        }

        let mut opt = RmsProp::new(self.learning_rate);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut batch = Matrix::zeros(1, dim);
        let mut final_loss = 0.0f32;
        for _ in 0..epochs {
            order.shuffle(&mut self.rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(self.batch_size) {
                batch.resize(chunk.len(), dim);
                for (r, &i) in chunk.iter().enumerate() {
                    batch.row_mut(r).copy_from_slice(train[i].data.as_slice());
                }
                epoch_loss += self.net.train_batch(&batch, &batch, &Mse, &mut opt, 0.0);
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
        }

        let threshold = self.calibrate(train)?;
        Ok(FitReport { epochs, final_loss, threshold })
    }

    // NOTE: single-window `detect` is deliberately uninstrumented — a
    // wall span's sidecar fold allocates its key, and the warmed per-
    // window path is proven allocation-free in tests/detect_alloc.rs.
    // `detect_batch` (below) carries the span and alloc phase instead.
    fn detect(&mut self, window: &LabeledWindow) -> Detection {
        self.with_block_errors(std::slice::from_ref(window), 0, |errors| {
            self.detection_from_scalar_errors(errors.row_mut(0))
        })
    }

    /// Batched scoring, block by block (see the module docs): the dense
    /// kernels see `BLOCK_ROWS`-row operands instead of `1 × input` row
    /// vectors, and a corpus of at least two `PAR_GRAIN_ROWS` is split
    /// between the parallel workers. Results are identical to the
    /// per-window path at any worker count.
    fn detect_batch(&mut self, windows: &[LabeledWindow]) -> Vec<Detection> {
        if windows.is_empty() {
            return Vec::new();
        }
        let _span = hec_telemetry::WallSpan::new("anomaly.detect_batch");
        let _allocs = hec_telemetry::AllocPhase::new("anomaly.detect_batch");
        let det = &*self;
        parallel_map_spans(windows.len(), PAR_GRAIN_ROWS, |span| {
            let mut detections = Vec::with_capacity(span.len());
            det.for_each_block_errors(windows, span, |errors| {
                detections.extend(
                    errors
                        .as_mut_slice()
                        .chunks_exact_mut(det.input_dim())
                        .map(|row| det.detection_from_scalar_errors(row)),
                );
            });
            detections
        })
    }

    fn threshold(&self) -> Option<f32> {
        self.scorer.as_ref().map(|s| s.threshold())
    }

    /// Re-fits the scorer (and threshold) on `calibration` through the
    /// net — weights untouched, so this costs one forward pass per window.
    /// The same code path `fit` calibrates through.
    fn recalibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        validate_training_set(calibration)?;
        if self.scorer.is_none() {
            return Err(FitError::InvalidTrainingSet {
                reason: "recalibrate requires a fitted detector".into(),
            });
        }
        self.calibrate(calibration)
    }
}

impl std::fmt::Debug for AutoencoderDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AutoencoderDetector({}, {:?}, params={})",
            self.name,
            self.architecture.layer_sizes,
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_window(jitter: f32, n: usize) -> LabeledWindow {
        let v: Vec<f32> = (0..n).map(|t| (t as f32 / n as f32) + jitter).collect();
        LabeledWindow::new(Matrix::from_vec(n, 1, v), false)
    }

    fn train_set(n: usize) -> Vec<LabeledWindow> {
        (0..40).map(|i| ramp_window(0.002 * (i % 7) as f32, n)).collect()
    }

    #[test]
    fn architectures_have_expected_depths() {
        assert_eq!(AeArchitecture::iot(96).depth(), 3);
        assert_eq!(AeArchitecture::edge(96).depth(), 5);
        assert_eq!(AeArchitecture::cloud(96).depth(), 7);
    }

    #[test]
    fn param_counts_increase_iot_to_cloud() {
        let iot = AutoencoderDetector::new("iot", AeArchitecture::iot(96), 0);
        let edge = AutoencoderDetector::new("edge", AeArchitecture::edge(96), 0);
        let cloud = AutoencoderDetector::new("cloud", AeArchitecture::cloud(96), 0);
        assert!(iot.param_count() < edge.param_count());
        assert!(edge.param_count() < cloud.param_count());
    }

    #[test]
    fn fit_then_detect_separates() {
        // The cloud model has the capacity to nail this simple family; the
        // IoT model's 2-unit bottleneck intentionally does not (see
        // `AeArchitecture::iot`), so this test exercises the large end.
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::cloud(16), 1);
        let report = det.fit(&train_set(16), 150).unwrap();
        assert!(report.final_loss < 0.05, "loss too high: {}", report.final_loss);
        assert!(report.threshold.is_finite());

        // Normal-looking window: not anomalous.
        let normal = ramp_window(0.001, 16);
        assert!(!det.detect(&normal).anomalous);

        // Flat window: anomalous.
        let flat = LabeledWindow::new(Matrix::from_vec(16, 1, vec![0.5; 16]), true);
        assert!(det.detect(&flat).anomalous);
    }

    #[test]
    fn capacity_gap_iot_vs_cloud() {
        // On a richer two-factor family the narrow IoT bottleneck must end
        // with a visibly larger reconstruction loss than the cloud model —
        // this gap is the mechanism behind the paper's accuracy ladder.
        let train: Vec<LabeledWindow> = (0..60)
            .map(|i| {
                let a = 0.5 + 0.3 * ((i % 5) as f32 / 4.0);
                let p = (i % 7) as f32 / 7.0;
                let v: Vec<f32> = (0..16)
                    .map(|t| a * ((t as f32 / 16.0 + p) * std::f32::consts::TAU).sin())
                    .collect();
                LabeledWindow::new(Matrix::from_vec(16, 1, v), false)
            })
            .collect();
        let mut iot = AutoencoderDetector::new("iot", AeArchitecture::iot(16), 2);
        let mut cloud = AutoencoderDetector::new("cloud", AeArchitecture::cloud(16), 2);
        let r_iot = iot.fit(&train, 120).unwrap();
        let r_cloud = cloud.fit(&train, 120).unwrap();
        assert!(
            r_cloud.final_loss < r_iot.final_loss,
            "no capacity gap: iot {} vs cloud {}",
            r_iot.final_loss,
            r_cloud.final_loss
        );
    }

    #[test]
    fn recalibrate_adapts_threshold_without_retraining() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::cloud(16), 1);
        det.fit(&train_set(16), 120).unwrap();
        let t0 = det.threshold().unwrap();

        // A level-shifted regime: every window offset by +0.5. The frozen
        // scorer flags these wholesale...
        let shifted: Vec<LabeledWindow> = train_set(16)
            .iter()
            .map(|w| {
                let v: Vec<f32> = w.data.as_slice().iter().map(|x| x + 0.5).collect();
                LabeledWindow::new(Matrix::from_vec(16, 1, v), false)
            })
            .collect();
        assert!(
            det.detect(&shifted[0]).anomalous,
            "shifted regime must look anomalous pre-refresh"
        );

        // ...recalibrating on the shifted (all-normal) regime adapts the
        // scorer: same weights, new threshold, shifted windows pass again.
        let t1 = det.recalibrate(&shifted).unwrap();
        assert_ne!(t0, t1, "threshold must move with the regime");
        assert_eq!(det.threshold(), Some(t1));
        assert!(!det.detect(&shifted[0]).anomalous, "recalibrated regime must pass");

        // Contract errors: anomalous calibration windows are refused.
        let bad = vec![LabeledWindow::new(Matrix::from_vec(16, 1, vec![0.1; 16]), true)];
        assert!(matches!(det.recalibrate(&bad), Err(FitError::InvalidTrainingSet { .. })));
        assert!(matches!(det.recalibrate(&[]), Err(FitError::InvalidTrainingSet { .. })));
    }

    /// The one-pass calibration lands on the bits of the two-pass way it
    /// replaced: fit the Gaussian, score every error again for the
    /// per-window minima, take the quantile.
    #[test]
    fn calibration_threshold_is_the_two_pass_threshold() {
        let train = train_set(16);
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::edge(16), 1);
        let report = det.fit(&train, 40).unwrap();

        let mut errors = Vec::new();
        det.for_each_block_errors(&train, 0..train.len(), |block| {
            errors.extend_from_slice(block.as_slice());
        });
        let errors = Matrix::from_vec(errors.len(), 1, errors);
        let gaussian = hec_tensor::Gaussian::fit(&errors, 1e-6).unwrap();
        let minima: Vec<f32> = errors
            .as_slice()
            .chunks_exact(16)
            .map(|w| {
                w.iter().map(|&e| gaussian.log_pdf_scalar(e).unwrap()).fold(f32::INFINITY, f32::min)
            })
            .collect();
        let two_pass = crate::scorer::CALIBRATION_RULE.threshold(&minima);
        assert_eq!(report.threshold.to_bits(), two_pass.to_bits());
        assert_eq!(det.recalibrate(&train).unwrap().to_bits(), two_pass.to_bits());
    }

    #[test]
    fn recalibrate_requires_a_fitted_detector() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 1);
        let err = det.recalibrate(&train_set(16)).unwrap_err();
        assert!(err.to_string().contains("fitted"), "{err}");
    }

    #[test]
    fn detect_batch_matches_per_window() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::cloud(16), 1);
        det.fit(&train_set(16), 80).unwrap();
        let windows = vec![
            ramp_window(0.001, 16),
            LabeledWindow::new(Matrix::from_vec(16, 1, vec![0.5; 16]), true),
            ramp_window(0.004, 16),
        ];
        let batched = det.detect_batch(&windows);
        let single: Vec<Detection> = windows.iter().map(|w| det.detect(w)).collect();
        assert_eq!(batched, single);
        assert!(det.detect_batch(&[]).is_empty());
    }

    #[test]
    fn detect_reports_scores() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 1);
        det.fit(&train_set(16), 60).unwrap();
        let d = det.detect(&ramp_window(0.0, 16));
        assert!(d.min_log_pd.is_finite());
        assert!((0.0..=1.0).contains(&d.anomalous_fraction));
    }

    #[test]
    fn fit_rejects_wrong_window_size() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 0);
        let bad = vec![ramp_window(0.0, 8)];
        assert!(matches!(det.fit(&bad, 1), Err(FitError::InvalidTrainingSet { .. })));
    }

    #[test]
    fn fit_rejects_anomalous_windows() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 0);
        let mut set = train_set(16);
        set[0].anomalous = true;
        assert!(matches!(det.fit(&set, 1), Err(FitError::InvalidTrainingSet { .. })));
    }

    #[test]
    #[should_panic(expected = "detect called before fit")]
    fn detect_before_fit_panics() {
        let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 0);
        let _ = det.detect(&ramp_window(0.0, 16));
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn asymmetric_architecture_rejected() {
        let _ = AutoencoderDetector::new("bad", AeArchitecture { layer_sizes: vec![16, 8, 12] }, 0);
    }

    #[test]
    fn name_and_debug() {
        let det = AutoencoderDetector::new("AE-IoT", AeArchitecture::iot(16), 0);
        assert_eq!(det.name(), "AE-IoT");
        assert!(format!("{det:?}").contains("AE-IoT"));
    }
}
