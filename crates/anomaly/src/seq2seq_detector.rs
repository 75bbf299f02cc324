//! LSTM seq2seq detectors for multivariate data
//! (LSTM-seq2seq-IoT / LSTM-seq2seq-Edge / BiLSTM-seq2seq-Cloud).
//!
//! §II-A2: the IoT model is a plain LSTM encoder–decoder; the edge model has
//! *double the number of LSTM units*; the cloud model uses a *bidirectional*
//! encoder. Scoring follows §II-A3: per-timestep reconstruction-error vectors
//! are modelled with a Gaussian `N(µ, Σ)` and scored by logPD.
//!
//! # Blocks
//!
//! Every entry point — `fit`'s training windows, calibration,
//! [`AnomalyDetector::detect`] / `detect_batch`, the policy context — goes
//! through one routine: gather up to `BLOCK_WINDOWS` (16) equally long windows
//! into this thread's scratch as one **time-major** block (the deployment's
//! input quantisation applied on the way), hand the block to
//! the model's batch axis, read the result row by row. Rows of the model's
//! products are independent, so a window's errors, scores and context are
//! the same bits alone or in any block (`tests/seq2seq_blocks.rs`);
//! windows of another length simply start the next block. Blocks run
//! inline on the caller: the scratch is bounded by one block and shared by
//! every detector on the thread, and no entry point spawns a thread. (One
//! level up, `hec-core` puts a catalog's three detectors on a worker each
//! when their [`AnomalyDetector::scoring_work`] pays for it — this model
//! splits no rows itself, so that is where its parallelism comes from.)

use std::cell::RefCell;

use hec_data::LabeledWindow;
use hec_nn::{RmsProp, Seq2Seq, Seq2SeqConfig};
use hec_tensor::Matrix;

use crate::detector::{validate_training_set, AnomalyDetector, Detection, FitError, FitReport};
use crate::scorer::LogPdScorer;

/// Windows per inference block: the row count the autoencoders settled on
/// (four of the f32 kernel's 4-row register tiles). The LSTM's own state
/// for a block is one step deep whatever the window length, and the
/// gathered block of the paper's 128 × 18 windows is 144 KB.
const BLOCK_WINDOWS: usize = 16;

/// Per-thread inference scratch, grown once to the largest block seen.
struct Scratch {
    /// The gathered time-major block; then, in place, its errors.
    rows: Matrix,
    /// Working vector of the logPD's triangular solve.
    y: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> =
        RefCell::new(Scratch { rows: Matrix::zeros(1, 1), y: Vec::new() });
}

/// Splits a corpus into the blocks the model can batch: runs of up to
/// [`BLOCK_WINDOWS`] equally long windows, in corpus order.
fn blocks(mut windows: &[LabeledWindow]) -> impl Iterator<Item = &[LabeledWindow]> {
    std::iter::from_fn(move || {
        let len = windows.first()?.len();
        let n = windows.iter().take(BLOCK_WINDOWS).take_while(|w| w.len() == len).count();
        let (block, rest) = windows.split_at(n);
        windows = rest;
        Some(block)
    })
}

/// A seq2seq anomaly detector over multichannel windows.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::{AnomalyDetector, Seq2SeqDetector};
/// use hec_data::LabeledWindow;
/// use hec_nn::Seq2SeqConfig;
/// use hec_tensor::Matrix;
///
/// let config = Seq2SeqConfig { input_dim: 2, encoder_hidden: 8, dropout: 0.0, ..Default::default() };
/// let mut det = Seq2SeqDetector::new("demo", config);
/// // Normal: low-frequency sine windows.
/// let train: Vec<LabeledWindow> = (0..12)
///     .map(|i| {
///         let data: Vec<f32> = (0..10)
///             .flat_map(|t| {
///                 let w = t as f32 * 0.4 + i as f32 * 0.05;
///                 [w.sin(), w.cos()]
///             })
///             .collect();
///         LabeledWindow::new(Matrix::from_vec(10, 2, data), false)
///     })
///     .collect();
/// det.fit(&train, 25)?;
/// assert!(det.param_count() > 0);
/// # Ok::<(), hec_anomaly::FitError>(())
/// ```
pub struct Seq2SeqDetector {
    name: String,
    model: Seq2Seq,
    scorer: Option<LogPdScorer>,
    learning_rate: f32,
    input_bits: Option<u8>,
}

impl Seq2SeqDetector {
    /// Builds a detector from a [`Seq2SeqConfig`].
    pub fn new(name: &str, config: Seq2SeqConfig) -> Self {
        Self {
            name: name.to_owned(),
            model: Seq2Seq::new(config),
            scorer: None,
            learning_rate: 1e-3,
            input_bits: None,
        }
    }

    /// The IoT-layer model: LSTM encoder/decoder with `hidden` units.
    pub fn iot(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "LSTM-seq2seq-IoT",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden,
                bidirectional: false,
                seed,
                ..Default::default()
            },
        )
    }

    /// The edge-layer model: *double* the LSTM units (§II-A2).
    pub fn edge(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "LSTM-seq2seq-Edge",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden * 2,
                bidirectional: false,
                seed,
                ..Default::default()
            },
        )
    }

    /// The cloud-layer model: bidirectional encoder (§II-A2).
    pub fn cloud(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "BiLSTM-seq2seq-Cloud",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden * 2,
                bidirectional: true,
                seed,
                ..Default::default()
            },
        )
    }

    /// Restricts the on-device input fidelity to `bits` bits per sample
    /// (standardised range ±4 clamped and uniformly quantized). Models
    /// deployed low in the hierarchy read compressed sensor buffers, while
    /// offloaded windows travel at full fidelity — a fidelity/compute
    /// tradeoff that strictly degrades detectability (data-processing
    /// inequality), so the capability ladder cannot invert.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 12`.
    pub fn set_input_bits(&mut self, bits: Option<u8>) {
        if let Some(b) = bits {
            assert!((2..=12).contains(&b), "input bits must be in 2..=12");
        }
        self.input_bits = bits;
    }

    /// The one way into the model: gathers `block` (equally long windows)
    /// time-major into this thread's scratch — the deployment's input
    /// quantization applied — and hands `run` the detector, the block and
    /// the logPD working vector. `run` must not re-enter.
    ///
    /// # Panics
    ///
    /// Panics if the windows differ in length or a channel count differs
    /// from the model's.
    fn with_block<R>(
        &mut self,
        block: &[LabeledWindow],
        run: impl FnOnce(&mut Self, &mut Matrix, &mut Vec<f32>) -> R,
    ) -> R {
        let (batch, dim) = (block.len(), self.model.config().input_dim);
        let steps = block[0].len();
        SCRATCH.with(|scratch| {
            let Scratch { rows, y } = &mut *scratch.borrow_mut();
            rows.resize(steps * batch, dim);
            for (b, w) in block.iter().enumerate() {
                assert_eq!(w.channels(), dim, "window channels do not match the model input");
                assert_eq!(w.len(), block[0].len(), "a block's windows must be equally long");
                for t in 0..steps {
                    rows.row_mut(t * batch + b).copy_from_slice(w.data.row(t));
                }
            }
            if let Some(bits) = self.input_bits {
                let levels = ((1u32 << bits) - 1) as f32;
                let delta = 8.0 / levels;
                rows.map_inplace(|x| {
                    let clamped = x.clamp(-4.0, 4.0);
                    ((clamped + 4.0) / delta).round() * delta - 4.0
                });
            }
            run(self, rows, y)
        })
    }

    /// Scores a block of equally long windows, handing `emit` each
    /// window's detection in order.
    fn detect_block(&mut self, block: &[LabeledWindow], mut emit: impl FnMut(Detection)) {
        self.with_block(block, |det, errors, y| {
            let batch = block.len();
            det.model.reconstruction_errors(errors, batch);
            let scorer = det.scorer.as_ref().expect("detect called before fit");
            for b in 0..batch {
                let window_rows = (b..errors.rows()).step_by(batch);
                let (min_log_pd, anomalous_fraction) = scorer.score_window(errors, window_rows, y);
                emit(scorer.detection(min_log_pd, anomalous_fraction));
            }
        });
    }

    /// The calibrated scorer, if fitted.
    pub fn scorer(&self) -> Option<&LogPdScorer> {
        self.scorer.as_ref()
    }

    /// Every window's reconstruction-error vectors through the current
    /// weights, window after window — the order the Gaussian's sums run in —
    /// and the row at which each window's errors end.
    fn calibration_errors(&mut self, calibration: &[LabeledWindow]) -> (Matrix, Vec<usize>) {
        let total = calibration.iter().map(LabeledWindow::len).sum();
        let mut errors = Matrix::zeros(total, self.model.config().input_dim);
        let mut ends = Vec::with_capacity(calibration.len());
        let mut at = 0;
        for block in blocks(calibration) {
            self.with_block(block, |det, rows, _| {
                let batch = block.len();
                det.model.reconstruction_errors(rows, batch);
                for b in 0..batch {
                    for r in (b..rows.rows()).step_by(batch) {
                        errors.row_mut(at).copy_from_slice(rows.row(r));
                        at += 1;
                    }
                    ends.push(at);
                }
            });
        }
        (errors, ends)
    }

    /// Fits the logPD scorer (and threshold) on `calibration`'s
    /// reconstruction errors — shared by `fit` and `recalibrate`.
    fn calibrate_scorer(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        let (errors, ends) = self.calibration_errors(calibration);
        let scorer = LogPdScorer::fit(&errors, ends, 1e-4)?;
        let threshold = scorer.threshold();
        self.scorer = Some(scorer);
        Ok(threshold)
    }
}

impl AnomalyDetector for Seq2SeqDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.model.param_count()
    }

    /// Wall time lands in the telemetry sidecar as `anomaly.fit`, the span
    /// the autoencoders' `fit` records too. Sidecar totals are **summed
    /// over threads**: with a catalog's detectors fitting side by side they
    /// (and `nn.train_batch` under them) can exceed the wall time of the
    /// call that fitted all three.
    fn fit(&mut self, train: &[LabeledWindow], epochs: usize) -> Result<FitReport, FitError> {
        let _span = hec_telemetry::WallSpan::new("anomaly.fit");
        validate_training_set(train)?;
        let dim = self.model.config().input_dim;
        for (i, w) in train.iter().enumerate() {
            if w.channels() != dim {
                return Err(FitError::InvalidTrainingSet {
                    reason: format!(
                        "window {i} has {} channels, model expects {dim}",
                        w.channels()
                    ),
                });
            }
        }

        let mut opt = RmsProp::new(self.learning_rate);
        let mut final_loss = 0.0f32;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0f32;
            for w in train {
                epoch_loss += self.with_block(std::slice::from_ref(w), |det, steps, _| {
                    det.model.train_batch(steps, 1, &mut opt)
                });
            }
            final_loss = epoch_loss / train.len() as f32;
        }

        let threshold = self.calibrate_scorer(train)?;
        Ok(FitReport { epochs, final_loss, threshold })
    }

    fn scoring_work(&self, windows: &[LabeledWindow]) -> u64 {
        let steps: usize = windows.iter().map(LabeledWindow::len).sum();
        self.param_count() as u64 * steps as u64
    }

    fn detect(&mut self, window: &LabeledWindow) -> Detection {
        let mut detection = None;
        self.detect_block(std::slice::from_ref(window), |d| detection = Some(d));
        detection.expect("a one-window block yields one detection")
    }

    /// Batched scoring, block by block (see the module docs): results are
    /// identical to the per-window path.
    fn detect_batch(&mut self, windows: &[LabeledWindow]) -> Vec<Detection> {
        let mut detections = Vec::with_capacity(windows.len());
        for block in blocks(windows) {
            self.detect_block(block, |d| detections.push(d));
        }
        detections
    }

    fn context_features(&mut self, window: &LabeledWindow) -> Option<Vec<f32>> {
        self.context_features_batch(std::slice::from_ref(window))?.pop()
    }

    fn context_features_batch(&mut self, windows: &[LabeledWindow]) -> Option<Vec<Vec<f32>>> {
        // Encoder state (paper §III-B) augmented with per-channel mean/std —
        // both computable on the IoT device in one pass; the summary stats
        // compensate for the reduced fidelity of the on-device encoder input
        // (`set_input_bits`).
        let mut contexts = Vec::with_capacity(windows.len());
        for block in blocks(windows) {
            self.with_block(block, |det, rows, _| {
                let encoded = &det.model.encode(rows, block.len()).h;
                for (b, window) in block.iter().enumerate() {
                    let mut ctx = Vec::with_capacity(encoded.cols() + 2 * window.channels());
                    ctx.extend_from_slice(encoded.row(b));
                    let n = window.data.rows() as f32;
                    for c in 0..window.channels() {
                        // Strided column iteration (no per-channel Vec); same
                        // summation order as `vecops::{mean, std_dev}` over a
                        // copied column.
                        let col = || window.data.col_iter(c);
                        let mean = col().sum::<f32>() / n;
                        let var = col().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
                        ctx.push(mean);
                        ctx.push(var.sqrt());
                    }
                    contexts.push(ctx);
                }
            });
        }
        Some(contexts)
    }

    fn threshold(&self) -> Option<f32> {
        self.scorer.as_ref().map(|s| s.threshold())
    }

    /// Re-fits the scorer (and threshold) on `calibration` through the
    /// current weights — one encoder/decoder pass per window, no
    /// retraining. The same code path `fit` calibrates through.
    fn recalibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        validate_training_set(calibration)?;
        if self.scorer.is_none() {
            return Err(FitError::InvalidTrainingSet {
                reason: "recalibrate requires a fitted detector".into(),
            });
        }
        self.calibrate_scorer(calibration)
    }
}

impl std::fmt::Debug for Seq2SeqDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Seq2SeqDetector({}, params={})", self.name, self.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_window(freq: f32, phase: f32, steps: usize) -> LabeledWindow {
        let data: Vec<f32> = (0..steps)
            .flat_map(|t| {
                let w = t as f32 * freq + phase;
                [w.sin(), 0.5 * w.cos()]
            })
            .collect();
        LabeledWindow::new(Matrix::from_vec(steps, 2, data), false)
    }

    fn train_set() -> Vec<LabeledWindow> {
        (0..15).map(|i| sine_window(0.4, i as f32 * 0.07, 12)).collect()
    }

    fn small(name: &str, bi: bool, hidden: usize) -> Seq2SeqDetector {
        Seq2SeqDetector::new(
            name,
            Seq2SeqConfig {
                input_dim: 2,
                encoder_hidden: hidden,
                bidirectional: bi,
                dropout: 0.0,
                seed: 3,
            },
        )
    }

    #[test]
    fn param_ladder_iot_edge_cloud() {
        let iot = Seq2SeqDetector::iot(18, 32, 0);
        let edge = Seq2SeqDetector::edge(18, 32, 0);
        let cloud = Seq2SeqDetector::cloud(18, 32, 0);
        assert!(iot.param_count() < edge.param_count());
        assert!(edge.param_count() < cloud.param_count());
        assert_eq!(iot.name(), "LSTM-seq2seq-IoT");
        assert_eq!(edge.name(), "LSTM-seq2seq-Edge");
        assert_eq!(cloud.name(), "BiLSTM-seq2seq-Cloud");
    }

    #[test]
    fn fit_then_detect_separates() {
        let mut det = small("s2s", false, 12);
        let report = det.fit(&train_set(), 60).unwrap();
        assert!(report.threshold.is_finite());

        let normal = sine_window(0.4, 0.03, 12);
        // High-frequency jagged window should be anomalous.
        let weird_data: Vec<f32> =
            (0..12).flat_map(|t| if t % 2 == 0 { [2.0, -2.0] } else { [-2.0, 2.0] }).collect();
        let weird = LabeledWindow::new(Matrix::from_vec(12, 2, weird_data), true);

        let dn = det.detect(&normal);
        let dw = det.detect(&weird);
        assert!(dw.min_log_pd < dn.min_log_pd, "weird window not scored lower");
        assert!(dw.anomalous, "weird window not flagged");
    }

    #[test]
    fn context_vector_has_hidden_width() {
        // Encoder state (hidden, both directions when bidirectional), then
        // each of the two channels' mean and std.
        let window = sine_window(0.4, 0.0, 12);
        let ctx = small("s2s", false, 12).context_features(&window).unwrap();
        assert_eq!(ctx.len(), 12 + 2 * 2);
        let ctx_bi = small("s2s-bi", true, 12).context_features(&window).unwrap();
        assert_eq!(ctx_bi.len(), 24 + 2 * 2);
    }

    #[test]
    fn recalibrate_refits_scorer_without_touching_weights() {
        let mut det = small("s2s", false, 12);
        det.fit(&train_set(), 60).unwrap();
        let t0 = det.threshold().unwrap();
        let params_before = det.param_count();

        // Level-shift the regime; recalibrating on it must move the
        // threshold while leaving the model untouched.
        let shifted: Vec<LabeledWindow> = train_set()
            .iter()
            .map(|w| {
                let v: Vec<f32> = w.data.as_slice().iter().map(|x| x + 1.5).collect();
                LabeledWindow::new(Matrix::from_vec(w.data.rows(), w.data.cols(), v), false)
            })
            .collect();
        let t1 = det.recalibrate(&shifted).unwrap();
        assert_ne!(t0, t1);
        assert_eq!(det.threshold(), Some(t1));
        assert_eq!(det.param_count(), params_before);
        assert!(!det.detect(&shifted[0]).anomalous, "recalibrated regime must pass");

        // Unfitted detectors refuse.
        let mut fresh = small("s2s2", false, 12);
        assert!(matches!(
            fresh.recalibrate(&train_set()),
            Err(FitError::InvalidTrainingSet { .. })
        ));
    }

    /// The one-pass calibration lands on the bits of the two-pass way it
    /// replaced: fit the Gaussian, score every error vector again for the
    /// per-window minima, take the quantile.
    #[test]
    fn calibration_threshold_is_the_two_pass_threshold() {
        // Two lengths, so the windows' ends are not a stride.
        let mut train = train_set();
        train.extend((0..5).map(|i| sine_window(0.4, i as f32 * 0.11, 9)));
        let mut det = small("s2s", true, 6);
        let report = det.fit(&train, 5).unwrap();

        let (errors, ends) = det.calibration_errors(&train);
        let gaussian = hec_tensor::Gaussian::fit(&errors, 1e-4).unwrap();
        let mut start = 0;
        let minima: Vec<f32> = ends
            .iter()
            .map(|&end| {
                let rows = start..end;
                start = end;
                rows.map(|r| gaussian.log_pdf(errors.row(r)).unwrap()).fold(f32::INFINITY, f32::min)
            })
            .collect();
        assert_eq!(minima.len(), train.len());
        let two_pass = crate::scorer::CALIBRATION_RULE.threshold(&minima);
        assert_eq!(report.threshold.to_bits(), two_pass.to_bits());
        assert_eq!(det.recalibrate(&train).unwrap().to_bits(), two_pass.to_bits());
    }

    #[test]
    fn fit_rejects_wrong_channels() {
        let mut det = small("s2s", false, 8);
        let bad = vec![LabeledWindow::new(Matrix::zeros(10, 3), false)];
        assert!(matches!(det.fit(&bad, 1), Err(FitError::InvalidTrainingSet { .. })));
    }

    #[test]
    #[should_panic(expected = "detect called before fit")]
    fn detect_before_fit_panics() {
        let mut det = small("s2s", false, 8);
        let _ = det.detect(&sine_window(0.4, 0.0, 12));
    }
}
