//! The [`AnomalyDetector`] trait shared by all six models.

use std::fmt;

use hec_data::LabeledWindow;
use hec_tensor::Matrix;

/// Outcome of detecting one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The binary verdict: `true` = anomalous.
    pub anomalous: bool,
    /// Whether the verdict is *confident* per the paper's two conditions
    /// (§II-A3) — the Successive scheme escalates when this is `false`.
    pub confident: bool,
    /// The minimum per-point logPD inside the window.
    pub min_log_pd: f32,
    /// Fraction of the window's points whose logPD fell below the threshold.
    pub anomalous_fraction: f32,
}

/// Summary returned by [`AnomalyDetector::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Training epochs performed.
    pub epochs: usize,
    /// Final mean reconstruction loss over the training set.
    pub final_loss: f32,
    /// The calibrated logPD threshold.
    pub threshold: f32,
}

/// Error fitting a detector.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training set was empty or contained anomalous windows.
    InvalidTrainingSet {
        /// Human-readable cause.
        reason: String,
    },
    /// The Gaussian score model could not be fitted.
    Scoring(hec_tensor::GaussianError),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::InvalidTrainingSet { reason } => {
                write!(f, "invalid training set: {reason}")
            }
            FitError::Scoring(e) => write!(f, "failed to fit anomaly scorer: {e}"),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FitError::Scoring(e) => Some(e),
            FitError::InvalidTrainingSet { .. } => None,
        }
    }
}

impl From<hec_tensor::GaussianError> for FitError {
    fn from(e: hec_tensor::GaussianError) -> Self {
        FitError::Scoring(e)
    }
}

/// A trainable anomaly detector over fixed-shape windows.
///
/// Implemented by [`crate::AutoencoderDetector`] (univariate) and
/// [`crate::Seq2SeqDetector`] (multivariate). The model-selection schemes
/// in `hec-core` treat detectors uniformly through this trait.
///
/// Detectors are `Send`: a catalog's three are independent by construction
/// (§II-A: trained and frozen before the policy sees them), so `hec-core`
/// fits and scores them side by side, one per
/// [`hec_tensor::parallel`] worker.
pub trait AnomalyDetector: Send {
    /// Human-readable model name (e.g. `"AE-IoT"`).
    fn name(&self) -> &str;

    /// Number of trainable parameters (Table I's "#Parameters").
    fn param_count(&self) -> usize;

    /// Trains the model on **normal** windows and calibrates the logPD
    /// scorer and threshold on the same set.
    ///
    /// # Errors
    ///
    /// [`FitError::InvalidTrainingSet`] if `train` is empty or contains
    /// anomalous windows; [`FitError::Scoring`] if the Gaussian fit fails.
    fn fit(&mut self, train: &[LabeledWindow], epochs: usize) -> Result<FitReport, FitError>;

    /// Detects one window. Must be called after a successful [`fit`].
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `fit` or with a window of the
    /// wrong shape.
    ///
    /// [`fit`]: AnomalyDetector::fit
    fn detect(&mut self, window: &LabeledWindow) -> Detection;

    /// Scores a whole corpus of windows, in order.
    ///
    /// The default is a per-window loop (which already reuses the model's
    /// scratch workspaces); implementations override it to batch the model
    /// forward passes — [`crate::AutoencoderDetector`] walks the corpus in
    /// cache-sized blocks of rows and splits a large one between the
    /// parallel workers. Results are guaranteed identical to calling
    /// [`detect`] per window.
    ///
    /// # Panics
    ///
    /// Same contract as [`detect`].
    ///
    /// [`detect`]: AnomalyDetector::detect
    fn detect_batch(&mut self, windows: &[LabeledWindow]) -> Vec<Detection> {
        windows.iter().map(|w| self.detect(w)).collect()
    }

    /// A rough count of the multiply-accumulates [`detect_batch`] spends on
    /// `windows` — what a caller weighs against the cost of a thread before
    /// putting this detector on a worker of its own. The default, one pass
    /// over the parameters per window, is a dense model's;
    /// [`crate::Seq2SeqDetector`] makes one per deployed timestep.
    ///
    /// [`detect_batch`]: AnomalyDetector::detect_batch
    fn scoring_work(&self, windows: &[LabeledWindow]) -> u64 {
        self.param_count() as u64 * windows.len() as u64
    }

    /// Model-derived contextual features of a window for the policy network,
    /// if this model provides them (§III-B: the multivariate context is the
    /// LSTM-encoder state of the IoT-layer model). Returns `None` when the
    /// caller should fall back to dataset-level features (the univariate
    /// `{min, max, mean, std}` summary).
    fn context_features(&mut self, _window: &LabeledWindow) -> Option<Vec<f32>> {
        None
    }

    /// [`context_features`] of a whole corpus as the rows of one matrix,
    /// row `i` window `i`'s — `None` unless the model provides them for
    /// every window, and for an empty corpus. The default is a per-window
    /// loop; [`crate::Seq2SeqDetector`] overrides it to encode a block of
    /// windows per pass and write each state straight into its row, with
    /// identical results.
    ///
    /// [`context_features`]: AnomalyDetector::context_features
    fn context_features_batch(&mut self, windows: &[LabeledWindow]) -> Option<Matrix> {
        let mut rows = Vec::new();
        for w in windows {
            rows.extend(self.context_features(w)?);
        }
        let n = windows.len();
        (n > 0).then(|| Matrix::from_vec(n, rows.len() / n, rows))
    }

    /// The calibrated logPD detection threshold, if fitted.
    fn threshold(&self) -> Option<f32> {
        None
    }

    /// Recalibrates the logPD scorer and threshold on fresh **normal**
    /// windows without retraining the model weights — the cheap half of
    /// online adaptation: after a regime change the reconstruction-error
    /// distribution shifts even once the standardiser is refit, and this
    /// re-estimates the Gaussian score model and threshold from a recent
    /// reservoir in one forward pass per window. Returns the new
    /// threshold.
    ///
    /// The default refuses (not every detector supports it); the
    /// autoencoder and seq2seq detectors override it.
    ///
    /// # Errors
    ///
    /// [`FitError::InvalidTrainingSet`] if `calibration` is empty,
    /// contains anomalous windows, or the detector has not been fitted;
    /// [`FitError::Scoring`] if the Gaussian fit fails.
    fn recalibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        let _ = calibration;
        Err(FitError::InvalidTrainingSet {
            reason: format!("{} does not support scorer recalibration", self.name()),
        })
    }
}

/// Validates the training-set contract shared by all detectors.
pub(crate) fn validate_training_set(train: &[LabeledWindow]) -> Result<(), FitError> {
    if train.is_empty() {
        return Err(FitError::InvalidTrainingSet { reason: "no windows provided".into() });
    }
    if let Some(i) = train.iter().position(|w| w.anomalous) {
        return Err(FitError::InvalidTrainingSet {
            reason: format!("window {i} is labelled anomalous; detectors train on normal data"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_tensor::Matrix;

    #[test]
    fn validate_rejects_empty() {
        assert!(matches!(validate_training_set(&[]), Err(FitError::InvalidTrainingSet { .. })));
    }

    #[test]
    fn validate_rejects_anomalous() {
        let train = vec![
            LabeledWindow::new(Matrix::zeros(4, 1), false),
            LabeledWindow::new(Matrix::zeros(4, 1), true),
        ];
        let err = validate_training_set(&train).unwrap_err();
        assert!(err.to_string().contains("window 1"));
    }

    #[test]
    fn validate_accepts_normal() {
        let train = vec![LabeledWindow::new(Matrix::zeros(4, 1), false)];
        assert!(validate_training_set(&train).is_ok());
    }

    #[test]
    fn fit_error_display() {
        let e = FitError::Scoring(hec_tensor::GaussianError::NotPositiveDefinite);
        assert!(e.to_string().contains("anomaly scorer"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
