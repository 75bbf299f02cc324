//! Gaussian logPD anomaly scoring and the confident-detection rules.
//!
//! §II-A3: *"We assume that reconstruction errors follow the Gaussian
//! distribution N(µ, Σ) … We use logarithmic probability densities (logPD) of
//! the reconstruction errors as anomaly scores … We then use the minimum
//! value of the logPD on the normal dataset (i.e., the training set) as the
//! threshold for detecting outliers."*

use std::fmt;

use serde::{Deserialize, Serialize};

use hec_tensor::{Gaussian, GaussianError, Matrix};

/// The paper's two *confident detection* conditions (§II-A3):
///
/// a detection is confident if **(i)** at least one point's logPD is below
/// `factor ×` threshold (logPD is negative, so this means "much more
/// anomalous than the border"), or **(ii)** the fraction of anomalous points
/// exceeds `fraction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceRule {
    /// Multiplier on the (negative) threshold for condition (i). Paper: 2.0.
    pub factor: f32,
    /// Anomalous-point fraction for condition (ii). Paper: 0.05.
    pub fraction: f32,
}

impl Default for ConfidenceRule {
    fn default() -> Self {
        Self { factor: 2.0, fraction: 0.05 }
    }
}

impl ConfidenceRule {
    /// Evaluates the rule given the window's point scores and the threshold.
    ///
    /// A *normal* verdict is also treated as confident when **no** point is
    /// anywhere near the threshold margin; concretely we mirror condition
    /// (i): normal is confident if the minimum logPD stays above
    /// `threshold / factor` — comfortably inside the normal region.
    pub fn is_confident(
        &self,
        min_log_pd: f32,
        anomalous_fraction: f32,
        threshold: f32,
        verdict_anomalous: bool,
    ) -> bool {
        if verdict_anomalous {
            min_log_pd < self.factor * threshold || anomalous_fraction > self.fraction
        } else {
            // Far from the border on the normal side.
            min_log_pd > threshold / self.factor
        }
    }
}

/// Error from [`LogPdScorer`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ScorerError {
    /// The underlying Gaussian fit failed.
    Gaussian(GaussianError),
    /// No error vectors were supplied.
    EmptyCalibrationSet,
}

impl fmt::Display for ScorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScorerError::Gaussian(e) => write!(f, "gaussian fit failed: {e}"),
            ScorerError::EmptyCalibrationSet => write!(f, "no calibration error vectors"),
        }
    }
}

impl std::error::Error for ScorerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScorerError::Gaussian(e) => Some(e),
            ScorerError::EmptyCalibrationSet => None,
        }
    }
}

impl From<GaussianError> for ScorerError {
    fn from(e: GaussianError) -> Self {
        ScorerError::Gaussian(e)
    }
}

/// How the detection threshold is derived from the training logPDs.
///
/// The paper uses the **minimum** training logPD (§II-A3). The minimum is an
/// extreme-value statistic: across models it varies by several σ for no
/// capacity-related reason, which scrambles the sensitivity ordering the
/// HEC ladder depends on. [`ThresholdRule::MeanMinusKSigma`] replaces it
/// with `µ(logPD) − k·σ(logPD)` on the same calibration data — the same
/// quantity with the tail noise averaged out — and is the default (`k = 6`).
/// `Min` reproduces the paper's rule exactly; the threshold-rule ablation
/// bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ThresholdRule {
    /// The paper's rule: the minimum logPD observed on the training set.
    Min,
    /// A low quantile of the training logPDs (0 = `Min`).
    Quantile(f64),
    /// `µ − k·σ` of the training logPDs.
    MeanMinusKSigma(f32),
    /// Pin the **window-level** false-positive rate: the threshold is the
    /// given quantile of per-window *minimum* logPDs on the calibration
    /// windows, so every model flags the same fraction of normal windows.
    /// With equal specificity, detection sensitivity ordering follows model
    /// capacity directly — this is the validation-tuned-τ practice of
    /// EncDec-AD (ref [2]) and is the default (`0.02` = 2 % normal windows
    /// flagged). Handled by the detectors (needs per-window grouping).
    WindowFpr(f64),
}

impl Default for ThresholdRule {
    fn default() -> Self {
        ThresholdRule::WindowFpr(0.02)
    }
}

impl ThresholdRule {
    /// Computes the threshold from the calibration logPDs.
    ///
    /// # Panics
    ///
    /// Panics if `log_pds` is empty, a quantile is outside `[0, 1]`, or `k`
    /// is not positive.
    pub fn threshold(&self, log_pds: &[f32]) -> f32 {
        assert!(!log_pds.is_empty(), "no calibration logPDs");
        match *self {
            ThresholdRule::Min => log_pds.iter().copied().fold(f32::INFINITY, f32::min),
            ThresholdRule::Quantile(q) => {
                assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
                let mut sorted = log_pds.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite logPDs"));
                let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
                sorted[idx]
            }
            ThresholdRule::MeanMinusKSigma(k) => {
                assert!(k > 0.0, "k must be positive");
                let n = log_pds.len() as f32;
                let mean = log_pds.iter().sum::<f32>() / n;
                let var = log_pds.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
                mean - k * var.sqrt()
            }
            ThresholdRule::WindowFpr(q) => {
                // Interpreted over whatever population the caller provides;
                // detectors pass per-window minima here.
                assert!((0.0..1.0).contains(&q), "fpr must be in [0, 1)");
                let mut sorted = log_pds.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite logPDs"));
                let idx = ((sorted.len() as f64 - 1.0) * q).floor() as usize;
                sorted[idx]
            }
        }
    }
}

/// A fitted logPD scorer: Gaussian over reconstruction-error vectors plus the
/// calibrated detection threshold.
///
/// For univariate models the error vectors are 1-dimensional (per-timestep
/// scalar errors); for the multivariate seq2seq models they are
/// 18-dimensional (per-timestep error vectors), matching refs [2], [3], [9].
///
/// # Example
///
/// ```rust
/// use hec_anomaly::LogPdScorer;
///
/// // Calibrate on small errors; a large error scores below threshold.
/// let calib: Vec<Vec<f32>> = (0..50).map(|i| vec![0.01 * (i % 7) as f32]).collect();
/// let scorer = LogPdScorer::fit(&calib, 1e-4)?;
/// assert!(scorer.log_pd(&[5.0]) < scorer.threshold());
/// # Ok::<(), hec_anomaly::ScorerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogPdScorer {
    gaussian: Gaussian,
    threshold: f32,
}

impl LogPdScorer {
    /// Fits the Gaussian on calibration error vectors (from **normal**
    /// training windows) and sets the threshold to the **minimum** logPD
    /// observed among them — the paper's exact rule.
    ///
    /// `ridge` regularises the covariance diagonal.
    ///
    /// # Errors
    ///
    /// [`ScorerError::EmptyCalibrationSet`] if `errors` is empty;
    /// [`ScorerError::Gaussian`] if the fit fails (e.g. fewer than two
    /// vectors, or non-PD covariance even after the ridge).
    pub fn fit(errors: &[Vec<f32>], ridge: f32) -> Result<Self, ScorerError> {
        Self::fit_with_rule(errors, ridge, ThresholdRule::Min)
    }

    /// Like [`LogPdScorer::fit`] but with an explicit [`ThresholdRule`].
    ///
    /// # Errors
    ///
    /// Same as [`LogPdScorer::fit`].
    pub fn fit_with_rule(
        errors: &[Vec<f32>],
        ridge: f32,
        rule: ThresholdRule,
    ) -> Result<Self, ScorerError> {
        if errors.is_empty() {
            return Err(ScorerError::EmptyCalibrationSet);
        }
        let dim = errors[0].len();
        let mut flat = Vec::with_capacity(errors.len() * dim);
        for e in errors {
            assert_eq!(e.len(), dim, "inconsistent error-vector dimensionality");
            flat.extend_from_slice(e);
        }
        Ok(Self::fit_rows(&Matrix::from_vec(errors.len(), dim, flat), ridge, rule)?)
    }

    /// [`LogPdScorer::fit_with_rule`] on error vectors already laid out as
    /// the rows of one matrix — no per-vector allocation on either side.
    ///
    /// # Errors
    ///
    /// The [`GaussianError`] if the fit fails (a matrix always has a row, so
    /// there is no empty calibration set to report).
    pub fn fit_rows(
        errors: &Matrix,
        ridge: f32,
        rule: ThresholdRule,
    ) -> Result<Self, GaussianError> {
        let gaussian = Gaussian::fit(errors, ridge)?;
        let mut scratch = vec![0.0; errors.cols()];
        let log_pds: Vec<f32> = errors
            .iter_rows()
            .map(|e| gaussian.log_pdf_with(e, &mut scratch).expect("rows have the fitted width"))
            .collect();
        let threshold = rule.threshold(&log_pds);
        Ok(Self { gaussian, threshold })
    }

    /// The calibrated detection threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Overrides the detection threshold (used by detectors implementing
    /// window-level rules such as [`ThresholdRule::WindowFpr`]).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Dimensionality of the error vectors.
    pub fn dim(&self) -> usize {
        self.gaussian.dim()
    }

    /// logPD of a single error vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimensionality differs from the calibration.
    pub fn log_pd(&self, error: &[f32]) -> f32 {
        self.gaussian.log_pdf(error).expect("error-vector dimension mismatch")
    }

    /// logPD of a single scalar error (1-D calibration) — allocation-free
    /// and bit-identical to [`LogPdScorer::log_pd`] on `&[error]`.
    ///
    /// # Panics
    ///
    /// Panics if the scorer was calibrated on multivariate errors.
    pub fn log_pd_scalar(&self, error: f32) -> f32 {
        self.gaussian.log_pdf_scalar(error).expect("scorer is not 1-dimensional")
    }

    /// logPD of a single error vector, with the working vector supplied by
    /// the caller (`scratch.len() == self.dim()`) — allocation-free and
    /// bit-identical to [`LogPdScorer::log_pd`].
    ///
    /// # Panics
    ///
    /// Panics if either length differs from the calibration's dimension.
    pub fn log_pd_with(&self, error: &[f32], scratch: &mut [f32]) -> f32 {
        self.gaussian.log_pdf_with(error, scratch).expect("error-vector dimension mismatch")
    }

    /// Scores a window whose per-point error vectors are the given `rows`
    /// of `errors` (a window of a time-major block is every `batch`-th
    /// row); returns `(min_log_pd, anomalous_fraction)` where a point is
    /// anomalous when its logPD is below the threshold. `scratch` is
    /// resized to the error dimension; once it has that capacity the call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the matrix width differs from the
    /// calibration's dimension.
    pub fn score_window(
        &self,
        errors: &Matrix,
        rows: impl Iterator<Item = usize>,
        scratch: &mut Vec<f32>,
    ) -> (f32, f32) {
        scratch.resize(self.dim(), 0.0);
        let mut min_lp = f32::INFINITY;
        let (mut below, mut points) = (0usize, 0usize);
        for r in rows {
            let lp = self.log_pd_with(errors.row(r), scratch);
            min_lp = min_lp.min(lp);
            if lp < self.threshold {
                below += 1;
            }
            points += 1;
        }
        assert!(points > 0, "empty window");
        (min_lp, below as f32 / points as f32)
    }

    /// Scalar-error variant of [`LogPdScorer::score_window`] for univariate
    /// models — the autoencoders' per-window hot path. No per-point vectors,
    /// no allocation, same result to the bit. `errors` is scratch: it comes
    /// back holding each point's logPD (one vectorisable pass writes them,
    /// a second takes the minimum and the count).
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty or the scorer is not 1-dimensional.
    pub fn score_window_scalar(&self, errors: &mut [f32]) -> (f32, f32) {
        assert!(!errors.is_empty(), "empty window");
        self.gaussian.log_pdf_scalars(errors).expect("scorer is not 1-dimensional");
        let mut min_lp = f32::INFINITY;
        let mut below = 0usize;
        for &lp in errors.iter() {
            min_lp = min_lp.min(lp);
            if lp < self.threshold {
                below += 1;
            }
        }
        (min_lp, below as f32 / errors.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calib() -> Vec<Vec<f32>> {
        (0..100).map(|i| vec![0.02 * ((i % 11) as f32 - 5.0)]).collect()
    }

    #[test]
    fn threshold_is_min_training_log_pd() {
        let scorer = LogPdScorer::fit(&calib(), 1e-4).unwrap();
        let min = calib().iter().map(|e| scorer.log_pd(e)).fold(f32::INFINITY, f32::min);
        assert!((scorer.threshold() - min).abs() < 1e-5);
    }

    #[test]
    fn training_points_never_below_threshold() {
        let scorer = LogPdScorer::fit(&calib(), 1e-4).unwrap();
        let errors = Matrix::from_vec(100, 1, calib().concat());
        let (_, frac) = scorer.score_window(&errors, 0..100, &mut Vec::new());
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn large_error_scores_below_threshold() {
        let scorer = LogPdScorer::fit(&calib(), 1e-4).unwrap();
        assert!(scorer.log_pd(&[3.0]) < scorer.threshold());
        let errors = Matrix::from_vec(2, 1, vec![3.0, 0.0]);
        let (min_lp, frac) = scorer.score_window(&errors, 0..2, &mut Vec::new());
        assert!(min_lp < scorer.threshold());
        assert!((frac - 0.5).abs() < 1e-6);
    }

    #[test]
    fn scalar_scoring_is_bit_identical_to_vector_scoring() {
        let scorer = LogPdScorer::fit(&calib(), 1e-4).unwrap();
        let scalars = vec![0.01f32, -0.07, 3.0, 0.0];
        let window = Matrix::from_vec(4, 1, scalars.clone());
        let (min_v, frac_v) = scorer.score_window(&window, 0..4, &mut Vec::new());
        let mut log_pds = scalars.clone();
        let (min_s, frac_s) = scorer.score_window_scalar(&mut log_pds);
        assert_eq!(min_v.to_bits(), min_s.to_bits());
        assert_eq!(frac_v.to_bits(), frac_s.to_bits());
        for (&e, &lp) in scalars.iter().zip(&log_pds) {
            assert_eq!(scorer.log_pd(&[e]).to_bits(), scorer.log_pd_scalar(e).to_bits());
            assert_eq!(scorer.log_pd(&[e]).to_bits(), lp.to_bits());
        }
    }

    #[test]
    fn multivariate_scoring() {
        let errors: Vec<Vec<f32>> =
            (0..60).map(|i| vec![0.01 * (i % 5) as f32, -0.01 * (i % 3) as f32]).collect();
        let scorer = LogPdScorer::fit(&errors, 1e-4).unwrap();
        assert_eq!(scorer.dim(), 2);
        assert!(scorer.log_pd(&[1.0, 1.0]) < scorer.threshold());

        // A window interleaved into a time-major block of two: its points
        // are every second row, scored as if they stood alone.
        let block = Matrix::from_rows(&[&[1.0, 1.0], &[9.0, 9.0], &[0.01, -0.01], &[9.0, 9.0]]);
        let mut scratch = Vec::new();
        let (min_lp, frac) = scorer.score_window(&block, (0..4).step_by(2), &mut scratch);
        assert_eq!(min_lp.to_bits(), scorer.log_pd(&[1.0, 1.0]).to_bits());
        assert_eq!(frac, 0.5);
        assert_eq!(scorer.log_pd_with(&[0.01, -0.01], &mut scratch), scorer.log_pd(&[0.01, -0.01]));
    }

    #[test]
    fn empty_calibration_rejected() {
        assert_eq!(LogPdScorer::fit(&[], 1e-4).unwrap_err(), ScorerError::EmptyCalibrationSet);
    }

    #[test]
    fn confidence_condition_one_deep_anomaly() {
        let rule = ConfidenceRule::default();
        let threshold = -10.0;
        // min_log_pd far below 2×threshold → confident anomaly.
        assert!(rule.is_confident(-25.0, 0.01, threshold, true));
        // Barely below threshold and few points → not confident.
        assert!(!rule.is_confident(-11.0, 0.01, threshold, true));
    }

    #[test]
    fn confidence_condition_two_many_points() {
        let rule = ConfidenceRule::default();
        let threshold = -10.0;
        assert!(rule.is_confident(-11.0, 0.10, threshold, true)); // >5% points
        assert!(!rule.is_confident(-11.0, 0.05, threshold, true)); // exactly 5% is not >
    }

    #[test]
    fn confident_normal_requires_margin() {
        let rule = ConfidenceRule::default();
        let threshold = -10.0;
        assert!(rule.is_confident(-3.0, 0.0, threshold, false)); // well above -5
        assert!(!rule.is_confident(-8.0, 0.0, threshold, false)); // near the border
    }

    #[test]
    fn scorer_error_display() {
        let e = ScorerError::EmptyCalibrationSet.to_string();
        assert!(e.contains("calibration"));
    }
}
