//! Gaussian logPD anomaly scoring and the confident-detection rules.
//!
//! §II-A3: *"We assume that reconstruction errors follow the Gaussian
//! distribution N(µ, Σ) … We use logarithmic probability densities (logPD) of
//! the reconstruction errors as anomaly scores … We then use the minimum
//! value of the logPD on the normal dataset (i.e., the training set) as the
//! threshold for detecting outliers."*

use serde::{Deserialize, Serialize};

use hec_tensor::{Gaussian, GaussianError, Matrix};

use crate::detector::Detection;

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
        Self::PAPER
    }
}

impl ConfidenceRule {
    /// The paper's rule (2×, 5 %) — the one every detector reports
    /// [`Detection::confident`] under. The Successive-scheme ablation
    /// re-derives confidence under other rules from an oracle's stored
    /// scores, never from a detector.
    pub const PAPER: Self = Self { factor: 2.0, fraction: 0.05 };

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

/// How a detection threshold is derived from calibration logPDs.
///
/// The paper uses the **minimum** training logPD (§II-A3). The minimum is an
/// extreme-value statistic: across models it varies by several σ for no
/// capacity-related reason, which scrambles the sensitivity ordering the
/// HEC ladder depends on. The detectors therefore calibrate under one fixed
/// rule, [`CALIBRATION_RULE`]; the other variants exist for the
/// threshold-rule ablation (`hec_core::ablation`), which re-derives verdicts
/// under each of them from an oracle's stored per-window minima.
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
    /// EncDec-AD (ref \[2\]).
    WindowFpr(f64),
}

/// The rule every detector's threshold is calibrated under: 2 % of the
/// normal calibration windows flagged.
pub const CALIBRATION_RULE: ThresholdRule = ThresholdRule::WindowFpr(0.02);

/// A window is flagged anomalous when its anomalous-point fraction exceeds
/// this: any point below the threshold flags the window.
const FLAG_FRACTION: f32 = 0.0;

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
/// 18-dimensional (per-timestep error vectors), matching refs \[2\], \[3\], \[9\].
///
/// # Example
///
/// ```rust
/// use hec_anomaly::LogPdScorer;
/// use hec_tensor::Matrix;
///
/// // Calibrate on 50 one-point windows of small errors; a large error
/// // scores below the threshold.
/// let calib = Matrix::from_vec(50, 1, (0..50).map(|i| 0.01 * (i % 7) as f32).collect());
/// let scorer = LogPdScorer::fit(&calib, 1..=50, 1e-4)?;
/// assert!(scorer.log_pd(&[5.0]) < scorer.threshold());
/// # Ok::<(), hec_tensor::GaussianError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogPdScorer {
    gaussian: Gaussian,
    threshold: f32,
}

impl LogPdScorer {
    /// Fits the Gaussian on the rows of `errors` — the per-point error
    /// vectors of **normal** windows, window after window, window `w`'s rows
    /// ending before row `window_ends[w]` — and calibrates the threshold
    /// under [`CALIBRATION_RULE`] on the per-window minimum logPDs. Each
    /// row's logPD is evaluated once, folded straight into its window's
    /// minimum.
    ///
    /// `ridge` regularises the covariance diagonal.
    ///
    /// # Errors
    ///
    /// The [`GaussianError`] if the fit fails (fewer than two rows, or a
    /// covariance that is not positive definite even after the ridge).
    ///
    /// # Panics
    ///
    /// Panics if `window_ends` is empty or runs past the last row.
    pub fn fit(
        errors: &Matrix,
        window_ends: impl IntoIterator<Item = usize>,
        ridge: f32,
    ) -> Result<Self, GaussianError> {
        let gaussian = Gaussian::fit(errors, ridge)?;
        let mut scratch = vec![0.0; errors.cols()];
        let mut start = 0;
        let minima: Vec<f32> = window_ends
            .into_iter()
            .map(|end| {
                let rows = start..end;
                start = end;
                rows.map(|r| {
                    gaussian
                        .log_pdf_with(errors.row(r), &mut scratch)
                        .expect("rows have the fitted width")
                })
                .fold(f32::INFINITY, f32::min)
            })
            .collect();
        Ok(Self { gaussian, threshold: CALIBRATION_RULE.threshold(&minima) })
    }

    /// The calibrated detection threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
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

    /// The detection a window's scores amount to: flagged when any point
    /// fell below the threshold, confident under [`ConfidenceRule::PAPER`].
    pub fn detection(&self, min_log_pd: f32, anomalous_fraction: f32) -> Detection {
        let anomalous = anomalous_fraction > FLAG_FRACTION;
        let confident = ConfidenceRule::PAPER.is_confident(
            min_log_pd,
            anomalous_fraction,
            self.threshold,
            anomalous,
        );
        Detection { anomalous, confident, min_log_pd, anomalous_fraction }
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
    /// The second pass folds `FOLD_LANES` independent lanes — a select
    /// `if lp < acc { lp } else { acc }` and a branch-free count each — and
    /// then the lanes and the remainder, instead of one loop-carried
    /// `f32::min` chain. The minimum is the same bits: a NaN point never
    /// replaces an accumulator in either form (the select's compare is
    /// false, `f32::min` returns the other operand, and every accumulator
    /// starts at `+∞`), and `±0` ordering cannot arise, since the only zero
    /// logPD is `−0.0` — `constant + y²` rounds to `+0` or to a non-zero
    /// value, never to `−0`, and `−0.5 × (+0) = −0`.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty or the scorer is not 1-dimensional.
    pub fn score_window_scalar(&self, errors: &mut [f32]) -> (f32, f32) {
        assert!(!errors.is_empty(), "empty window");
        self.gaussian.log_pdf_scalars(errors).expect("scorer is not 1-dimensional");
        lane_fold(errors, self.threshold)
    }
}

/// Independent accumulators of [`lane_fold`]: one 8-wide `f32` vector on
/// AVX2.
const FOLD_LANES: usize = 8;

/// `(min, fraction below threshold)` of a non-empty window's logPDs, the
/// fold [`LogPdScorer::score_window_scalar`] describes.
fn lane_fold(log_pds: &[f32], threshold: f32) -> (f32, f32) {
    let (mut mins, mut below) = ([f32::INFINITY; FOLD_LANES], [0u32; FOLD_LANES]);
    let mut chunks = log_pds.chunks_exact(FOLD_LANES);
    for chunk in &mut chunks {
        for l in 0..FOLD_LANES {
            let lp = chunk[l];
            mins[l] = if lp < mins[l] { lp } else { mins[l] };
            below[l] += (lp < threshold) as u32;
        }
    }
    let rest = chunks.remainder();
    let min_lp =
        mins.iter().chain(rest).fold(f32::INFINITY, |acc, &lp| if lp < acc { lp } else { acc });
    let count =
        below.iter().sum::<u32>() + rest.iter().map(|&lp| (lp < threshold) as u32).sum::<u32>();
    (min_lp, count as f32 / log_pds.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 25 four-point windows of small scalar errors.
    fn calib() -> Matrix {
        Matrix::from_vec(100, 1, (0..100).map(|i| 0.02 * ((i * 7 % 31) as f32 - 15.0)).collect())
    }

    fn fitted() -> LogPdScorer {
        LogPdScorer::fit(&calib(), (1..=25).map(|w| 4 * w), 1e-4).unwrap()
    }

    #[test]
    fn threshold_is_the_calibration_quantile_of_per_window_minima() {
        // The two-pass way: fit, then score every row again and fold.
        let scorer = fitted();
        let minima: Vec<f32> = calib()
            .as_slice()
            .chunks_exact(4)
            .map(|w| w.iter().map(|&e| scorer.log_pd(&[e])).fold(f32::INFINITY, f32::min))
            .collect();
        assert_eq!(scorer.threshold().to_bits(), CALIBRATION_RULE.threshold(&minima).to_bits());
        // 2 % of 25 windows: the lowest minimum itself, so no calibration
        // window is flagged and no calibration point scores below it.
        let (_, frac) = scorer.score_window(&calib(), 0..100, &mut Vec::new());
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn large_error_scores_below_threshold() {
        let scorer = fitted();
        assert!(scorer.log_pd(&[3.0]) < scorer.threshold());
        let errors = Matrix::from_vec(2, 1, vec![3.0, 0.0]);
        let (min_lp, frac) = scorer.score_window(&errors, 0..2, &mut Vec::new());
        assert!(min_lp < scorer.threshold());
        assert!((frac - 0.5).abs() < 1e-6);
        let flagged = scorer.detection(min_lp, frac);
        assert!(flagged.anomalous && flagged.confident);
        assert!(!scorer.detection(0.0, 0.0).anomalous);
    }

    #[test]
    fn scalar_scoring_is_bit_identical_to_vector_scoring() {
        let scorer = fitted();
        let scalars = vec![0.01f32, -0.07, 3.0, 0.0];
        let window = Matrix::from_vec(4, 1, scalars.clone());
        let (min_v, frac_v) = scorer.score_window(&window, 0..4, &mut Vec::new());
        let mut log_pds = scalars.clone();
        let (min_s, frac_s) = scorer.score_window_scalar(&mut log_pds);
        assert_eq!(min_v.to_bits(), min_s.to_bits());
        assert_eq!(frac_v.to_bits(), frac_s.to_bits());
        for (&e, &lp) in scalars.iter().zip(&log_pds) {
            assert_eq!(scorer.log_pd(&[e]).to_bits(), lp.to_bits());
        }
    }

    /// The fold `score_window_scalar` ran before its lanes: one serial
    /// `f32::min` chain and a branchy count.
    fn serial_fold(log_pds: &[f32], threshold: f32) -> (f32, f32) {
        let mut min_lp = f32::INFINITY;
        let mut below = 0usize;
        for &lp in log_pds {
            min_lp = min_lp.min(lp);
            if lp < threshold {
                below += 1;
            }
        }
        (min_lp, below as f32 / log_pds.len() as f32)
    }

    fn assert_folds_agree(log_pds: &[f32], threshold: f32) {
        let (lane, serial) = (lane_fold(log_pds, threshold), serial_fold(log_pds, threshold));
        assert_eq!(lane.0.to_bits(), serial.0.to_bits(), "min of {log_pds:?}");
        assert_eq!(lane.1.to_bits(), serial.1.to_bits(), "fraction of {log_pds:?}");
    }

    #[test]
    fn lane_fold_is_the_serial_fold_bit_for_bit() {
        let threshold = -3.5f32;
        // Every length across the lane width and its remainders, values on
        // both sides of the threshold, NaN points at every position.
        for len in 1..=33usize {
            let window: Vec<f32> =
                (0..len).map(|i| -0.37 * ((i * 11 + len * 5) % 23) as f32).collect();
            assert_folds_agree(&window, threshold);
            for nan_at in 0..len {
                let mut with_nan = window.clone();
                with_nan[nan_at] = f32::NAN;
                assert_folds_agree(&with_nan, threshold);
            }
            assert_folds_agree(&vec![f32::NAN; len], threshold);
            // All equal, and all exactly at the threshold: none counted.
            assert_folds_agree(&vec![-1.25; len], threshold);
            assert_folds_agree(&vec![threshold; len], threshold);
            assert_eq!(lane_fold(&vec![threshold; len], threshold).1, 0.0);
            let mut at_threshold = window.clone();
            at_threshold[len - 1] = threshold;
            assert_folds_agree(&at_threshold, threshold);
            // The one zero a logPD can be is −0.0, and it can be the minimum.
            let mut zero_min: Vec<f32> = (0..len).map(|i| 0.5 + i as f32).collect();
            zero_min[len / 2] = -0.0;
            assert_folds_agree(&zero_min, threshold);
            assert_eq!(lane_fold(&zero_min, threshold).0.to_bits(), (-0.0f32).to_bits());
        }
        // Through the scorer: each window's logPDs come back in the scratch.
        let scorer = fitted();
        for len in 1..=33usize {
            let errors: Vec<f32> = (0..len).map(|i| 0.9 * ((i * 7 % 13) as f32 - 6.0)).collect();
            let mut log_pds = errors.clone();
            let lane = scorer.score_window_scalar(&mut log_pds);
            let serial = serial_fold(&log_pds, scorer.threshold());
            assert_eq!(
                (lane.0.to_bits(), lane.1.to_bits()),
                (serial.0.to_bits(), serial.1.to_bits())
            );
        }
    }

    #[test]
    fn multivariate_scoring() {
        let errors: Vec<f32> =
            (0..60).flat_map(|i| [0.01 * (i % 5) as f32, -0.01 * (i % 3) as f32]).collect();
        let scorer = LogPdScorer::fit(&Matrix::from_vec(60, 2, errors), 1..=60, 1e-4).unwrap();
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
    fn a_single_row_is_not_a_calibration_set() {
        let err = LogPdScorer::fit(&Matrix::zeros(1, 1), 1..=1, 1e-4).unwrap_err();
        assert_eq!(err, GaussianError::NotEnoughSamples { got: 1 });
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
}
