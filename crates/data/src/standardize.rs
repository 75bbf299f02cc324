//! Per-channel zero-mean/unit-variance standardisation.

use serde::{Deserialize, Serialize};

use hec_tensor::Matrix;

/// A non-finite sample (NaN or ±∞) found where finite data is required.
///
/// Mean and standard deviation absorb a single NaN into *every* channel
/// statistic, silently poisoning every downstream reconstruction error and
/// policy reward — so standardisation refuses non-finite input outright.
/// Real-trace ingestion applies its missing-value policy *before* fitting
/// (see the `ingest` module), so a loaded corpus can never trip this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteError {
    /// Row (timestep) of the first offending sample.
    pub row: usize,
    /// Column (channel) of the first offending sample.
    pub col: usize,
}

impl std::fmt::Display for NonFiniteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite sample (NaN or ±inf) at row {}, channel {}: standardisation requires \
             finite data — apply a missing-value policy (e.g. the ingestion module's \
             reject/impute-previous) before fitting or transforming",
            self.row, self.col
        )
    }
}

impl std::error::Error for NonFiniteError {}

/// Returns the position of the first non-finite entry, if any.
pub(crate) fn first_non_finite(data: &Matrix) -> Option<NonFiniteError> {
    let flat = data.as_slice();
    // The all-finite answer from a scan without an early exit, which
    // vectorises; the positional walk only runs when it fails.
    if flat.iter().fold(true, |finite, x| finite & x.is_finite()) {
        return None;
    }
    let at = flat.iter().position(|x| !x.is_finite())?;
    Some(NonFiniteError { row: at / data.cols(), col: at % data.cols() })
}

/// Fitted per-channel standardiser: `x ↦ (x − µ_c) / σ_c`.
///
/// The paper standardises every training task and dataset to zero mean and
/// unit variance (§III-A). Fit on the **training** portion only, then apply
/// to everything, as usual.
///
/// # Example
///
/// ```rust
/// use hec_data::Standardizer;
/// use hec_tensor::Matrix;
///
/// let train = Matrix::from_rows(&[&[0.0, 10.0], &[2.0, 14.0], &[4.0, 18.0]]);
/// let s = Standardizer::fit(&train);
/// let z = s.transform(&train);
/// assert!(z.col(0).iter().sum::<f32>().abs() < 1e-5); // zero mean
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-column mean and (population) standard deviation.
    ///
    /// Columns with zero variance get `σ = 1` so transforming them maps to 0
    /// rather than dividing by zero.
    ///
    /// # Panics
    ///
    /// Panics with a [`NonFiniteError`] message if `data` contains NaN or
    /// ±∞ (use [`Standardizer::try_fit`] to handle the error instead).
    pub fn fit(data: &Matrix) -> Self {
        Self::try_fit(data).unwrap_or_else(|e| panic!("Standardizer::fit: {e}"))
    }

    /// Fallible [`Standardizer::fit`]: returns the position of the first
    /// non-finite sample instead of poisoning the statistics.
    pub fn try_fit(data: &Matrix) -> Result<Self, NonFiniteError> {
        if let Some(e) = first_non_finite(data) {
            return Err(e);
        }
        let d = data.cols();
        let n = data.rows() as f32;
        let mut mean = vec![0.0f32; d];
        for row in data.iter_rows() {
            for (m, &x) in mean.iter_mut().zip(row.iter()) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for row in data.iter_rows() {
            for ((v, &m), &x) in var.iter_mut().zip(mean.iter()).zip(row.iter()) {
                let diff = x - m;
                *v += diff * diff;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { mean, std })
    }

    /// Builds a standardiser from already-computed moments. Callers
    /// (the streaming `OnlineStandardizer::freeze`) are responsible for
    /// the fit invariants: `std` strictly positive (`σ = 1` fallback
    /// already applied) and both vectors the same length.
    pub(crate) fn from_moments(mean: Vec<f32>, std: Vec<f32>) -> Self {
        debug_assert_eq!(mean.len(), std.len());
        debug_assert!(std.iter().all(|&s| s > 0.0));
        Self { mean, std }
    }

    /// Number of channels this standardiser was fitted on.
    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    /// Fitted per-channel means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Fitted per-channel standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Standardises a `time × channels` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted channel count, or
    /// with a [`NonFiniteError`] message if `data` contains NaN or ±∞ (use
    /// [`Standardizer::try_transform`] to handle the latter as an error).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        self.try_transform(data).unwrap_or_else(|e| panic!("Standardizer::transform: {e}"))
    }

    /// Fallible [`Standardizer::transform`]: returns the position of the
    /// first non-finite sample instead of propagating it into every
    /// downstream score.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted channel count
    /// (a caller bug, not a data defect).
    pub fn try_transform(&self, data: &Matrix) -> Result<Matrix, NonFiniteError> {
        assert_eq!(data.cols(), self.channels(), "channel count mismatch");
        if let Some(e) = first_non_finite(data) {
            return Err(e);
        }
        let mut out = data.clone();
        let stats = self.mean.iter().zip(&self.std).cycle();
        for (x, (&m, &s)) in out.as_mut_slice().iter_mut().zip(stats) {
            *x = (*x - m) / s;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_gives_zero_mean_unit_variance() {
        let data = Matrix::from_rows(&[&[1.0, 100.0], &[2.0, 200.0], &[3.0, 300.0], &[4.0, 400.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        for c in 0..2 {
            let col = z.col(c);
            let mean: f32 = col.iter().sum::<f32>() / col.len() as f32;
            let var: f32 =
                col.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / col.len() as f32;
            assert!(mean.abs() < 1e-5, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "col {c} var {var}");
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let data = Matrix::from_rows(&[&[1.5, -3.0], &[0.5, 9.0], &[2.5, 3.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        for r in 0..data.rows() {
            for c in 0..data.cols() {
                let back = z[(r, c)] * s.std[c] + s.mean[c];
                assert!((back - data[(r, c)]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let data = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn mismatched_channels_panic() {
        let s = Standardizer::fit(&Matrix::zeros(3, 2));
        let _ = s.transform(&Matrix::zeros(3, 3));
    }

    #[test]
    fn fit_rejects_nan_with_position() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, f32::NAN], &[5.0, 6.0]]);
        let err = Standardizer::try_fit(&data).unwrap_err();
        assert_eq!(err, NonFiniteError { row: 1, col: 1 });
        assert!(err.to_string().contains("row 1, channel 1"), "{err}");
        assert!(err.to_string().contains("missing-value policy"), "{err}");
    }

    #[test]
    fn fit_rejects_infinities() {
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            let data = Matrix::from_rows(&[&[bad], &[1.0]]);
            let err = Standardizer::try_fit(&data).unwrap_err();
            assert_eq!(err, NonFiniteError { row: 0, col: 0 });
        }
    }

    #[test]
    fn transform_rejects_non_finite_input() {
        let s = Standardizer::fit(&Matrix::from_rows(&[&[0.0], &[2.0]]));
        let err = s.try_transform(&Matrix::from_rows(&[&[f32::NAN]])).unwrap_err();
        assert_eq!(err, NonFiniteError { row: 0, col: 0 });
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn fit_panics_with_clear_message_on_nan() {
        let _ = Standardizer::fit(&Matrix::from_rows(&[&[f32::NAN], &[1.0]]));
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn transform_panics_with_clear_message_on_inf() {
        let s = Standardizer::fit(&Matrix::from_rows(&[&[0.0], &[2.0]]));
        let _ = s.transform(&Matrix::from_rows(&[&[f32::INFINITY]]));
    }

    #[test]
    fn try_fit_matches_fit_on_clean_data() {
        let data = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0], &[2.0, 1.0]]);
        let a = Standardizer::fit(&data);
        let b = Standardizer::try_fit(&data).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.transform(&data), b.try_transform(&data).unwrap());
    }

    #[test]
    fn applies_train_statistics_to_test() {
        let train = Matrix::from_rows(&[&[0.0], &[2.0]]); // mean 1, std 1
        let s = Standardizer::fit(&train);
        let test = Matrix::from_rows(&[&[3.0]]);
        let z = s.transform(&test);
        assert!((z[(0, 0)] - 2.0).abs() < 1e-6);
    }
}
