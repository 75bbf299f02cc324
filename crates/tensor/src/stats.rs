//! Gaussian fitting and log probability density.
//!
//! The paper scores anomalies with the *logarithmic probability density*
//! (logPD) of reconstruction errors under a Gaussian `N(µ, Σ)` fitted on the
//! reconstruction errors of **normal** training data (§II-A3). This module
//! provides exactly that: sample mean/covariance estimation, a Cholesky
//! factorisation for the (regularised) covariance, and the multivariate
//! log-pdf evaluated through triangular solves.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{math, Matrix};

/// Error fitting or evaluating a [`Gaussian`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GaussianError {
    /// Fewer than two samples were provided.
    NotEnoughSamples {
        /// Number of samples that were provided.
        got: usize,
    },
    /// The (regularised) covariance matrix is not positive definite.
    NotPositiveDefinite,
    /// A sample had the wrong dimensionality.
    DimensionMismatch {
        /// Expected dimensionality (that of the fitted Gaussian).
        expected: usize,
        /// Dimensionality of the offending sample.
        got: usize,
    },
}

impl fmt::Display for GaussianError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaussianError::NotEnoughSamples { got } => {
                write!(f, "need at least 2 samples to fit a gaussian, got {got}")
            }
            GaussianError::NotPositiveDefinite => {
                write!(f, "covariance matrix is not positive definite")
            }
            GaussianError::DimensionMismatch { expected, got } => {
                write!(f, "sample dimension {got} does not match gaussian dimension {expected}")
            }
        }
    }
}

impl std::error::Error for GaussianError {}

/// A multivariate Gaussian `N(µ, Σ)` with a precomputed Cholesky factor,
/// ready for fast log-pdf queries.
///
/// # Example
///
/// ```rust
/// use hec_tensor::{Gaussian, Matrix};
///
/// // Two-dimensional errors clustered near the origin.
/// let samples = Matrix::from_rows(&[
///     &[0.1, -0.1], &[-0.2, 0.1], &[0.0, 0.2], &[0.15, 0.0],
/// ]);
/// let g = Gaussian::fit(&samples, 1e-3)?;
/// // A point near the mean is more probable than a distant one.
/// assert!(g.log_pdf(&[0.0, 0.0])? > g.log_pdf(&[5.0, 5.0])?);
/// # Ok::<(), hec_tensor::GaussianError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    mean: Vec<f32>,
    /// Lower-triangular Cholesky factor of the regularised covariance.
    chol: Matrix,
    /// log(det Σ) computed from the Cholesky diagonal.
    log_det: f32,
    dim: usize,
}

impl Gaussian {
    /// Fits `N(µ, Σ + εI)` to the rows of `samples`.
    ///
    /// `ridge` (ε) is added to the covariance diagonal for numerical
    /// stability — reconstruction errors of a well-trained model can have
    /// near-singular covariance.
    ///
    /// # Errors
    ///
    /// * [`GaussianError::NotEnoughSamples`] if fewer than 2 rows.
    /// * [`GaussianError::NotPositiveDefinite`] if Σ + εI has a non-positive
    ///   pivot (choose a larger `ridge`).
    pub fn fit(samples: &Matrix, ridge: f32) -> Result<Self, GaussianError> {
        let n = samples.rows();
        if n < 2 {
            return Err(GaussianError::NotEnoughSamples { got: n });
        }
        let d = samples.cols();
        let mut mean = vec![0.0f32; d];
        for row in samples.iter_rows() {
            for (m, &x) in mean.iter_mut().zip(row.iter()) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }

        // Unbiased sample covariance.
        let mut cov = Matrix::zeros(d, d);
        for row in samples.iter_rows() {
            for i in 0..d {
                let di = row[i] - mean[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..d {
                    let dj = row[j] - mean[j];
                    cov[(i, j)] += di * dj;
                }
            }
        }
        let denom = (n - 1) as f32;
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
            cov[(i, i)] += ridge;
        }

        Self::from_mean_cov(mean, &cov)
    }

    /// Builds a Gaussian from an explicit mean and covariance.
    ///
    /// # Errors
    ///
    /// * [`GaussianError::DimensionMismatch`] if `mean.len() != cov.rows()`.
    /// * [`GaussianError::NotPositiveDefinite`] if `cov` is not positive
    ///   definite (no ridge is added here; the caller controls regularisation).
    pub fn from_mean_cov(mean: Vec<f32>, cov: &Matrix) -> Result<Self, GaussianError> {
        let d = mean.len();
        if cov.rows() != d || cov.cols() != d {
            return Err(GaussianError::DimensionMismatch { expected: d, got: cov.rows() });
        }
        let chol = cholesky(cov).ok_or(GaussianError::NotPositiveDefinite)?;
        let log_det = 2.0 * (0..d).map(|i| math::ln(chol[(i, i)])).sum::<f32>();
        Ok(Self { mean, chol, log_det, dim: d })
    }

    /// Dimensionality of the Gaussian.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mean vector µ.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Log probability density of `x`:
    /// `-½ [ d·ln(2π) + ln|Σ| + (x-µ)ᵀ Σ⁻¹ (x-µ) ]`.
    ///
    /// Allocates its working vector; per-point hot paths should prefer
    /// [`Gaussian::log_pdf_with`].
    ///
    /// # Errors
    ///
    /// [`GaussianError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn log_pdf(&self, x: &[f32]) -> Result<f32, GaussianError> {
        self.log_pdf_with(x, &mut vec![0.0; x.len()])
    }

    /// [`Gaussian::log_pdf`] with the working vector supplied by the caller
    /// (`scratch.len() == x.len()`, contents unspecified on return) — the
    /// allocation-free form for `d > 1`, the twin of
    /// [`Gaussian::log_pdf_scalars`]. Same operations per element in the
    /// same order, hence the same bits.
    ///
    /// # Errors
    ///
    /// [`GaussianError::DimensionMismatch`] if `x.len() != self.dim()` or
    /// `scratch.len() != self.dim()`.
    pub fn log_pdf_with(&self, x: &[f32], scratch: &mut [f32]) -> Result<f32, GaussianError> {
        let maha_sq = self.mahalanobis_sq_with(x, scratch)?;
        let d = self.dim as f32;
        Ok(-0.5 * (d * math::ln(std::f32::consts::TAU) + self.log_det + maha_sq))
    }

    /// Log probability density of a 1-dimensional sample, allocation-free.
    ///
    /// Bit-identical to [`Gaussian::log_pdf`] on `&[x]`: at `d = 1` the
    /// general path's difference vector and forward substitution reduce to
    /// the scalar expressions below operation for operation, so detectors
    /// can use this on their per-point hot path without shifting any
    /// calibrated threshold by even an ulp.
    ///
    /// # Errors
    ///
    /// [`GaussianError::DimensionMismatch`] if the Gaussian is not 1-D.
    pub fn log_pdf_scalar(&self, x: f32) -> Result<f32, GaussianError> {
        let mut sample = [x];
        self.log_pdf_scalars(&mut sample)?;
        Ok(sample[0])
    }

    /// Replaces every 1-dimensional sample in `xs` by its log probability
    /// density — [`Gaussian::log_pdf_scalar`] over a slice, with the
    /// Gaussian's constants read once, so the loop is plain element-wise
    /// arithmetic the compiler can vectorise. Same operations in the same
    /// order per element, hence the same bits.
    ///
    /// # Errors
    ///
    /// [`GaussianError::DimensionMismatch`] if the Gaussian is not 1-D.
    pub fn log_pdf_scalars(&self, xs: &mut [f32]) -> Result<(), GaussianError> {
        if self.dim != 1 {
            return Err(GaussianError::DimensionMismatch { expected: self.dim, got: 1 });
        }
        let (mean, scale) = (self.mean[0], self.chol[(0, 0)]);
        let constant = math::ln(std::f32::consts::TAU) + self.log_det;
        for x in xs {
            let y = (*x - mean) / scale;
            *x = -0.5 * (constant + y * y);
        }
        Ok(())
    }

    /// Squared Mahalanobis distance `(x-µ)ᵀ Σ⁻¹ (x-µ)`: solves
    /// `L y = x − µ` into `y` by forward substitution, then returns `‖y‖²`.
    fn mahalanobis_sq_with(&self, x: &[f32], y: &mut [f32]) -> Result<f32, GaussianError> {
        for got in [x.len(), y.len()] {
            if got != self.dim {
                return Err(GaussianError::DimensionMismatch { expected: self.dim, got });
            }
        }
        for i in 0..self.dim {
            let mut sum = x[i] - self.mean[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                sum -= self.chol[(i, j)] * yj;
            }
            y[i] = sum / self.chol[(i, i)];
        }
        Ok(y.iter().map(|v| v * v).sum())
    }
}

/// Cholesky factorisation `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// Returns `None` if a pivot is non-positive (matrix not positive definite).
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return None;
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_of_identity_is_identity() {
        let l = cholesky(&Matrix::eye(4)).unwrap();
        assert_eq!(l, Matrix::eye(4));
    }

    #[test]
    fn cholesky_reconstructs() {
        // A = L Lᵀ for a hand-picked SPD matrix.
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.5], &[0.6, 1.5, 3.0]]);
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose());
        for (x, y) in back.as_slice().iter().zip(a.as_slice().iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn univariate_log_pdf_matches_closed_form() {
        // N(0, 1): log pdf at 0 is -0.5 ln(2π).
        let g = Gaussian::from_mean_cov(vec![0.0], &Matrix::eye(1)).unwrap();
        let expected = -0.5 * (2.0 * std::f32::consts::PI).ln();
        assert!((g.log_pdf(&[0.0]).unwrap() - expected).abs() < 1e-5);
        // At x=2: -0.5(ln 2π + 4).
        let expected2 = -0.5 * ((2.0 * std::f32::consts::PI).ln() + 4.0);
        assert!((g.log_pdf(&[2.0]).unwrap() - expected2).abs() < 1e-5);
    }

    #[test]
    fn fit_recovers_mean() {
        let samples = Matrix::from_rows(&[
            &[1.0, 10.0],
            &[2.0, 12.0],
            &[3.0, 14.0],
            &[2.0, 11.0],
            &[2.0, 13.0],
        ]);
        let g = Gaussian::fit(&samples, 1e-3).unwrap();
        assert!((g.mean()[0] - 2.0).abs() < 1e-5);
        assert!((g.mean()[1] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn fit_requires_two_samples() {
        let samples = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(
            Gaussian::fit(&samples, 1e-3).unwrap_err(),
            GaussianError::NotEnoughSamples { got: 1 }
        );
    }

    #[test]
    fn ridge_rescues_degenerate_covariance() {
        // All samples identical -> zero covariance; ridge makes it PD.
        let samples = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let g = Gaussian::fit(&samples, 1e-2).unwrap();
        assert!(g.log_pdf(&[1.0, 1.0]).unwrap().is_finite());
    }

    #[test]
    fn log_pdf_decreases_with_distance() {
        let samples = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.1, -0.1],
            &[-0.1, 0.1],
            &[0.05, 0.05],
            &[-0.05, -0.05],
        ]);
        let g = Gaussian::fit(&samples, 1e-3).unwrap();
        let near = g.log_pdf(&[0.0, 0.0]).unwrap();
        let mid = g.log_pdf(&[1.0, 1.0]).unwrap();
        let far = g.log_pdf(&[3.0, 3.0]).unwrap();
        assert!(near > mid && mid > far);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let g = Gaussian::from_mean_cov(vec![0.0, 0.0], &Matrix::eye(2)).unwrap();
        assert_eq!(
            g.log_pdf(&[1.0]).unwrap_err(),
            GaussianError::DimensionMismatch { expected: 2, got: 1 }
        );
    }

    #[test]
    fn scalar_log_pdf_is_bit_identical_to_general_path() {
        let samples = Matrix::from_vec(6, 1, vec![0.013, -0.021, 0.007, 0.049, -0.033, 0.002]);
        let g = Gaussian::fit(&samples, 1e-6).unwrap();
        for x in [-3.0f32, -0.02, 0.0, 0.013, 0.7, 42.0] {
            let general = g.log_pdf(&[x]).unwrap();
            let scalar = g.log_pdf_scalar(x).unwrap();
            assert_eq!(general.to_bits(), scalar.to_bits(), "diverged at {x}");
        }
        // Multivariate Gaussians reject the scalar path.
        let g2 = Gaussian::from_mean_cov(vec![0.0, 0.0], &Matrix::eye(2)).unwrap();
        assert_eq!(
            g2.log_pdf_scalar(1.0).unwrap_err(),
            GaussianError::DimensionMismatch { expected: 2, got: 1 }
        );
    }

    #[test]
    fn caller_scratch_log_pdf_is_bit_identical_whatever_the_scratch_held() {
        let samples = Matrix::from_rows(&[
            &[0.1, -0.1, 0.3],
            &[-0.2, 0.1, 0.0],
            &[0.0, 0.2, -0.1],
            &[0.15, 0.0, 0.2],
            &[-0.05, 0.05, 0.1],
        ]);
        let g = Gaussian::fit(&samples, 1e-3).unwrap();
        // The allocating form this replaced: difference vector first, then
        // forward substitution into a fresh `y`.
        let two_vectors = |x: &[f32]| {
            let diff: Vec<f32> = x.iter().zip(&g.mean).map(|(a, b)| a - b).collect();
            let mut y = [0.0f32; 3];
            for i in 0..3 {
                let mut sum = diff[i];
                for (j, &yj) in y.iter().enumerate().take(i) {
                    sum -= g.chol[(i, j)] * yj;
                }
                y[i] = sum / g.chol[(i, i)];
            }
            let maha_sq: f32 = y.iter().map(|v| v * v).sum();
            -0.5 * (3.0 * (2.0 * std::f32::consts::PI).ln() + g.log_det + maha_sq)
        };
        let mut scratch = [f32::NAN, 7.0, -3.0];
        for x in [[0.0f32, 0.0, 0.0], [0.4, -1.0, 2.5], [-3.0, 0.2, 0.1]] {
            let with = g.log_pdf_with(&x, &mut scratch).unwrap();
            assert_eq!(with.to_bits(), two_vectors(&x).to_bits(), "diverged at {x:?}");
            assert_eq!(with.to_bits(), g.log_pdf(&x).unwrap().to_bits());
        }
        assert_eq!(
            g.log_pdf_with(&[0.0; 3], &mut [0.0; 2]).unwrap_err(),
            GaussianError::DimensionMismatch { expected: 3, got: 2 }
        );
    }

    #[test]
    fn error_display_is_lowercase_and_nonempty() {
        let e = GaussianError::NotPositiveDefinite.to_string();
        assert!(!e.is_empty());
        assert!(e.chars().next().unwrap().is_lowercase());
    }
}
