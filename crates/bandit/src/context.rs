//! Context-vector scaling and load-feature augmentation.
//!
//! Policy networks train best on roughly unit-scale inputs. The univariate
//! context (`{min, max, mean, std}` of a day) and the multivariate context
//! (LSTM encoder states) are both standardised with statistics fitted on the
//! policy-training corpus.
//!
//! [`LoadNormalizer`] extends the context with the *system state* the paper's
//! static formulation ignores: normalised per-layer queue depths and link
//! occupancy sampled at routing time, so a policy can learn that offloading
//! into a saturated layer is expensive. Load features are already in `[0, 1]`
//! by construction and are appended after the standardised base features.

use serde::{Deserialize, Serialize};

use hec_tensor::{math, Matrix};

/// Maps raw per-layer load gauges (queue depths, in-flight link transfers)
/// to `[0, 1]`-scale context features via a log ramp:
/// `f(d) = ln(1 + d) / ln(1 + cap)` clamped to `[0, 1]`.
///
/// The log keeps resolution where routing decisions live (a queue of 0 vs
/// 20 matters much more than 1800 vs 2000) while the cap pins "full" at 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadNormalizer {
    /// `ln(1 + cap)` per queue gauge — the ramp's denominator.
    queue_ln_caps: Vec<f32>,
    /// `ln(1 + cap)` per link gauge.
    link_ln_caps: Vec<f32>,
    /// Per-layer multiplier applied to the raw queue gauge before the
    /// ramp (1.0 = use the gauge as-is).
    queue_scale: Vec<f64>,
}

impl LoadNormalizer {
    /// Creates a normaliser from per-layer queue-depth caps and per-layer
    /// link in-flight caps.
    ///
    /// # Panics
    ///
    /// Panics if any cap is not at least 1.
    pub fn new(queue_caps: Vec<f64>, link_caps: Vec<f64>) -> Self {
        assert!(
            queue_caps.iter().chain(link_caps.iter()).all(|&c| c >= 1.0),
            "load caps must be ≥ 1"
        );
        let ln_caps = |caps: Vec<f64>| caps.iter().map(|&c| math::ln((1.0 + c) as f32)).collect();
        Self {
            queue_scale: vec![1.0; queue_caps.len()],
            queue_ln_caps: ln_caps(queue_caps),
            link_ln_caps: ln_caps(link_caps),
        }
    }

    /// Sets per-layer multipliers applied to the raw queue gauges before
    /// the ramp. Use this to make a gauge **scale-free** when its raw
    /// magnitude depends on fleet size (e.g. rescale a busy-device count
    /// to per-mille of the fleet), so policies trained on a scaled-down
    /// twin see the same feature distribution at any deployment scale.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the queue caps or any scale is
    /// not positive and finite.
    pub fn with_queue_scale(mut self, queue_scale: Vec<f64>) -> Self {
        assert_eq!(queue_scale.len(), self.queue_ln_caps.len(), "one scale per queue gauge");
        assert!(
            queue_scale.iter().all(|s| *s > 0.0 && s.is_finite()),
            "queue scales must be positive and finite"
        );
        self.queue_scale = queue_scale;
        self
    }

    /// Number of features this normaliser appends.
    pub fn dims(&self) -> usize {
        self.queue_ln_caps.len() + self.link_ln_caps.len()
    }

    fn ramp(raw: f64, ln_cap: f32) -> f32 {
        (math::ln((1.0 + raw.max(0.0)) as f32) / ln_cap).clamp(0.0, 1.0)
    }

    /// Appends the normalised load features for one routing decision.
    ///
    /// # Panics
    ///
    /// Panics if the gauge slices are shorter than the cap vectors.
    pub fn append_features(
        &self,
        queue_depth: &[usize],
        link_inflight: &[usize],
        out: &mut Vec<f32>,
    ) {
        assert!(queue_depth.len() >= self.queue_ln_caps.len(), "queue gauge too short");
        assert!(link_inflight.len() >= self.link_ln_caps.len(), "link gauge too short");
        for (l, &ln_cap) in self.queue_ln_caps.iter().enumerate() {
            out.push(Self::ramp(queue_depth[l] as f64 * self.queue_scale[l], ln_cap));
        }
        for (l, &ln_cap) in self.link_ln_caps.iter().enumerate() {
            out.push(Self::ramp(link_inflight[l] as f64, ln_cap));
        }
    }

    /// The normalised load features as a fresh vector.
    pub fn features(&self, queue_depth: &[usize], link_inflight: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dims());
        self.append_features(queue_depth, link_inflight, &mut out);
        out
    }
}

/// Per-dimension standardiser for context vectors, fitted and applied over
/// the rows of a context matrix (one context per row).
///
/// # Example
///
/// ```rust
/// use hec_bandit::ContextScaler;
/// use hec_tensor::Matrix;
///
/// let contexts = Matrix::from_rows(&[&[0.0, 10.0], &[2.0, 30.0], &[4.0, 50.0]]);
/// let scaler = ContextScaler::fit(&contexts);
/// let z = scaler.transform(&contexts);
/// assert!(z.row(1).iter().all(|v| v.abs() < 1e-6)); // the mean maps to 0
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl ContextScaler {
    /// Fits per-column mean/std over the rows of `contexts`, summed in row
    /// order.
    ///
    /// Zero-variance dimensions get `σ = 1`.
    pub fn fit(contexts: &Matrix) -> Self {
        let d = contexts.cols();
        let n = contexts.rows() as f32;
        let mut mean = vec![0.0f32; d];
        for c in contexts.iter_rows() {
            for (m, &x) in mean.iter_mut().zip(c) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for c in contexts.iter_rows() {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(c) {
                *v += (x - m) * (x - m);
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
        Self { mean, std }
    }

    /// Context dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardises every row of `contexts` into a new matrix of the same
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn transform(&self, contexts: &Matrix) -> Matrix {
        assert_eq!(contexts.cols(), self.dim(), "context dimension mismatch");
        let mut scaled = contexts.clone();
        for row in scaled.as_mut_slice().chunks_exact_mut(self.dim()) {
            for ((x, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *x = (*x - m) / s;
            }
        }
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_variance_after_transform() {
        let contexts: Vec<f32> = (0..50).flat_map(|i| [i as f32, 100.0 - i as f32]).collect();
        let contexts = Matrix::from_vec(50, 2, contexts);
        let scaler = ContextScaler::fit(&contexts);
        let z = scaler.transform(&contexts);
        for d in 0..2 {
            let vals: Vec<f32> = z.col(d);
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn constant_dimension_maps_to_zero() {
        let contexts = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0], &[5.0, 3.0]]);
        let scaler = ContextScaler::fit(&contexts);
        assert!(scaler.transform(&contexts).col_iter(0).all(|x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "context dimension mismatch")]
    fn transform_rejects_a_matrix_of_another_width() {
        let scaler = ContextScaler::fit(&Matrix::from_rows(&[&[1.0], &[2.0]]));
        let _ = scaler.transform(&Matrix::zeros(2, 2));
    }

    #[test]
    fn load_features_are_bounded_and_monotone() {
        let norm = LoadNormalizer::new(vec![100.0, 2000.0, 2000.0], vec![4096.0; 3]);
        assert_eq!(norm.dims(), 6);
        let empty = norm.features(&[0, 0, 0], &[0, 0, 0]);
        assert!(empty.iter().all(|&f| f == 0.0));
        let full = norm.features(&[100, 2000, 2000], &[4096, 4096, 4096]);
        assert!(full.iter().all(|&f| (f - 1.0).abs() < 1e-6), "{full:?}");
        // Deeper queue ⇒ strictly larger feature; overflow clamps at 1.
        let a = norm.features(&[5, 0, 0], &[0, 0, 0])[0];
        let b = norm.features(&[50, 0, 0], &[0, 0, 0])[0];
        assert!(b > a && a > 0.0);
        let over = norm.features(&[10_000, 0, 0], &[0, 0, 0])[0];
        assert_eq!(over, 1.0);
    }

    #[test]
    fn load_features_append_after_base_context() {
        let norm = LoadNormalizer::new(vec![10.0], vec![10.0]);
        let mut ctx = vec![1.5f32, -0.5];
        norm.append_features(&[3], &[0], &mut ctx);
        assert_eq!(ctx.len(), 4);
        assert_eq!(ctx[0], 1.5);
        assert_eq!(ctx[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "load caps must be")]
    fn zero_cap_rejected() {
        let _ = LoadNormalizer::new(vec![0.0], vec![]);
    }

    /// A gauge whose raw magnitude grows with fleet size becomes
    /// scale-free once rescaled: the same *relative* occupancy produces
    /// the same feature at 1× and 50× fleet sizes.
    #[test]
    fn queue_scale_makes_relative_occupancy_scale_free() {
        let small_fleet = 2_400.0f64;
        let large_fleet = 120_000.0f64;
        let small =
            LoadNormalizer::new(vec![1000.0], vec![]).with_queue_scale(vec![1000.0 / small_fleet]);
        let large =
            LoadNormalizer::new(vec![1000.0], vec![]).with_queue_scale(vec![1000.0 / large_fleet]);
        for occupancy in [0.01, 0.1, 0.5, 1.0] {
            let a = small.features(&[(small_fleet * occupancy) as usize], &[])[0];
            let b = large.features(&[(large_fleet * occupancy) as usize], &[])[0];
            assert!((a - b).abs() < 5e-3, "occupancy {occupancy}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "one scale per queue gauge")]
    fn mismatched_scale_length_rejected() {
        let _ = LoadNormalizer::new(vec![10.0, 10.0], vec![]).with_queue_scale(vec![1.0]);
    }
}
