//! Free functions over `&[f32]` slices.
//!
//! These are the hot-path primitives used by the policy network and the
//! anomaly scorer where constructing a full [`crate::Matrix`] would be
//! wasteful: dot products, numerically-stable softmax, summary statistics
//! (the univariate contextual features of the paper are exactly
//! `{min, max, mean, std}`, §III-B).

use crate::math;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```rust
/// assert_eq!(hec_tensor::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch: {} vs {}", a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Numerically-stable softmax: subtracts the max before exponentiating.
///
/// Returns a probability vector that sums to 1 for any finite input.
///
/// # Panics
///
/// Panics if `logits` is empty.
///
/// # Example
///
/// ```rust
/// let p = hec_tensor::vecops::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = logits.to_vec();
    softmax_inplace(&mut probs);
    probs
}

/// [`softmax`] over `logits` in place — the same bits, no allocation.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax_inplace(logits: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax of empty slice");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in logits.iter_mut() {
        *x -= max;
    }
    math::exp_slice(logits);
    let sum: f32 = logits.iter().sum();
    if sum == 0.0 || !sum.is_finite() {
        // Degenerate input (all -inf or NaN): fall back to uniform.
        logits.fill(1.0 / logits.len() as f32);
        return;
    }
    for e in logits.iter_mut() {
        *e /= sum;
    }
}

/// Index of the maximum element (first occurrence on ties).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn argmax(v: &[f32]) -> usize {
    assert!(!v.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn mean(v: &[f32]) -> f32 {
    assert!(!v.is_empty(), "mean of empty slice");
    v.iter().sum::<f32>() / v.len() as f32
}

/// Population standard deviation (divides by `n`, matching the paper's
/// zero-mean/unit-variance standardisation).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn std_dev(v: &[f32]) -> f32 {
    std_dev_about(v, mean(v))
}

/// [`std_dev`] about a mean the caller already has.
fn std_dev_about(v: &[f32], m: f32) -> f32 {
    (v.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32).sqrt()
}

/// `{min, max, mean, std}` of a window — the univariate contextual feature
/// vector fed to the policy network (paper §III-B).
///
/// # Panics
///
/// Panics if `v` is empty.
///
/// # Example
///
/// ```rust
/// let f = hec_tensor::vecops::summary_features(&[0.0, 2.0]);
/// assert_eq!(f, [0.0, 2.0, 1.0, 1.0]);
/// ```
pub fn summary_features(v: &[f32]) -> [f32; 4] {
    assert!(!v.is_empty(), "summary_features of empty slice");
    let min = v.iter().copied().fold(f32::INFINITY, f32::min);
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let m = mean(v);
    [min, max, m, std_dev_about(v, m)]
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    assert!(!a.is_empty(), "mse of empty slices");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>() / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let p1 = softmax(&[1.0, 2.0]);
        let p2 = softmax(&[101.0, 102.0]);
        assert!((p1[0] - p2[0]).abs() < 1e-6);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1000.0, -1000.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_of_a_degenerate_row_is_uniform() {
        // Rests on `math::exp(NaN)` being NaN: a clamp that swallowed it
        // would hand back a confident distribution instead.
        let ninf = f32::NEG_INFINITY;
        for row in [[ninf, ninf, ninf], [0.5, f32::NAN, -1.0], [f32::NAN; 3], [f32::INFINITY; 3]] {
            assert_eq!(softmax(&row), [1.0 / 3.0; 3], "softmax({row:?})");
        }
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 1.0, 0.0]), 0);
    }

    #[test]
    fn summary_features_known() {
        let f = summary_features(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 4.0);
        assert!((f[2] - 2.5).abs() < 1e-6);
        assert!((f[3] - 1.118034).abs() < 1e-5);
    }

    #[test]
    fn mse_zero_for_identical() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mse(&[0.0, 0.0], &[1.0, 1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[3.0, 3.0, 3.0]), 0.0);
    }
}
