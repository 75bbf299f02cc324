//! Weight initialisers.
//!
//! The paper's models are standard Keras layers; we reproduce the default
//! initialisation behaviour: Glorot/Xavier uniform for dense and LSTM kernels,
//! zeros for biases. He initialisation is provided for ReLU layers in the
//! policy network.

use rand::Rng;

use crate::{math, Matrix};

/// Glorot/Xavier uniform: `U(-l, l)` with `l = sqrt(6 / (fan_in + fan_out))`.
///
/// This is the Keras default (`glorot_uniform`) used by the paper's dense and
/// LSTM layers.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn glorot_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Matrix {
    assert!(fan_in > 0 && fan_out > 0, "fan dimensions must be non-zero");
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, fan_in, fan_out, -limit, limit)
}

/// He/Kaiming uniform: `U(-l, l)` with `l = sqrt(6 / fan_in)`; preferred for
/// ReLU activations.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn he_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Matrix {
    assert!(fan_in > 0 && fan_out > 0, "fan dimensions must be non-zero");
    let limit = (6.0 / fan_in as f32).sqrt();
    uniform(rng, fan_in, fan_out, -limit, limit)
}

/// Uniform initialisation over `[lo, hi)`.
///
/// # Panics
///
/// Panics if either dimension is zero or `lo >= hi`.
pub fn uniform(rng: &mut impl Rng, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
    assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
    assert!(lo < hi, "invalid uniform range [{lo}, {hi})");
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Standard normal initialisation scaled by `std`.
///
/// Uses the Box–Muller transform so only a `Rng` (not `rand_distr`) is needed.
///
/// # Panics
///
/// Panics if either dimension is zero or `std` is not positive.
pub fn normal(rng: &mut impl Rng, rows: usize, cols: usize, std: f32) -> Matrix {
    assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
    assert!(std > 0.0, "std must be positive");
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * math::ln(u1)).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * math::cos(theta) * std);
        if data.len() < n {
            data.push(r * math::sin(theta) * std);
        }
    }
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = glorot_uniform(&mut rng, 100, 50);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
        assert_eq!(w.shape(), (100, 50));
    }

    #[test]
    fn he_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = he_uniform(&mut rng, 64, 32);
        let limit = (6.0f32 / 64.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn uniform_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = uniform(&mut rng, 10, 10, -0.25, 0.25);
        assert!(w.as_slice().iter().all(|&x| (-0.25..0.25).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        let w = normal(&mut rng, 100, 100, 0.5);
        let mean = w.mean();
        let var =
            w.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {} too far from 0.5", var.sqrt());
    }

    #[test]
    fn deterministic_given_seed() {
        let w1 = glorot_uniform(&mut StdRng::seed_from_u64(9), 4, 4);
        let w2 = glorot_uniform(&mut StdRng::seed_from_u64(9), 4, 4);
        assert_eq!(w1, w2);
    }

    #[test]
    #[should_panic(expected = "std must be positive")]
    fn normal_rejects_nonpositive_std() {
        let _ = normal(&mut StdRng::seed_from_u64(0), 2, 2, 0.0);
    }
}
