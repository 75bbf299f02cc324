//! Inverted dropout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hec_tensor::Matrix;

use crate::sequential::Layer;

/// Inverted dropout: during training each unit is zeroed with probability
/// `rate` and survivors are scaled by `1/(1-rate)`, so inference is a no-op.
///
/// The paper applies dropout with rate 0.3 to the LSTM-decoder output before
/// the final dense layer (§II-A2).
pub struct Dropout {
    rate: f32,
    rng: StdRng,
    /// The last training pass's mask (`0` or `1/(1-rate)` per unit), drawn
    /// into one reused buffer.
    mask: Matrix,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1), got {rate}");
        Self { rate, rng: StdRng::seed_from_u64(seed), mask: Matrix::zeros(1, 1) }
    }

    /// The configured drop rate.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        out.copy_from(input);
    }

    fn train_into(&mut self, input: &Matrix, out: &mut Matrix) {
        if self.rate == 0.0 {
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.mask.resize(input.rows(), input.cols());
        for m in self.mask.as_mut_slice() {
            *m = if self.rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
        input.hadamard_into(&self.mask, out);
    }

    fn backward_into(
        &mut self,
        _input: &Matrix,
        _output: &Matrix,
        grad: &mut Matrix,
        grad_input: Option<&mut Matrix>,
    ) {
        let Some(dx) = grad_input else { return };
        if self.rate == 0.0 {
            dx.copy_from(grad);
        } else {
            grad.hadamard_into(&self.mask, dx);
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}

    fn param_count(&self) -> usize {
        0
    }
}

impl std::fmt::Debug for Dropout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dropout(rate={})", self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(d: &mut Dropout, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(1, 1);
        d.train_into(x, &mut y);
        y
    }

    #[test]
    fn inference_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut y = Matrix::zeros(1, 1);
        d.infer_into(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn training_zeroes_and_rescales() {
        let mut d = Dropout::new(0.3, 7);
        let x = Matrix::ones(10, 100);
        let y = train(&mut d, &x);
        let scale = 1.0 / 0.7;
        let mut zeros = 0usize;
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - scale).abs() < 1e-6, "unexpected value {v}");
            if v == 0.0 {
                zeros += 1;
            }
        }
        let frac = zeros as f32 / y.len() as f32;
        assert!((frac - 0.3).abs() < 0.05, "drop fraction {frac} far from 0.3");
        // Expectation preserved (inverted dropout).
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::ones(1, 50);
        let y = train(&mut d, &x);
        let mut g = Matrix::zeros(1, 1);
        d.backward_into(&x, &y, &mut Matrix::ones(1, 50), Some(&mut g));
        // Gradient passes exactly where the forward survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice().iter()) {
            assert_eq!(yv == &0.0, gv == &0.0);
        }
    }

    #[test]
    fn rate_zero_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 3);
        let x = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(train(&mut d, &x), x);
        let mut g = Matrix::zeros(1, 1);
        d.backward_into(&x, &x, &mut x.clone(), Some(&mut g));
        assert_eq!(g, x);
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rate_one_rejected() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn no_params() {
        let mut d = Dropout::new(0.2, 0);
        assert_eq!(d.param_count(), 0);
        let mut visited = 0;
        d.visit_params(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
    }
}
