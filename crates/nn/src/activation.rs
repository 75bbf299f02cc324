//! Element-wise activation functions and their derivatives.

use serde::{Deserialize, Serialize};

use hec_tensor::{math, Matrix};

/// Element-wise activation applied by a [`crate::Dense`] layer.
///
/// The derivative is expressed in terms of the *activated output* `y = f(x)`,
/// which is what the backward pass is handed (this is exact for all four
/// variants: linear, sigmoid, tanh and ReLU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    #[default]
    Linear,
    /// Logistic sigmoid: `f(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation to every element of `m` in place.
    pub(crate) fn apply_inplace(self, m: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Sigmoid => math::sigmoid_slice(m.as_mut_slice()),
            Activation::Tanh => math::tanh_slice(m.as_mut_slice()),
            Activation::Relu => m.map_inplace(|x| x.max(0.0)),
        }
    }

    /// Turns `grad = ∂L/∂y` into `δ = ∂L/∂z = grad ⊙ f'(z)` in place, with
    /// `f'` read off the activated output `y`. One multiplication per
    /// element, the derivative formed first (ReLU multiplies by 0 rather
    /// than storing it: a masked negative gradient is `-0.0`), which is
    /// what `tests/dense_reference.rs` holds to the old Hadamard product
    /// with a materialised derivative matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn backprop_inplace(self, y: &Matrix, grad: &mut Matrix) {
        assert_eq!(y.shape(), grad.shape(), "activation backprop shape mismatch");
        let pairs = grad.as_mut_slice().iter_mut().zip(y.as_slice());
        match self {
            Activation::Linear => {}
            Activation::Sigmoid => pairs.for_each(|(g, &v)| *g *= v * (1.0 - v)),
            Activation::Tanh => pairs.for_each(|(g, &v)| *g *= 1.0 - v * v),
            Activation::Relu => pairs.for_each(|(g, &v)| *g *= if v > 0.0 { 1.0 } else { 0.0 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(act: Activation, x: f32) -> Matrix {
        let mut m = Matrix::filled(1, 1, x);
        act.apply_inplace(&mut m);
        m
    }

    fn check_derivative(act: Activation, x: f32) {
        let eps = 1e-3f32;
        let y = apply(act, x);
        // δ for ∂L/∂y = 1 is the derivative itself.
        let mut analytic = Matrix::ones(1, 1);
        act.backprop_inplace(&y, &mut analytic);
        let numeric = (apply(act, x + eps)[(0, 0)] - apply(act, x - eps)[(0, 0)]) / (2.0 * eps);
        assert!(
            (analytic[(0, 0)] - numeric).abs() < 2e-3,
            "{act:?} at {x}: analytic {} vs numeric {numeric}",
            analytic[(0, 0)]
        );
    }

    #[test]
    fn derivatives_match_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
            check_derivative(Activation::Linear, x);
            check_derivative(Activation::Sigmoid, x);
            check_derivative(Activation::Tanh, x);
            check_derivative(Activation::Relu, x); // x away from the kink
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut y = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        Activation::Relu.apply_inplace(&mut y);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_range() {
        let mut y = Matrix::from_rows(&[&[-10.0, 10.0]]);
        Activation::Tanh.apply_inplace(&mut y);
        assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn default_is_linear() {
        assert_eq!(Activation::default(), Activation::Linear);
    }
}
