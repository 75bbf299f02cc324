//! Loss functions.

use hec_tensor::Matrix;

/// A differentiable loss over a batch of predictions.
pub trait Loss {
    /// Scalar loss value.
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32;

    /// Gradient `∂L/∂prediction` written into `out` (resized in place to
    /// the shape of `prediction`).
    fn gradient_into(&self, prediction: &Matrix, target: &Matrix, out: &mut Matrix);
}

/// Mean squared error over all elements — the paper's reconstruction loss
/// ("minimize the mean squared reconstruction error", §II-A2). Neither
/// form allocates; both walk the elements in storage order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mse;

impl Loss for Mse {
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(prediction.shape(), target.shape(), "mse shape mismatch");
        let squares = prediction.as_slice().iter().zip(target.as_slice()).map(|(p, t)| {
            let diff = p - t;
            diff * diff
        });
        squares.sum::<f32>() / prediction.len() as f32
    }

    fn gradient_into(&self, prediction: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(prediction.shape(), target.shape(), "mse shape mismatch");
        let scale = 2.0 / prediction.len() as f32;
        out.resize(prediction.rows(), prediction.cols());
        for ((g, p), t) in
            out.as_mut_slice().iter_mut().zip(prediction.as_slice()).zip(target.as_slice())
        {
            *g = (p - t) * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_on_match() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(Mse.value(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let t = Matrix::zeros(2, 2);
        // (1+4+9+16)/4 = 7.5
        assert!((Mse.value(&p, &t) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let p = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]);
        let t = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0]]);
        let mut g = Matrix::zeros(1, 1);
        Mse.gradient_into(&p, &t, &mut g);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut pp = p.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = p.clone();
            pm.as_mut_slice()[i] -= eps;
            let numeric = (Mse.value(&pp, &t) - Mse.value(&pm, &t)) / (2.0 * eps);
            assert!(
                (g.as_slice()[i] - numeric).abs() < 1e-3,
                "elem {i}: {} vs {numeric}",
                g.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_is_zero_at_minimum() {
        let a = Matrix::from_rows(&[&[3.0, -2.0]]);
        let mut g = Matrix::zeros(1, 1);
        Mse.gradient_into(&a, &a, &mut g);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }
}
