//! First-order optimizers.
//!
//! The paper trains the seq2seq models with **RMSProp** (§II-A2); SGD and Adam
//! are provided for the policy network and ablations. Optimizers keep
//! per-parameter state keyed by a caller-supplied *slot* index (stable across
//! steps because layers visit parameters in a fixed order).

use std::collections::HashMap;

use hec_tensor::Matrix;

/// A stateful first-order optimizer.
///
/// `slot` identifies a parameter tensor; callers must pass the same slot for
/// the same tensor on every step (see
/// [`Sequential::apply_gradients`](crate::Sequential::apply_gradients)).
pub trait Optimizer {
    /// Updates `param` in place given its gradient.
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, param: &mut Matrix, grad: &Matrix) {
        param.add_scaled(grad, -self.lr);
    }
}

/// RMSProp (Tieleman & Hinton) — the optimizer the paper uses for the
/// LSTM-seq2seq models.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    epsilon: f32,
    mean_sq: HashMap<usize, Matrix>,
}

impl RmsProp {
    /// RMSProp with the Keras defaults: `rho = 0.9`, `ε = 1e-7`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, decay: 0.9, epsilon: 1e-7, mean_sq: HashMap::new() }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        let ms =
            self.mean_sq.entry(slot).or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let d = self.decay;
        // ms = ρ·ms + (1-ρ)·g²
        for (m, &g) in ms.as_mut_slice().iter_mut().zip(grad.as_slice().iter()) {
            *m = d * *m + (1.0 - d) * g * g;
        }
        let lr = self.lr;
        let eps = self.epsilon;
        for ((p, &g), &m) in
            param.as_mut_slice().iter_mut().zip(grad.as_slice().iter()).zip(ms.as_slice().iter())
        {
            *p -= lr * g / (m.sqrt() + eps);
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    moments: HashMap<usize, (Matrix, Matrix)>,
}

impl Adam {
    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, t: 0, moments: HashMap::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        // Counting steps per slot would be more precise; counting per call is
        // the common simplification and only affects early bias correction.
        if slot == 0 {
            self.t += 1;
        }
        let t = self.t.max(1);
        let (m, v) = self.moments.entry(slot).or_insert_with(|| {
            (Matrix::zeros(param.rows(), param.cols()), Matrix::zeros(param.rows(), param.cols()))
        });
        let (b1, b2) = (self.beta1, self.beta2);
        for ((mi, vi), &g) in
            m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()).zip(grad.as_slice().iter())
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
        }
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        let lr = self.lr;
        let eps = self.epsilon;
        for ((p, &mi), &vi) in
            param.as_mut_slice().iter_mut().zip(m.as_slice().iter()).zip(v.as_slice().iter())
        {
            let m_hat = mi / bias1;
            let v_hat = vi / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(θ) = ‖θ − c‖² with each optimizer; all should converge.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Matrix::from_rows(&[&[3.0, -2.0]]);
        let mut theta = Matrix::zeros(1, 2);
        for _ in 0..steps {
            let grad = (&theta - &target).scale(2.0);
            opt.step(0, &mut theta, &grad);
        }
        (&theta - &target).frobenius_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run_quadratic(&mut Sgd::new(0.1), 100) < 1e-3);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        assert!(run_quadratic(&mut RmsProp::new(0.05), 500) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run_quadratic(&mut Adam::new(0.1), 500) < 1e-2);
    }

    #[test]
    fn rmsprop_adapts_per_coordinate() {
        // Coordinates with wildly different curvatures: RMSProp normalises.
        let mut opt = RmsProp::new(0.01);
        let mut theta = Matrix::from_rows(&[&[10.0, 10.0]]);
        for _ in 0..2000 {
            // f = 100·x² + 0.01·y²
            let grad = Matrix::from_rows(&[&[200.0 * theta[(0, 0)], 0.02 * theta[(0, 1)]]]);
            opt.step(0, &mut theta, &grad);
        }
        assert!(theta[(0, 0)].abs() < 0.1, "steep coord did not converge: {theta:?}");
        assert!(theta[(0, 1)].abs() < 5.0, "shallow coord made no progress: {theta:?}");
    }

    #[test]
    fn slots_have_independent_state() {
        let mut opt = RmsProp::new(0.01);
        let mut a = Matrix::ones(1, 1);
        let mut b = Matrix::ones(2, 2);
        let ga = Matrix::ones(1, 1);
        let gb = Matrix::ones(2, 2);
        opt.step(0, &mut a, &ga);
        opt.step(1, &mut b, &gb); // different shape in a different slot: fine
        assert!(a[(0, 0)] < 1.0 && b[(0, 0)] < 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn negative_lr_rejected() {
        let _ = Sgd::new(-0.1);
    }
}
