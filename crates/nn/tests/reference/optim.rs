//! The `Adam` and `RmsProp` this crate shipped before the one-pass rebuild,
//! kept as the reference `optim_reference.rs` holds the library to: state
//! in a `HashMap` keyed by slot (a SipHash per tensor per step), the moments
//! in one sweep and the parameter in a second, two `powi` per slot per step
//! from a step count cast with `as i32` — and **no flush**: a first moment
//! whose gradient goes to exact zero decays into the subnormals and stays
//! there. Not a model to copy from.

use std::collections::HashMap;

use hec_nn::Optimizer;
use hec_tensor::Matrix;

/// The old `RmsProp`: `rho = 0.9`, `ε = 1e-7`.
pub struct RefRmsProp {
    lr: f32,
    decay: f32,
    epsilon: f32,
    mean_sq: HashMap<usize, Matrix>,
}

impl RefRmsProp {
    pub fn new(lr: f32) -> Self {
        Self { lr, decay: 0.9, epsilon: 1e-7, mean_sq: HashMap::new() }
    }

    /// Slot `slot`'s running mean square.
    pub fn mean_sq(&self, slot: usize) -> &Matrix {
        &self.mean_sq[&slot]
    }
}

impl Optimizer for RefRmsProp {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        let ms =
            self.mean_sq.entry(slot).or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let d = self.decay;
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

/// The old `Adam`: `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
pub struct RefAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    moments: HashMap<usize, (Matrix, Matrix)>,
}

impl RefAdam {
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, t: 0, moments: HashMap::new() }
    }

    /// Slot `slot`'s `(m, v)`.
    pub fn moments(&self, slot: usize) -> &(Matrix, Matrix) {
        &self.moments[&slot]
    }
}

impl Optimizer for RefAdam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
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
