//! The `Adam` and `RmsProp` this crate shipped before the one-pass rebuild,
//! kept as the reference `optim_reference.rs` holds the library to: state
//! in a `HashMap` keyed by slot (a SipHash per tensor per step), the moments
//! in one sweep and the parameter in a second, two `powi` per slot per step
//! from a step count cast with `as i32` — and **no flush**: a first moment
//! whose gradient goes to exact zero decays into the subnormals and stays
//! there. Not a model to copy from. Beside them, [`UnskippedAdam`]: the
//! one-pass `Adam` before it skipped the underflowing products that cannot
//! change a bit.

use std::collections::HashMap;

use hec_nn::Optimizer;
use hec_tensor::math::flush_subnormal;
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

/// The one-pass `Adam` as it was before it skipped underflowing products:
/// both moments flushed of subnormals, every product computed, both bias
/// corrections divided through at every step. `optim_reference.rs` holds
/// the library to it **bit for bit** on streams that straddle every bound
/// of the skip rules. `Adam::step`'s element loop, verbatim.
pub struct UnskippedAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    bias: (f32, f32),
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl UnskippedAdam {
    pub fn new(lr: f32) -> Self {
        let (beta1, beta2) = (0.9, 0.999);
        let bias = Self::bias_corrections(beta1, beta2, 1);
        Self { lr, beta1, beta2, epsilon: 1e-8, t: 0, bias, moments: Vec::new() }
    }

    /// `(1 − β₁ᵗ, 1 − β₂ᵗ)` of step `t`: what both optimisers divide by.
    pub fn bias_corrections(beta1: f32, beta2: f32, t: u64) -> (f32, f32) {
        let t = i32::try_from(t).unwrap_or(i32::MAX);
        (1.0 - beta1.powi(t), 1.0 - beta2.powi(t))
    }

    /// Slot `slot`'s `(m, v)`.
    pub fn moments(&self, slot: usize) -> (&Matrix, &Matrix) {
        let (m, v) = self.moments[slot].as_ref().expect("slot was stepped");
        (m, v)
    }
}

impl Optimizer for UnskippedAdam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        if slot == 0 {
            self.t = self.t.saturating_add(1);
            self.bias = Self::bias_corrections(self.beta1, self.beta2, self.t);
        }
        if slot >= self.moments.len() {
            self.moments.resize_with(slot + 1, || None);
        }
        let (m, v) = self.moments[slot].get_or_insert_with(|| {
            (Matrix::zeros(param.rows(), param.cols()), Matrix::zeros(param.rows(), param.cols()))
        });
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.epsilon);
        let (bias1, bias2) = self.bias;
        for (((p, mi), vi), &g) in param
            .as_mut_slice()
            .iter_mut()
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
            .zip(grad.as_slice())
        {
            *mi = flush_subnormal(b1 * *mi + (1.0 - b1) * g);
            *vi = flush_subnormal(b2 * *vi + (1.0 - b2) * g * g);
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}
