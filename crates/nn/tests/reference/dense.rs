//! The dense training path this crate shipped before the workspace-backed
//! step, kept as the reference `dense_reference.rs` holds the library to
//! **bit for bit**: the two-call protocol in which a training-mode
//! `forward` clones its input and its output into the layer and `backward`
//! takes them back out, every layer returns freshly allocated matrices,
//! `δ` is the Hadamard product with a materialised derivative matrix, and
//! `∂L/∂x = δ·Wᵀ` is computed by every layer whether or not anything reads
//! it. Built on `hec-tensor` only (the allocating activation forms the
//! crate no longer has are here too). Not a model to copy from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hec_nn::{Activation, Optimizer};
use hec_tensor::math::{sigmoid, tanh};
use hec_tensor::{init, Matrix};

/// `f(m)` as a new matrix.
fn activate(act: Activation, m: &Matrix) -> Matrix {
    match act {
        Activation::Linear => m.clone(),
        Activation::Sigmoid => m.map(sigmoid),
        Activation::Tanh => m.map(tanh),
        Activation::Relu => m.map(|x| x.max(0.0)),
    }
}

/// `f'` as a matrix, from the activated output `y = f(x)`.
fn derivative_from_output(act: Activation, y: &Matrix) -> Matrix {
    match act {
        Activation::Linear => Matrix::ones(y.rows(), y.cols()),
        Activation::Sigmoid => y.map(|v| v * (1.0 - v)),
        Activation::Tanh => y.map(|v| 1.0 - v * v),
        Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
    }
}

/// The old `Layer` contract: `forward` caches, `backward` consumes.
pub trait RefLayer {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix;
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));
    fn apply_l2(&mut self, _lambda: f32) {}
}

pub struct RefDense {
    weight: Matrix,
    bias: Matrix,
    activation: Activation,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Option<Matrix>,
    cached_output: Option<Matrix>,
}

impl RefDense {
    /// Draws from `rng` exactly as `Dense::new` does.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        Self::with_init(init::glorot_uniform(rng, in_dim, out_dim), activation)
    }

    /// Draws from `rng` exactly as `Dense::new_he` does.
    pub fn new_he(
        rng: &mut impl Rng,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        Self::with_init(init::he_uniform(rng, in_dim, out_dim), activation)
    }

    fn with_init(weight: Matrix, activation: Activation) -> Self {
        let (in_dim, out_dim) = weight.shape();
        Self {
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            weight,
            bias: Matrix::zeros(1, out_dim),
            activation,
            cached_input: None,
            cached_output: None,
        }
    }

    /// `x·W + b` with nothing cached (the seq2seq decoder's feedback).
    pub fn affine_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weight, out);
        out.add_row_broadcast_assign(&self.bias);
    }
}

impl RefLayer for RefDense {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let mut z = Matrix::zeros(input.rows(), self.weight.cols());
        input.matmul_into(&self.weight, &mut z);
        z.add_row_broadcast_assign(&self.bias);
        let y = activate(self.activation, &z);
        if training {
            self.cached_input = Some(input.clone());
            self.cached_output = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input =
            self.cached_input.take().expect("RefDense::backward without training-mode forward");
        let output = self.cached_output.take().expect("missing cached output");
        // δ = ∂L/∂z = ∂L/∂y ⊙ f'(z), with f' expressed from the output.
        let delta = grad_output.hadamard(&derivative_from_output(self.activation, &output));
        // Parameter gradients, staged and then accumulated.
        let mut gw = Matrix::zeros(self.weight.rows(), self.weight.cols());
        input.t_matmul_into(&delta, &mut gw);
        self.grad_weight += &gw;
        let mut gb = Matrix::zeros(1, self.bias.cols());
        delta.sum_rows_into(&mut gb);
        self.grad_bias += &gb;
        // ∂L/∂x = δ · Wᵀ
        let mut dx = Matrix::zeros(input.rows(), self.weight.rows());
        delta.matmul_t_into(&self.weight, &mut dx);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn apply_l2(&mut self, lambda: f32) {
        self.grad_weight.add_scaled(&self.weight, 2.0 * lambda);
    }
}

pub struct RefDropout {
    rate: f32,
    rng: StdRng,
    mask: Option<Matrix>,
}

impl RefDropout {
    pub fn new(rate: f32, seed: u64) -> Self {
        Self { rate, rng: StdRng::seed_from_u64(seed), mask: None }
    }
}

impl RefLayer for RefDropout {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        if !training || self.rate == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..input.len())
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let mask = Matrix::from_vec(input.rows(), input.cols(), mask_data);
        let out = input.hadamard(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        match self.mask.take() {
            Some(mask) => grad_output.hadamard(&mask),
            None => grad_output.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

/// Mean squared error over all elements, through a materialised difference.
pub fn mse_value(prediction: &Matrix, target: &Matrix) -> f32 {
    let diff = prediction - target;
    diff.frobenius_norm_sq() / prediction.len() as f32
}

/// `∂mse/∂prediction`, freshly allocated.
pub fn mse_gradient(prediction: &Matrix, target: &Matrix) -> Matrix {
    let scale = 2.0 / prediction.len() as f32;
    (prediction - target).scale(scale)
}

pub struct RefSequential {
    layers: Vec<Box<dyn RefLayer>>,
}

impl RefSequential {
    pub fn new(layers: Vec<Box<dyn RefLayer>>) -> Self {
        Self { layers }
    }

    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, false);
        }
        x
    }

    pub fn forward_training(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, true);
        }
        x
    }

    /// Returns the gradient w.r.t. the model input — always computed.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Forward, MSE, backward, L2, parameter update; the loss before the
    /// update and the input gradient the old path always produced.
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        optimizer: &mut dyn Optimizer,
        l2_lambda: f32,
    ) -> (f32, Matrix) {
        let output = self.forward_training(input);
        let loss_value = mse_value(&output, target);
        let grad = mse_gradient(&output, target);
        let dx = self.backward(&grad);
        if l2_lambda > 0.0 {
            for layer in &mut self.layers {
                layer.apply_l2(l2_lambda);
            }
        }
        self.apply_gradients(optimizer);
        (loss_value, dx)
    }

    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        let mut slot = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |param, grad| {
                optimizer.step(slot, param, grad);
                grad.map_inplace(|_| 0.0);
                slot += 1;
            });
        }
    }

    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}
