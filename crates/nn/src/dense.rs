//! Fully-connected layer with optional activation.

use rand::Rng;

use hec_tensor::kernel::gemm_nn;
use hec_tensor::{init, Matrix};

use crate::activation::Activation;
use crate::sequential::Layer;
use crate::workspace::Buf;

/// A fully-connected layer `y = f(x·W + b)`.
///
/// Weights are `in_dim × out_dim`, initialised Glorot-uniform (the Keras
/// default used by the paper's models); biases start at zero.
///
/// # Example
///
/// ```rust
/// use hec_nn::{Activation, Dense, Layer};
/// use hec_tensor::Matrix;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Dense::new(&mut rng, 3, 2, Activation::Relu);
/// let x = Matrix::ones(4, 3); // batch of 4
/// let mut y = Matrix::zeros(1, 1);
/// layer.infer_into(&x, &mut y);
/// assert_eq!(y.shape(), (4, 2));
/// ```
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    activation: Activation,
    grad_weight: Matrix,
    grad_bias: Matrix,
    /// Staging for the weight-gradient product before accumulation.
    gw: Buf,
    /// Staging for the bias-gradient row before accumulation.
    gb: Buf,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        Self::with_init(init::glorot_uniform(rng, in_dim, out_dim), out_dim, activation)
    }

    /// Creates a dense layer with He-uniform weights (preferred before ReLU).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new_he(
        rng: &mut impl Rng,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        Self::with_init(init::he_uniform(rng, in_dim, out_dim), out_dim, activation)
    }

    fn with_init(weight: Matrix, out_dim: usize, activation: Activation) -> Self {
        let (in_dim, _) = weight.shape();
        Self {
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            weight,
            bias: Matrix::zeros(1, out_dim),
            activation,
            gw: Buf::new(),
            gb: Buf::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow of the kernel matrix (for tests/serialisation).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Borrow of the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Computes the pre-activation `x·W + b` into a caller-owned buffer
    /// (resized in place) — the allocation-free inference path.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `in_dim` wide.
    pub fn affine_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.weight.rows(), "dense input width mismatch");
        out.resize(input.rows(), self.weight.cols());
        self.affine_rows(input.as_slice(), out.as_mut_slice());
    }

    /// [`Dense::affine_into`] between row-major slices — for callers whose
    /// rows are a block of a larger arena rather than a [`Matrix`] of their
    /// own (the seq2seq decoder's per-step feedback).
    ///
    /// # Panics
    ///
    /// Panics unless `input` holds whole rows of `in_dim` values and `out`
    /// as many rows of `out_dim`.
    pub(crate) fn affine_rows(&self, input: &[f32], out: &mut [f32]) {
        let (in_dim, out_dim) = self.weight.shape();
        let rows = input.len() / in_dim;
        assert_eq!(input.len(), rows * in_dim, "dense input is not whole rows");
        assert_eq!(out.len(), rows * out_dim, "dense output row count mismatch");
        gemm_nn(rows, in_dim, out_dim, input, self.weight.as_slice(), out);
        for row in out.chunks_exact_mut(out_dim) {
            for (x, &b) in row.iter_mut().zip(self.bias.as_slice()) {
                *x += b;
            }
        }
    }
}

impl Layer for Dense {
    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        self.affine_into(input, out);
        self.activation.apply_inplace(out);
    }

    fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad: &mut Matrix,
        grad_input: Option<&mut Matrix>,
    ) {
        // δ = ∂L/∂z = ∂L/∂y ⊙ f'(z), with f' expressed from the output.
        self.activation.backprop_inplace(output, grad);
        let delta = &*grad;
        // Accumulate parameter gradients (staged through scratch so the
        // products never allocate).
        let gw = self.gw.shaped(self.weight.rows(), self.weight.cols());
        input.t_matmul_into(delta, gw);
        self.grad_weight += &*gw;
        let gb = self.gb.shaped(1, self.bias.cols());
        delta.sum_rows_into(gb);
        self.grad_bias += &*gb;
        // ∂L/∂x = δ · Wᵀ
        if let Some(dx) = grad_input {
            delta.matmul_t_into(&self.weight, dx);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn apply_l2(&mut self, lambda: f32) {
        self.grad_weight.add_scaled(&self.weight, 2.0 * lambda);
    }
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dense({}→{}, {:?})", self.in_dim(), self.out_dim(), self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn output_sum(layer: &Dense, x: &Matrix) -> f32 {
        let mut y = Matrix::zeros(1, 1);
        layer.infer_into(x, &mut y);
        y.sum()
    }

    /// Finite-difference gradient check on a single dense layer.
    #[test]
    fn gradient_check_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Tanh);
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.1, 0.9, 0.2]]);
        // Loss = sum of outputs (so dL/dy = 1).
        let mut ones = Matrix::ones(2, 2);

        let mut y = Matrix::zeros(1, 1);
        layer.train_into(&x, &mut y);
        layer.backward_into(&x, &y, &mut ones, None);

        // Collect analytic grads.
        let mut analytic: Vec<f32> = Vec::new();
        layer.visit_params(&mut |_, g| analytic.extend_from_slice(g.as_slice()));

        // Numeric grads via central differences.
        let eps = 1e-3f32;
        let mut numeric: Vec<f32> = Vec::new();
        // Weight then bias, matching visit order.
        for param_idx in 0..2 {
            let n = if param_idx == 0 { layer.weight.len() } else { layer.bias.len() };
            for i in 0..n {
                let get = |l: &mut Dense, delta: f32| {
                    let slice = if param_idx == 0 {
                        l.weight.as_mut_slice()
                    } else {
                        l.bias.as_mut_slice()
                    };
                    slice[i] += delta;
                };
                get(&mut layer, eps);
                let y_plus = output_sum(&layer, &x);
                get(&mut layer, -2.0 * eps);
                let y_minus = output_sum(&layer, &x);
                get(&mut layer, eps);
                numeric.push((y_plus - y_minus) / (2.0 * eps));
            }
        }

        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
            assert!(
                (a - n).abs() < 5e-2 * (1.0 + n.abs()),
                "param {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Sigmoid);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.1]]);
        let (mut y, mut dx) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        layer.train_into(&x, &mut y);
        layer.backward_into(&x, &y, &mut Matrix::ones(1, 2), Some(&mut dx));

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (output_sum(&layer, &xp) - output_sum(&layer, &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (analytic - numeric).abs() < 5e-3 * (1.0 + numeric.abs()),
                "input {i}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(&mut rng, 10, 7, Activation::Linear);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }

    /// Nothing of a batch stays in the layer: backpropagating batch A after
    /// a forward pass over batch B (of another shape) gives A's gradients.
    #[test]
    fn backward_takes_its_batch_from_the_caller() {
        let grads_of = |interleave: bool| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut layer = Dense::new(&mut rng, 2, 3, Activation::Tanh);
            let a = init::uniform(&mut rng, 4, 2, -1.0, 1.0);
            let b = init::uniform(&mut rng, 1, 2, -1.0, 1.0);
            let (mut ya, mut yb, mut dx) =
                (Matrix::zeros(1, 1), Matrix::zeros(1, 1), Matrix::zeros(1, 1));
            layer.train_into(&a, &mut ya);
            if interleave {
                layer.train_into(&b, &mut yb);
            }
            layer.backward_into(&a, &ya, &mut Matrix::ones(4, 3), Some(&mut dx));
            (layer.grad_weight.clone(), layer.grad_bias.clone(), dx)
        };
        assert_eq!(grads_of(false), grads_of(true));
        assert_eq!(grads_of(true).2.shape(), (4, 2));
    }

    #[test]
    fn l2_gradient_is_two_lambda_w() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Linear);
        let w0 = layer.weight.clone();
        layer.apply_l2(0.5);
        for (g, w) in layer.grad_weight.as_slice().iter().zip(w0.as_slice().iter()) {
            assert!((g - w).abs() < 1e-6); // 2·0.5·w = w
        }
    }
}
