//! The [`Layer`] abstraction and a [`Sequential`] container.

use hec_tensor::Matrix;

use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::workspace::PingPong;

/// A differentiable layer with cached forward state.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward`] caches whatever the backward pass needs;
/// 2. [`Layer::backward`] consumes the cache, **accumulates** parameter
///    gradients internally, and returns the gradient w.r.t. its input;
/// 3. [`Layer::visit_params`] walks `(parameter, gradient)` pairs in a stable
///    order so an [`Optimizer`] can update them and zero the gradients.
///
/// Layers are `Send + Sync`: [`Layer::infer_into`] reads the weights through
/// `&self`, so a trained stack can serve several inference workers at once.
pub trait Layer: Send + Sync {
    /// Forward pass over a batch (`rows = batch`, `cols = features`).
    /// `training` enables dropout and gradient caching.
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix;

    /// Inference forward pass into a caller-owned buffer (resized in
    /// place): the same values as `forward(input, false)`, but through
    /// `&self` and with nothing cached, so one set of weights serves any
    /// number of callers at once, each with its own `out`.
    fn infer_into(&self, input: &Matrix, out: &mut Matrix);

    /// Backward pass: receives `∂L/∂output`, accumulates parameter gradients,
    /// returns `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding training-mode
    /// [`Layer::forward`].
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Total number of trainable scalars (weights + biases).
    fn param_count(&self) -> usize;

    /// Sum of squared kernel weights (for `l2` regularisation). Biases are
    /// excluded, matching Keras `kernel_regularizer` semantics used by the
    /// paper (§II-A2).
    fn kernel_norm_sq(&self) -> f32 {
        0.0
    }

    /// Adds `2·λ·W` to each kernel gradient (the gradient of `λ‖W‖²`).
    fn apply_l2(&mut self, _lambda: f32) {}
}

/// A stack of layers applied in order.
///
/// This is the shape of every feed-forward model in the paper: the three
/// autoencoders and the policy network.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential model from the given layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "sequential model needs at least one layer");
        Self { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count (the paper's Table I "#Parameters").
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Inference-mode forward pass (dropout disabled).
    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, false);
        }
        x
    }

    /// Inference-mode forward pass through `&self`: activations alternate
    /// between the caller's two buffers, so a warmed call allocates nothing
    /// and concurrent callers share the weights. Bit-identical to
    /// [`Sequential::predict`]; the result borrows `acts`.
    pub fn infer<'a>(&self, input: &Matrix, acts: &'a mut PingPong) -> &'a Matrix {
        acts.run(&self.layers, input, |layer, src, dst| layer.infer_into(src, dst))
    }

    /// Training-mode forward pass (dropout enabled, caches kept).
    pub fn forward_training(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, true);
        }
        x
    }

    /// Backpropagates `grad` through every layer (reverse order), returning
    /// the gradient w.r.t. the model input.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// One optimisation step: forward, loss, backward, L2, parameter update.
    /// Returns the (unregularised) loss value before the update.
    ///
    /// `l2_lambda` is the kernel regularisation weight (the paper uses `1e-4`
    /// for the seq2seq models).
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        loss: &dyn Loss,
        optimizer: &mut dyn Optimizer,
        l2_lambda: f32,
    ) -> f32 {
        let output = self.forward_training(input);
        let loss_value = loss.value(&output, target);
        let grad = loss.gradient(&output, target);
        self.backward(&grad);
        if l2_lambda > 0.0 {
            for layer in &mut self.layers {
                layer.apply_l2(l2_lambda);
            }
        }
        self.apply_gradients(optimizer);
        loss_value
    }

    /// Applies the optimizer to all accumulated gradients and zeroes them.
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

    /// Visits every `(parameter, gradient)` pair of every layer in order
    /// (e.g. for post-training weight quantization).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Sum of squared kernel weights across all layers.
    pub fn kernel_norm_sq(&self) -> f32 {
        self.layers.iter().map(|l| l.kernel_norm_sq()).sum()
    }

    /// Immutable access to the boxed layers (for introspection in reports).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers, {} params)", self.depth(), self.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::loss::Mse;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 2, 4, Activation::Tanh)),
            Box::new(Dense::new(&mut rng, 4, 1, Activation::Linear)),
        ])
    }

    #[test]
    fn learns_xor_ish_regression() {
        let mut net = tiny_net(3);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..2000 {
            last = net.train_batch(&x, &y, &Mse, &mut opt, 0.0);
        }
        assert!(last < 0.05, "failed to fit XOR: loss {last}");
    }

    #[test]
    fn param_count_sums_layers() {
        let net = tiny_net(0);
        // 2*4+4 + 4*1+1 = 17
        assert_eq!(net.param_count(), 17);
        assert_eq!(net.depth(), 2);
    }

    #[test]
    fn predict_is_deterministic() {
        let mut net = tiny_net(1);
        let x = Matrix::from_rows(&[&[0.3, -0.7]]);
        let a = net.predict(&x);
        let b = net.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn infer_matches_predict_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 5, 7, Activation::Tanh)),
            Box::new(crate::Dropout::new(0.3, 1)),
            Box::new(Dense::new(&mut rng, 7, 3, Activation::Sigmoid)),
            Box::new(Dense::new(&mut rng, 3, 5, Activation::Linear)),
        ]);
        let mut acts = PingPong::new();
        for rows in [1, 4, 9] {
            let x = hec_tensor::init::uniform(&mut rng, rows, 5, -1.0, 1.0);
            let expect = net.predict(&x);
            assert_eq!(net.infer(&x, &mut acts), &expect, "rows={rows}");
        }
    }

    #[test]
    fn l2_shrinks_weights() {
        // With zero loss gradient pressure (target == output is impossible to
        // arrange exactly, so use tiny lr on loss but large l2), weights decay.
        let mut net = tiny_net(5);
        let x = Matrix::from_rows(&[&[0.5, 0.5]]);
        let before = net.kernel_norm_sq();
        let y = net.predict(&x);
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            net.train_batch(&x, &y, &Mse, &mut opt, 0.01);
        }
        let after = net.kernel_norm_sq();
        assert!(after < before, "l2 did not shrink kernels: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_panics() {
        let _ = Sequential::new(vec![]);
    }

    #[test]
    fn debug_mentions_depth() {
        let net = tiny_net(0);
        assert!(format!("{net:?}").contains("2 layers"));
    }
}
