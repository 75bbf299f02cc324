//! The [`Layer`] abstraction and a [`Sequential`] container.

use hec_tensor::Matrix;

use crate::loss::Loss;
use crate::optim::Optimizer;

/// A differentiable layer.
///
/// A layer owns its parameters and their gradients and **nothing of a
/// batch**: whoever drives it keeps the activations. The contract:
///
/// 1. [`Layer::infer_into`] / [`Layer::train_into`] write the layer's output
///    for `input` into the caller's buffer;
/// 2. [`Layer::backward_into`] is handed that same `input` and output back
///    together with `∂L/∂output`, **accumulates** parameter gradients
///    internally, and writes `∂L/∂input` only when the caller has a layer
///    below that wants it;
/// 3. [`Layer::visit_params`] walks `(parameter, gradient)` pairs in a stable
///    order so an [`Optimizer`] can update them and zero the gradients.
///
/// [`Sequential`] is the driver for a stack (one activation buffer per
/// layer boundary, two gradient buffers); `Seq2Seq` drives its output
/// layers the same way on buffers of its own. Once those buffers have
/// grown, a training step allocates nothing.
///
/// Layers are `Send + Sync`: [`Layer::infer_into`] reads the weights through
/// `&self`, so a trained stack can serve several inference workers at once.
pub trait Layer: Send + Sync {
    /// Inference forward pass over a batch (`rows = batch`, `cols =
    /// features`) into a caller-owned buffer (resized in place), through
    /// `&self`: one set of weights serves any number of callers at once,
    /// each with its own `out`.
    fn infer_into(&self, input: &Matrix, out: &mut Matrix);

    /// Training-mode forward pass into a caller-owned buffer. For a
    /// deterministic layer — the default — this *is* [`Layer::infer_into`];
    /// dropout draws its mask here.
    fn train_into(&mut self, input: &Matrix, out: &mut Matrix) {
        self.infer_into(input, out);
    }

    /// Backward pass for the batch the last [`Layer::train_into`] saw:
    /// `input` and `output` are that call's, `grad` arrives holding
    /// `∂L/∂output` and is **scratch** from then on (a dense layer forms
    /// its `δ` there). Accumulates parameter gradients and, when
    /// `grad_input` is given, writes `∂L/∂input` into it (resized in
    /// place).
    ///
    /// # Panics
    ///
    /// Implementations panic on shapes that do not fit the layer.
    fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad: &mut Matrix,
        grad_input: Option<&mut Matrix>,
    );

    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Total number of trainable scalars (weights + biases).
    fn param_count(&self) -> usize;

    /// Adds `2·λ·W` to each kernel gradient (the gradient of `λ‖W‖²`).
    /// Biases are excluded, matching Keras `kernel_regularizer` semantics
    /// used by the paper (§II-A2).
    fn apply_l2(&mut self, _lambda: f32) {}
}

/// The two activation buffers [`Sequential::infer`] alternates between:
/// each layer reads the previous layer's output from one and writes its
/// own into the other, so a stack of any depth runs in two buffers that
/// grow once to the widest activation.
#[derive(Debug)]
pub struct PingPong {
    bufs: [Matrix; 2],
}

impl PingPong {
    /// Two minimal buffers; they grow on first use.
    pub fn new() -> Self {
        Self { bufs: [Matrix::zeros(1, 1), Matrix::zeros(1, 1)] }
    }
}

impl Default for PingPong {
    fn default() -> Self {
        Self::new()
    }
}

/// A stack of layers applied in order.
///
/// This is the shape of the paper's three autoencoders. (The policy
/// network is two dense layers too, but keeps its parameters in one flat
/// buffer of its own: `hec_bandit::PolicyNetwork`.)
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Training activations, one per layer boundary: `acts[0]` is the batch
    /// and `acts[i + 1]` layer `i`'s output.
    acts: Vec<Matrix>,
    /// `∂L/∂(a boundary)` on its way down the stack: each layer reads one
    /// and writes the other.
    grads: [Matrix; 2],
}

impl Sequential {
    /// Creates a sequential model from the given layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "sequential model needs at least one layer");
        let acts = (0..=layers.len()).map(|_| Matrix::zeros(1, 1)).collect();
        Self { layers, acts, grads: [Matrix::zeros(1, 1), Matrix::zeros(1, 1)] }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count (the paper's Table I "#Parameters").
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Inference-mode forward pass through `&self`: activations alternate
    /// between the caller's two buffers, so a warmed call allocates nothing
    /// and concurrent callers share the weights. The result borrows `acts`.
    pub fn infer<'a>(&self, input: &Matrix, acts: &'a mut PingPong) -> &'a Matrix {
        let (first, rest) = self.layers.split_first().expect("`new` refuses an empty stack");
        let [mut src, mut dst] = acts.bufs.each_mut();
        first.infer_into(input, dst);
        for layer in rest {
            std::mem::swap(&mut src, &mut dst);
            layer.infer_into(src, dst);
        }
        dst
    }

    /// Training-mode forward pass (dropout enabled): leaves every layer
    /// boundary's activation in the model's workspace for
    /// [`Sequential::backward`] and returns the last one.
    pub fn forward_training(&mut self, input: &Matrix) -> &Matrix {
        self.acts[0].copy_from(input);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (done, rest) = self.acts.split_at_mut(i + 1);
            layer.train_into(&done[i], &mut rest[0]);
        }
        &self.acts[self.layers.len()]
    }

    /// Backpropagates `grad = ∂L/∂output` through every layer (reverse
    /// order) for the batch the last [`Sequential::forward_training`] saw,
    /// accumulating every parameter gradient. The gradient w.r.t. the model
    /// input costs the first layer a product nothing in a plain training
    /// step reads, so it is computed and returned only when asked for.
    pub fn backward(&mut self, grad: &Matrix, want_input_grad: bool) -> Option<&Matrix> {
        self.grads[0].copy_from(grad);
        self.backprop(want_input_grad)
    }

    /// [`Sequential::backward`] of the gradient already in `grads[0]`.
    fn backprop(&mut self, want_input_grad: bool) -> Option<&Matrix> {
        let [mut grad, mut below] = self.grads.each_mut();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let wanted = i > 0 || want_input_grad;
            layer.backward_into(
                &self.acts[i],
                &self.acts[i + 1],
                grad,
                wanted.then_some(&mut *below),
            );
            std::mem::swap(&mut grad, &mut below);
        }
        // After the last swap `grad` is what the first layer wrote below it.
        want_input_grad.then_some(&*grad)
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
        let loss_value = loss.value(output, target);
        loss.gradient_into(&self.acts[self.layers.len()], target, &mut self.grads[0]);
        self.backprop(false);
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

    fn deep_net(rng: &mut StdRng) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(rng, 5, 7, Activation::Tanh)),
            Box::new(crate::Dropout::new(0.3, 1)),
            Box::new(Dense::new(rng, 7, 3, Activation::Sigmoid)),
            Box::new(Dense::new(rng, 3, 5, Activation::Linear)),
        ])
    }

    /// One pair of buffers serves batches that grow and shrink.
    #[test]
    fn infer_reuses_its_buffers_across_batch_shapes() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = deep_net(&mut rng);
        let mut acts = PingPong::new();
        for rows in [1, 9, 4] {
            let x = hec_tensor::init::uniform(&mut rng, rows, 5, -1.0, 1.0);
            let expect = net.infer(&x, &mut PingPong::new()).clone();
            assert_eq!(net.infer(&x, &mut acts), &expect, "rows={rows}");
        }
    }

    /// The input gradient is there when asked for and only then, and asking
    /// changes nothing else.
    #[test]
    fn input_gradient_is_optional() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = hec_tensor::init::uniform(&mut rng, 3, 5, -1.0, 1.0);
        let grad = hec_tensor::init::uniform(&mut rng, 3, 5, -1.0, 1.0);
        let grads_of = |want: bool| {
            let mut net = deep_net(&mut StdRng::seed_from_u64(9));
            assert_eq!(net.forward_training(&x).shape(), (3, 5));
            let dx = net.backward(&grad, want).cloned();
            let mut grads = Vec::new();
            for layer in &mut net.layers {
                layer.visit_params(&mut |_, g| grads.push(g.clone()));
            }
            (dx, grads)
        };
        let (none, without) = grads_of(false);
        let (some, with) = grads_of(true);
        assert!(none.is_none());
        assert_eq!(some.expect("asked for").shape(), (3, 5));
        assert_eq!(without, with);
    }

    #[test]
    fn l2_shrinks_weights() {
        // With zero loss gradient pressure (target == output is impossible to
        // arrange exactly, so use tiny lr on loss but large l2), weights decay.
        let mut net = tiny_net(5);
        let x = Matrix::from_rows(&[&[0.5, 0.5]]);
        // Each `Dense` visits its kernel, then its bias: sum the kernels.
        let kernel_norm_sq = |net: &mut Sequential| -> f32 {
            let mut sum = 0.0;
            for layer in &mut net.layers {
                let mut kernel = true;
                layer.visit_params(&mut |w, _| {
                    if std::mem::take(&mut kernel) {
                        sum += w.frobenius_norm_sq();
                    }
                });
            }
            sum
        };
        let before = kernel_norm_sq(&mut net);
        let y = net.infer(&x, &mut PingPong::new()).clone();
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            net.train_batch(&x, &y, &Mse, &mut opt, 0.01);
        }
        let after = kernel_norm_sq(&mut net);
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
