//! The workspace-backed dense training step against the two-call one it
//! replaced, **bit for bit**.
//!
//! `reference/dense.rs` keeps the `Dense` / `Dropout` / `Sequential` / MSE
//! bodies this crate shipped before: cached clones inside the layers, a
//! fresh matrix out of every call, `δ·Wᵀ` at every layer. Whatever the
//! stack — any of the four activations, a `Dropout` in the middle or not,
//! `l2` on or off, RMSProp or Adam, one row or thirty-two — `N` training
//! steps must leave the same losses and the same parameters, the forward
//! passes must agree, and the input gradient, when it is asked for, must be
//! the one the old path always computed.

mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hec_nn::{
    Activation, Adam, Dense, Dropout, Layer, Mse, Optimizer, PingPong, RmsProp, Sequential,
};
use hec_tensor::{init, Matrix};
use reference::bits;
use reference::dense::{RefDense, RefDropout, RefLayer, RefSequential};

const ACTIVATIONS: [Activation; 4] =
    [Activation::Linear, Activation::Sigmoid, Activation::Tanh, Activation::Relu];
const DROPOUT_SEED: u64 = 77;

/// What a stack is made of; `dims` are its layer-boundary widths.
#[derive(Debug, Clone, Copy)]
struct Stack {
    seed: u64,
    dims: [usize; 4],
    hidden: [Activation; 2],
    dropout: bool,
    he_init: bool,
}

/// The same stack twice: `in → a → [dropout] → b → out (linear)`, weights
/// drawn in the same order from the same seed.
fn build(stack: Stack) -> (Sequential, RefSequential) {
    let Stack { seed, dims: [d0, d1, d2, d3], hidden: [a, b], dropout, he_init } = stack;
    let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let first: (Box<dyn Layer>, Box<dyn RefLayer>) = if he_init {
        (
            Box::new(Dense::new_he(&mut rng, d0, d1, a)),
            Box::new(RefDense::new_he(&mut ref_rng, d0, d1, a)),
        )
    } else {
        (
            Box::new(Dense::new(&mut rng, d0, d1, a)),
            Box::new(RefDense::new(&mut ref_rng, d0, d1, a)),
        )
    };
    let (mut layers, mut ref_layers) = (vec![first.0], vec![first.1]);
    if dropout {
        layers.push(Box::new(Dropout::new(0.3, DROPOUT_SEED)));
        ref_layers.push(Box::new(RefDropout::new(0.3, DROPOUT_SEED)));
    }
    layers.push(Box::new(Dense::new(&mut rng, d1, d2, b)));
    ref_layers.push(Box::new(RefDense::new(&mut ref_rng, d1, d2, b)));
    layers.push(Box::new(Dense::new(&mut rng, d2, d3, Activation::Linear)));
    ref_layers.push(Box::new(RefDense::new(&mut ref_rng, d2, d3, Activation::Linear)));
    (Sequential::new(layers), RefSequential::new(ref_layers))
}

/// Every parameter's, then every gradient's bits, in visiting order.
fn params(visit: impl FnOnce(&mut dyn FnMut(&mut Matrix, &mut Matrix))) -> Vec<u32> {
    let (mut weights, mut grads) = (Vec::new(), Vec::new());
    visit(&mut |p, g| {
        weights.extend(bits(p));
        grads.extend(bits(g));
    });
    weights.extend(grads);
    weights
}

/// Hands `visit` each of `net`'s `(parameter, gradient)` pairs in
/// `apply_gradients`' order, through an optimizer that moves nothing;
/// `apply_gradients` zeroes every gradient after it has been read.
fn visit_sequential(net: &mut Sequential, visit: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
    struct Visit<'a>(&'a mut dyn FnMut(&mut Matrix, &mut Matrix));
    impl Optimizer for Visit<'_> {
        fn step(&mut self, _slot: usize, param: &mut Matrix, grad: &Matrix) {
            (self.0)(param, &mut grad.clone());
        }
    }
    net.apply_gradients(&mut Visit(visit));
}

fn optimizers(adam: bool) -> (Box<dyn Optimizer>, Box<dyn Optimizer>) {
    if adam {
        (Box::new(Adam::new(1e-2)), Box::new(Adam::new(1e-2)))
    } else {
        (Box::new(RmsProp::new(1e-2)), Box::new(RmsProp::new(1e-2)))
    }
}

/// `steps` autoencoder-style training steps on fresh batches, then one
/// manual forward/backward pass that asks for the input gradient.
fn new_equals_old(stack: Stack, batch: usize, steps: usize, l2_lambda: f32, adam: bool) {
    let case = format!("{stack:?} batch {batch} steps {steps} l2 {l2_lambda} adam {adam}");
    let (mut net, mut refr) = build(stack);
    let (mut opt, mut ref_opt) = optimizers(adam);
    let mut rng = StdRng::seed_from_u64(stack.seed ^ 0xD15E);
    let [d0, .., d3] = stack.dims;

    for step in 0..steps {
        // Batch shapes change under a warmed workspace too.
        let rows = if step % 2 == 0 { batch } else { batch.div_ceil(2) };
        let x = init::uniform(&mut rng, rows, d0, -1.0, 1.0);
        let y = init::uniform(&mut rng, rows, d3, -1.0, 1.0);
        let loss = net.train_batch(&x, &y, &Mse, opt.as_mut(), l2_lambda);
        let (ref_loss, _) = refr.train_batch(&x, &y, ref_opt.as_mut(), l2_lambda);
        assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{case}: loss at step {step}");
    }
    assert_eq!(
        params(|f| visit_sequential(&mut net, f)),
        params(|f| refr.visit_params(f)),
        "{case}: parameters after {steps} steps"
    );

    let x = init::uniform(&mut rng, batch, d0, -1.0, 1.0);
    let grad = init::uniform(&mut rng, batch, d3, -1.0, 1.0);
    assert_eq!(
        bits(net.infer(&x, &mut PingPong::new())),
        bits(&refr.predict(&x)),
        "{case}: inference"
    );
    assert_eq!(
        bits(net.forward_training(&x)),
        bits(&refr.forward_training(&x)),
        "{case}: training-mode forward"
    );
    let dx = net.backward(&grad, true).expect("input gradient was asked for");
    assert_eq!(bits(dx), bits(&refr.backward(&grad)), "{case}: input gradient");
    // The accumulated (not yet applied) gradients of that pass.
    assert_eq!(
        params(|f| visit_sequential(&mut net, f)),
        params(|f| refr.visit_params(f)),
        "{case}: gradients of the manual pass"
    );
}

fn stack() -> impl Strategy<Value = Stack> {
    let dims = (1usize..20, 1usize..40, 1usize..20, 1usize..20);
    let hidden = (0usize..4, 0usize..4);
    (any::<u64>(), dims, hidden, (any::<bool>(), any::<bool>())).prop_map(
        |(seed, (d0, d1, d2, d3), (a, b), (dropout, he_init))| Stack {
            seed,
            dims: [d0, d1, d2, d3],
            hidden: [ACTIVATIONS[a], ACTIVATIONS[b]],
            dropout,
            he_init,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn training_equals_the_two_call_reference(
        stack in stack(),
        wide_batch in any::<bool>(),
        steps in 1usize..6,
        l2 in any::<bool>(),
        adam in any::<bool>(),
    ) {
        let batch = if wide_batch { 32 } else { 1 };
        new_equals_old(stack, batch, steps, if l2 { 1e-3 } else { 0.0 }, adam);
    }
}

/// The shapes the repository trains: AE-Cloud at the paper's window, and
/// the policy network's single-row REINFORCE pass.
#[test]
fn paper_shapes_equal_the_reference() {
    let cloud = Stack {
        seed: 3,
        dims: [96, 48, 24, 96],
        hidden: [Activation::Tanh, Activation::Tanh],
        dropout: false,
        he_init: false,
    };
    new_equals_old(cloud, 32, 8, 0.0, false);
    let policy = Stack {
        seed: 5,
        dims: [4, 100, 100, 3],
        hidden: [Activation::Relu, Activation::Relu],
        dropout: false,
        he_init: true,
    };
    new_equals_old(policy, 1, 8, 0.0, true);
}
