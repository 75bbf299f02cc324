//! Allocation accounting for the model hot paths:
//!
//! * a warmed inference [`Lstm::step_into`] performs **zero** heap
//!   allocations (proved with a counting global allocator);
//! * a full LSTM / seq2seq **training step** makes **zero allocating matmul
//!   calls** — every product routes through the `_into` kernels into reused
//!   workspaces or caller-visible outputs (proved with
//!   `hec_tensor::kernel::matmul_allocations`, which counts the allocating
//!   wrapper calls; the preallocated `dxs` output vector and returned state
//!   are the only matmul results that still own fresh memory).
//!
//! Everything lives in one `#[test]` so no concurrent test can disturb the
//! global counters.

use hec_nn::{
    Activation, Lstm, LstmState, QuantMode, QuantizedDense, RmsProp, Seq2Seq, Seq2SeqConfig,
};
use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::{Matrix, QuantScheme, QuantizedMatrix};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn hot_paths_are_matmul_allocation_free() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // --- Inference LSTM step: zero total allocations once warm. ---
    let mut rng = StdRng::seed_from_u64(7);
    let mut lstm = Lstm::new(&mut rng, 18, 64);
    let x = hec_tensor::init::uniform(&mut rng, 1, 18, -1.0, 1.0);
    let state = LstmState {
        h: hec_tensor::init::uniform(&mut rng, 1, 64, -1.0, 1.0),
        c: hec_tensor::init::uniform(&mut rng, 1, 64, -1.0, 1.0),
    };
    let mut next = LstmState::zeros(1, 64);
    lstm.step_into(&x, &state, &mut next); // warmup: scratch buffers grow here

    // The counter is process-wide and the test harness occasionally
    // allocates from another thread mid-window; a step that really
    // allocated would dirty every window (32 iterations each), so one
    // clean window out of five keeps the assertion sound without the noise.
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..32 {
            lstm.step_into(&x, &state, &mut next);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed Lstm::step_into performed {last_delta} heap allocations in every window"
    );

    // --- Quantised dense forward (int8 weights *and* activations): zero
    // total allocations once the code buffers and kernel scratch are warm,
    // at both AE-IoT layer shapes (narrow-output dot route and wide-output
    // tiled route with the pre-packed weight layout). ---
    let enc_w = hec_tensor::init::uniform(&mut rng, 96, 3, -1.0, 1.0);
    let enc_b = Matrix::zeros(1, 3);
    let dec_w = hec_tensor::init::uniform(&mut rng, 3, 96, -1.0, 1.0);
    let dec_b = Matrix::zeros(1, 96);
    let mode = QuantMode::int8(QuantScheme::PerRow);
    let enc = QuantizedDense::from_weights(&enc_w, &enc_b, Activation::Tanh, mode);
    let dec = QuantizedDense::from_weights(&dec_w, &dec_b, Activation::Linear, mode);
    let mut codes = QuantizedMatrix::empty();
    let x = hec_tensor::init::uniform(&mut rng, 1, 96, -1.0, 1.0);
    let mut h = Matrix::zeros(1, 3);
    let mut y = Matrix::zeros(1, 96);
    enc.forward_into(&x, &mut codes, &mut h); // warmup: activation codes + scratch grow
    dec.forward_into(&h, &mut codes, &mut y);
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..32 {
            enc.forward_into(&x, &mut codes, &mut h);
            dec.forward_into(&h, &mut codes, &mut y);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed QuantizedDense::forward_into performed {last_delta} heap allocations per window"
    );

    // --- LSTM training step (forward_seq + backward_seq): zero allocating
    // matmul wrapper calls — all products go through `_into` kernels. ---
    let xs: Vec<Matrix> =
        (0..16).map(|_| hec_tensor::init::uniform(&mut rng, 1, 18, -1.0, 1.0)).collect();
    let train_step = |lstm: &mut Lstm| {
        let states = lstm.forward_seq(&xs, true);
        let dhs: Vec<Matrix> =
            states.iter().map(|s| Matrix::ones(s.h.rows(), s.h.cols())).collect();
        let _ = lstm.backward_seq(&dhs, None);
    };
    train_step(&mut lstm); // warmup
    let wrapper_before = hec_tensor::kernel::matmul_allocations();
    train_step(&mut lstm);
    assert_eq!(
        hec_tensor::kernel::matmul_allocations(),
        wrapper_before,
        "LSTM training step performed allocating matmul calls"
    );

    // --- Full seq2seq training step (encoder, decoder, dense output,
    // dropout, optimizer): still zero allocating matmul calls. ---
    let config = Seq2SeqConfig { input_dim: 4, encoder_hidden: 12, ..Default::default() };
    let mut model = Seq2Seq::new(config);
    let window: Vec<Matrix> = (0..8)
        .map(|t| {
            Matrix::row_vector(&[
                (t as f32 * 0.3).sin(),
                (t as f32 * 0.3).cos(),
                (t as f32 * 0.7).sin(),
                (t as f32 * 0.7).cos(),
            ])
        })
        .collect();
    let mut opt = RmsProp::new(1e-3);
    let _ = model.train_batch(&window, &mut opt); // warmup
    let wrapper_before = hec_tensor::kernel::matmul_allocations();
    let _ = model.train_batch(&window, &mut opt);
    assert_eq!(
        hec_tensor::kernel::matmul_allocations(),
        wrapper_before,
        "Seq2Seq training step performed allocating matmul calls"
    );
}
