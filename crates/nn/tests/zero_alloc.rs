//! Allocation accounting for the model hot paths:
//!
//! * a warmed inference [`Lstm::step_seq`] performs **zero** heap
//!   allocations (proved with a counting global allocator), and so does a
//!   warmed seq2seq pass over a sixteen-window block — reconstruction,
//!   errors, encoded state — whatever the window length;
//! * a warmed LSTM **training step** (forward + BPTT) allocates only the
//!   gradients it hands back — every product routes through the `_into`
//!   kernels into reused workspaces, so the count is the same small
//!   constant at 16 steps as at 64;
//! * a warmed dense training step — [`Sequential::train_batch`] at the
//!   AE-Cloud shapes, a `Dropout` in the stack, full and ragged batches —
//!   performs **zero** heap allocations: activations and gradients live in
//!   the model's workspace (the policy network's one-row REINFORCE update
//!   has the same check in `hec-bandit`'s `tests/zero_alloc.rs`);
//! * a warmed [`Seq2Seq::train_batch`] allocates a small **constant** —
//!   the initial-state gradients the LSTMs hand back — the same count at
//!   16 steps as at 64.
//!
//! Everything lives in one `#[test]` so no concurrent test can disturb the
//! global counters.

use hec_nn::{
    Activation, Dense, Dropout, Lstm, LstmState, Mse, RmsProp, Seq2Seq, Seq2SeqConfig, Sequential,
};
use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::Matrix;

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
    lstm.begin_seq(1, Some(&state), false);
    lstm.step_seq(x.as_slice()); // warmup: scratch buffers grow here
    lstm.step_seq(x.as_slice());

    // The counter is process-wide and the test harness occasionally
    // allocates from another thread mid-window; a step that really
    // allocated would dirty every window (32 iterations each), so one
    // clean window out of five keeps the assertion sound without the noise.
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        lstm.begin_seq(1, Some(&state), false);
        for _ in 0..32 {
            lstm.step_seq(x.as_slice());
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed Lstm::step_seq performed {last_delta} heap allocations in every window"
    );

    // --- Dense training step: zero total allocations once the workspace
    // and the optimizer state have grown, whatever the batch's row count
    // does afterwards (an epoch's last batch is short). ---
    let sizes = [96, 48, 24, 12, 24, 48, 96];
    let mut layers: Vec<Box<dyn hec_nn::Layer>> = Vec::new();
    for (i, pair) in sizes.windows(2).enumerate() {
        let act = if i == sizes.len() - 2 { Activation::Linear } else { Activation::Tanh };
        layers.push(Box::new(Dense::new(&mut rng, pair[0], pair[1], act)));
        if i == 2 {
            layers.push(Box::new(Dropout::new(0.3, 5)));
        }
    }
    let mut net = Sequential::new(layers);
    let mut opt = RmsProp::new(1e-3);
    let full = hec_tensor::init::uniform(&mut rng, 32, 96, -1.0, 1.0);
    let ragged = hec_tensor::init::uniform(&mut rng, 5, 96, -1.0, 1.0);
    net.train_batch(&full, &full, &Mse, &mut opt, 1e-4); // warmup
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..16 {
            net.train_batch(&full, &full, &Mse, &mut opt, 1e-4);
            net.train_batch(&ragged, &ragged, &Mse, &mut opt, 1e-4);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed Sequential::train_batch performed {last_delta} heap allocations in every window"
    );

    // --- LSTM training step (forward_seq + backward_seq): all products go
    // through `_into` kernels, so the only fresh memory is the gradients
    // handed back — the same count whatever the sequence length. ---
    let mut step_allocs = [usize::MAX; 2];
    for (slot, steps) in [64usize, 16].into_iter().enumerate() {
        let xs = hec_tensor::init::uniform(&mut rng, steps, 18, -1.0, 1.0);
        let dhs = Matrix::ones(steps, 64);
        let mut train_step = || {
            lstm.forward_seq(&xs, 1, None, true);
            lstm.backward_seq(Some(&dhs), None, None)
        };
        train_step(); // warmup
        for _attempt in 0..5 {
            let before = allocations();
            let grads = train_step();
            step_allocs[slot] = step_allocs[slot].min(allocations() - before);
            drop(grads);
        }
    }
    assert_eq!(
        step_allocs[0], step_allocs[1],
        "LSTM training step allocations depend on the sequence length"
    );
    assert!(
        step_allocs[0] <= LSTM_STEP_ALLOCS,
        "warmed LSTM training step performed {} heap allocations",
        step_allocs[0]
    );

    // --- Full seq2seq training step (encoder, decoder, dense output,
    // dropout, optimizer) on the paper's 18 channels, uni- and
    // bidirectional: a heap allocation count that does not grow with the
    // window (nothing is allocated per step) and stays at the handed-back
    // gradients (no product allocates its output). ---
    let window = |steps: usize| {
        let data: Vec<f32> =
            (0..steps * 18).map(|i| ((i / 18) as f32 * 0.3 + (i % 18) as f32).sin()).collect();
        Matrix::from_vec(steps, 18, data)
    };
    for bidirectional in [false, true] {
        let config = Seq2SeqConfig {
            input_dim: 18,
            encoder_hidden: 32,
            bidirectional,
            ..Default::default()
        };
        let mut model = Seq2Seq::new(config);
        let mut opt = RmsProp::new(1e-3);
        let mut per_window = [0usize; 2];
        for (slot, steps) in [64usize, 16].into_iter().enumerate() {
            let xs = window(steps);
            let _ = model.train_batch(&xs, 1, &mut opt); // warmup: arenas grow here
            per_window[slot] = usize::MAX;
            for _attempt in 0..5 {
                let before = allocations();
                let _ = model.train_batch(&xs, 1, &mut opt);
                per_window[slot] = per_window[slot].min(allocations() - before);
            }
        }
        assert_eq!(
            per_window[0], per_window[1],
            "Seq2Seq::train_batch allocations depend on the window length (bi {bidirectional})"
        );
        assert!(
            per_window[0] <= TRAIN_BATCH_ALLOCS[bidirectional as usize] + SPAN_KEY_ALLOCS,
            "warmed Seq2Seq::train_batch performed {} heap allocations (bi {bidirectional})",
            per_window[0]
        );

        // --- A warmed sixteen-window block through the same model:
        // reconstruction errors and encoded state, zero allocations. ---
        let mut block = Matrix::zeros(64 * 16, 18);
        let fill = |block: &mut Matrix| {
            for (i, v) in block.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f32 * 0.01).sin();
            }
        };
        fill(&mut block);
        model.reconstruction_errors(&mut block, 16); // warmup
        let _ = model.encode(&block, 16);
        let mut last_delta = usize::MAX;
        for _attempt in 0..5 {
            fill(&mut block);
            let before = allocations();
            model.reconstruction_errors(&mut block, 16);
            let _ = model.encode(&block, 16);
            last_delta = allocations() - before;
            if last_delta == 0 {
                break;
            }
        }
        assert_eq!(
            last_delta, 0,
            "warmed 16-window seq2seq block performed {last_delta} heap allocations"
        );
    }
}

/// Heap allocations of one warmed [`Seq2Seq::train_batch`], at most, with a
/// unidirectional and with a bidirectional encoder: the initial-state
/// gradient each LSTM hands back and the halves a bidirectional encoder
/// splits one into. The dropout, output and loss layers above the decoder
/// allocate nothing, and neither does any matrix product.
const TRAIN_BATCH_ALLOCS: [usize; 2] = [4, 10];

/// Heap allocations of one warmed LSTM forward + BPTT pass, at most: the
/// input gradient and the initial-state gradient it returns.
const LSTM_STEP_ALLOCS: usize = 2;

/// What the `nn.train_batch` wall span adds when a workspace build unifies
/// telemetry in: the sidecar fold allocates its key.
const SPAN_KEY_ALLOCS: usize = hec_telemetry::ENABLED as usize;
