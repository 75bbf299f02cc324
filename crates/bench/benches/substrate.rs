//! Criterion bench: numerical substrate hot paths (matmul, LSTM step,
//! Gaussian logPD) — the operations every experiment spends its time in.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hec_nn::{Lstm, LstmState, RmsProp, Seq2Seq, Seq2SeqConfig};
use hec_tensor::{Gaussian, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = hec_tensor::init::uniform(&mut rng, 96, 64, -1.0, 1.0);
    let b = hec_tensor::init::uniform(&mut rng, 64, 96, -1.0, 1.0);
    c.bench_function("matmul_96x64x96", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
    });

    // The allocation-free hot path: same product into a reused buffer.
    let mut out = Matrix::zeros(96, 96);
    c.bench_function("matmul_into_96x64x96", |bch| {
        bch.iter(|| {
            black_box(&a).matmul_into(black_box(&b), &mut out);
            black_box(&out);
        })
    });

    let at = hec_tensor::init::uniform(&mut rng, 64, 96, -1.0, 1.0);
    c.bench_function("t_matmul_96x64x96", |bch| {
        bch.iter(|| black_box(black_box(&at).t_matmul(black_box(&b))))
    });

    // A·Bᵀ through the packed transposed-B kernel path.
    let bt = hec_tensor::init::uniform(&mut rng, 96, 64, -1.0, 1.0);
    c.bench_function("matmul_t_96x64x96", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul_t(black_box(&bt))))
    });
}

fn bench_lstm_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut lstm = Lstm::new(&mut rng, 18, 64);
    let x = hec_tensor::init::uniform(&mut rng, 1, 18, -1.0, 1.0);

    // Allocation-free inference steps from a realistic (non-zero)
    // recurrent state; the sequence is restarted outside the timed body.
    let warm = LstmState {
        h: hec_tensor::init::uniform(&mut rng, 1, 64, -1.0, 1.0),
        c: hec_tensor::init::uniform(&mut rng, 1, 64, -1.0, 1.0),
    };
    lstm.begin_seq(1, Some(&warm), false);
    c.bench_function("lstm_step_seq_18_to_64", |b| {
        b.iter(|| {
            black_box(lstm.step_seq(black_box(x.as_slice())));
        })
    });

    let xs = hec_tensor::init::uniform(&mut rng, 128, 18, -1.0, 1.0);
    let mut last = LstmState::zeros(1, 64);
    c.bench_function("lstm_forward_seq_128x18_to_64", |b| {
        b.iter(|| {
            lstm.forward_seq(black_box(&xs), 1, None, false);
            lstm.state_into(&mut last);
            black_box(&last);
        })
    });

    // One full BPTT training step (forward keeping every step + backward),
    // at the 16 steps this bench has always used and at a 64-step window.
    for steps in [16usize, 64] {
        let seq = hec_tensor::init::uniform(&mut rng, steps, 18, -1.0, 1.0);
        let dhs = Matrix::ones(steps, 64);
        c.bench_function(&format!("lstm_train_step_{steps}x18_to_64"), |b| {
            b.iter(|| {
                lstm.forward_seq(black_box(&seq), 1, None, true);
                black_box(lstm.backward_seq(Some(&dhs), None, None))
            })
        });
    }
}

/// The multivariate detectors' two costs at the `offline_train` shapes
/// (64 × 18 windows; hidden 32 / 64 / bidirectional 64 are the IoT, edge
/// and cloud models): one optimizer step on a window, and one inference
/// pass over a sixteen-window block.
fn bench_seq2seq(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let window = hec_tensor::init::uniform(&mut rng, 64, 18, -1.0, 1.0);
    let block = hec_tensor::init::uniform(&mut rng, 64 * 16, 18, -1.0, 1.0);
    for (label, hidden, bidirectional) in
        [("h32", 32, false), ("h64", 64, false), ("bi64", 64, true)]
    {
        let config = Seq2SeqConfig {
            input_dim: 18,
            encoder_hidden: hidden,
            bidirectional,
            ..Default::default()
        };
        let mut model = Seq2Seq::new(config);
        let mut opt = RmsProp::new(1e-3);
        c.bench_function(&format!("seq2seq_train_window_64x18_{label}"), |b| {
            b.iter(|| black_box(model.train_batch(black_box(&window), 1, &mut opt)))
        });
        let mut errors = block.clone();
        c.bench_function(&format!("seq2seq_detect_block16_{label}"), |b| {
            b.iter(|| {
                errors.copy_from(black_box(&block));
                model.reconstruction_errors(&mut errors, 16);
                black_box(&errors);
            })
        });
    }
}

fn bench_gaussian(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let samples = hec_tensor::init::uniform(&mut rng, 256, 18, -0.1, 0.1);
    let g = Gaussian::fit(&samples, 1e-4).expect("fit");
    let x = vec![0.05f32; 18];
    c.bench_function("gaussian_log_pdf_18d", |b| {
        b.iter(|| black_box(g.log_pdf(black_box(&x)).expect("dims")))
    });
    let mut scratch = vec![0.0f32; 18];
    c.bench_function("gaussian_log_pdf_with_18d", |b| {
        b.iter(|| black_box(g.log_pdf_with(black_box(&x), &mut scratch).expect("dims")))
    });

    c.bench_function("gaussian_fit_256x18", |b| {
        b.iter(|| black_box(Gaussian::fit(black_box(&samples), 1e-4).expect("fit")))
    });
}

criterion_group!(benches, bench_matmul, bench_lstm_step, bench_seq2seq, bench_gaussian);
criterion_main!(benches);
