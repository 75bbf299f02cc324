//! The sequence-level LSTM against the per-step one, **bit for bit**.
//!
//! `reference/` keeps the implementation this crate shipped before the
//! rebuild. At batch 1 — the only way this repository trains — everything
//! the new code computes must equal it exactly: every parameter gradient,
//! the gradient handed back to the initial state, `dx` when it is asked
//! for, and through them ten optimizer steps' worth of weights and what the
//! trained model then reconstructs and encodes. (At batch > 1 the stacked
//! gradient products associate differently; `lstm.rs` checks those against
//! finite differences.)

mod reference;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hec_nn::lstm::BiLstm;
use hec_nn::{Lstm, LstmState, RmsProp, Seq2Seq, Seq2SeqConfig};
use hec_tensor::{init, Matrix};
use reference::{bits, RefBiLstm, RefLstm, RefSeq2Seq};

const SEEDS: [u64; 3] = [1, 2, 3];
const STEPS: [usize; 4] = [1, 2, 7, 64];
const HIDDEN: [usize; 4] = [3, 16, 32, 64];
const INPUT_DIM: usize = 18;

/// The batch-1 time-major sequence as the reference's per-step matrices.
fn per_step(xs: &Matrix) -> Vec<Matrix> {
    xs.iter_rows().map(Matrix::row_vector).collect()
}

fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    init::uniform(rng, rows, cols, -1.0, 1.0)
}

/// Every weight's, then every gradient's bits, in visiting order — and the
/// gradients zeroed, as an optimizer step leaves them: the two
/// implementations add a window's terms to *zeroed* gradients in the same
/// order, onto anything else they associate differently.
fn take_params(visit: impl FnOnce(&mut dyn FnMut(&mut Matrix, &mut Matrix))) -> Vec<u32> {
    let (mut weights, mut grads) = (Vec::new(), Vec::new());
    visit(&mut |p, g| {
        weights.extend(bits(p));
        grads.extend(bits(g));
        g.fill(0.0);
    });
    weights.extend(grads);
    weights
}

/// `assert_eq!` that names the first differing element, not all of them.
fn assert_same(case: &str, what: &str, got: &[u32], want: &[u32]) {
    assert_eq!(got.len(), want.len(), "{case}: {what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{case}: {what}: element {i} is {:e}, reference {:e}",
            f32::from_bits(got[i]),
            f32::from_bits(want[i])
        );
    }
}

/// `(h, c)` bits of a state.
fn state_bits(s: &LstmState) -> Vec<u32> {
    [bits(&s.h), bits(&s.c)].concat()
}

#[test]
fn lstm_gradients_equal_the_per_step_reference() {
    for seed in SEEDS {
        for t_len in STEPS {
            for hidden in HIDDEN {
                let case = format!("seed {seed}, T {t_len}, H {hidden}");
                let mut lstm = Lstm::new(&mut StdRng::seed_from_u64(seed), INPUT_DIM, hidden);
                let mut refr = RefLstm::new(&mut StdRng::seed_from_u64(seed), INPUT_DIM, hidden);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                let xs = random(&mut rng, t_len, INPUT_DIM);
                let state0 =
                    LstmState { h: random(&mut rng, 1, hidden), c: random(&mut rng, 1, hidden) };
                let d_final =
                    LstmState { h: random(&mut rng, 1, hidden), c: random(&mut rng, 1, hidden) };
                let dh_each = random(&mut rng, t_len, hidden);
                let zeros = vec![Matrix::zeros(1, hidden); t_len];

                // Decoder-shaped: stepped forward from a given state, a
                // gradient on every step and on the final state, `dx` asked
                // for.
                lstm.begin_seq(1, Some(&state0), true);
                for x in xs.iter_rows() {
                    lstm.step_seq(x);
                }
                let ref_states = refr.forward_seq_from(&per_step(&xs), &state0, true);
                let ref_hs: Vec<f32> =
                    ref_states.iter().flat_map(|s| s.h.as_slice().to_vec()).collect();
                assert_eq!(lstm.hidden_states(), &ref_hs[..], "{case}: hidden states");

                let mut dx = Matrix::zeros(1, 1);
                let d0 = lstm.backward_seq(Some(&dh_each), Some(&d_final), Some(&mut dx));
                let (ref_dxs, ref_d0) = refr.backward_seq(&per_step(&dh_each), Some(&d_final));
                assert_same(&case, "d_state0", &state_bits(&d0), &state_bits(&ref_d0));
                let ref_dx: Vec<u32> = ref_dxs.iter().flat_map(bits).collect();
                assert_same(&case, "dx", &bits(&dx), &ref_dx);
                assert_same(
                    &case,
                    "gradients",
                    &take_params(|f| lstm.visit_params(f)),
                    &take_params(|f| refr.visit_params(f)),
                );

                // Encoder-shaped: run whole from zeros (hoisted `x·Wx`),
                // gradient on the final state only, no `dx`.
                lstm.forward_seq(&xs, 1, None, true);
                refr.forward_seq(&per_step(&xs), true);
                let d0 = lstm.backward_seq(None, Some(&d_final), None);
                let (_, ref_d0) = refr.backward_seq(&zeros, Some(&d_final));
                assert_same(&case, "encoder d_state0", &state_bits(&d0), &state_bits(&ref_d0));
                assert_same(
                    &case,
                    "encoder gradients",
                    &take_params(|f| lstm.visit_params(f)),
                    &take_params(|f| refr.visit_params(f)),
                );
            }
        }
    }
}

#[test]
fn bilstm_gradients_equal_the_per_step_reference() {
    for seed in SEEDS {
        for t_len in STEPS {
            for hidden in HIDDEN {
                let case = format!("seed {seed}, T {t_len}, H {hidden}");
                let mut bi = BiLstm::new(&mut StdRng::seed_from_u64(seed), INPUT_DIM, hidden);
                let mut refr = RefBiLstm::new(&mut StdRng::seed_from_u64(seed), INPUT_DIM, hidden);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
                let xs = random(&mut rng, t_len, INPUT_DIM);
                let d_state = LstmState {
                    h: random(&mut rng, 1, 2 * hidden),
                    c: random(&mut rng, 1, 2 * hidden),
                };

                // With `dx`, then without: the gradients must not depend on
                // whether it was asked for.
                let mut dx = Matrix::zeros(1, 1);
                for ask in [true, false] {
                    let mut encoded = LstmState::zeros(1, 1);
                    bi.encode(&xs, 1, true, &mut encoded);
                    let ref_encoded = refr.encode(&per_step(&xs), true);
                    assert_same(
                        &case,
                        "encoded state",
                        &state_bits(&encoded),
                        &state_bits(&ref_encoded),
                    );

                    bi.backward_from_state(&d_state, ask.then_some(&mut dx));
                    let ref_dx: Vec<u32> =
                        refr.backward_from_state(&d_state).iter().flat_map(bits).collect();
                    if ask {
                        assert_same(&case, "dx", &bits(&dx), &ref_dx);
                    }
                    assert_same(
                        &case,
                        "gradients",
                        &take_params(|f| bi.visit_params(f)),
                        &take_params(|f| refr.visit_params(f)),
                    );
                }
            }
        }
    }
}

#[test]
fn ten_training_steps_leave_the_reference_models_weights() {
    for bidirectional in [false, true] {
        for (t_len, hidden) in [(1usize, 3usize), (7, 16), (64, 32), (64, 64)] {
            let case = format!("bi {bidirectional}, T {t_len}, H {hidden}");
            // Paper settings: dropout 0.3 (the mask stream must line up
            // too) and l2 1e-4.
            let config = Seq2SeqConfig {
                input_dim: INPUT_DIM,
                encoder_hidden: hidden,
                bidirectional,
                seed: 5,
                ..Default::default()
            };
            let mut model = Seq2Seq::new(config.clone());
            let mut refr = RefSeq2Seq::new(config);
            let mut rng = StdRng::seed_from_u64(9);
            let windows: Vec<Matrix> = (0..2).map(|_| random(&mut rng, t_len, INPUT_DIM)).collect();
            let (mut opt, mut ref_opt) = (RmsProp::new(1e-3), RmsProp::new(1e-3));
            for step in 0..10 {
                let xs = &windows[step % 2];
                let loss = model.train_batch(xs, 1, &mut opt);
                let ref_loss = refr.train_batch(&per_step(xs), &mut ref_opt);
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{case}: loss at step {step}");
            }
            assert_same(
                &case,
                "weights after ten steps",
                &take_params(|f| model.visit_params(f)),
                &take_params(|f| refr.visit_params(f)),
            );

            let xs = &windows[0];
            let ref_ys: Vec<u32> = refr.reconstruct(&per_step(xs)).iter().flat_map(bits).collect();
            assert_same(&case, "reconstruction", &bits(model.reconstruct(xs, 1)), &ref_ys);
            let ref_encoded = refr.encode(&per_step(xs));
            assert_same(
                &case,
                "encoded state",
                &state_bits(model.encode(xs, 1)),
                &state_bits(&ref_encoded),
            );
        }
    }
}
