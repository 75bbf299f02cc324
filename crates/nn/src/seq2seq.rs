//! LSTM encoder–decoder (sequence-to-sequence) reconstruction models.
//!
//! Reproduces the paper's multivariate AD architecture (§II-A2):
//!
//! * an LSTM (or bidirectional LSTM) **encoder** compresses the input window
//!   into encoded states;
//! * an LSTM **decoder** reconstructs the window one step at a time, fed with
//!   its own previous output (a zero vector — the "special token" — at the
//!   first step);
//! * the decoder output is **dropped out (rate 0.3)** and passed through a
//!   fully-connected layer with **linear activation** to produce the
//!   reconstruction;
//! * trained with **RMSProp** and an **`l2`-norm kernel regularizer of 1e-4**
//!   to minimise mean squared reconstruction error.
//!
//! Gradient through the autoregressive feedback connection (output at `t`
//! feeding input at `t+1`) is truncated (stop-gradient), matching the common
//! TensorFlow `feed_previous` implementation the paper's stack builds on.
//! So no layer here ever asks [`Lstm::backward_seq`] for `dx`, and it is
//! not computed.
//!
//! # Windows and blocks
//!
//! Every entry point takes a **time-major** sequence matrix and its batch
//! size: `T·B` rows of `input_dim` channels, row `t·B + b` is step `t` of
//! window `b` (see [`crate::lstm`]). One window's `T × channels` matrix is
//! the batch-1 case as it stands; a block of equal-length windows is
//! interleaved by the caller. Rows of every product are independent, so a
//! window's reconstruction, encoded state and errors are the same bits at
//! any `B` — `hec-anomaly` scores corpora sixteen windows at a time on
//! that.
//!
//! The model owns a few buffers beside the layers' own arenas, each grown
//! once and reused: the encoder's final state (the decoder's initial one),
//! the decoder's fed-back outputs `ŷ_t` (`T·B × input_dim`) and, in
//! training, its stacked hidden states with the activations and gradients
//! of the dropout and output layers above them (this model is their
//! driver in the sense of [`Layer`]).
//! In inference dropout is the identity, so the fed-back `ŷ_t = h_t·W + b`
//! *is* the reconstruction: the output layer runs once per step, not a
//! second time over the stacked states.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hec_tensor::Matrix;

use crate::dense::Dense;
use crate::dropout::Dropout;
use crate::loss::{Loss, Mse};
use crate::lstm::{BiLstm, Lstm, LstmState};
use crate::optim::Optimizer;
use crate::sequential::Layer;
use crate::workspace::Buf;
use crate::Activation;

/// `l2` kernel regularisation weight of every encoder, decoder and output
/// kernel (paper: 1e-4).
pub const L2_LAMBDA: f32 = 1e-4;

/// Configuration for a [`Seq2Seq`] model.
#[derive(Debug, Clone, PartialEq)]
pub struct Seq2SeqConfig {
    /// Number of input channels per timestep (18 for the paper's MHEALTH data).
    pub input_dim: usize,
    /// LSTM units in the encoder (per direction when bidirectional).
    pub encoder_hidden: usize,
    /// Whether the encoder is bidirectional (BiLSTM-seq2seq-Cloud).
    pub bidirectional: bool,
    /// Dropout rate applied to decoder outputs (paper: 0.3).
    pub dropout: f32,
    /// RNG seed for weight initialisation and dropout masks.
    pub seed: u64,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Self { input_dim: 18, encoder_hidden: 48, bidirectional: false, dropout: 0.3, seed: 0 }
    }
}

// Both variants boxed: the LSTM weight structs are hundreds of bytes, and
// Seq2Seq is moved around by value during catalog construction.
enum Encoder {
    Uni(Box<Lstm>),
    Bi(Box<BiLstm>),
}

/// An LSTM encoder–decoder that learns to reconstruct its input sequence.
///
/// # Example
///
/// ```rust
/// use hec_nn::{RmsProp, Seq2Seq, Seq2SeqConfig};
/// use hec_tensor::Matrix;
///
/// let config = Seq2SeqConfig { input_dim: 2, encoder_hidden: 8, ..Default::default() };
/// let mut model = Seq2Seq::new(config);
/// // One window (batch 1) of 4 steps × 2 channels.
/// let steps: Vec<f32> =
///     (0..4).flat_map(|t| [(t as f32 * 0.5).sin(), (t as f32 * 0.5).cos()]).collect();
/// let window = Matrix::from_vec(4, 2, steps);
/// let mut opt = RmsProp::new(1e-3);
/// let first = model.train_batch(&window, 1, &mut opt);
/// for _ in 0..30 { model.train_batch(&window, 1, &mut opt); }
/// let last = model.train_batch(&window, 1, &mut opt);
/// assert!(last < first);
/// ```
pub struct Seq2Seq {
    encoder: Encoder,
    decoder: Lstm,
    dropout: Dropout,
    output: Dense,
    config: Seq2SeqConfig,
    /// The encoder's final state — the decoder's initial one.
    encoded: LstmState,
    /// The decoder's fed-back outputs `ŷ_t`, time-major.
    fed_back: Buf,
    /// Training: the decoder's hidden states, stacked for the output layer.
    stacked_h: Buf,
    head: HeadScratch,
}

/// Training activations and gradients of the dropout → dense head over the
/// stacked hidden states.
#[derive(Default)]
struct HeadScratch {
    dropped: Buf,
    prediction: Buf,
    /// `∂L/∂prediction`, then the output layer's `δ` in place.
    d_prediction: Buf,
    d_dropped: Buf,
    d_stacked_h: Buf,
}

impl Seq2Seq {
    /// Builds the model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `encoder_hidden` is zero, or `dropout ∉ [0,1)`.
    pub fn new(config: Seq2SeqConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be non-zero");
        assert!(config.encoder_hidden > 0, "encoder_hidden must be non-zero");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dec_hidden =
            if config.bidirectional { 2 * config.encoder_hidden } else { config.encoder_hidden };
        let encoder = if config.bidirectional {
            Encoder::Bi(Box::new(BiLstm::new(&mut rng, config.input_dim, config.encoder_hidden)))
        } else {
            Encoder::Uni(Box::new(Lstm::new(&mut rng, config.input_dim, config.encoder_hidden)))
        };
        let decoder = Lstm::new(&mut rng, config.input_dim, dec_hidden);
        let output = Dense::new(&mut rng, dec_hidden, config.input_dim, Activation::Linear);
        let dropout = Dropout::new(config.dropout, config.seed.wrapping_add(0x9E37));
        Self {
            encoder,
            decoder,
            dropout,
            output,
            config,
            encoded: LstmState::zeros(1, 1),
            fed_back: Buf::new(),
            stacked_h: Buf::new(),
            head: HeadScratch::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.config
    }

    /// Total trainable parameters (Table I's "#Parameters").
    pub fn param_count(&self) -> usize {
        let enc = match &self.encoder {
            Encoder::Uni(l) => l.param_count(),
            Encoder::Bi(b) => b.param_count(),
        };
        enc + self.decoder.param_count() + self.output.param_count()
    }

    /// Encodes a block of windows into the final encoder state, one row per
    /// window — this is the contextual feature the paper feeds to the
    /// policy network for multivariate data (§III-B: "we use the encoded
    /// states of the LSTM-encoder").
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a whole number of `batch`-row steps of
    /// `input_dim` channels.
    pub fn encode(&mut self, xs: &Matrix, batch: usize) -> &LstmState {
        self.encode_mode(xs, batch, false);
        &self.encoded
    }

    fn encode_mode(&mut self, xs: &Matrix, batch: usize, training: bool) {
        match &mut self.encoder {
            Encoder::Uni(l) => {
                l.forward_seq(xs, batch, None, training);
                l.state_into(&mut self.encoded);
            }
            Encoder::Bi(b) => b.encode(xs, batch, training, &mut self.encoded),
        }
    }

    /// Reconstructs a block of windows (inference mode: dropout disabled);
    /// time-major like the input, same shape.
    ///
    /// # Panics
    ///
    /// Same contract as [`Seq2Seq::encode`].
    pub fn reconstruct(&mut self, xs: &Matrix, batch: usize) -> &Matrix {
        self.decode(xs, batch, false);
        self.fed_back.get()
    }

    /// Encoder pass, then the decoder's autoregressive loop: leaves every
    /// step's fed-back output in `fed_back` and, in training mode, the
    /// hidden states behind them in `stacked_h` (and the layers' caches
    /// ready for [`Seq2Seq::train_batch`]).
    fn decode(&mut self, xs: &Matrix, batch: usize, training: bool) {
        self.encode_mode(xs, batch, training);
        let t_len = xs.rows() / batch;
        let step_len = batch * self.config.input_dim;
        let ys = self.fed_back.shaped(xs.rows(), self.config.input_dim).as_mut_slice();

        self.decoder.begin_seq(batch, Some(&self.encoded), training);
        for t in 0..t_len {
            // The input is the previous step's clean (no-dropout) linear
            // output — at the first step the zero vector ("special token",
            // §II-A2), for which the block about to be written stands in.
            // Gradient through this path is truncated.
            let (done, rest) = ys.split_at_mut(t * step_len);
            let y_t = &mut rest[..step_len];
            let x_t: &[f32] = match t {
                0 => {
                    y_t.fill(0.0);
                    y_t
                }
                _ => &done[(t - 1) * step_len..],
            };
            let h_t = self.decoder.step_seq(x_t);
            self.output.affine_rows(h_t, y_t);
        }
        if training {
            let hs = self.decoder.hidden_states();
            self.stacked_h
                .shaped(xs.rows(), self.decoder.hidden())
                .as_mut_slice()
                .copy_from_slice(hs);
        }
    }

    /// One training step on a single window (or a time-major block of
    /// aligned windows): forward, MSE against the input itself, BPTT, L2,
    /// optimizer update. Returns the reconstruction MSE before the update.
    ///
    /// # Panics
    ///
    /// Same contract as [`Seq2Seq::encode`].
    pub fn train_batch(&mut self, xs: &Matrix, batch: usize, optimizer: &mut dyn Optimizer) -> f32 {
        let _span = hec_telemetry::WallSpan::new("nn.train_batch");
        self.decode(xs, batch, true);
        let (rows, hidden, dim) = (xs.rows(), self.decoder.hidden(), self.config.input_dim);
        let stacked_h = self.stacked_h.get();
        let dropped = self.head.dropped.shaped(rows, hidden);
        self.dropout.train_into(stacked_h, dropped);
        let prediction = self.head.prediction.shaped(rows, dim);
        self.output.train_into(dropped, prediction);

        let loss = Mse.value(prediction, xs);
        let d_prediction = self.head.d_prediction.shaped(rows, dim);
        Mse.gradient_into(prediction, xs, d_prediction);

        // Back through dense and dropout, then BPTT through the decoder.
        let d_dropped = self.head.d_dropped.shaped(rows, hidden);
        self.output.backward_into(dropped, prediction, d_prediction, Some(&mut *d_dropped));
        let d_stacked_h = self.head.d_stacked_h.shaped(rows, hidden);
        self.dropout.backward_into(stacked_h, dropped, d_dropped, Some(&mut *d_stacked_h));
        let d_state0 = self.decoder.backward_seq(Some(&*d_stacked_h), None, None);

        // The decoder's initial state is the encoder's final state.
        match &mut self.encoder {
            Encoder::Uni(l) => {
                l.backward_seq(None, Some(&d_state0), None);
            }
            Encoder::Bi(b) => b.backward_from_state(&d_state0, None),
        }

        match &mut self.encoder {
            Encoder::Uni(l) => l.apply_l2(L2_LAMBDA),
            Encoder::Bi(b) => b.apply_l2(L2_LAMBDA),
        }
        self.decoder.apply_l2(L2_LAMBDA);
        self.output.apply_l2(L2_LAMBDA);

        self.apply_gradients(optimizer);
        loss
    }

    /// Replaces every row `x_t` of a block of windows by its reconstruction
    /// error `x_t − x̂_t` (inference) — the raw errors the Gaussian anomaly
    /// scorer is fitted on and scores.
    ///
    /// # Panics
    ///
    /// Same contract as [`Seq2Seq::encode`].
    pub fn reconstruction_errors(&mut self, xs: &mut Matrix, batch: usize) {
        self.decode(xs, batch, false);
        for (x, y) in xs.as_mut_slice().iter_mut().zip(self.fed_back.get().as_slice()) {
            *x -= y;
        }
    }

    /// Visits every `(parameter, gradient)` pair (encoder, decoder, output
    /// dense) in a stable order — used for post-training weight quantization.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        match &mut self.encoder {
            Encoder::Uni(l) => l.visit_params(f),
            Encoder::Bi(b) => b.visit_params(f),
        }
        self.decoder.visit_params(f);
        self.output.visit_params(f);
    }

    /// Applies the optimizer to all accumulated gradients and zeroes them.
    fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        let mut slot = 0usize;
        self.visit_params(&mut |param, grad| {
            optimizer.step(slot, param, grad);
            grad.map_inplace(|_| 0.0);
            slot += 1;
        });
    }
}

impl std::fmt::Debug for Seq2Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let enc = match &self.encoder {
            Encoder::Uni(_) => "LSTM",
            Encoder::Bi(_) => "BiLSTM",
        };
        write!(
            f,
            "Seq2Seq({enc} encoder h={}, params={})",
            self.config.encoder_hidden,
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::RmsProp;

    fn sine_window(t_len: usize, dim: usize, phase: f32) -> Matrix {
        let steps: Vec<f32> = (0..t_len)
            .flat_map(|t| (0..dim).map(move |d| ((t as f32) * 0.4 + phase + d as f32).sin()))
            .collect();
        Matrix::from_vec(t_len, dim, steps)
    }

    fn small_config(bidirectional: bool) -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_dim: 2,
            encoder_hidden: 10,
            bidirectional,
            dropout: 0.0, // deterministic tests
            seed: 7,
        }
    }

    #[test]
    fn output_shape_matches_input() {
        let mut model = Seq2Seq::new(small_config(false));
        let xs = sine_window(6, 2, 0.0);
        assert_eq!(model.reconstruct(&xs, 1).shape(), xs.shape());
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut model = Seq2Seq::new(small_config(false));
        let xs = sine_window(8, 2, 0.3);
        let mut opt = RmsProp::new(2e-3);
        let first = model.train_batch(&xs, 1, &mut opt);
        let mut last = first;
        for _ in 0..150 {
            last = model.train_batch(&xs, 1, &mut opt);
        }
        assert!(last < first * 0.5, "training failed to reduce loss: first {first}, last {last}");
    }

    #[test]
    fn bidirectional_training_reduces_error() {
        let mut model = Seq2Seq::new(small_config(true));
        let xs = sine_window(8, 2, 0.0);
        let mut opt = RmsProp::new(2e-3);
        let first = model.train_batch(&xs, 1, &mut opt);
        let mut last = first;
        for _ in 0..150 {
            last = model.train_batch(&xs, 1, &mut opt);
        }
        assert!(last < first * 0.5, "bi model failed to train: {first} -> {last}");
    }

    #[test]
    fn bidirectional_has_more_params() {
        let uni = Seq2Seq::new(small_config(false));
        let bi = Seq2Seq::new(small_config(true));
        assert!(bi.param_count() > uni.param_count());
    }

    #[test]
    fn encode_gives_context_vector() {
        let mut model = Seq2Seq::new(small_config(false));
        let a = model.encode(&sine_window(6, 2, 0.0), 1).clone();
        let b = model.encode(&sine_window(6, 2, 1.5), 1);
        assert_eq!(a.h.shape(), (1, 10));
        // Different windows produce different contexts.
        assert!((&a.h - &b.h).frobenius_norm() > 1e-6);
    }

    /// A window reconstructs, encodes and errs to the same bits alone and as
    /// any member of a time-major block — what block scoring rests on.
    #[test]
    fn a_window_reads_the_same_alone_and_in_a_block() {
        for bidirectional in [false, true] {
            let mut model = Seq2Seq::new(small_config(bidirectional));
            let mut opt = RmsProp::new(2e-3);
            for epoch in 0..5 {
                model.train_batch(&sine_window(8, 2, epoch as f32 * 0.1), 1, &mut opt);
            }
            let windows: Vec<Matrix> = (0..3).map(|i| sine_window(8, 2, i as f32 * 0.7)).collect();
            let mut block = Matrix::zeros(8 * 3, 2);
            for (b, w) in windows.iter().enumerate() {
                for t in 0..8 {
                    block.row_mut(t * 3 + b).copy_from_slice(w.row(t));
                }
            }
            let ys = model.reconstruct(&block, 3).clone();
            let hs = model.encode(&block, 3).clone();
            model.reconstruction_errors(&mut block, 3);
            for (b, w) in windows.iter().enumerate() {
                let alone = model.reconstruct(w, 1).clone();
                for t in 0..8 {
                    assert_eq!(ys.row(t * 3 + b), alone.row(t), "window {b} step {t}");
                    let err: Vec<f32> =
                        w.row(t).iter().zip(alone.row(t)).map(|(x, y)| x - y).collect();
                    assert_eq!(block.row(t * 3 + b), &err[..], "window {b} step {t} errors");
                }
                assert_eq!(hs.h.row(b), model.encode(w, 1).h.row(0), "window {b} context");
            }
        }
    }

    #[test]
    fn trained_model_separates_normal_from_anomalous() {
        // Train on one waveform family; a very different waveform should have
        // larger reconstruction error.
        let mut model = Seq2Seq::new(small_config(false));
        let mut opt = RmsProp::new(2e-3);
        for epoch in 0..120 {
            let xs = sine_window(8, 2, (epoch % 4) as f32 * 0.1);
            model.train_batch(&xs, 1, &mut opt);
        }
        let mut normal = sine_window(8, 2, 0.05);
        let weird: Vec<f32> =
            (0..8).flat_map(|t| [if t % 2 == 0 { 2.0 } else { -2.0 }, 0.0]).collect();
        let mut weird = Matrix::from_vec(8, 2, weird);
        model.reconstruction_errors(&mut normal, 1);
        model.reconstruction_errors(&mut weird, 1);
        let (err_n, err_w) = (normal.frobenius_norm_sq(), weird.frobenius_norm_sq());
        assert!(err_w > err_n, "anomalous window not separated: normal {err_n}, weird {err_w}");
    }

    #[test]
    fn param_count_formula_uni() {
        let model = Seq2Seq::new(Seq2SeqConfig {
            input_dim: 18,
            encoder_hidden: 48,
            bidirectional: false,
            dropout: 0.3,
            seed: 0,
        });
        let lstm = |input: usize, h: usize| 4 * h * (input + h + 1);
        let expected = lstm(18, 48) + lstm(18, 48) + (48 * 18 + 18);
        assert_eq!(model.param_count(), expected);
    }

    #[test]
    #[should_panic(expected = "not whole steps")]
    fn ragged_block_panics() {
        let mut model = Seq2Seq::new(small_config(false));
        let _ = model.reconstruct(&sine_window(7, 2, 0.0), 2);
    }
}
