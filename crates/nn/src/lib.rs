//! # hec-nn
//!
//! A from-scratch neural-network framework sufficient to reproduce every model
//! in *"Contextual-Bandit Anomaly Detection for IoT Data in Distributed
//! Hierarchical Edge Computing"* (ICDCS 2020):
//!
//! * stacked [`Dense`] autoencoders (AE-IoT / AE-Edge / AE-Cloud, §II-A1),
//! * [`Lstm`] encoder–decoder sequence-to-sequence models, including the
//!   bidirectional encoder of BiLSTM-seq2seq-Cloud (§II-A2) — see
//!   [`seq2seq::Seq2Seq`],
//! * the optimizers of the single-hidden-layer softmax policy network
//!   (§II-B), which the `hec-bandit` crate keeps in one flat parameter
//!   buffer of its own,
//! * the paper's training recipe: MSE reconstruction loss, RMSProp,
//!   `l2`-norm kernel regularisation, dropout 0.3 on decoder outputs.
//!
//! Backpropagation (including BPTT through the LSTMs) is implemented manually
//! and validated against finite differences in the test suite.
//!
//! Every model owns a preallocated scratch workspace (see [`workspace`]) and
//! routes its matrix products through `hec-tensor`'s `_into` kernels, so
//! steady-state forward and training steps allocate no matmul temporaries
//! (every product lands in a reused buffer or a caller-visible output), and a
//! warmed dense training step ([`Sequential::train_batch`]) allocates
//! nothing at all: a [`Layer`] keeps no part of a batch, its driver owns
//! the activations and gradients. The
//! LSTMs work a sequence at a time on time-major arenas (see [`lstm`]): a
//! warmed inference pass — [`Lstm::step_seq`], or a whole block of windows
//! through [`Seq2Seq`] — performs zero heap allocations, and a training
//! step a small constant, none of them per timestep.
//!
//! # Example
//!
//! ```rust
//! use hec_nn::{Activation, Dense, Mse, RmsProp, Sequential};
//! use hec_tensor::Matrix;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // A tiny 2-2-1 regression network.
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(&mut rng, 2, 2, Activation::Tanh)),
//!     Box::new(Dense::new(&mut rng, 2, 1, Activation::Linear)),
//! ]);
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let y = Matrix::from_rows(&[&[1.0], &[-1.0]]);
//! let mut opt = RmsProp::new(0.01);
//! let before = net.train_batch(&x, &y, &Mse, &mut opt, 0.0);
//! for _ in 0..200 { net.train_batch(&x, &y, &Mse, &mut opt, 0.0); }
//! let after = net.train_batch(&x, &y, &Mse, &mut opt, 0.0);
//! assert!(after < before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod dense;
pub mod dropout;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod seq2seq;
pub mod sequential;
pub mod workspace;

pub use activation::Activation;
pub use dense::Dense;
pub use dropout::Dropout;
pub use loss::{Loss, Mse};
pub use lstm::{Lstm, LstmState};
pub use optim::{Adam, Optimizer, RmsProp, Sgd};
pub use seq2seq::{Seq2Seq, Seq2SeqConfig};
pub use sequential::{Layer, PingPong, Sequential};
pub use workspace::Buf;
