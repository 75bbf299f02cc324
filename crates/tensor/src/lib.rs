//! # hec-tensor
//!
//! Dense `f32` matrix/vector math substrate used by every other crate in the
//! HEC-AD reproduction of *"Contextual-Bandit Anomaly Detection for IoT Data
//! in Distributed Hierarchical Edge Computing"* (ICDCS 2020).
//!
//! The paper implements its models in TensorFlow/Keras; this crate provides
//! the minimal-but-complete numerical substrate those models need when
//! re-implemented from scratch in Rust:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the linear-algebra
//!   operations required by dense layers and LSTM cells (matmul, transpose,
//!   broadcasting row ops, Hadamard products, reductions).
//! * [`init`] — weight initialisers (Glorot/Xavier, He, uniform, orthogonal-ish).
//! * [`stats`] — Gaussian fitting (mean/covariance), Cholesky factorisation and
//!   multivariate log probability density, used for the paper's logPD anomaly
//!   score (§II-A3).
//! * [`math`] — `exp`, `tanh`, `sigmoid`, `ln`, `sin`, `cos` without libm:
//!   fixed-order polynomials in plain IEEE arithmetic, scalar and in-place
//!   slice forms that agree bit for bit, stated ULP bounds. Every `f32`
//!   transcendental in the workspace goes through it.
//! * [`vecops`] — free functions over `&[f32]` slices (dot, softmax,
//!   argmax, running stats) used in hot paths that do not need a full matrix.
//! * [`kernel`] — the shared cache-blocked matmul kernels behind every
//!   matrix product, plus the `_into` buffer-reuse convention: hot paths call
//!   `matmul_into`/`t_matmul_into`/`matmul_t_into` with caller-owned buffers
//!   so steady-state training allocates no matmul temporaries.
//!
//! # Example
//!
//! ```rust
//! use hec_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod kernel;
pub mod math;
pub mod matrix;
pub mod parallel;
pub mod stats;
pub mod vecops;

pub use matrix::Matrix;
pub use stats::{Gaussian, GaussianError};
