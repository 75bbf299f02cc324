//! # hec-ad
//!
//! A from-scratch Rust reproduction of *"Contextual-Bandit Anomaly Detection
//! for IoT Data in Distributed Hierarchical Edge Computing"* (Ngo, Luo,
//! Chaouchi, Quek — IEEE ICDCS 2020).
//!
//! This meta-crate re-exports the whole stack:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`tensor`] | dense `f32` matrices, Gaussian logPD, vector ops |
//! | [`nn`] | dense / LSTM / BiLSTM / seq2seq networks with manual backprop |
//! | [`data`] | synthetic power-demand & MHEALTH-like datasets, splits, metrics |
//! | [`anomaly`] | the six AD models and the logPD anomaly scorer |
//! | [`sim`] | the 3-layer HEC testbed simulator (devices, links, fleet DES) |
//! | [`bandit`] | policy network, REINFORCE + reinforcement comparison, ε-greedy, LinUCB |
//! | [`core`] | the five schemes, the experiment pipeline, tables, ablations |
//! | [`telemetry`] | deterministic metrics registry, span tracing, alloc tracking |
//!
//! # Quickstart
//!
//! ```rust,no_run
//! use hec_ad::core::{Experiment, ExperimentConfig};
//!
//! // Runs the full univariate pipeline (Table I + Table II).
//! let report = Experiment::run(ExperimentConfig::univariate());
//! println!("{}", hec_ad::core::format_table2(&report.table2));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `hec-bench`
//! crate for the binaries that regenerate every table and figure of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hec_anomaly as anomaly;
pub use hec_bandit as bandit;
pub use hec_core as core;
pub use hec_data as data;
pub use hec_nn as nn;
pub use hec_sim as sim;
pub use hec_telemetry as telemetry;
pub use hec_tensor as tensor;
