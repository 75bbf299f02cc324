//! # hec-data
//!
//! Synthetic IoT datasets, windowing, standardisation, splits and metrics for
//! the HEC-AD reproduction.
//!
//! The paper evaluates on two public datasets that we substitute with
//! faithful synthetic generators (neither is redistributable; see the
//! README's "Datasets" section):
//!
//! * [`power`] — a univariate **power-demand** generator modelled on the
//!   Dutch power-demand dataset (UCR discords): one year of 15-minute
//!   readings with a strong weekly rhythm; anomalies are weekdays whose
//!   demand profile collapses to a weekend/holiday shape.
//! * [`mhealth`] — a multivariate **MHEALTH-like** generator: 18 IMU channels
//!   (2 sensors × accelerometer/gyroscope/magnetometer × 3 axes) at 50 Hz for
//!   12 activities and 10 subjects; the dominant activity (walking) is
//!   normal, everything else anomalous; windows of 128 steps, stride 64.
//!
//! With the `real-data` feature enabled, the `ingest` module adds
//! file-backed **real-trace** loading: hand-rolled streaming CSV and
//! NDJSON readers with schema adapters for the UCI-power-demand and
//! MHEALTH layouts, an explicit missing-value policy, and line-numbered
//! error reporting. The [`source`] module's [`DatasetSource`] trait
//! unifies the synthetic generators with those loaders.
//!
//! Supporting modules:
//!
//! * [`amplify`] — deterministic trace amplification: a checked-in
//!   fixture corpus times a repetition factor (rep 0 verbatim, later
//!   reps splitmix64-perturbed per window/channel) becomes an
//!   engine-scale stream for the sharded fleet to ingest, plus
//!   deterministic regime-change schedules ([`DriftSchedule`]) for the
//!   online-adaptation experiments,
//! * [`online`] — streaming Welford/parallel-merge standardisation
//!   moments ([`OnlineStandardizer`]) whose `freeze()` matches the
//!   batch fit,
//! * [`window`] — labelled windows and sliding-window extraction,
//! * [`standardize`] — zero-mean/unit-variance per-channel scaling ("the data
//!   is standardized to zero mean and unit variance", §III-A),
//! * [`split`] — the paper's train/test/policy-train protocol,
//! * [`source`] — the [`DatasetSource`] corpus abstraction,
//! * [`metrics`] — confusion-matrix accuracy/precision/recall/F1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplify;
#[cfg(feature = "real-data")]
pub mod ingest;
pub mod metrics;
pub mod mhealth;
pub mod online;
pub mod power;
pub mod source;
pub mod split;
pub mod standardize;
pub mod window;

pub use amplify::{amplify_corpus, DriftKind, DriftSchedule, PerturbConfig, PerturbConfigError};
pub use metrics::BinaryConfusion;
pub use mhealth::{Activity, MhealthConfig, MhealthGenerator};
pub use online::OnlineStandardizer;
pub use power::{PowerConfig, PowerGenerator};
pub use source::{DatasetSource, IngestError, LabeledCorpus};
pub use split::{paper_split, PaperSplit};
pub use standardize::{NonFiniteError, Standardizer};
pub use window::LabeledWindow;

/// Standard-normal sample via Box–Muller — the generators' sensor noise.
/// Two draws per sample, in this order: the generated corpora are pinned
/// to them bit for bit.
pub(crate) fn gaussian(rng: &mut rand::rngs::StdRng) -> f32 {
    use hec_tensor::math;
    use rand::Rng;
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * math::ln(u1)).sqrt() * math::cos(2.0 * std::f32::consts::PI * u2)
}
