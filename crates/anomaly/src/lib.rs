//! # hec-anomaly
//!
//! The anomaly-detection models of the HEC-AD reproduction (paper §II-A):
//!
//! * [`AutoencoderDetector`] — the univariate models **AE-IoT / AE-Edge /
//!   AE-Cloud** (3-, 5- and 7-layer autoencoders);
//! * [`Seq2SeqDetector`] — the multivariate models **LSTM-seq2seq-IoT /
//!   LSTM-seq2seq-Edge / BiLSTM-seq2seq-Cloud**;
//! * [`LogPdScorer`] — the shared anomaly score: reconstruction errors are
//!   assumed Gaussian `N(µ, Σ)` (fitted on normal training data) and scored
//!   by their **log probability density** (§II-A3); the detection threshold
//!   is calibrated on the training set under one fixed rule,
//!   `CALIBRATION_RULE`;
//! * [`ConfidenceRule`] — the paper's two *confident detection* conditions:
//!   (i) some point's logPD below `factor ×` threshold (logPD is negative),
//!   or (ii) more than `fraction` of the window's points anomalous;
//! * [`catalog`] — the six-model catalog keyed by HEC layer, with the
//!   metadata Table I reports (#parameters, layer placement);
//! * [`drift`] — Page–Hinkley mean-shift detection on the score stream,
//!   the alarm behind cheap scorer recalibration
//!   ([`AnomalyDetector::recalibrate`]) in online adaptation.
//!
//! All detectors implement the [`AnomalyDetector`] trait, which is what the
//! model-selection schemes in `hec-core` consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ae;
pub mod catalog;
pub mod detector;
pub mod drift;
pub mod scorer;
pub mod seq2seq_detector;

pub use ae::{AeArchitecture, AutoencoderDetector, ROW_SPLIT_WINDOWS};
pub use catalog::{HecLayer, ModelCatalog, ModelSpec};
pub use detector::{AnomalyDetector, Detection, FitError, FitReport};
pub use drift::PageHinkley;
pub use scorer::{ConfidenceRule, LogPdScorer, ThresholdRule};
pub use seq2seq_detector::Seq2SeqDetector;
