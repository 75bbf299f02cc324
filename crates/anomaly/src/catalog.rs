//! The six-model catalog keyed by HEC layer (Fig. 1a).
//!
//! The paper associates one model with each of the K = 3 layers of the
//! hierarchical edge computing system: IoT device (Raspberry Pi 3), edge
//! server (Jetson TX2) and cloud (GPU Devbox). This module owns the layer
//! enum and the constructors that build the exact model families of the
//! paper at configurable scale.

use serde::{Deserialize, Serialize};

use crate::ae::{AeArchitecture, AutoencoderDetector};
use crate::detector::AnomalyDetector;
use crate::seq2seq_detector::Seq2SeqDetector;

/// A layer of the K = 3 hierarchical edge computing system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HecLayer {
    /// Layer 1 — the IoT device (Raspberry Pi 3 in the paper's testbed).
    IoT,
    /// Layer 2 — the edge server (NVIDIA Jetson TX2).
    Edge,
    /// Layer 3 — the cloud (NVIDIA Devbox, 4× Titan X).
    Cloud,
}

impl HecLayer {
    /// All layers bottom-up.
    pub const ALL: [HecLayer; 3] = [HecLayer::IoT, HecLayer::Edge, HecLayer::Cloud];

    /// Zero-based index (also the bandit's action id).
    pub fn index(self) -> usize {
        match self {
            HecLayer::IoT => 0,
            HecLayer::Edge => 1,
            HecLayer::Cloud => 2,
        }
    }

    /// Layer from an action index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

impl std::fmt::Display for HecLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HecLayer::IoT => write!(f, "IoT"),
            HecLayer::Edge => write!(f, "Edge"),
            HecLayer::Cloud => write!(f, "Cloud"),
        }
    }
}

/// Static description of a catalog model (what Table I summarises).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name as printed in the paper.
    pub name: String,
    /// HEC layer this model is deployed at.
    pub layer: HecLayer,
    /// Trainable parameter count.
    pub params: usize,
}

/// A trained (or trainable) set of three detectors, one per HEC layer.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::{HecLayer, ModelCatalog};
///
/// let catalog = ModelCatalog::univariate(96, 0);
/// assert_eq!(catalog.specs().len(), 3);
/// let specs = catalog.specs();
/// assert!(specs[0].params < specs[2].params); // capacity ladder
/// ```
pub struct ModelCatalog {
    detectors: Vec<Box<dyn AnomalyDetector>>,
}

impl ModelCatalog {
    /// The univariate family: AE-IoT (3 layers), AE-Edge (5), AE-Cloud (7)
    /// for windows of `input_dim` points.
    pub fn univariate(input_dim: usize, seed: u64) -> Self {
        Self {
            detectors: vec![
                Box::new(AutoencoderDetector::new("AE-IoT", AeArchitecture::iot(input_dim), seed)),
                Box::new(AutoencoderDetector::new(
                    "AE-Edge",
                    AeArchitecture::edge(input_dim),
                    seed.wrapping_add(1),
                )),
                Box::new(AutoencoderDetector::new(
                    "AE-Cloud",
                    AeArchitecture::cloud(input_dim),
                    seed.wrapping_add(2),
                )),
            ],
        }
    }

    /// The multivariate family: LSTM-seq2seq-IoT (`hidden` units),
    /// LSTM-seq2seq-Edge (double units), BiLSTM-seq2seq-Cloud
    /// (bidirectional) over `input_dim` channels.
    ///
    /// Deployment fidelity: on-device inference reads compressed sensor
    /// buffers (IoT 3-bit, edge 4-bit input quantization) while offloaded
    /// windows reach the cloud at full fidelity — a fidelity/compute
    /// tradeoff that can only lose evidence, so it reproduces the paper's
    /// accuracy ladder on the synthetic data without ever inverting it.
    pub fn multivariate(input_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut iot = Seq2SeqDetector::iot(input_dim, hidden, seed);
        iot.set_input_bits(Some(3));
        let mut edge = Seq2SeqDetector::edge(input_dim, hidden, seed.wrapping_add(1));
        edge.set_input_bits(Some(4));
        let cloud = Seq2SeqDetector::cloud(input_dim, hidden, seed.wrapping_add(2));
        Self { detectors: vec![Box::new(iot), Box::new(edge), Box::new(cloud)] }
    }

    /// Builds a catalog from three arbitrary detectors (bottom-up order).
    ///
    /// # Panics
    ///
    /// Panics unless exactly 3 detectors are given.
    pub fn from_detectors(detectors: Vec<Box<dyn AnomalyDetector>>) -> Self {
        assert_eq!(detectors.len(), 3, "catalog needs exactly K = 3 detectors");
        Self { detectors }
    }

    /// Mutable access to all three detectors (bottom-up). They share
    /// nothing and are `Send`, so the slice can be handed to
    /// `hec_tensor::parallel::parallel_map_mut` — how `hec-core` fits and
    /// scores a catalog one detector per worker.
    pub fn detectors_mut(&mut self) -> &mut [Box<dyn AnomalyDetector>] {
        &mut self.detectors
    }

    /// Static specs for reporting (Table I's identity columns).
    pub fn specs(&self) -> Vec<ModelSpec> {
        self.detectors
            .iter()
            .zip(HecLayer::ALL)
            .map(|(d, layer)| ModelSpec {
                name: d.name().to_owned(),
                layer,
                params: d.param_count(),
            })
            .collect()
    }
}

impl std::fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.detectors.iter().map(|d| d.name()).collect();
        write!(f, "ModelCatalog({names:?})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_indices_roundtrip() {
        for layer in HecLayer::ALL {
            assert_eq!(HecLayer::from_index(layer.index()), layer);
        }
    }

    #[test]
    fn layer_ordering_bottom_up() {
        assert!(HecLayer::IoT < HecLayer::Edge);
        assert!(HecLayer::Edge < HecLayer::Cloud);
    }

    #[test]
    fn univariate_catalog_ladder() {
        let catalog = ModelCatalog::univariate(96, 0);
        let specs = catalog.specs();
        assert_eq!(specs[0].name, "AE-IoT");
        assert_eq!(specs[1].name, "AE-Edge");
        assert_eq!(specs[2].name, "AE-Cloud");
        assert!(specs[0].params < specs[1].params);
        assert!(specs[1].params < specs[2].params);
    }

    #[test]
    fn multivariate_catalog_ladder() {
        let catalog = ModelCatalog::multivariate(18, 32, 0);
        let specs = catalog.specs();
        assert_eq!(specs[2].name, "BiLSTM-seq2seq-Cloud");
        assert!(specs[0].params < specs[1].params);
        assert!(specs[1].params < specs[2].params);
    }

    #[test]
    #[should_panic(expected = "exactly K = 3")]
    fn wrong_count_rejected() {
        let _ = ModelCatalog::from_detectors(vec![]);
    }

    #[test]
    fn display_names() {
        assert_eq!(HecLayer::IoT.to_string(), "IoT");
        assert_eq!(HecLayer::Edge.to_string(), "Edge");
        assert_eq!(HecLayer::Cloud.to_string(), "Cloud");
    }
}
