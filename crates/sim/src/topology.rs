//! The assembled HEC testbed and its end-to-end delay model.

use serde::{Deserialize, Serialize};

use crate::device::DeviceProfile;
use crate::network::Link;

/// Which of the paper's two dataset families a topology is calibrated for
/// (they deploy different models, hence different execution times).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Power-demand data, autoencoder models (Table I left half).
    Univariate,
    /// MHEALTH data, LSTM-seq2seq models (Table I right half).
    Multivariate,
}

impl DatasetKind {
    /// The paper's measured execution times, ms, bottom-up (Table I).
    pub(crate) fn paper_exec_ms(self) -> [f64; 3] {
        match self {
            DatasetKind::Univariate => [12.4, 7.4, 4.5],
            DatasetKind::Multivariate => [591.0, 417.3, 232.3],
        }
    }

    /// The paper's tuned cost parameter α (§III-B).
    pub fn paper_alpha(self) -> f64 {
        match self {
            DatasetKind::Univariate => 0.0005,
            DatasetKind::Multivariate => 0.00035,
        }
    }
}

/// One layer of the testbed: its device, the deployed model's execution
/// time and the network path from the IoT device to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// The machine at this layer.
    pub device: DeviceProfile,
    /// Per-inference execution time of the AD model deployed here, ms
    /// (the paper's Table I measurement on the testbed).
    pub exec_ms: f64,
    /// Round-trip path from the IoT device to this layer.
    pub uplink: Link,
}

/// The K = 3 testbed of Fig. 1a with its delay model.
///
/// # Example
///
/// ```rust
/// use hec_sim::{DatasetKind, HecTopology};
///
/// let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
/// // Always-Cloud end-to-end delay ≈ 500 ms RTT + 4.5 ms exec (Table II).
/// let d = topo.end_to_end_ms(2, 384);
/// assert!((d - 504.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HecTopology {
    layers: Vec<LayerSpec>,
}

impl HecTopology {
    /// Builds a topology from explicit layer specs (bottom-up).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        assert!(!layers.is_empty(), "topology needs at least one layer");
        Self { layers }
    }

    /// The paper's testbed: Pi 3 / Jetson TX2 / Devbox, delay-only WAN links
    /// of 250 ms (edge) and 500 ms (cloud) RTT, execution times calibrated
    /// to Table I for the given dataset family.
    pub fn paper_testbed(kind: DatasetKind) -> Self {
        let exec = kind.paper_exec_ms();
        Self::new(vec![
            LayerSpec {
                device: DeviceProfile::raspberry_pi3(),
                exec_ms: exec[0],
                uplink: Link::local(),
            },
            LayerSpec {
                device: DeviceProfile::jetson_tx2(),
                exec_ms: exec[1],
                uplink: Link::delay_only(250.03),
            },
            LayerSpec {
                device: DeviceProfile::devbox(),
                exec_ms: exec[2],
                uplink: Link::delay_only(500.0),
            },
        ])
    }

    /// Number of layers K.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to the layer specs (bottom-up).
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Execution time of the model at `layer`, ms.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn exec_ms(&self, layer: usize) -> f64 {
        self.layers[layer].exec_ms
    }

    /// End-to-end detection delay when the task is executed at `layer`:
    /// round-trip transfer of the window payload plus execution (§II-B's
    /// `t_e2e`).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn end_to_end_ms(&self, layer: usize, payload_bytes: usize) -> f64 {
        let spec = &self.layers[layer];
        spec.uplink.transfer_ms(payload_bytes) + self.exec_ms(layer)
    }

    /// Cumulative delay of the Successive scheme escalating through
    /// `layers_visited` (1 = stopped at IoT, 2 = IoT then edge, …): each
    /// visited layer pays its own transfer + execution.
    ///
    /// # Panics
    ///
    /// Panics if `layers_visited` is 0 or exceeds K.
    pub fn successive_ms(&self, layers_visited: usize, payload_bytes: usize) -> f64 {
        assert!(
            layers_visited >= 1 && layers_visited <= self.num_layers(),
            "layers_visited must be in 1..=K"
        );
        (0..layers_visited).map(|l| self.end_to_end_ms(l, payload_bytes)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn univariate_delays_match_table2() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        assert!((topo.end_to_end_ms(0, 384) - 12.4).abs() < 1e-9);
        assert!((topo.end_to_end_ms(1, 384) - 257.43).abs() < 1e-9);
        assert!((topo.end_to_end_ms(2, 384) - 504.5).abs() < 1e-9);
    }

    #[test]
    fn multivariate_delays_match_table2() {
        let topo = HecTopology::paper_testbed(DatasetKind::Multivariate);
        assert!((topo.end_to_end_ms(0, 9216) - 591.0).abs() < 1e-9);
        assert!((topo.end_to_end_ms(1, 9216) - 667.33).abs() < 1e-2);
        assert!((topo.end_to_end_ms(2, 9216) - 732.3).abs() < 1e-9);
    }

    #[test]
    fn successive_accumulates() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let one = topo.successive_ms(1, 384);
        let two = topo.successive_ms(2, 384);
        let three = topo.successive_ms(3, 384);
        assert!((one - 12.4).abs() < 1e-9);
        assert!((two - (12.4 + 257.43)).abs() < 1e-9);
        assert!((three - (12.4 + 257.43 + 504.5)).abs() < 1e-9);
    }

    #[test]
    fn alphas_match_paper() {
        assert_eq!(DatasetKind::Univariate.paper_alpha(), 0.0005);
        assert_eq!(DatasetKind::Multivariate.paper_alpha(), 0.00035);
    }

    #[test]
    fn exec_ladder_decreases_up_the_hierarchy() {
        for kind in [DatasetKind::Univariate, DatasetKind::Multivariate] {
            let topo = HecTopology::paper_testbed(kind);
            assert!(topo.exec_ms(0) > topo.exec_ms(1));
            assert!(topo.exec_ms(1) > topo.exec_ms(2));
        }
    }

    #[test]
    #[should_panic(expected = "layers_visited")]
    fn successive_zero_layers_panics() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let _ = topo.successive_ms(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_topology_panics() {
        let _ = HecTopology::new(vec![]);
    }
}
