//! Network links with RTT and an optional bandwidth cap.
//!
//! The paper emulates WAN connections with the Linux `tc` tool (§III-C).
//! Table II implies pure-delay links: the univariate Edge scheme's
//! end-to-end delay (257.43 ms) minus the TX2 execution time (7.4 ms) gives
//! ≈ 250 ms for IoT→Edge, and the Cloud scheme gives ≈ 500 ms for
//! IoT→Cloud — for both datasets, independent of payload size. We therefore
//! default to delay-only links and expose bandwidth for ablations.

use serde::{Deserialize, Serialize};

/// A (round-trip) network path between the IoT device and a higher layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Round-trip propagation delay in milliseconds.
    pub rtt_ms: f64,
    /// Optional uplink bandwidth cap in Mbit/s (`None` = unconstrained,
    /// matching the paper's delay-only `tc netem` emulation).
    pub(crate) bandwidth_mbps: Option<f64>,
}

impl Link {
    /// A delay-only link (the paper's default emulation).
    ///
    /// # Panics
    ///
    /// Panics if `rtt_ms` is negative.
    pub(crate) fn delay_only(rtt_ms: f64) -> Self {
        assert!(rtt_ms >= 0.0, "rtt must be non-negative");
        Self { rtt_ms, bandwidth_mbps: None }
    }

    /// The local "link" from a device to itself: zero cost.
    pub fn local() -> Self {
        Self::delay_only(0.0)
    }

    /// Adds a bandwidth cap (Mbit/s).
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not positive.
    pub(crate) fn with_bandwidth(mut self, mbps: f64) -> Self {
        assert!(mbps > 0.0, "bandwidth must be positive");
        self.bandwidth_mbps = Some(mbps);
        self
    }

    /// Round-trip transfer time for a payload of `payload_bytes`.
    pub(crate) fn transfer_ms(&self, payload_bytes: usize) -> f64 {
        let serialisation = match self.bandwidth_mbps {
            Some(mbps) => (payload_bytes as f64 * 8.0) / (mbps * 1e6) * 1e3,
            None => 0.0,
        };
        self.rtt_ms + serialisation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_only_ignores_payload() {
        let link = Link::delay_only(250.0);
        assert_eq!(link.transfer_ms(0), 250.0);
        assert_eq!(link.transfer_ms(1_000_000), 250.0);
    }

    #[test]
    fn local_link_is_free() {
        assert_eq!(Link::local().transfer_ms(4096), 0.0);
    }

    #[test]
    fn bandwidth_adds_serialisation_delay() {
        // 10 Mbit/s, 1 MB payload: 8 Mbit / 10 Mbit/s = 0.8 s = 800 ms.
        let link = Link::delay_only(100.0).with_bandwidth(10.0);
        let t = link.transfer_ms(1_000_000);
        assert!((t - 900.0).abs() < 1e-6, "got {t}");
    }

    #[test]
    #[should_panic(expected = "rtt must be non-negative")]
    fn negative_rtt_rejected() {
        let _ = Link::delay_only(-1.0);
    }
}
