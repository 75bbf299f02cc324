//! # hec-sim
//!
//! Simulator for the paper's 3-layer hierarchical edge computing (HEC)
//! testbed (Fig. 1a / Fig. 4): a Raspberry Pi 3 (IoT device), an NVIDIA
//! Jetson TX2 (edge server) and an NVIDIA Devbox (cloud), connected by
//! WAN links emulated in the paper with the Linux `tc` traffic-control tool.
//!
//! What the physical testbed measures — per-model execution time on each
//! machine plus network transfer over the emulated WAN — this crate models:
//!
//! * [`device`] — device profiles and execution-time models, calibrated to
//!   the paper's measured Table I times (e.g. AE on the Pi: 12.4 ms;
//!   BiLSTM-seq2seq on the Devbox: 232.3 ms);
//! * [`network`] — links with RTT and optional bandwidth, calibrated
//!   to Table II (IoT→Edge ≈ 250 ms RTT, IoT→Cloud ≈ 500 ms RTT);
//! * [`topology`] — the assembled testbed and its end-to-end delay model;
//! * [`event`] — a deterministic discrete-event queue;
//! * [`fleet`] — a discrete-event *fleet* simulator: hundreds of
//!   thousands of devices streaming millions of windows through
//!   per-layer service queues and bandwidth-shared links, making
//!   detection delay load-dependent (utilization, queue traces, drop
//!   rates, p50/p99 latencies per scheme).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod event;
pub mod fleet;
pub mod network;
pub mod topology;

pub use device::{DeviceProfile, ExecTimeModel};
pub use event::EventQueue;
pub use fleet::{FleetReport, FleetScale, FleetScenario};
pub use network::Link;
pub use topology::{DatasetKind, HecTopology};
