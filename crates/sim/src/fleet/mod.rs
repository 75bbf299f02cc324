//! Discrete-event fleet simulation: stream millions of windows from a
//! device fleet through the 3-layer HEC hierarchy.
//!
//! The static delay model ([`crate::HecTopology::end_to_end_ms`]) charges
//! each window a load-independent delay, as if one device had the
//! hierarchy to itself, so offloading never queues and links never
//! saturate. This
//! module scales the testbed out: **N** IoT devices (hundreds of
//! thousands and up) emit windows at configurable rates into per-layer
//! service queues and bandwidth-shared links, making detection delay
//! load-dependent — the quantity the paper's adaptive scheme actually
//! trades off against accuracy.
//!
//! * [`queueing`] — contention primitives: bounded multi-server FIFO
//!   with batch dequeue, egalitarian processor sharing (credit-based,
//!   O(log n) per event);
//! * [`scenario`] — named workloads at two scales (`light_load`,
//!   `edge_saturated`, `cloud_link_constrained`, `flash_crowd`), with
//!   per-cohort heterogeneous payloads and local compute speeds;
//! * [`des`] — the virtual-clock engine ([`FleetEngine`]), whose one loop
//!   can interleave "route window → observe completion → update policy";
//! * [`metrics`] — latency histograms, per-layer utilization/drop
//!   summaries, queue traces, CSV renderings;
//! * [`shard`] — the sharded engine: a deterministic device/resource
//!   partitioner ([`ShardPlan`]), per-shard sub-engines
//!   ([`ShardedFleetEngine`]) that `hec-core` advances to conservative
//!   lookahead barriers (a stateless router, any shard count) or runs
//!   closed (a [`FeedbackRouter`], one shard), and the merge of their
//!   outcomes in stable shard order, scaling scenarios to millions of
//!   devices.
//!
//! Determinism is a hard invariant: each engine runs over a
//! totally-ordered event queue, all randomness is seeded hashing, shard
//! outcomes merge in a fixed `(time, shard-id)` order, and the same
//! scenario + seed + shard count produce byte-identical reports on any
//! host and under any `HEC_THREADS` setting.
//!
//! [`HecTopology`]: crate::HecTopology

pub mod des;
pub mod metrics;
pub mod queueing;
pub mod scenario;
pub mod shard;

pub use des::{FleetEngine, JobEvent, RouteCtx};
pub use metrics::{DropReason, FleetReport, LayerSummary, TraceSample};
pub use queueing::{JobRec, PsResource};
pub use scenario::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
pub use shard::{
    earliest_event_ms, merge_window, FeedbackRouter, ShardEngine, ShardPlan, ShardedFleetEngine,
};
