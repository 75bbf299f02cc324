//! # hec-core
//!
//! The end-to-end reproduction pipeline of *"Contextual-Bandit Anomaly
//! Detection for IoT Data in Distributed Hierarchical Edge Computing"*
//! (ICDCS 2020): this crate glues the substrates together into the paper's
//! actual experiments.
//!
//! * [`oracle`] — per-window detection outcomes: precomputed for all
//!   three layers (the AD models are frozen while the policy trains,
//!   §II-B), or, in the adaptation loop, only at the layers it reads;
//! * [`scheme`] — the five model-selection schemes of §III-C: always-IoT,
//!   always-Edge, always-Cloud, **Successive** escalation, and the proposed
//!   **Adaptive** contextual-bandit scheme;
//! * [`experiment`] — the full pipeline: generate data → split → train the
//!   model catalog → calibrate scorers → train the policy network → evaluate
//!   every scheme (Tables I and II);
//! * [`report`] — table rows and ASCII formatting for the reproduction
//!   harness;
//! * [`stream`] — the demo result panel's streaming series (Fig. 3b) and
//!   the closed-loop fleet streaming driver (windows → policy actions →
//!   discrete-event fleet sim, so the bandit's action changes queueing),
//!   with native routing for load-aware policies;
//! * [`fleet_train`] — fleet-in-the-loop bandit training: the policy
//!   trains *inside* the discrete-event simulator on observed
//!   load-dependent delays and live queue-state context features;
//! * [`replay`] — the same closed loop at shard scale: an (amplified)
//!   trace corpus streamed through the sharded fleet engine (streaming,
//!   replay and training are three compositions of one private loop:
//!   a scheme's action and a window's score are each written once, and
//!   each driver has one job — the closed loop runs a one-shard plan,
//!   each event's outcomes heard before the next, for streaming and
//!   training, [`run_plan`]'s window loop drives the replay's table);
//! * [`ablation`] — α sweeps, baseline ablation, bandit-solver comparison
//!   and confidence-rule sweeps — the design choices the paper fixes
//!   without measuring;
//! * [`parallel`] — scoped-thread helpers (`HEC_THREADS` override) behind
//!   the parallel scheme evaluation and sweeps, with deterministic result
//!   ordering;
//! * [`adapt`] — online adaptation under drift: chunked streaming with
//!   Page–Hinkley drift detection on the layer-0 score stream and
//!   in-fleet refresh of the standardizer, the detector calibration and
//!   the bandit policy, each pass then replayed once through the sharded
//!   fleet, with deterministic reports;
//! * [`sharded`] — the fleet driver of `Fn + Sync` routers: a plan of
//!   any shard count through the window loop, where shards advance to
//!   conservative lookahead barriers on `HEC_THREADS` workers and merge
//!   deterministically, scaling fleet scenarios to millions of devices
//!   with byte-identical output at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adapt;
mod closed_loop;
pub mod experiment;
pub mod fleet_train;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod scheme;
pub mod sharded;
pub mod stream;

/// Scoped-thread parallelism helpers, hosted by `hec-tensor` so the data
/// layer can reach the same substrate without a dependency cycle;
/// re-exported here so `hec_core::parallel::*` call sites keep working.
pub use hec_tensor::parallel;

pub use adapt::{run_adaptive_stream, AdaptConfig, AdaptReport, ChunkStats, RecoveryStats};
pub use experiment::{
    static_delay_table, DatasetConfig, Experiment, ExperimentConfig, ExperimentReport,
};
pub use fleet_train::{
    train_policy_in_fleet, try_train_policy_in_fleet, FleetTrainError, FleetTrainOutcome,
};
pub use oracle::{Oracle, WindowOutcome};
pub use report::{format_table1, format_table2, Table1Row, Table2Row};
pub use scheme::{SchemeEvaluator, SchemeKind, SchemeOutcome, SchemeResult};
pub use sharded::{run_plan, run_scenario_sharded, ShardedFleetRun};
