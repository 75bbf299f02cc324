//! The five workloads. Each builds its inputs from the seed in set-up,
//! then runs fixed-size **reps**: one rep is one operation, made only of
//! calls into the libraries' public entry points, and returns what the
//! run needs to check it (a digest of the deterministic result fields,
//! the simulated-time results, the window count).
//!
//! The libraries never see the seed or a workload name — only the
//! generated inputs.

mod drift_adapt;
mod fleet_des;
mod fleet_train;
mod offline_train;
mod trace_replay;

use std::collections::BTreeMap;

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel};
use hec_bench::{univariate_config, Profile};
use hec_core::stream::FleetStreamResult;
use hec_core::{DatasetConfig, Experiment, ExperimentConfig, Oracle};
use hec_data::power::PowerConfig;
use hec_telemetry::{MetricValue, SidecarStat, Snapshot};

use crate::names::PER_LAYER;
use crate::spans::Recorder;

/// Input scale: the measured size, or the 1/20 size of `--self-check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

impl Size {
    fn profile(self) -> Profile {
        match self {
            Size::Full => Profile::Full,
            Size::Small => Profile::Quick,
        }
    }
}

/// The paper's axes in simulated time, where the workload defines them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimValues {
    pub f1: Option<f64>,
    pub delay_mean_ms: Option<f64>,
    pub reward_x100: Option<f64>,
    pub drop_share: Option<f64>,
}

/// What one successful rep hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOutput {
    /// The workload's fixed window count per rep.
    pub windows: u64,
    /// Hash of the deterministic fields of every report the rep received.
    pub digest: u64,
    pub sim: SimValues,
}

/// In-library aggregates (`hec_telemetry`) accumulated over the traced
/// rep: wall-span and alloc-phase totals, gemm call counts, and the
/// deterministic registry.
pub struct LibStats {
    pub wall: Vec<(String, SidecarStat)>,
    pub gemm_f32_calls: u64,
    pub gemm_i8_calls: u64,
    pub registry: Snapshot,
}

impl LibStats {
    fn stat(&self, name: &str) -> SidecarStat {
        self.wall.iter().find(|(n, _)| n == name).map(|(_, s)| *s).unwrap_or_default()
    }

    /// Total of a wall span, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.stat(name).total as f64 / 1e6
    }

    /// Raw total (allocations for `alloc.*` phases).
    pub fn total(&self, name: &str) -> u64 {
        self.stat(name).total
    }

    pub fn count(&self, name: &str) -> u64 {
        self.stat(name).count
    }

    /// Sum of a registry counter over all its label sets.
    pub fn counter_sum(&self, name: &str) -> u64 {
        counter_sum(&self.registry, name)
    }
}

/// Sum of the counter `name` over all its label sets in `snapshot`.
pub fn counter_sum(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .entries()
        .iter()
        .filter(|(k, _)| k.name() == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Per-layer values of one traced run. Every declared name is present;
/// a layer the workload bypasses reads 0.
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn new() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics if `name` is not a declared per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) =
            value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `t1 ÷ (workers × t2)`: 1 = the second worker halves the time, 0.5 = it
/// buys nothing. Reads 0 (not measured) on a one-core host, where the two
/// timings cannot be told apart from a speed-up.
pub fn parallel_efficiency(t1_ms: f64, t2_ms: f64, workers: usize) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 || t2_ms <= 0.0 {
        0.0
    } else {
        t1_ms / (workers as f64 * t2_ms)
    }
}

pub trait Workload {
    /// Untimed work that must precede a rep.
    fn before_rep(&mut self) {}

    /// One operation. `Err` names the call that failed or the invariant
    /// that broke.
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String>;

    /// Fills this workload's per-layer rows from the traced rep's spans
    /// and the in-library aggregates. May call a layer again to time it
    /// alone or under one worker (spans named `*.t1`), which is why
    /// end-to-end numbers never come from the traced run.
    fn layer_metrics(&mut self, rec: &mut Recorder, lib: &LibStats, out: &mut LayerValues);
}

/// Builds a workload's inputs from the seed. Everything here is set-up.
pub fn build(
    name: &str,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "trace_replay" => Box::new(trace_replay::TraceReplay::build(seed, size, rec)),
        "fleet_des" => Box::new(fleet_des::FleetDes::build(seed, size)),
        "offline_train" => Box::new(offline_train::OfflineTrain::build(seed, size)),
        "fleet_train" => Box::new(fleet_train::FleetTrain::build(seed, size, rec)),
        "drift_adapt" => Box::new(drift_adapt::DriftAdapt::build(seed, size, rec)),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// FNV-1a over the `Debug` rendering of a result: floats print with
/// round-trip precision, so equal digests mean bit-equal reports.
pub fn digest(report: &impl std::fmt::Debug) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The univariate experiment configuration and the generator
/// configuration of its corpus.
fn univariate(size: Size) -> (ExperimentConfig, PowerConfig) {
    let config = univariate_config(size.profile());
    let DatasetConfig::Univariate(power) = &config.dataset else {
        unreachable!("univariate_config yields a univariate dataset")
    };
    let power = power.clone();
    (config, power)
}

/// A pipeline trained offline by the paper protocol, as the streaming
/// workloads reuse it: detectors, static policy, context scaler.
pub struct Pipeline {
    pub exp: Experiment,
    pub policy: PolicyNetwork,
    pub scaler: ContextScaler,
    pub policy_oracle: Oracle,
}

impl Pipeline {
    /// `prepare → train_detectors → oracle_over(policy split) →
    /// train_policy`, one span per layer call.
    pub fn train(config: ExperimentConfig, rec: &mut Recorder) -> Self {
        let mut exp = rec.span("data.generate", |_| Experiment::prepare(config));
        rec.span("anomaly.fit", |_| exp.train_detectors());
        let policy_corpus = exp.split.policy_train.clone();
        let policy_oracle = rec.span("anomaly.detect", |_| exp.oracle_over(&policy_corpus));
        let (policy, scaler, _curve) =
            rec.span("bandit.train_static", |_| exp.train_policy(&policy_oracle));
        Self { exp, policy, scaler, policy_oracle }
    }

    pub fn reward(&self) -> RewardModel {
        RewardModel::new(self.exp.config().dataset.kind().paper_alpha())
    }
}

/// Window conservation of a closed-loop result: every emitted window was
/// served or dropped, and every scheme-routed window was scored or missed.
fn check_stream(what: &str, r: &FleetStreamResult, routed: u64) -> Result<(), String> {
    if r.fleet.emitted != r.fleet.served + r.fleet.dropped {
        return Err(format!(
            "{what}: emitted {} != served {} + dropped {}",
            r.fleet.emitted, r.fleet.served, r.fleet.dropped
        ));
    }
    if r.confusion.total() as u64 + r.missed != routed {
        return Err(format!(
            "{what}: scored {} + missed {} != routed {routed}",
            r.confusion.total(),
            r.missed
        ));
    }
    Ok(())
}
