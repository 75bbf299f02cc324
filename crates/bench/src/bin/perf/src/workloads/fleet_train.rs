//! `fleet_train` — the serial `step()` API with the policy in the loop:
//! per-window context build, forward and REINFORCE update between
//! events (training on the quick twin of `flash_crowd`), then the
//! fleet-trained load-aware policy and the static policy each routing a
//! probe cohort through the scenario at 0.4 × full scale. The same hec-sim and
//! hec-bandit layers as `fleet_des` / `trace_replay`, used one window at
//! a time instead of in bulk.

use hec_bandit::TrainConfig;
use hec_core::stream::stream_through_fleet;
use hec_core::{train_policy_in_fleet, Oracle, SchemeKind};
use hec_sim::fleet::{FleetScale, FleetScenario};

use super::{
    check_stream, digest, univariate, LayerValues, LibStats, Pipeline, RepOutput, SimValues, Size,
    Workload,
};
use crate::spans::Recorder;

/// The recorded `repro_fleet_train` regime.
const EPOCHS: usize = 6;
const ENTROPY_BETA: f32 = 0.08;

pub struct FleetTrain {
    pipe: Pipeline,
    eval_oracle: Oracle,
    train_config: TrainConfig,
    /// Scenario and probe-cohort index, for training and for evaluation.
    train: (FleetScenario, u32),
    eval: (FleetScenario, u32),
    des_events: u64,
    p99_ms: f64,
}

/// `flash_crowd` at `scale` with the standard probe cohort, the whole
/// fleet then scaled by `factor` (rates kept). `None` keeps the
/// scenario's own seed.
fn flash_crowd_with_probe(
    scale: FleetScale,
    factor: f64,
    seed: Option<u64>,
) -> (FleetScenario, u32) {
    let mut sc = FleetScenario::flash_crowd(scale);
    if let Some(seed) = seed {
        sc.seed = seed;
    }
    let probe = hec_bench::push_probe_cohort(&mut sc, scale);
    sc.scale_fleet(factor);
    (sc, probe)
}

impl FleetTrain {
    pub fn build(seed: u64, size: Size, rec: &mut Recorder) -> Self {
        let (config, _) = univariate(size);
        let train_config =
            TrainConfig { epochs: EPOCHS, entropy_beta: ENTROPY_BETA, ..config.policy };
        let mut pipe = Pipeline::train(config, rec);
        let eval_corpus = pipe.exp.split.full.clone();
        let eval_oracle = rec.span("anomaly.detect", |_| pipe.exp.oracle_over(&eval_corpus));
        // 52 000 devices, 8 000 of them the probe cohort (the quick twin
        // at the small size).
        let (eval_scale, eval_factor) = match size {
            Size::Full => (FleetScale::Full, 0.4),
            Size::Small => (FleetScale::Quick, 1.0),
        };
        Self {
            pipe,
            eval_oracle,
            train_config,
            // The training twin keeps its own seed: with it goes the
            // REINFORCE trajectory, and the time of an epoch moved
            // two-fold from seed to seed (59–117 ms) — another workload
            // per seed. The seed reaches the scenario that is streamed.
            train: flash_crowd_with_probe(FleetScale::Quick, 1.0, None),
            eval: flash_crowd_with_probe(eval_scale, eval_factor, Some(seed)),
            des_events: 0,
            p99_ms: 0.0,
        }
    }
}

impl Workload for FleetTrain {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String> {
        let Self { pipe, eval_oracle, train_config, train, eval, .. } = self;
        let reward = pipe.reward();
        let hidden = pipe.exp.config().policy_hidden;
        let trained = rec.span("core.fleet_train", |_| {
            train_policy_in_fleet(
                &train.0,
                &pipe.policy_oracle,
                &pipe.scaler,
                &reward,
                hidden,
                *train_config,
                Some(train.1),
            )
        });
        let mut fleet_policy = trained.policy;
        let stream = |rec: &mut Recorder, policy| {
            rec.span("core.stream", |_| {
                stream_through_fleet(
                    &eval.0,
                    eval_oracle,
                    SchemeKind::Adaptive,
                    Some(policy),
                    Some(&pipe.scaler),
                    &reward,
                    Some(eval.1),
                )
            })
        };
        let by_fleet_policy = stream(rec, &mut fleet_policy);
        let by_static_policy = stream(rec, &mut pipe.policy);

        let probe_windows = eval.0.cohorts[eval.1 as usize].total_windows();
        check_stream("fleet-trained policy", &by_fleet_policy, probe_windows)?;
        check_stream("static policy", &by_static_policy, probe_windows)?;
        let out = RepOutput {
            windows: EPOCHS as u64 * train.0.total_windows() + 2 * eval.0.total_windows(),
            digest: digest(&(
                &trained.curve,
                &trained.drops_per_epoch,
                fleet_policy.weights_le_bytes(),
                &by_fleet_policy,
                &by_static_policy,
            )),
            sim: SimValues {
                f1: Some(by_fleet_policy.f1()),
                delay_mean_ms: Some(by_fleet_policy.routed_mean_ms),
                reward_x100: Some(by_fleet_policy.mean_reward_x100),
                drop_share: Some(by_fleet_policy.missed as f64 / probe_windows as f64),
            },
        };
        self.des_events = by_fleet_policy.fleet.events + by_static_policy.fleet.events;
        self.p99_ms = by_fleet_policy.routed_p99_ms;
        Ok(out)
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, lib: &LibStats, out: &mut LayerValues) {
        let stream_ms = rec.busy_ms("core.stream");
        let streamed = 2.0 * self.eval.0.total_windows() as f64;
        out.set("data.generate.busy_ms", rec.busy_ms("data.generate"));
        out.set("anomaly.fit.busy_ms", rec.busy_ms("anomaly.fit"));
        out.set("anomaly.detect.busy_ms", rec.busy_ms("anomaly.detect"));
        out.set("bandit.train_static.busy_ms", rec.busy_ms("bandit.train_static"));
        out.set("core.stream.busy_ms", stream_ms);
        out.set("core.stream.ns_per_window", stream_ms * 1e6 / streamed);
        out.set("core.fleet_train.busy_ms", rec.busy_ms("core.fleet_train"));
        out.set(
            "core.fleet_train.epoch_ms",
            lib.total_ms("core.train_epoch") / lib.count("core.train_epoch").max(1) as f64,
        );
        // The engine is stepped window by window inside the two drivers,
        // so its host time is not separable from theirs: only counts.
        out.set("sim.des.events", self.des_events as f64);
        out.set("sim.delay_p99_ms", self.p99_ms);
    }
}
