//! `drift_adapt` — `run_adaptive_stream`, frozen then adaptive, over a
//! univariate stream with a step regime change near its midpoint. With
//! 50-window chunks a pass is hundreds of short engine lifetimes and
//! fifty-window `detect_batch` calls, a recalibration, and a policy
//! refresh per chunk: a DES change that speeds the loop but makes engine
//! construction heavier, or a detector change that wins at 18 000-window
//! batches and loses at 50, gains on another workload and loses here.
//!
//! The adaptive pass mutates the pipeline and `Experiment` is not
//! `Clone`, so the pipeline is retrained from the same configuration,
//! untimed, before every rep after the first.

use hec_bandit::{PolicyTrainer, TrainConfig};
use hec_core::{run_adaptive_stream, AdaptConfig, AdaptReport, Experiment, ExperimentConfig};
use hec_data::{
    amplify_corpus, DriftKind, DriftSchedule, LabeledWindow, OnlineStandardizer, PerturbConfig,
};

use super::{
    digest, univariate, LayerValues, LibStats, Pipeline, RepOutput, SimValues, Size, Workload,
};
use crate::inputs::power_corpus;
use crate::spans::Recorder;

pub struct DriftAdapt {
    config: ExperimentConfig,
    /// `None` once a rep has consumed (and mutated) the pipeline.
    fresh: Option<Pipeline>,
    /// What the last rep left behind: the (mutated) experiment, for the
    /// lone recalibration call of the traced run, and the two reports.
    last: Option<(Experiment, AdaptReport, AdaptReport)>,
    stream: Vec<LabeledWindow>,
    chunk: usize,
    shards: usize,
    onset_chunk: usize,
}

impl DriftAdapt {
    pub fn build(seed: u64, size: Size, rec: &mut Recorder) -> Self {
        let (config, power) = univariate(size);
        // 600 days × 5 = 3 000 windows in 60 chunks (450 in 18 at the
        // small size): retraining between reps costs more than a rep, so
        // a short stream buys more reps per run.
        let (amplify, chunk, shards) = match size {
            Size::Full => (5, 50, 4),
            Size::Small => (3, 25, 2),
        };
        let fresh = Pipeline::train(config.clone(), rec);
        let base = rec.span("data.generate", |_| power_corpus(&power, seed));
        let amplified =
            rec.span("data.amplify", |_| amplify_corpus(&base, amplify, &PerturbConfig::default()));
        let mut moments = OnlineStandardizer::new(1);
        for w in &amplified.windows {
            moments.update(&w.data);
        }
        let sigma = moments.freeze().std()[0];
        // The seed moves the onset a few chunks around the midpoint.
        let onset_chunk = amplified.len() / chunk / 2 + (seed % 7) as usize - 3;
        let drift = DriftSchedule {
            kind: DriftKind::Step,
            onset: onset_chunk * chunk,
            level: 1.5 * sigma,
            scale: 0.2,
        };
        Self {
            config,
            fresh: Some(fresh),
            last: None,
            stream: drift.apply(&amplified).windows,
            chunk,
            shards,
            onset_chunk,
        }
    }
}

impl Workload for DriftAdapt {
    fn before_rep(&mut self) {
        if self.fresh.is_none() {
            self.fresh = Some(Pipeline::train(self.config.clone(), &mut Recorder::new(false)));
        }
    }

    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String> {
        let Pipeline { mut exp, policy, scaler, .. } =
            self.fresh.take().ok_or("drift_adapt: no fresh pipeline (before_rep not run)")?;
        // The continual trainer of `repro_drift`.
        let mut trainer = PolicyTrainer::new(
            policy,
            TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
        );
        let stream = &self.stream;
        let mut pass = |rec: &mut Recorder, name, config: AdaptConfig| {
            rec.span("pass", |rec| {
                rec.span(name, |_| {
                    run_adaptive_stream(&mut exp, &mut trainer, &scaler, stream, &config)
                })
            })
        };
        let frozen = pass(rec, "core.adapt.frozen", AdaptConfig::frozen(self.chunk, self.shards));
        let adaptive =
            pass(rec, "core.adapt.adaptive", AdaptConfig::adaptive(self.chunk, self.shards));
        for report in [&frozen, &adaptive] {
            let chunked: usize = report.chunks.iter().map(|c| c.windows).sum();
            if report.total_windows != stream.len() || chunked != stream.len() {
                return Err(format!(
                    "{} pass: {} windows in {} chunked, of {} streamed",
                    report.label,
                    report.total_windows,
                    chunked,
                    stream.len()
                ));
            }
        }
        let recovery = adaptive.recovery(self.onset_chunk, 0.05);
        let out = RepOutput {
            windows: 2 * stream.len() as u64,
            digest: digest(&(&frozen, &adaptive)),
            sim: SimValues {
                f1: Some(recovery.post_f1),
                reward_x100: Some(recovery.post_reward_x100),
                ..SimValues::default()
            },
        };
        self.last = Some((exp, frozen, adaptive));
        Ok(out)
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, lib: &LibStats, out: &mut LayerValues) {
        let Some((exp, frozen, adaptive)) = self.last.as_mut() else {
            return;
        };
        // One recalibration alone, on a chunk-sized sample of normal
        // windows in the detectors' space.
        let normals: Vec<LabeledWindow> =
            self.stream.iter().filter(|w| !w.anomalous).take(self.chunk).cloned().collect();
        let sample = exp.standardize_windows(&normals);
        let _ = rec.span("anomaly.recalibrate", |_| exp.recalibrate_detectors(&sample));

        let frozen_ms = rec.busy_ms("core.adapt.frozen");
        let adaptive_ms = rec.busy_ms("core.adapt.adaptive");
        let chunks = (frozen.chunks.len() + adaptive.chunks.len()) as f64;
        let detected = 2.0 * self.stream.len() as f64;
        let detect_ms = lib.total_ms("anomaly.detect_batch");
        let des_ms = lib.total_ms("core.fleet_run");
        out.set("data.generate.busy_ms", rec.busy_ms("data.generate"));
        out.set("data.amplify.busy_ms", rec.busy_ms("data.amplify"));
        out.set("anomaly.fit.busy_ms", rec.busy_ms("anomaly.fit"));
        out.set("bandit.train_static.busy_ms", rec.busy_ms("bandit.train_static"));
        // Detection and the DES run inside `run_adaptive_stream`: their
        // time is the in-library span totals of the traced rep.
        out.set("anomaly.detect.busy_ms", detect_ms);
        out.set("anomaly.detect.ns_per_window", detect_ms * 1e6 / detected);
        out.set(
            "anomaly.detect.allocs_per_window",
            lib.total("alloc.anomaly.detect_batch") as f64 / detected,
        );
        out.set("anomaly.recalibrate.busy_ms", rec.busy_ms("anomaly.recalibrate"));
        out.set("core.replay.busy_ms", lib.total_ms("core.replay"));
        out.set("core.replay.self_ms", lib.total_ms("core.replay") - des_ms);
        out.set("sim.des.busy_ms", des_ms);
        out.set("core.adapt.frozen_ms", frozen_ms);
        out.set("core.adapt.adaptive_ms", adaptive_ms);
        out.set("core.adapt.us_per_chunk", (frozen_ms + adaptive_ms) * 1e3 / chunks);
        out.set("core.adapt.chunks", chunks);
        out.set("core.adapt.detections", adaptive.detections.len() as f64);
        out.set("core.adapt.refreshes", adaptive.refreshes.len() as f64);
    }
}
