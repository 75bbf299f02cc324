//! `trace_replay` — the canonical pipeline at the paper's 96-sample
//! window: CSV bytes → chunked parse → standardise → detect at all three
//! layers → sharded fleet replay under "Our Method" and Successive.
//!
//! Parse and detect do most of the work; the policy forward and the DES
//! are small. A rep is one 18 000-window segment (≈21 MB of CSV), not a
//! larger one-shot input: a one-shot 60 000-window parse swung
//! several-fold from rep to rep on page-fault time, a segment does not,
//! and the parser's memory blow-up still shows in `peak_rss_mb`.

use hec_core::parallel::{thread_count, with_thread_count};
use hec_core::replay::{replay_scenario, replay_trace_sharded};
use hec_core::stream::scheme_action_table;
use hec_core::SchemeKind;
use hec_data::ingest::{MissingValuePolicy, PowerCsvSource};
use hec_data::{amplify_corpus, PerturbConfig};

use super::{
    check_stream, digest, parallel_efficiency, univariate, LayerValues, LibStats, Pipeline,
    RepOutput, SimValues, Size, Workload,
};
use crate::inputs::{power_corpus, render_power_csv};
use crate::spans::Recorder;

const SHARDS: usize = 4;

pub struct TraceReplay {
    pipe: Pipeline,
    source: PowerCsvSource,
    /// The segment, rendered as CSV bytes.
    csv: String,
    /// Facts of the last rep that the per-layer rows need.
    des_events: u64,
    p99_ms: f64,
}

impl TraceReplay {
    pub fn build(seed: u64, size: Size, rec: &mut Recorder) -> Self {
        let (config, power) = univariate(size);
        // 600 days × 30 = 18 000 windows (900 at the small size).
        let amplify = match size {
            Size::Full => 30,
            Size::Small => 6,
        };
        let pipe = Pipeline::train(config, rec);
        let base = rec.span("data.generate", |_| power_corpus(&power, seed));
        let stream =
            rec.span("data.amplify", |_| amplify_corpus(&base, amplify, &PerturbConfig::default()));
        let csv = render_power_csv(&stream.windows, &stream.classes);
        let source =
            PowerCsvSource::new("segment.csv", power.samples_per_day, MissingValuePolicy::Reject);
        Self { pipe, source, csv, des_events: 0, p99_ms: 0.0 }
    }

    /// One newline-snapped byte range per worker, as `load_chunked` does.
    fn chunk_bytes(&self) -> usize {
        self.csv.len().div_ceil(thread_count()).max(64 * 1024)
    }
}

impl Workload for TraceReplay {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String> {
        let chunk_bytes = self.chunk_bytes();
        let Self { pipe, source, csv, .. } = self;
        let kind = pipe.exp.config().dataset.kind();
        let payload = pipe.exp.config().payload_bytes();
        let reward = pipe.reward();

        let parsed = rec
            .span("data.parse_chunked", |_| source.parse_chunked(csv.as_bytes(), chunk_bytes))
            .map_err(|e| format!("parse_chunked: {e}"))?;
        let standardized =
            rec.span("data.standardize", |_| pipe.exp.standardize_windows(&parsed.windows));
        let oracle = rec.span("anomaly.detect", |_| pipe.exp.oracle_over(&standardized));
        let scenario = replay_scenario(kind, payload, oracle.len() as u64);
        let adaptive = rec.span("core.replay", |_| {
            replay_trace_sharded(
                &scenario,
                &oracle,
                SchemeKind::Adaptive,
                Some(&mut pipe.policy),
                Some(&pipe.scaler),
                &reward,
                SHARDS,
            )
        });
        let successive = rec.span("core.replay", |_| {
            replay_trace_sharded(
                &scenario,
                &oracle,
                SchemeKind::Successive,
                None,
                None,
                &reward,
                SHARDS,
            )
        });
        if rec.enabled() {
            // The policy forward alone: the replay builds this table
            // first, so its time comes off the replay's self time.
            rec.span("bandit.greedy_batch", |_| {
                scheme_action_table(
                    &scenario,
                    &oracle,
                    SchemeKind::Adaptive,
                    Some(&mut pipe.policy),
                    Some(&pipe.scaler),
                )
            });
        }
        check_stream("adaptive replay", &adaptive, adaptive.fleet.emitted)?;
        check_stream("successive replay", &successive, successive.fleet.emitted)?;
        self.des_events = adaptive.fleet.events + successive.fleet.events;
        self.p99_ms = adaptive.routed_p99_ms;
        Ok(RepOutput {
            windows: parsed.len() as u64,
            digest: digest(&(&adaptive, &successive)),
            sim: SimValues {
                f1: Some(adaptive.f1()),
                delay_mean_ms: Some(adaptive.routed_mean_ms),
                reward_x100: Some(adaptive.mean_reward_x100),
                drop_share: Some(adaptive.fleet.dropped as f64 / adaptive.fleet.emitted as f64),
            },
        })
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, lib: &LibStats, out: &mut LayerValues) {
        // The parallel call (parse) and the bulk detect again, under one
        // worker.
        let workers = thread_count();
        let chunk_bytes = self.chunk_bytes();
        let Self { pipe, source, csv, .. } = self;
        let windows = with_thread_count(1, || {
            let parsed = rec
                .span("data.parse_chunked.t1", |_| {
                    source.parse_chunked(csv.as_bytes(), chunk_bytes)
                })
                .expect("the segment parsed in the traced rep");
            let standardized = pipe.exp.standardize_windows(&parsed.windows);
            rec.span("anomaly.detect.t1", |_| pipe.exp.oracle_over(&standardized));
            parsed.len() as f64
        });

        let parse_ms = rec.busy_ms("data.parse_chunked");
        let parse_t1 = rec.busy_ms("data.parse_chunked.t1");
        out.set("data.parse_chunked.busy_ms", parse_ms);
        out.set("data.parse_chunked.busy_ms_t1", parse_t1);
        out.set(
            "data.parse_chunked.parallel_efficiency",
            parallel_efficiency(parse_t1, parse_ms, workers),
        );
        out.set("data.parse_chunked.mb_per_s", csv.len() as f64 / 1e6 / (parse_ms / 1e3));
        out.set("data.parse_chunked.allocs", rec.allocs("data.parse_chunked") as f64);
        out.set("data.standardize.busy_ms", rec.busy_ms("data.standardize"));
        out.set("data.amplify.busy_ms", rec.busy_ms("data.amplify"));
        out.set("data.generate.busy_ms", rec.busy_ms("data.generate"));

        let detect_ms = rec.rep_busy_ms("anomaly.detect");
        let detect_t1 = rec.busy_ms("anomaly.detect.t1");
        out.set("anomaly.detect.busy_ms", rec.busy_ms("anomaly.detect"));
        out.set("anomaly.detect.busy_ms_t1", detect_t1);
        out.set(
            "anomaly.detect.parallel_efficiency",
            parallel_efficiency(detect_t1, detect_ms, workers),
        );
        out.set("anomaly.detect.ns_per_window", detect_ms * 1e6 / windows);
        out.set(
            "anomaly.detect.allocs_per_window",
            lib.total("alloc.anomaly.detect_batch") as f64 / windows,
        );
        out.set("anomaly.fit.busy_ms", rec.busy_ms("anomaly.fit"));
        out.set("bandit.train_static.busy_ms", rec.busy_ms("bandit.train_static"));

        let greedy_ms = rec.busy_ms("bandit.greedy_batch");
        out.set("bandit.greedy_batch.busy_ms", greedy_ms);
        out.set("bandit.greedy_batch.ns_per_window", greedy_ms * 1e6 / windows);

        let des_ms = lib.total_ms("core.fleet_run");
        let replay_ms = rec.busy_ms("core.replay");
        out.set("core.replay.busy_ms", replay_ms);
        out.set("core.replay.self_ms", replay_ms - greedy_ms - des_ms);
        out.set("sim.des.busy_ms", des_ms);
        out.set("sim.des.events", self.des_events as f64);
        out.set("sim.des.events_per_s", self.des_events as f64 / (des_ms / 1e3));
        out.set("sim.delay_p99_ms", self.p99_ms);
    }
}
