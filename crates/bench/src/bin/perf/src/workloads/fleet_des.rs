//! `fleet_des` — the four named fleet scenarios through the sharded
//! discrete-event engine: event loop, processor-sharing links, shard
//! barriers and merge do all the work. Ingest, detectors and policy are
//! bypassed, so a gain claimed for those layers must read "no change"
//! here. One rep covers a drop-free, a queue-saturated, a link-saturated
//! and a bursty regime.

use hec_core::parallel::{thread_count, with_thread_count};
use hec_core::{run_scenario_sharded, ShardedFleetRun};
use hec_sim::fleet::{FleetScale, FleetScenario};

use super::{
    digest, parallel_efficiency, LayerValues, LibStats, RepOutput, SimValues, Size, Workload,
};
use crate::spans::Recorder;

const SHARDS: usize = 4;

pub struct FleetDes {
    scenarios: Vec<FleetScenario>,
    last: Vec<ShardedFleetRun>,
}

impl FleetDes {
    pub fn build(seed: u64, size: Size) -> Self {
        // Full-scale scenarios have 100k+ devices × 10 windows; the
        // factor keeps every offered-load rate. Half scale (2.05 M windows
        // a rep) keeps a rep near a third of a second.
        let factor = match size {
            Size::Full => 0.5,
            Size::Small => 0.025,
        };
        let scenarios = FleetScenario::NAMES
            .iter()
            .map(|name| {
                let mut sc = FleetScenario::by_name(name, FleetScale::Full)
                    .expect("NAMES lists the named scenarios");
                sc.scale_fleet(factor);
                sc.seed = seed;
                sc
            })
            .collect();
        Self { scenarios, last: Vec::new() }
    }
}

impl Workload for FleetDes {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutput, String> {
        let mut runs = Vec::with_capacity(self.scenarios.len());
        for sc in &self.scenarios {
            let run = rec
                .span("scenario", |rec| rec.span("sim.des", |_| run_scenario_sharded(sc, SHARDS)));
            let r = &run.report;
            if r.emitted != sc.total_windows() || r.emitted != r.served + r.dropped {
                return Err(format!(
                    "{}: emitted {} of {} windows, served {} + dropped {}",
                    sc.name,
                    r.emitted,
                    sc.total_windows(),
                    r.served,
                    r.dropped
                ));
            }
            if run.shard_events.iter().sum::<u64>() != r.events {
                return Err(format!("{}: shard event counts do not sum to the total", sc.name));
            }
            runs.push(run);
        }
        let sum = |f: fn(&ShardedFleetRun) -> f64| runs.iter().map(f).sum::<f64>();
        let emitted = sum(|r| r.report.emitted as f64);
        let served = sum(|r| r.report.served as f64);
        let out = RepOutput {
            windows: emitted as u64,
            digest: digest(&runs),
            sim: SimValues {
                delay_mean_ms: Some(
                    sum(|r| r.report.overall_mean_ms * r.report.served as f64) / served,
                ),
                drop_share: Some(sum(|r| r.report.dropped as f64) / emitted),
                ..SimValues::default()
            },
        };
        self.last = runs;
        Ok(out)
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, lib: &LibStats, out: &mut LayerValues) {
        let workers = thread_count();
        with_thread_count(1, || {
            for sc in &self.scenarios {
                rec.span("sim.des.t1", |_| run_scenario_sharded(sc, SHARDS));
            }
        });
        let des_ms = rec.busy_ms("sim.des");
        let des_t1 = rec.busy_ms("sim.des.t1");
        let events: u64 = self.last.iter().map(|r| r.report.events).sum();
        // Worst scenario: how far the busiest shard runs ahead of the mean.
        let skew = self
            .last
            .iter()
            .map(|r| {
                let max = *r.shard_events.iter().max().expect("at least one shard") as f64;
                max * r.shard_events.len() as f64 / r.report.events as f64
            })
            .fold(0.0, f64::max);
        out.set("sim.des.busy_ms", des_ms);
        out.set("sim.des.busy_ms_t1", des_t1);
        out.set("sim.des.parallel_efficiency", parallel_efficiency(des_t1, des_ms, workers));
        out.set("sim.des.events", events as f64);
        out.set("sim.des.events_per_s", events as f64 / (des_ms / 1e3));
        out.set("sim.des.barriers", lib.counter_sum("fleet.shard.barriers") as f64);
        out.set("sim.des.stall_windows", lib.counter_sum("fleet.shard.stall_windows") as f64);
        out.set("sim.des.shard_event_skew", skew);
        out.set(
            "sim.delay_p99_ms",
            self.last.iter().map(|r| r.report.overall_p99_ms).fold(0.0, f64::max),
        );
    }
}
