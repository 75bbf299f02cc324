//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `/BENCHMARK.json` declares the same sets; a test
//! below holds the two together, both ways.

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it a regression.
    pub bound: f64,
}

/// A per-layer metric, from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Host time: also printed divided by `tensor.gemm_calib.ns`.
    pub host_time: bool,
}

pub const WORKLOADS: [&str; 5] =
    ["trace_replay", "fleet_des", "offline_train", "fleet_train", "drift_adapt"];

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "windows_per_s", unit: "windows/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.25 },
];

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, host_time: true }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, host_time: false }
}

pub const PER_LAYER: [PerLayer; 54] = [
    host("data.parse_chunked.busy_ms", "ms"),
    host("data.parse_chunked.busy_ms_t1", "ms"),
    exact("data.parse_chunked.parallel_efficiency", "ratio"),
    exact("data.parse_chunked.mb_per_s", "MB/s"),
    exact("data.parse_chunked.allocs", "count"),
    host("data.standardize.busy_ms", "ms"),
    host("data.amplify.busy_ms", "ms"),
    host("data.generate.busy_ms", "ms"),
    host("anomaly.detect.busy_ms", "ms"),
    host("anomaly.detect.busy_ms_t1", "ms"),
    exact("anomaly.detect.parallel_efficiency", "ratio"),
    host("anomaly.detect.ns_per_window", "ns"),
    exact("anomaly.detect.allocs_per_window", "count"),
    host("anomaly.fit.busy_ms", "ms"),
    host("anomaly.recalibrate.busy_ms", "ms"),
    host("nn.train_batch.busy_ms", "ms"),
    exact("nn.train_batch.count", "count"),
    exact("tensor.gemm.f32_calls", "count"),
    exact("tensor.gemm.i8_calls", "count"),
    exact("tensor.gemm_calib.ns", "ns"),
    host("bandit.greedy_batch.busy_ms", "ms"),
    host("bandit.greedy_batch.ns_per_window", "ns"),
    host("bandit.train_static.busy_ms", "ms"),
    host("sim.des.busy_ms", "ms"),
    host("sim.des.busy_ms_t1", "ms"),
    exact("sim.des.parallel_efficiency", "ratio"),
    exact("sim.des.events", "count"),
    exact("sim.des.events_per_s", "1/s"),
    exact("sim.des.barriers", "count"),
    exact("sim.des.stall_windows", "count"),
    exact("sim.des.shard_event_skew", "ratio"),
    exact("sim.des.runs", "count"),
    host("sim.des.us_per_run", "us"),
    exact("sim.delay_mean_ms", "ms"),
    exact("sim.delay_p99_ms", "ms"),
    exact("sim.drop_share", "ratio"),
    host("core.replay.busy_ms", "ms"),
    host("core.replay.self_ms", "ms"),
    host("core.stream.busy_ms", "ms"),
    host("core.stream.ns_per_window", "ns"),
    host("core.fleet_train.busy_ms", "ms"),
    host("core.fleet_train.epoch_ms", "ms"),
    host("core.adapt.frozen_ms", "ms"),
    host("core.adapt.adaptive_ms", "ms"),
    host("core.adapt.us_per_chunk", "us"),
    exact("core.adapt.chunks", "count"),
    exact("core.adapt.detections", "count"),
    exact("core.adapt.refreshes", "count"),
    host("core.table2.busy_ms", "ms"),
    exact("core.sim_f1", "ratio"),
    exact("core.sim_reward_x100", "ratio"),
    host("telemetry.rep_wall_ms", "ms"),
    exact("telemetry.span_residual_share", "ratio"),
    exact("telemetry.trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(well_formed(name), "{name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?} is outside the contract"
            );
        }
    }

    #[test]
    fn printed_names_equal_the_names_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str, field: &str| -> BTreeSet<(String, String)> {
            doc.get(key)
                .expect("section present")
                .as_arr()
                .iter()
                .map(|m| {
                    let get = |f: &str| m.get(f).and_then(json::Value::as_str).unwrap_or("");
                    (get("name").to_string(), get(field).to_string())
                })
                .collect()
        };
        let printed_workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        let declared_workloads: BTreeSet<String> =
            declared("workloads", "name").into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed_workloads, declared_workloads);

        let printed: BTreeSet<(String, String)> =
            END_TO_END.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
        assert_eq!(printed, declared("end_to_end", "unit"));
        for m in &END_TO_END {
            let entry = doc
                .get("end_to_end")
                .unwrap()
                .as_arr()
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(m.name))
                .unwrap();
            assert_eq!(entry.get("bound").and_then(json::Value::as_f64), Some(m.bound));
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(json::Value::as_str), Some(better));
        }

        let printed: BTreeSet<(String, String)> =
            PER_LAYER.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
        assert_eq!(printed, declared("per_layer", "unit"));
    }
}
