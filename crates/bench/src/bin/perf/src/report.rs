//! Rendering of a run's [`Record`]: the `workload metric value unit`
//! lines, the one-line result the benchmark driver reads, and the JSON
//! record `--out` stores and `--compare` reads back.

use std::fmt::Write as _;

use crate::json::Value;
use crate::names::PER_LAYER;
use crate::run::Record;

/// A host-time value divided by the calibration kernel's time (for a
/// rate: work per kernel time), so rows from different hosts compare.
fn calibrated(value: f64, unit: &str, calib_ns: f64) -> Option<f64> {
    let ns = match unit {
        "s" => 1e9,
        "ms" => 1e6,
        "us" => 1e3,
        "ns" => 1.0,
        "windows/s" => return Some(value * calib_ns / 1e9),
        _ => return None,
    };
    Some(value * ns / calib_ns)
}

/// One `workload metric value unit` line per metric, with quartiles and
/// sample count where the run has more than one sample, and the
/// calibrated ratio beside every host-time number.
pub fn lines(record: &Record) -> String {
    let mut out = String::new();
    let w = &record.workload;
    let _ = writeln!(
        out,
        "{w} # seed={} threads={} nproc={} tensor.gemm_calib.ns={:.0} digest={:016x}",
        record.seed, record.threads, record.nproc, record.calib_ns, record.digest
    );
    for m in &record.metrics {
        // End-to-end times and rates are host time; a per-layer row says.
        let host_time = PER_LAYER.iter().find(|p| p.name == m.name).is_none_or(|p| p.host_time);
        let s = &m.summary;
        let _ = write!(out, "{w} {} {:.6} {}", m.name, s.value, m.unit);
        if s.n > 1 {
            // A handful of samples supports quartiles, not a tail percentile.
            let _ = write!(out, "  (q1 {:.6}, q3 {:.6}, n={})", s.q1, s.q3, s.n);
        }
        let ratio = calibrated(s.value, m.unit, record.calib_ns);
        if let Some(ratio) = ratio.filter(|_| host_time && s.value != 0.0) {
            let _ = write!(out, "  [/calib {ratio:.4}]");
        }
        out.push('\n');
    }
    let sim = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let _ = writeln!(
        out,
        "{w} # sim_f1={} sim_delay_mean_ms={} sim_reward_x100={} sim_drop_share={}",
        sim(record.sim.f1),
        sim(record.sim.delay_mean_ms),
        sim(record.sim.reward_x100),
        sim(record.sim.drop_share)
    );
    let _ =
        writeln!(out, "{w} # operations attempted={} failed={}", record.attempted, record.failed);
    out
}

/// The last line of a single-workload run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn driver_line(record: &Record) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in record.metrics.iter().enumerate() {
        if !m.summary.value.is_finite() {
            return Err(format!("{} {} is not finite", record.workload, m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.summary.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        record.correct(),
        record.attempted,
        record.failed
    ))
}

/// The record as a JSON value, as `--out` stores it.
pub fn to_value(record: &Record) -> Value {
    let num = |v: f64| if v.is_finite() { Value::Num(v) } else { Value::Null };
    let opt = |v: Option<f64>| v.map_or(Value::Null, num);
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let metrics = record
        .metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            let fields = vec![
                ("value", num(s.value)),
                ("q1", num(s.q1)),
                ("q3", num(s.q3)),
                ("n", Value::Num(s.n as f64)),
                ("unit", Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), obj(fields))
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(record.workload.clone())),
        ("seed", Value::Num(record.seed as f64)),
        ("trace", Value::Num(record.trace as u8 as f64)),
        ("threads", Value::Num(record.threads as f64)),
        ("nproc", Value::Num(record.nproc as f64)),
        ("tensor.gemm_calib.ns", num(record.calib_ns)),
        ("attempted", Value::Num(record.attempted as f64)),
        ("failed", Value::Num(record.failed as f64)),
        ("digest", Value::Str(format!("{:016x}", record.digest))),
        (
            "sim",
            obj(vec![
                ("sim_f1", opt(record.sim.f1)),
                ("sim_delay_mean_ms", opt(record.sim.delay_mean_ms)),
                ("sim_reward_x100", opt(record.sim.reward_x100)),
                ("sim_drop_share", opt(record.sim.drop_share)),
            ]),
        ),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The `--out` document over a set of records.
pub fn document(records: Vec<Value>) -> String {
    let doc = Value::Obj(vec![
        ("bench".to_string(), Value::Str("perf".to_string())),
        ("records".to_string(), Value::Arr(records)),
    ]);
    let mut text = doc.render();
    text.push('\n');
    text
}
