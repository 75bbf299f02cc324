//! Deterministic metrics registry: counters, gauges and log-linear-bin
//! histograms keyed by a static metric name plus a sorted label set.
//!
//! The registry only ever holds *deterministic* quantities — event counts,
//! virtual-clock times, configuration facts. Wall-clock measurements and
//! allocator counts go through the sidecar store in [`crate::span`]
//! instead, so a registry snapshot is byte-identical across reruns and
//! `HEC_THREADS` settings (a CI-enforced repo invariant). Snapshot
//! entries render in `BTreeMap` order: sorted by metric name, then by the
//! sorted label set.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::GeomHist;
use crate::ENABLED;

/// A metric identity: static name + sorted `(key, value)` label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        // Sorted labels make the key independent of call-site order.
        labels.sort();
        Self { name, labels }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sorted label pairs.
    pub fn labels(&self) -> &[(&'static str, String)] {
        &self.labels
    }

    /// Renders as `name{k=v,k=v}` (bare `name` when unlabelled).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push('}');
        out
    }
}

/// A recorded metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic integer count.
    Counter(u64),
    /// Point-in-time float (last write wins on merge).
    Gauge(f64),
    /// Mergeable log-linear-bin distribution.
    Hist(GeomHist),
}

/// An instance-level registry (the global one is a `Mutex<Registry>`;
/// instances exist so merge semantics can be property-tested directly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    map: BTreeMap<MetricKey, MetricValue>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Self { map: BTreeMap::new() }
    }

    /// Adds `n` to a counter (created at zero on first touch). A key
    /// previously holding a different kind is replaced.
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        let e = self.map.entry(MetricKey::new(name, labels)).or_insert(MetricValue::Counter(0));
        match e {
            MetricValue::Counter(v) => *v += n,
            other => *other = MetricValue::Counter(n),
        }
    }

    /// Sets a counter to an absolute value (idempotent re-recording).
    pub fn counter_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        self.map.insert(MetricKey::new(name, labels), MetricValue::Counter(v));
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        self.map.insert(MetricKey::new(name, labels), MetricValue::Gauge(v));
    }

    /// Records one sample into a histogram (created empty on first touch).
    /// A key previously holding a different kind is replaced.
    pub fn hist_record(&mut self, name: &'static str, labels: &[(&'static str, &str)], x: f64) {
        let e = self
            .map
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| MetricValue::Hist(GeomHist::new()));
        match e {
            MetricValue::Hist(h) => h.record(x),
            other => {
                let mut h = GeomHist::new();
                h.record(x);
                *other = MetricValue::Hist(h);
            }
        }
    }

    /// Replaces a histogram wholesale (idempotent re-recording of an
    /// already-aggregated distribution).
    pub fn hist_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], h: &GeomHist) {
        self.map.insert(MetricKey::new(name, labels), MetricValue::Hist(h.clone()));
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge bin-wise, gauges take the incoming value (last write wins —
    /// gauge merging is therefore *not* commutative; counters and
    /// histograms are).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.map {
            match (self.map.get_mut(k), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Hist(a)), MetricValue::Hist(b)) => a.merge(b),
                (slot, incoming) => {
                    let incoming = incoming.clone();
                    match slot {
                        Some(s) => *s = incoming,
                        None => {
                            self.map.insert(k.clone(), incoming);
                        }
                    }
                }
            }
        }
    }

    /// Number of distinct metric keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Deterministically ordered snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { entries: self.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect() }
    }
}

/// A point-in-time copy of the registry, ordered by metric key, with
/// byte-stable text / CSV / NDJSON renderings.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    entries: Vec<(MetricKey, MetricValue)>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the vendored serde stub has no-op derives, so JSON is hand-rendered.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Ordered `(key, value)` entries.
    pub fn entries(&self) -> &[(MetricKey, MetricValue)] {
        &self.entries
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One `name{labels} = value` line per metric.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            let _ = match v {
                MetricValue::Counter(c) => writeln!(out, "{} = {c}", k.render()),
                MetricValue::Gauge(g) => writeln!(out, "{} = {g:.6}", k.render()),
                MetricValue::Hist(h) => writeln!(
                    out,
                    "{} = count={} min={:.3} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                    k.render(),
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ),
            };
        }
        out
    }

    /// CSV rendering: hist rows fill the distribution columns, counter
    /// and gauge rows leave them empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,labels,kind,value,min,mean,p50,p99,max\n");
        for (k, v) in &self.entries {
            let labels = k
                .labels()
                .iter()
                .map(|(lk, lv)| format!("{lk}={lv}"))
                .collect::<Vec<_>>()
                .join(";");
            let _ = match v {
                MetricValue::Counter(c) => {
                    writeln!(out, "{},{labels},counter,{c},,,,,", k.name())
                }
                MetricValue::Gauge(g) => {
                    writeln!(out, "{},{labels},gauge,{g:.6},,,,,", k.name())
                }
                MetricValue::Hist(h) => writeln!(
                    out,
                    "{},{labels},hist,{},{:.3},{:.3},{:.3},{:.3},{:.3}",
                    k.name(),
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ),
            };
        }
        out
    }

    /// NDJSON rendering: one JSON object per line, fields in fixed order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            let labels = k
                .labels()
                .iter()
                .map(|(lk, lv)| format!("\"{}\":\"{}\"", json_escape(lk), json_escape(lv)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = match v {
                MetricValue::Counter(c) => writeln!(
                    out,
                    "{{\"name\":\"{}\",\"labels\":{{{labels}}},\"kind\":\"counter\",\"value\":{c}}}",
                    json_escape(k.name())
                ),
                MetricValue::Gauge(g) => writeln!(
                    out,
                    "{{\"name\":\"{}\",\"labels\":{{{labels}}},\"kind\":\"gauge\",\"value\":{g:.6}}}",
                    json_escape(k.name())
                ),
                MetricValue::Hist(h) => writeln!(
                    out,
                    "{{\"name\":\"{}\",\"labels\":{{{labels}}},\"kind\":\"hist\",\"count\":{},\
                     \"min\":{:.3},\"mean\":{:.3},\"p50\":{:.3},\"p99\":{:.3},\"max\":{:.3}}}",
                    json_escape(k.name()),
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ),
            };
        }
        out
    }
}

static GLOBAL: Mutex<Registry> = Mutex::new(Registry::new());

fn with_global<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Adds `n` to a global counter. No-op when telemetry is disabled.
pub fn counter_add(name: &'static str, labels: &[(&'static str, &str)], n: u64) {
    if ENABLED {
        with_global(|r| r.counter_add(name, labels, n));
    }
}

/// Sets a global counter to an absolute value. No-op when disabled.
pub fn counter_set(name: &'static str, labels: &[(&'static str, &str)], v: u64) {
    if ENABLED {
        with_global(|r| r.counter_set(name, labels, v));
    }
}

/// Sets a global gauge. No-op when disabled. Only record *deterministic*
/// quantities (virtual-clock rates, counts) — wall-clock goes to the
/// sidecar.
pub fn gauge_set(name: &'static str, labels: &[(&'static str, &str)], v: f64) {
    if ENABLED {
        with_global(|r| r.gauge_set(name, labels, v));
    }
}

/// Records one sample into a global histogram. No-op when disabled.
pub fn hist_record(name: &'static str, labels: &[(&'static str, &str)], x: f64) {
    if ENABLED {
        with_global(|r| r.hist_record(name, labels, x));
    }
}

/// Replaces a global histogram with an already-aggregated one
/// (idempotent). No-op when disabled.
pub fn hist_set(name: &'static str, labels: &[(&'static str, &str)], h: &GeomHist) {
    if ENABLED {
        with_global(|r| r.hist_set(name, labels, h));
    }
}

/// Snapshots the global registry (empty when telemetry is disabled).
pub fn snapshot() -> Snapshot {
    with_global(|r| r.snapshot())
}

/// Clears the global registry (test isolation / per-run resets).
///
/// It does not touch a [`FastCounter`]: those are `static`s outside the
/// registry, and each keeps its running total since the process started.
/// A snapshot taken after [`FastCounter::publish`] in a second run in the
/// same process (for instance `tensor.gemm.f32_calls`, published by
/// `hec_tensor::kernel::publish_telemetry`) therefore reads both runs'
/// counts, not the second run's.
pub fn reset() {
    with_global(|r| *r = Registry::new());
}

/// A contention-free counter for hot paths: a static `Relaxed` atomic
/// that callers bump directly, published into the registry at snapshot
/// time via [`FastCounter::publish`]. `add` compiles to nothing when
/// telemetry is disabled.
pub struct FastCounter {
    name: &'static str,
    value: AtomicU64,
}

impl FastCounter {
    /// Creates a named fast counter (use in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Bumps the counter. No-op (compiled out) when telemetry is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if ENABLED {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Copies the current value into the global registry as a counter.
    pub fn publish(&self) {
        counter_set(self.name, &[], self.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_order_is_deterministic() {
        let mut a = Registry::new();
        a.counter_add("z.last", &[], 1);
        a.counter_add("a.first", &[("scenario", "x")], 2);
        a.counter_add("a.first", &[("scenario", "b")], 3);
        a.gauge_set("m.mid", &[], 0.5);

        let mut b = Registry::new();
        b.gauge_set("m.mid", &[], 0.5);
        b.counter_add("a.first", &[("scenario", "b")], 3);
        b.counter_add("z.last", &[], 1);
        b.counter_add("a.first", &[("scenario", "x")], 2);

        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        let text = a.snapshot().to_text();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("a.first{scenario=b}"), "{first}");
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut a = Registry::new();
        a.counter_add("c", &[("x", "1"), ("y", "2")], 1);
        a.counter_add("c", &[("y", "2"), ("x", "1")], 1);
        assert_eq!(a.len(), 1);
        assert!(a.snapshot().to_text().contains("c{x=1,y=2} = 2"));
    }

    #[test]
    fn merge_adds_counters_and_hists() {
        let mut a = Registry::new();
        a.counter_add("n", &[], 2);
        a.hist_record("h", &[], 10.0);
        let mut b = Registry::new();
        b.counter_add("n", &[], 3);
        b.hist_record("h", &[], 20.0);
        b.gauge_set("g", &[], 1.0);
        a.merge(&b);
        let text = a.snapshot().to_text();
        assert!(text.contains("n = 5"), "{text}");
        assert!(text.contains("count=2"), "{text}");
        assert!(text.contains("g = 1.000000"), "{text}");
    }

    #[test]
    fn renderings_are_parallel() {
        let mut r = Registry::new();
        r.counter_add("events", &[("scenario", "steady")], 7);
        r.gauge_set("rate", &[], 1.25);
        r.hist_record("lat", &[], 3.0);
        let s = r.snapshot();
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_text().lines().count(), 3);
        assert_eq!(s.to_csv().lines().count(), 4);
        assert_eq!(s.to_ndjson().lines().count(), 3);
        for line in s.to_ndjson().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn fast_counter_roundtrip() {
        static C: FastCounter = FastCounter::new("test.fast");
        C.add(2);
        C.add(3);
        if crate::ENABLED {
            assert_eq!(C.get(), 5);
        } else {
            assert_eq!(C.get(), 0);
        }
    }
}
