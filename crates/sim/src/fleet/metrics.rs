//! Metrics for fleet simulations: latency histograms, per-layer summaries
//! and the scenario report (text + CSV renderings).

use std::fmt::Write as _;

use hec_telemetry::GeomHist;

use crate::topology::HecTopology;

/// Why a window was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The layer's waiting line (or the device's local backlog) was full.
    QueueFull,
    /// The uplink's admission bound was reached.
    LinkSaturated,
}

/// Aggregate statistics for one layer of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Layer index (0 = IoT).
    pub layer: usize,
    /// Device name at this layer.
    pub name: String,
    /// Windows routed to this layer.
    pub offered: u64,
    /// Windows served to completion.
    pub served: u64,
    /// Windows dropped at the compute queue (or device backlog).
    pub dropped_queue: u64,
    /// Windows dropped at the uplink admission bound.
    pub dropped_link: u64,
    /// Fraction of offered windows dropped (0 when nothing was offered).
    pub drop_rate: f64,
    /// Busy-server-time over `servers × horizon`.
    pub utilization: f64,
    /// Admitted bits over link capacity × horizon (`None` for the local
    /// layer and for delay-only links, which cannot saturate).
    pub link_utilization: Option<f64>,
    /// Largest waiting-line depth observed.
    pub(crate) peak_queue_depth: usize,
    /// Largest concurrent uplink transfer count observed.
    pub(crate) peak_link_inflight: usize,
    /// End-to-end latency of served windows.
    pub mean_ms: f64,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Worst served latency, ms.
    pub(crate) max_ms: f64,
}

/// One queue-depth trace sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Virtual time of the sample, ms.
    pub t_ms: f64,
    /// Per-layer waiting/in-flight compute jobs (layer 0: device-local
    /// windows executing or backlogged).
    pub queue_depth: Vec<usize>,
    /// Per-layer concurrent uplink transfers (always 0 for layer 0).
    pub link_inflight: Vec<usize>,
}

/// The result of one fleet-scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// Virtual time of the last activity, ms.
    pub(crate) horizon_ms: f64,
    /// Discrete events processed by the engine.
    pub events: u64,
    /// Windows emitted by the fleet.
    pub emitted: u64,
    /// Windows served to completion.
    pub served: u64,
    /// Windows dropped (queue + link, all layers).
    pub dropped: u64,
    /// Per-layer summaries, bottom-up.
    pub layers: Vec<LayerSummary>,
    /// Latency over all served windows, mean ms.
    pub overall_mean_ms: f64,
    /// Latency over all served windows, p50 ms.
    pub overall_p50_ms: f64,
    /// Latency over all served windows, p99 ms.
    pub overall_p99_ms: f64,
    /// Periodic queue-depth samples.
    pub trace: Vec<TraceSample>,
}

/// One layer's raw counters, summed over the engines of a fleet.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerTotals {
    /// Servers at the layer: every device at layer 0, the engines'
    /// (partitioned) concurrencies above.
    pub servers: u64,
    pub offered: u64,
    pub served: u64,
    pub dropped_queue: u64,
    pub dropped_link: u64,
    pub busy_ms: f64,
    pub link_work_ms: f64,
    pub latency: GeomHist,
    pub peak_queue_depth: usize,
    pub peak_link_inflight: usize,
    pub has_link: bool,
}

/// The raw totals of a fleet run — one engine's, or the sum over a
/// plan's shards in stable shard order (`FleetEngine::add_to`) — and the
/// only place a [`FleetReport`] is assembled from them.
#[derive(Debug, Clone)]
pub(crate) struct FleetTotals {
    /// Engines summed (1 for the serial engine).
    pub engines: usize,
    /// Latest activity time among the engines, ms.
    pub horizon_ms: f64,
    pub events: u64,
    pub emitted: u64,
    pub layers: Vec<LayerTotals>,
}

impl FleetTotals {
    /// Empty totals for a `num_layers`-layer hierarchy.
    pub(crate) fn new(num_layers: usize) -> Self {
        Self {
            engines: 0,
            horizon_ms: 0.0,
            events: 0,
            emitted: 0,
            layers: vec![LayerTotals::default(); num_layers],
        }
    }

    /// Latency over all served windows: the layers' histograms merged
    /// bottom-up.
    pub(crate) fn overall_latency(&self) -> GeomHist {
        let mut overall = GeomHist::new();
        for layer in &self.layers {
            overall.merge(&layer.latency);
        }
        overall
    }

    /// Renders the report. Utilizations are taken against the aggregate
    /// capacity: each engine's link carries `1/engines` of the bandwidth,
    /// so links at work `w_s` each run at `Σw_s / (engines × horizon)`.
    /// For one engine every sum, merge and division here is exact, so a
    /// one-shard plan reports the serial engine's bytes.
    pub(crate) fn report(
        &self,
        scenario: &str,
        topology: &HecTopology,
        trace: Vec<TraceSample>,
    ) -> FleetReport {
        let horizon = self.horizon_ms.max(1e-9);
        let overall = self.overall_latency();
        let layers: Vec<LayerSummary> = self
            .layers
            .iter()
            .enumerate()
            .map(|(l, t)| LayerSummary {
                layer: l,
                name: topology.layers()[l].device.name.clone(),
                offered: t.offered,
                served: t.served,
                dropped_queue: t.dropped_queue,
                dropped_link: t.dropped_link,
                drop_rate: if t.offered == 0 {
                    0.0
                } else {
                    (t.dropped_queue + t.dropped_link) as f64 / t.offered as f64
                },
                utilization: t.busy_ms / (t.servers.max(1) as f64 * horizon),
                link_utilization: t
                    .has_link
                    .then(|| t.link_work_ms / (self.engines as f64 * horizon)),
                peak_queue_depth: t.peak_queue_depth,
                peak_link_inflight: t.peak_link_inflight,
                mean_ms: t.latency.mean(),
                p50_ms: t.latency.quantile(0.50),
                p99_ms: t.latency.quantile(0.99),
                max_ms: t.latency.max(),
            })
            .collect();
        FleetReport {
            scenario: scenario.to_owned(),
            horizon_ms: self.horizon_ms,
            events: self.events,
            emitted: self.emitted,
            served: layers.iter().map(|l| l.served).sum(),
            dropped: layers.iter().map(|l| l.dropped_queue + l.dropped_link).sum(),
            layers,
            overall_mean_ms: overall.mean(),
            overall_p50_ms: overall.quantile(0.50),
            overall_p99_ms: overall.quantile(0.99),
            trace,
        }
    }
}

impl FleetReport {
    /// Renders the report as a fixed-format text block (byte-stable for a
    /// given simulation outcome, so reruns can be `diff`ed).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {}: {} emitted, {} served, {} dropped over {:.1} ms virtual ({} events)",
            self.scenario, self.emitted, self.served, self.dropped, self.horizon_ms, self.events
        );
        let _ = writeln!(
            out,
            "  overall latency: mean={:.2} ms  p50={:.2} ms  p99={:.2} ms",
            self.overall_mean_ms, self.overall_p50_ms, self.overall_p99_ms
        );
        for l in &self.layers {
            let link = match l.link_utilization {
                Some(u) => format!("  link_util={:.3} peak_inflight={}", u, l.peak_link_inflight),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  L{} {:<18} offered={:<9} served={:<9} drop_rate={:.4} util={:.3} \
                 peak_q={:<6} mean={:.2} p50={:.2} p99={:.2} max={:.2} ms{}",
                l.layer,
                l.name,
                l.offered,
                l.served,
                l.drop_rate,
                l.utilization,
                l.peak_queue_depth,
                l.mean_ms,
                l.p50_ms,
                l.p99_ms,
                l.max_ms,
                link
            );
        }
        out
    }

    /// Per-layer results as CSV (vendored serde derives are no-ops, so the
    /// rows are emitted manually).
    pub fn layers_csv(&self) -> String {
        let mut out = String::from(
            "scenario,layer,name,offered,served,dropped_queue,dropped_link,drop_rate,\
             utilization,link_utilization,peak_queue_depth,peak_link_inflight,\
             mean_ms,p50_ms,p99_ms,max_ms\n",
        );
        for l in &self.layers {
            let link_util =
                l.link_utilization.map(|u| format!("{u:.6}")).unwrap_or_else(|| "".into());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{:.6},{:.6},{},{},{},{:.3},{:.3},{:.3},{:.3}",
                self.scenario,
                l.layer,
                l.name,
                l.offered,
                l.served,
                l.dropped_queue,
                l.dropped_link,
                l.drop_rate,
                l.utilization,
                link_util,
                l.peak_queue_depth,
                l.peak_link_inflight,
                l.mean_ms,
                l.p50_ms,
                l.p99_ms,
                l.max_ms
            );
        }
        out
    }

    /// Queue-depth trace as CSV: one row per sample, one depth and one
    /// in-flight column per layer.
    pub fn trace_csv(&self) -> String {
        let layers = self.layers.len();
        let mut out = String::from("t_ms");
        for l in 0..layers {
            let _ = write!(out, ",q{l}");
        }
        for l in 0..layers {
            let _ = write!(out, ",link{l}");
        }
        out.push('\n');
        for s in &self.trace {
            let _ = write!(out, "{:.3}", s.t_ms);
            for l in 0..layers {
                let _ = write!(out, ",{}", s.queue_depth.get(l).copied().unwrap_or(0));
            }
            for l in 0..layers {
                let _ = write!(out, ",{}", s.link_inflight.get(l).copied().unwrap_or(0));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram unit tests moved to `hec-telemetry` with the
    // implementation; what stays here exercises the report renderings.

    fn report() -> FleetReport {
        FleetReport {
            scenario: "unit".into(),
            horizon_ms: 1000.0,
            events: 10,
            emitted: 5,
            served: 4,
            dropped: 1,
            layers: vec![LayerSummary {
                layer: 0,
                name: "Pi".into(),
                offered: 5,
                served: 4,
                dropped_queue: 1,
                dropped_link: 0,
                drop_rate: 0.2,
                utilization: 0.5,
                link_utilization: None,
                peak_queue_depth: 3,
                peak_link_inflight: 0,
                mean_ms: 12.4,
                p50_ms: 12.0,
                p99_ms: 13.0,
                max_ms: 14.0,
            }],
            overall_mean_ms: 12.4,
            overall_p50_ms: 12.0,
            overall_p99_ms: 13.0,
            trace: vec![TraceSample { t_ms: 0.0, queue_depth: vec![2], link_inflight: vec![0] }],
        }
    }

    #[test]
    fn renderings_are_stable() {
        let r = report();
        assert_eq!(r.to_text(), r.to_text());
        assert!(r.to_text().contains("drop_rate=0.2000"));
        let csv = r.layers_csv();
        assert!(csv.starts_with("scenario,layer"));
        assert_eq!(csv.lines().count(), 2);
        let trace = r.trace_csv();
        assert_eq!(trace.lines().next().unwrap(), "t_ms,q0,link0");
        assert_eq!(trace.lines().count(), 2);
    }
}
