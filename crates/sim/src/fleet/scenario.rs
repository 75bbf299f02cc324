//! Named fleet scenarios: device cohorts, emission rates, routing plans
//! and queue/link bounds.
//!
//! Each scenario exists at two scales selected by [`FleetScale`]:
//! **Full** (hundreds of thousands of devices, ≥1M windows — the numbers
//! recorded in EXPERIMENTS.md) and **Quick** (the same *rates*, so the
//! same saturation behaviour, with 1/50 the devices and virtual horizon —
//! used by CI smoke jobs and tests). Scaling devices and period together
//! preserves every offered-load ratio, so Quick runs exhibit the same
//! qualitative queueing as Full runs.

use crate::topology::{DatasetKind, HecTopology};

use super::des::RouteCtx;

/// How a cohort's windows choose their execution layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutePlan {
    /// Every window executes at this layer.
    Fixed(usize),
    /// Windows split across layers 0..3 with these weights (normalised),
    /// chosen by a deterministic per-window hash — a stand-in for a
    /// trained policy's action distribution.
    Mixture([f64; 3]),
}

impl RoutePlan {
    /// The layer for window `seq` under this plan (deterministic).
    pub(crate) fn layer_for(&self, seed: u64, seq: u64) -> usize {
        self.cuts().pick(seed, seq)
    }

    /// The plan with a mixture's weights turned into cumulative
    /// thresholds: the sums and divisions `pick` would otherwise redo per
    /// window.
    fn cuts(&self) -> Cuts {
        match *self {
            RoutePlan::Fixed(layer) => Cuts::Fixed(layer),
            RoutePlan::Mixture(weights) => {
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                Cuts::Below(weights.map(|w| {
                    acc += w / total;
                    acc
                }))
            }
        }
    }
}

/// A [`RoutePlan`] ready to pick a layer per window.
#[derive(Debug, Clone, Copy)]
enum Cuts {
    /// Every window goes to this layer.
    Fixed(usize),
    /// A window goes to the first layer whose cumulative weight its hash
    /// falls below, and to the last if rounding leaves it above them all.
    Below([f64; 3]),
}

impl Cuts {
    /// The layer of window `seq`: the one routing rule of every
    /// scenario-planned window.
    #[inline]
    fn pick(&self, seed: u64, seq: u64) -> usize {
        match *self {
            Cuts::Fixed(layer) => layer,
            Cuts::Below(cuts) => {
                let u = splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64
                    / u64::MAX as f64;
                cuts.iter().position(|&cut| u < cut).unwrap_or(cuts.len() - 1)
            }
        }
    }
}

/// SplitMix64 finaliser — a stateless deterministic hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A group of devices emitting on a shared schedule.
///
/// Cohorts are heterogeneous: each may override the scenario's payload
/// size (different sensors upload different window shapes) and scale its
/// devices' local compute speed (a fleet mixes hardware generations).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSpec {
    /// Devices in the cohort.
    pub devices: u32,
    /// Windows each device emits.
    pub windows_per_device: u32,
    /// Per-device emission period, ms.
    pub period_ms: f64,
    /// Virtual time the cohort starts emitting, ms.
    pub start_ms: f64,
    /// Routing plan for the cohort's windows.
    pub route: RoutePlan,
    /// Bytes uploaded per window by this cohort's devices
    /// (`None` → the scenario-wide [`FleetScenario::payload_bytes`]).
    pub payload_bytes: Option<usize>,
    /// Relative local compute speed of this cohort's devices: the layer-0
    /// execution time is *divided* by this (1.0 = the testbed device,
    /// 0.5 = half as fast, 2.0 = twice as fast).
    pub local_speed: f64,
}

impl CohortSpec {
    /// A cohort of testbed-uniform devices (scenario payload, speed 1.0).
    pub fn uniform(
        devices: u32,
        windows_per_device: u32,
        period_ms: f64,
        start_ms: f64,
        route: RoutePlan,
    ) -> Self {
        Self {
            devices,
            windows_per_device,
            period_ms,
            start_ms,
            route,
            payload_bytes: None,
            local_speed: 1.0,
        }
    }

    /// Total windows this cohort emits.
    pub fn total_windows(&self) -> u64 {
        self.devices as u64 * self.windows_per_device as u64
    }

    /// This cohort's payload in bytes, given the scenario default.
    pub(crate) fn payload_or(&self, scenario_payload: usize) -> usize {
        self.payload_bytes.unwrap_or(scenario_payload)
    }

    /// Layer-0 execution time for this cohort's devices, given the
    /// testbed execution time.
    ///
    /// # Panics
    ///
    /// Panics if `local_speed` is not positive and finite.
    pub(crate) fn local_exec_ms(&self, testbed_exec_ms: f64) -> f64 {
        assert!(
            self.local_speed > 0.0 && self.local_speed.is_finite(),
            "local_speed must be positive and finite, got {}",
            self.local_speed
        );
        testbed_exec_ms / self.local_speed
    }
}

/// Scenario scale (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScale {
    /// 1/50-size fleet and horizon at identical rates: CI and tests.
    Quick,
    /// ≥100k devices, ≥1M windows: the recorded runs.
    Full,
}

impl FleetScale {
    /// Fleet-size and virtual-time divisor relative to [`FleetScale::
    /// Full`]. Dividing device counts *and* periods/start times by this
    /// preserves every offered-load rate, so Quick runs keep Full's
    /// saturation behaviour. Custom scenarios (e.g. the closed-loop
    /// scheme stream) must use this same divisor to stay calibrated.
    pub fn divisor(self) -> f64 {
        match self {
            FleetScale::Full => 1.0,
            FleetScale::Quick => 50.0,
        }
    }
}

/// A complete fleet-simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Scenario name (used in reports and CSV rows).
    pub name: String,
    /// Dataset family (sets execution times and default payloads).
    pub kind: DatasetKind,
    /// Bytes uploaded per window.
    pub payload_bytes: usize,
    /// Device cohorts (device ids are assigned contiguously in order).
    pub cohorts: Vec<CohortSpec>,
    /// Emission batching granularity: each cohort's devices are spread
    /// over this many phase buckets per period, and one event emits a
    /// whole bucket — the hot path schedules O(buckets) events per
    /// period instead of O(devices).
    pub emit_buckets: u32,
    /// Waiting-line bound per shared compute layer.
    pub queue_capacity: usize,
    /// Jobs a freed server dequeues together.
    pub batch_max: usize,
    /// Marginal batch cost (0 = free tag-alongs, 1 = no amortisation).
    pub(crate) batch_factor: f64,
    /// Admission bound on concurrent transfers per bandwidth-capped link.
    pub link_max_inflight: usize,
    /// A device drops a local window when its backlog exceeds this, ms.
    pub(crate) local_backlog_ms: f64,
    /// Override the edge uplink with a bandwidth cap, Mbit/s.
    pub(crate) edge_bandwidth_mbps: Option<f64>,
    /// Override the cloud uplink with a bandwidth cap, Mbit/s.
    pub cloud_bandwidth_mbps: Option<f64>,
    /// Queue-depth sampling interval, ms.
    pub trace_interval_ms: f64,
    /// Trace sample cap (sampling stops after this many).
    pub max_trace_samples: usize,
    /// Seed mixed into the routing hash.
    pub seed: u64,
}

impl FleetScenario {
    /// The four named scenarios, in presentation order.
    pub const NAMES: [&'static str; 4] =
        ["light_load", "edge_saturated", "cloud_link_constrained", "flash_crowd"];

    /// Looks a named scenario up (see [`FleetScenario::NAMES`]).
    pub fn by_name(name: &str, scale: FleetScale) -> Option<Self> {
        match name {
            "light_load" => Some(Self::light_load(scale)),
            "edge_saturated" => Some(Self::edge_saturated(scale)),
            "cloud_link_constrained" => Some(Self::cloud_link_constrained(scale)),
            "flash_crowd" => Some(Self::flash_crowd(scale)),
            _ => None,
        }
    }

    fn base(name: &str, scale: FleetScale) -> Self {
        Self {
            name: name.into(),
            kind: DatasetKind::Univariate,
            payload_bytes: 384,
            cohorts: Vec::new(),
            emit_buckets: 256,
            queue_capacity: 2000,
            batch_max: 8,
            batch_factor: 0.25,
            link_max_inflight: 4096,
            local_backlog_ms: 1000.0,
            edge_bandwidth_mbps: None,
            cloud_bandwidth_mbps: None,
            trace_interval_ms: match scale {
                FleetScale::Full => 2000.0,
                FleetScale::Quick => 50.0,
            },
            max_trace_samples: 2048,
            seed: 42,
        }
    }

    /// Divides fleet size and stretches of virtual time by the scale
    /// factor, preserving all rates.
    fn scale_div(scale: FleetScale) -> f64 {
        scale.divisor()
    }

    /// **light_load** — 100k devices each emitting every 120 s, mostly
    /// served locally. Every layer far below saturation: latencies sit at
    /// the unloaded Table II values and nothing drops.
    pub fn light_load(scale: FleetScale) -> Self {
        let s = Self::scale_div(scale);
        let mut sc = Self::base("light_load", scale);
        sc.cohorts.push(CohortSpec::uniform(
            (100_000.0 / s) as u32,
            10,
            120_000.0 / s,
            0.0,
            RoutePlan::Mixture([0.80, 0.12, 0.08]),
        ));
        sc
    }

    /// **edge_saturated** — the same fleet emitting twice as fast with
    /// 90 % of windows offloaded to the edge: ~2.8× the TX2's service
    /// capacity (no batching), so the edge queue fills, waits dominate
    /// p99 and the admission bound sheds most of the offered load.
    pub fn edge_saturated(scale: FleetScale) -> Self {
        let s = Self::scale_div(scale);
        let mut sc = Self::base("edge_saturated", scale);
        sc.batch_max = 1; // serve one-at-a-time: capacity 4/7.4 ms ≈ 540/s
        sc.cohorts.push(CohortSpec::uniform(
            (100_000.0 / s) as u32,
            10,
            60_000.0 / s,
            0.0,
            RoutePlan::Mixture([0.05, 0.90, 0.05]),
        ));
        sc
    }

    /// **cloud_link_constrained** — 75 % of windows head for the cloud
    /// over an uplink capped at 2 Mbit/s (~1.9× its capacity in offered
    /// bits): transfers pile up in the shared link until the in-flight
    /// bound sheds load, and cloud p99 is pure link contention (the
    /// Devbox itself stays nearly idle).
    pub fn cloud_link_constrained(scale: FleetScale) -> Self {
        let s = Self::scale_div(scale);
        let mut sc = Self::base("cloud_link_constrained", scale);
        sc.cloud_bandwidth_mbps = Some(2.0);
        sc.cohorts.push(CohortSpec::uniform(
            (100_000.0 / s) as u32,
            10,
            60_000.0 / s,
            0.0,
            RoutePlan::Mixture([0.15, 0.10, 0.75]),
        ));
        sc
    }

    /// **flash_crowd** — a light steady fleet joined at t = 300 s by a
    /// 60k-device burst emitting at 12× the steady per-device rate with
    /// an edge-heavy routing mix: queues spike for the burst's duration
    /// and drain afterwards, visible in the queue-depth trace.
    pub fn flash_crowd(scale: FleetScale) -> Self {
        let s = Self::scale_div(scale);
        let mut sc = Self::base("flash_crowd", scale);
        sc.batch_max = 4;
        sc.batch_factor = 0.5;
        sc.cohorts.push(CohortSpec::uniform(
            (50_000.0 / s) as u32,
            10,
            120_000.0 / s,
            0.0,
            RoutePlan::Mixture([0.70, 0.20, 0.10]),
        ));
        sc.cohorts.push(CohortSpec::uniform(
            (60_000.0 / s) as u32,
            10,
            10_000.0 / s,
            300_000.0 / s,
            RoutePlan::Mixture([0.10, 0.60, 0.30]),
        ));
        sc
    }

    /// Rescales the fleet in place by `factor`: every cohort's device
    /// count is multiplied by `factor` while its emission period and
    /// start time stretch by the same factor, so every offered-load
    /// *rate* (devices per period) is preserved — the same twin scaling
    /// that relates the Quick and Full scales, applied upward. The trace
    /// sampling interval stretches too, keeping the sample count roughly
    /// constant over the longer virtual horizon.
    ///
    /// Growing a scenario this way (e.g. `×10` to reach a million
    /// devices) keeps its saturation behaviour intact, which is what
    /// makes the sharded scale tier comparable to the recorded
    /// full-profile runs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_fleet(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite, got {factor}"
        );
        for c in &mut self.cohorts {
            c.devices = ((c.devices as f64 * factor).round() as u32).max(1);
            c.period_ms *= factor;
            c.start_ms *= factor;
        }
        self.trace_interval_ms *= factor;
    }

    /// Sets every cohort's per-device window count (the scale tier's
    /// `--windows` override: total windows = devices × this).
    ///
    /// # Panics
    ///
    /// Panics if `windows_per_device` is zero.
    pub fn set_windows_per_device(&mut self, windows_per_device: u32) {
        assert!(windows_per_device >= 1, "windows_per_device must be at least 1");
        for c in &mut self.cohorts {
            c.windows_per_device = windows_per_device;
        }
    }

    /// The layer window `seq` of `cohort` executes at under the
    /// scenario's **own** routing plan (deterministic). Custom routers
    /// that scheme-route only some cohorts fall back to this for the
    /// rest, so background load replays identically everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `cohort` is out of range.
    pub fn planned_layer(&self, cohort: u32, seq: u64) -> usize {
        self.cohorts[cohort as usize].route.layer_for(self.seed, seq)
    }

    /// A router that sends every window where [`FleetScenario::
    /// planned_layer`] does, with each cohort's plan prepared once instead
    /// of per window: the router of a run under the scenario's own plans.
    ///
    /// # Panics
    ///
    /// The router panics on a cohort out of range.
    pub fn planned_router(&self) -> impl Fn(&RouteCtx) -> usize + Send + Sync + 'static {
        let seed = self.seed;
        let cuts: Vec<Cuts> = self.cohorts.iter().map(|c| c.route.cuts()).collect();
        move |ctx: &RouteCtx| cuts[ctx.cohort as usize].pick(seed, ctx.seq)
    }

    /// Total devices across cohorts.
    pub fn total_devices(&self) -> u64 {
        self.cohorts.iter().map(|c| c.devices as u64).sum()
    }

    /// Total windows the fleet emits.
    pub fn total_windows(&self) -> u64 {
        self.cohorts.iter().map(CohortSpec::total_windows).sum()
    }

    /// The topology this scenario runs on: the paper testbed for
    /// [`FleetScenario::kind`] with any bandwidth overrides applied.
    pub fn topology(&self) -> HecTopology {
        let base = HecTopology::paper_testbed(self.kind);
        let mut layers = base.layers().to_vec();
        if let Some(mbps) = self.edge_bandwidth_mbps {
            layers[1].uplink = layers[1].uplink.clone().with_bandwidth(mbps);
        }
        if let Some(mbps) = self.cloud_bandwidth_mbps {
            layers[2].uplink = layers[2].uplink.clone().with_bandwidth(mbps);
        }
        HecTopology::new(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve_at_both_scales() {
        for name in FleetScenario::NAMES {
            for scale in [FleetScale::Quick, FleetScale::Full] {
                let sc = FleetScenario::by_name(name, scale).expect("named scenario");
                assert_eq!(sc.name, name);
                assert!(sc.total_windows() > 0);
            }
        }
        assert!(FleetScenario::by_name("nope", FleetScale::Quick).is_none());
    }

    #[test]
    fn full_scale_meets_the_acceptance_floor() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Full).unwrap();
            assert!(sc.total_devices() >= 100_000, "{name}: {} devices", sc.total_devices());
            assert!(sc.total_windows() >= 1_000_000, "{name}: {} windows", sc.total_windows());
        }
    }

    #[test]
    fn quick_scale_preserves_rates() {
        let full = FleetScenario::edge_saturated(FleetScale::Full);
        let quick = FleetScenario::edge_saturated(FleetScale::Quick);
        let rate = |sc: &FleetScenario| {
            let c = &sc.cohorts[0];
            c.devices as f64 / c.period_ms
        };
        assert!((rate(&full) - rate(&quick)).abs() / rate(&full) < 1e-9);
        assert!(quick.total_windows() < full.total_windows() / 10);
    }

    #[test]
    fn mixture_routing_is_deterministic_and_proportional() {
        let plan = RoutePlan::Mixture([0.6, 0.3, 0.1]);
        let mut counts = [0u32; 3];
        for seq in 0..30_000u64 {
            let a = plan.layer_for(42, seq);
            assert_eq!(a, plan.layer_for(42, seq), "same window, same layer");
            counts[a] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / 30_000.0;
        assert!((frac(0) - 0.6).abs() < 0.02, "{counts:?}");
        assert!((frac(1) - 0.3).abs() < 0.02, "{counts:?}");
        assert!((frac(2) - 0.1).abs() < 0.02, "{counts:?}");
    }

    /// The mixture rule as it was written before the thresholds were
    /// prepared once: cumulative weights summed per window.
    fn layer_per_window(weights: [f64; 3], seed: u64, seq: u64) -> usize {
        let total: f64 = weights.iter().sum();
        let u = splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64 / u64::MAX as f64;
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w / total;
            if u < acc {
                return i;
            }
        }
        weights.len() - 1
    }

    /// The prepared router, `planned_layer` and the per-window sums send
    /// every window to the same layer: every cohort of every named
    /// scenario, and weights whose cumulative sums round.
    #[test]
    fn planned_router_matches_planned_layer() {
        const SEQS: u64 = 100_000;
        let mut scenarios: Vec<FleetScenario> = FleetScenario::NAMES
            .iter()
            .map(|name| FleetScenario::by_name(name, FleetScale::Quick).unwrap())
            .collect();
        let mut inexact = FleetScenario::light_load(FleetScale::Quick);
        inexact.seed = 7;
        inexact.cohorts = [[0.1, 0.2, 0.7], [1.0, 1.0, 1.0], [0.3, 0.3, 0.4], [1e-3, 0.0, 2.0]]
            .map(|w| CohortSpec::uniform(10, 10, 1.0, 0.0, RoutePlan::Mixture(w)))
            .into();
        inexact.cohorts.push(CohortSpec::uniform(10, 10, 1.0, 0.0, RoutePlan::Fixed(2)));
        scenarios.push(inexact);
        for sc in &scenarios {
            let router = sc.planned_router();
            let (depth, links) = ([0usize; 3], [0usize; 3]);
            for (c, cohort) in sc.cohorts.iter().enumerate() {
                for seq in 0..SEQS {
                    let ctx = RouteCtx {
                        device: 0,
                        seq,
                        cohort: c as u32,
                        now_ms: 0.0,
                        queue_depth: &depth,
                        link_inflight: &links,
                    };
                    let planned = sc.planned_layer(c as u32, seq);
                    assert_eq!(router(&ctx), planned, "{} cohort {c} seq {seq}", sc.name);
                    let per_window = match cohort.route {
                        RoutePlan::Fixed(layer) => layer,
                        RoutePlan::Mixture(w) => layer_per_window(w, sc.seed, seq),
                    };
                    assert_eq!(planned, per_window, "{} cohort {c} seq {seq}", sc.name);
                }
            }
        }
    }

    #[test]
    fn fixed_routing_always_picks_the_layer() {
        let plan = RoutePlan::Fixed(2);
        assert!((0..100).all(|seq| plan.layer_for(7, seq) == 2));
    }

    #[test]
    fn bandwidth_overrides_apply_to_topology() {
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.cloud_bandwidth_mbps = Some(5.0);
        let topo = sc.topology();
        assert_eq!(topo.layers()[2].uplink.bandwidth_mbps, Some(5.0));
        assert_eq!(topo.layers()[1].uplink.bandwidth_mbps, None);
    }
}
