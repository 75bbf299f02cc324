//! Sharded fleet engine: deterministic parallel DES over device
//! partitions.
//!
//! The serial [`FleetEngine`] runs one virtual clock on one core, which
//! caps scenarios at ~100k devices. This module scales the fleet out by
//! **resource partitioning**: a [`ShardPlan`] splits every cohort's
//! devices into `S` contiguous slices *and* divides the shared upper-layer
//! resources the same way — each shard's compute stage gets `1/S` of the
//! layer's server concurrency, `1/S` of the queue capacity, and its uplink
//! `1/S` of the link bandwidth and admission bound. Each shard is thereby
//! a self-contained `1/S`-scale replica of the scenario at identical
//! offered-load ratios (the same devices-and-resources twin scaling that
//! relates the Quick and Full [`FleetScale`]s), so shards never exchange
//! jobs and each one is an ordinary, fully deterministic [`FleetEngine`]
//! over its own [`EventQueue`] and layer-0 `busy_until` array.
//!
//! Shards still have to agree on a *global* outcome order. That comes
//! from a conservative lookahead-window scheme:
//!
//! 1. the barrier is `min` over shards of the next pending event time
//!    ([`earliest_event_ms`]), plus the plan's lookahead (the shortest
//!    cohort emission period; [`ShardPlan::barrier_after`]);
//! 2. every shard advances independently through all events at or before
//!    the barrier ([`ShardEngine::advance_to`]), buffering its per-window
//!    outcomes tagged with their virtual times;
//! 3. the coordinator merges the buffers in `(time, shard-id)` order
//!    ([`merge_window`]) — a deterministic k-way merge, a run of one
//!    shard's outcomes at a time, so the merged stream and the merged
//!    metrics are byte-identical across reruns *and* across however many
//!    OS threads stepped the shards.
//!
//! This crate spawns no threads and drives no plan to completion;
//! `hec-core` drives a plan one of two ways, chosen by its router. A
//! stateless router runs the three steps above as `hec_core::sharded`'s
//! window loop at every shard count, one included, over however many
//! worker threads — each holding a contiguous chunk of
//! [`ShardedFleetEngine::shards_mut`] — the plan is large enough to pay
//! for. A router that changes with what it hears (a [`FeedbackRouter`],
//! such as a policy in training) runs the shard of a one-shard plan
//! through [`ShardEngine::run_closed`]: the same loop to `+∞`, each handled
//! event's outcomes heard before the next. That shard's scenario, topology
//! and bounds are the original's, so its report is the serial
//! [`FleetEngine`]'s, byte for byte.
//!
//! Note that `shards > 1` is a *different* (equally valid) simulation
//! than the serial one — partitioning re-buckets emission phases and
//! splits queues — so its reports are deterministic and conserve windows
//! but are not expected to byte-match the serial run.
//!
//! [`FleetScale`]: super::scenario::FleetScale
//! [`EventQueue`]: crate::event::EventQueue

use std::borrow::Cow;

use hec_telemetry::GeomHist;

use crate::topology::HecTopology;

use super::des::{Driver, FleetEngine, JobEvent, RouteCtx};
use super::metrics::{DropReason, FleetReport, FleetTotals, TraceSample};
use super::scenario::FleetScenario;

/// The contiguous run of one cohort's devices owned by one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeviceSlice {
    /// First shard-local device id of the slice (slices are laid out in
    /// cohort order within the shard, exactly as in the serial engine).
    local_base: u32,
    /// First fleet-global device id of the slice.
    global_base: u32,
    /// Devices in the slice (may be 0 when a cohort is smaller than the
    /// shard count).
    len: u32,
}

/// One shard's derived configuration.
#[derive(Debug, Clone)]
struct ShardSpec {
    /// The original scenario with this shard's device slices and `1/S`
    /// resource bounds.
    scenario: FleetScenario,
    /// The testbed with `1/S` server concurrency and link bandwidth.
    topology: HecTopology,
    /// One slice per cohort, in cohort order.
    slices: Vec<DeviceSlice>,
    /// First fleet-global window sequence number of this shard.
    seq_base: u64,
}

/// A deterministic partition of a [`FleetScenario`] into shard-local
/// sub-scenarios (see the module docs for the scheme).
///
/// The plan owns every derived scenario and topology; shard engines
/// borrow from it, so one plan can be replayed by any number of
/// [`ShardedFleetEngine`]s.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    scenario: FleetScenario,
    topology: HecTopology,
    shards: Vec<ShardSpec>,
    lookahead_ms: f64,
}

/// `total` split across `shards`, share of shard `s`: the remainder goes
/// to the lowest shard ids, mirroring the device partition.
fn split_share(total: usize, shards: usize, s: usize) -> usize {
    total / shards + usize::from(s < total % shards)
}

impl ShardPlan {
    /// Partitions `scenario` into `shards` sub-scenarios.
    ///
    /// Cohort `c`'s `D_c` devices are split into contiguous slices of
    /// `⌊D_c/S⌋ + (s < D_c mod S)` devices; queue capacity, link
    /// admission bounds, server concurrency and link bandwidth are each
    /// divided by `S` (concurrency and capacities floor at 1, so when
    /// `S` exceeds a layer's server count the partitioned system has
    /// slightly *more* aggregate capacity — documented, deterministic,
    /// and irrelevant at the fleet scales sharding exists for).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or the scenario has no cohorts.
    pub fn new(scenario: &FleetScenario, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard, got {shards}");
        assert!(!scenario.cohorts.is_empty(), "scenario has no cohorts");
        let topology = scenario.topology();

        // Fleet-global first device id of each cohort (the serial
        // engine's contiguous assignment).
        let mut global_base = Vec::with_capacity(scenario.cohorts.len());
        let mut next = 0u32;
        for c in &scenario.cohorts {
            global_base.push(next);
            next += c.devices;
        }

        let s32 = shards as u32;
        let mut specs = Vec::with_capacity(shards);
        let mut seq_base = 0u64;
        for s in 0..shards {
            let mut sub = scenario.clone();
            let mut slices = Vec::with_capacity(scenario.cohorts.len());
            let mut local_next = 0u32;
            for (c, spec) in scenario.cohorts.iter().enumerate() {
                let per = spec.devices / s32;
                let rem = spec.devices % s32;
                let len = per + u32::from((s as u32) < rem);
                let offset = s as u32 * per + (s as u32).min(rem);
                sub.cohorts[c].devices = len;
                slices.push(DeviceSlice {
                    local_base: local_next,
                    global_base: global_base[c] + offset,
                    len,
                });
                local_next += len;
            }
            if shards > 1 {
                sub.queue_capacity = split_share(scenario.queue_capacity, shards, s).max(1);
                sub.link_max_inflight = split_share(scenario.link_max_inflight, shards, s).max(1);
                // Keep the derived scenario self-consistent: its own
                // bandwidth overrides describe the shard's 1/S link.
                sub.edge_bandwidth_mbps = scenario.edge_bandwidth_mbps.map(|m| m / shards as f64);
                sub.cloud_bandwidth_mbps = scenario.cloud_bandwidth_mbps.map(|m| m / shards as f64);
            }
            let shard_topology = Self::shard_topology(&topology, shards, s);
            let windows = sub.total_windows();
            specs.push(ShardSpec { scenario: sub, topology: shard_topology, slices, seq_base });
            seq_base += windows;
        }

        // Conservative window: the shortest active emission period. Any
        // positive value is *correct* (shards are independent); this one
        // bounds the outcome buffer to roughly one fleet-wide emission
        // round per barrier.
        let min_period = scenario
            .cohorts
            .iter()
            .filter(|c| c.devices > 0 && c.windows_per_device > 0)
            .map(|c| c.period_ms)
            .fold(f64::INFINITY, f64::min);
        let lookahead_ms = if min_period.is_finite() { min_period.max(1e-3) } else { 1.0 };

        Self { scenario: scenario.clone(), topology, shards: specs, lookahead_ms }
    }

    /// The original topology with each shared layer's concurrency and
    /// each capped link's bandwidth divided by the shard count.
    fn shard_topology(base: &HecTopology, shards: usize, s: usize) -> HecTopology {
        if shards == 1 {
            return base.clone();
        }
        let mut layers = base.layers().to_vec();
        for (l, layer) in layers.iter_mut().enumerate() {
            if l > 0 {
                layer.device.concurrency = split_share(layer.device.concurrency, shards, s).max(1);
                if let Some(mbps) = layer.uplink.bandwidth_mbps {
                    layer.uplink = layer.uplink.clone().with_bandwidth(mbps / shards as f64);
                }
            }
        }
        HecTopology::new(layers)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partitioned scenario.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// The next conservative barrier: the earliest pending event time
    /// across shards plus the lookahead, marked on the coordinator's
    /// virtual-trace track. `None` when every shard has drained
    /// (`earliest_ms` infinite).
    pub fn barrier_after(&self, earliest_ms: f64) -> Option<f64> {
        let barrier = earliest_ms.is_finite().then_some(earliest_ms + self.lookahead_ms)?;
        if hec_telemetry::trace_capture_enabled() {
            let track = format!("{}/coordinator", self.scenario.name);
            hec_telemetry::vinstant(&track, "barrier", barrier);
        }
        Some(barrier)
    }

    /// Layers of the partitioned topology.
    pub fn num_layers(&self) -> usize {
        self.topology.num_layers()
    }
}

/// Maps a shard-local device id to its fleet-global id via the shard's
/// slice table (slices are sorted by `local_base` and contiguous).
fn globalize_device(slices: &[DeviceSlice], local: u32) -> u32 {
    let idx = slices.partition_point(|sl| sl.local_base + sl.len <= local);
    let sl = &slices[idx];
    sl.global_base + (local - sl.local_base)
}

/// Rewrites a shard-local routing context into fleet-global coordinates.
fn globalize_ctx<'c>(slices: &[DeviceSlice], seq_base: u64, ctx: &RouteCtx<'c>) -> RouteCtx<'c> {
    let sl = &slices[ctx.cohort as usize];
    RouteCtx {
        device: sl.global_base + (ctx.device - sl.local_base),
        seq: seq_base + ctx.seq,
        cohort: ctx.cohort,
        now_ms: ctx.now_ms,
        queue_depth: ctx.queue_depth,
        link_inflight: ctx.link_inflight,
    }
}

/// Rewrites a shard-local outcome into fleet-global coordinates.
fn globalize_event(slices: &[DeviceSlice], seq_base: u64, ev: JobEvent) -> JobEvent {
    match ev {
        JobEvent::Served { seq, device, layer, latency_ms } => JobEvent::Served {
            seq: seq_base + seq,
            device: globalize_device(slices, device),
            layer,
            latency_ms,
        },
        JobEvent::Dropped { seq, device, layer, reason } => JobEvent::Dropped {
            seq: seq_base + seq,
            device: globalize_device(slices, device),
            layer,
            reason,
        },
    }
}

/// A router that hears what its windows came to: what it has heard may
/// change where it routes next (a policy being trained).
pub trait FeedbackRouter {
    /// The layer of the window emitted under `ctx`.
    fn route(&mut self, ctx: &RouteCtx) -> usize;

    /// The outcomes of one handled event, in the order it produced them.
    fn heard(&mut self, outcomes: &[JobEvent]);
}

/// One shard's engine plus its global-coordinate translation: routers
/// always see fleet-global device ids and window sequence numbers,
/// whichever shard asks.
///
/// A shard is driven one way for its whole run: by
/// [`ShardEngine::advance_to`], barrier by barrier, or to completion by
/// [`ShardEngine::run_closed`].
pub struct ShardEngine<'a> {
    engine: FleetEngine<'a>,
    slices: &'a [DeviceSlice],
    seq_base: u64,
    /// Shard index within the plan (trace-track and metric labelling).
    shard_id: usize,
    /// Virtual-trace track name, `<scenario>/shard<id>` (empty when
    /// telemetry is compiled out).
    track: String,
    /// The track of its outcomes, `<track>/jobs`.
    jobs_track: String,
    /// Lookahead windows this shard has been advanced through.
    barriers: u64,
    /// Windows in which the shard processed no events (it had nothing
    /// at or before the barrier) — the lookahead-stall gauge.
    stall_windows: u64,
}

impl ShardEngine<'_> {
    /// Virtual time of this shard's earliest pending event, or `None`
    /// when the shard has drained.
    pub(crate) fn next_event_time_ms(&self) -> Option<f64> {
        self.engine.next_event_time_ms()
    }

    /// Discrete events this shard has processed (per-shard throughput
    /// accounting for scale benchmarks).
    pub fn events(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Advances this shard through every event at or before `barrier_ms`,
    /// appending the produced outcomes — time-tagged and already
    /// globalized — to `outbox`, this shard's buffer for the window
    /// (drained by [`merge_window`]). Without an outbox nobody observes
    /// the outcomes: they are not built, only counted in the report and,
    /// while trace capture is on, traced. The router receives
    /// fleet-global contexts; safe to call from any thread (each shard is
    /// advanced by at most one thread at a time — `&mut self` enforces
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if the router returns a layer outside the topology.
    pub fn advance_to<R: FnMut(&RouteCtx) -> usize + ?Sized>(
        &mut self,
        barrier_ms: f64,
        router: &mut R,
        outbox: Option<&mut Vec<(f64, JobEvent)>>,
    ) {
        let capture = hec_telemetry::trace_capture_enabled();
        let window_start = if capture { self.engine.next_event_time_ms() } else { None };
        let events_before = if hec_telemetry::ENABLED { self.engine.events_processed() } else { 0 };
        {
            let Self { engine, slices, seq_base, jobs_track, .. } = self;
            let (slices, sb): (&[DeviceSlice], u64) = (slices, *seq_base);
            let mut wrapped = |ctx: &RouteCtx| router(&globalize_ctx(slices, sb, ctx));
            match outbox {
                Some(outbox) => engine.advance_until(barrier_ms, &mut wrapped, &mut |t, ev| {
                    if capture {
                        trace_outcome(jobs_track, t, ev);
                    }
                    outbox.push((t, globalize_event(slices, sb, ev)));
                }),
                None if capture => engine.advance_until(barrier_ms, &mut wrapped, &mut |t, ev| {
                    trace_outcome(jobs_track, t, ev);
                }),
                None => engine.advance_until(barrier_ms, &mut wrapped, &mut |_, _| {}),
            }
        }
        if hec_telemetry::ENABLED {
            self.barriers += 1;
            if self.engine.events_processed() == events_before {
                self.stall_windows += 1;
            }
            if let Some(start) = window_start {
                let start = start.min(barrier_ms);
                hec_telemetry::vspan(&self.track, "advance", start, barrier_ms - start);
            }
        }
    }

    /// Runs the shard of a one-shard plan — the whole fleet, in the fleet's
    /// own coordinates — to completion for a router that changes with what
    /// it hears (`hec-core`'s closed loop): after each handled event `lp`
    /// hears the outcomes it produced, before the next event, so an
    /// emission event's windows are all routed first. Outcomes are traced
    /// as under [`ShardEngine::advance_to`]; there is no barrier to count.
    ///
    /// # Panics
    ///
    /// Panics if the shard is not a one-shard plan's, or if the router
    /// returns a layer outside the topology.
    pub fn run_closed(&mut self, lp: &mut impl FeedbackRouter) {
        let whole = self.slices.iter().all(|sl| sl.local_base == sl.global_base);
        assert!(whole && self.seq_base == 0, "a closed loop runs a one-shard plan");
        let jobs_track = hec_telemetry::trace_capture_enabled().then_some(&*self.jobs_track);
        self.engine.advance(f64::INFINITY, &mut Closed { lp, jobs_track, heard: vec![] });
    }
}

/// A closed loop as its shard's driver: the outcomes of the event being
/// handled, traced (while capture is on) and heard once it is.
struct Closed<'s, L: ?Sized> {
    lp: &'s mut L,
    jobs_track: Option<&'s str>,
    heard: Vec<JobEvent>,
}

impl<L: FeedbackRouter + ?Sized> Driver for Closed<'_, L> {
    fn route(&mut self, ctx: &RouteCtx) -> usize {
        self.lp.route(ctx)
    }

    fn outcome(&mut self, t: f64, ev: JobEvent) {
        if let Some(track) = self.jobs_track {
            trace_outcome(track, t, ev);
        }
        self.heard.push(ev);
    }

    fn handled(&mut self, _engine: &FleetEngine<'_>) {
        if !self.heard.is_empty() {
            self.lp.heard(&self.heard);
            self.heard.clear();
        }
    }
}

/// Trace names of the outcomes at the paper's three layers, by layer (and
/// drop cause, in `DropReason` order) — what `trace_outcome` would
/// otherwise format per outcome.
const SERVE_NAMES: [&str; 3] = ["serve L0", "serve L1", "serve L2"];
const DROP_NAMES: [[&str; 2]; 3] = [
    ["drop L0 QueueFull", "drop L0 LinkSaturated"],
    ["drop L1 QueueFull", "drop L1 LinkSaturated"],
    ["drop L2 QueueFull", "drop L2 LinkSaturated"],
];

/// Records an outcome at virtual time `t` on `jobs_track`: a served
/// window as a residency span (emission-to-completion is exactly the
/// latency), a drop as an instant tagged with layer and cause. A layer
/// past the name tables formats its own name.
fn trace_outcome(jobs_track: &str, t: f64, ev: JobEvent) {
    match ev {
        JobEvent::Served { layer, latency_ms, .. } => {
            let name: Cow<str> = match SERVE_NAMES.get(layer) {
                Some(&name) => name.into(),
                None => format!("serve L{layer}").into(),
            };
            hec_telemetry::vspan(jobs_track, &name, t - latency_ms, latency_ms);
        }
        JobEvent::Dropped { layer, reason, .. } => {
            let cause = match reason {
                DropReason::QueueFull => 0,
                DropReason::LinkSaturated => 1,
            };
            let name: Cow<str> = match DROP_NAMES.get(layer) {
                Some(names) => names[cause].into(),
                None => format!("drop L{layer} {reason:?}").into(),
            };
            hec_telemetry::vinstant(jobs_track, &name, t);
        }
    }
}

/// Earliest pending event time across `shards`, ms; `f64::INFINITY` when
/// all of them have drained. The next barrier is this plus the lookahead
/// ([`ShardPlan::barrier_after`]).
pub fn earliest_event_ms(shards: &[ShardEngine<'_>]) -> f64 {
    shards.iter().filter_map(ShardEngine::next_event_time_ms).fold(f64::INFINITY, f64::min)
}

/// Merges one window's per-shard outcome buffers (indexed by shard id)
/// into `sink` in `(virtual time, shard id)` order and clears them — a
/// deterministic k-way merge of already time-sorted buffers, so the
/// merged stream is independent of how many threads filled them.
///
/// It goes a **run** at a time: the shard whose head is earliest (the
/// lowest id on a tie) hands over every outcome that still precedes all
/// the other shards' heads — strictly earlier than the head of a lower
/// shard id, at or before the head of a higher one — and only then are
/// the heads compared again. A bucket of devices emits at one virtual
/// time, so runs are tens of outcomes long. `cursors` is scratch the
/// caller keeps between windows.
pub fn merge_window(
    outboxes: &mut [Vec<(f64, JobEvent)>],
    cursors: &mut Vec<usize>,
    sink: &mut dyn FnMut(JobEvent),
) {
    cursors.clear();
    cursors.resize(outboxes.len(), 0);
    let head = |s: usize, cursors: &[usize]| outboxes[s].get(cursors[s]).map(|&(t, _)| t);
    loop {
        let mut best: Option<(f64, usize)> = None;
        for s in 0..outboxes.len() {
            if let Some(t) = head(s, cursors) {
                // Strict `<`: ties go to the lowest shard id.
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, s));
                }
            }
        }
        let Some((_, win)) = best else { break };
        let earliest = |shards: std::ops::Range<usize>| {
            shards.filter_map(|s| head(s, cursors)).fold(f64::INFINITY, f64::min)
        };
        let (below, above) = (earliest(0..win), earliest(win + 1..outboxes.len()));
        // The winning head passes both tests, so every pass moves on.
        let run = outboxes[win][cursors[win]..].iter();
        for &(_, ev) in run.take_while(|&&(t, _)| t < below && t <= above) {
            sink(ev);
            cursors[win] += 1;
        }
    }
    for outbox in outboxes {
        outbox.clear();
    }
}

/// The sharded fleet engine: one sub-engine per shard of a plan, and the
/// fleet-wide report over them.
///
/// The caller drives [`ShardedFleetEngine::shards_mut`] (module docs):
/// window by window — [`earliest_event_ms`], [`ShardPlan::barrier_after`],
/// [`ShardEngine::advance_to`], [`merge_window`] — on any number of
/// threads, which is what `hec_core::sharded` does at every shard count;
/// or, for a [`FeedbackRouter`], the one shard of a one-shard plan by
/// [`ShardEngine::run_closed`].
pub struct ShardedFleetEngine<'a> {
    plan: &'a ShardPlan,
    shards: Vec<ShardEngine<'a>>,
}

impl<'a> ShardedFleetEngine<'a> {
    /// Builds one engine per shard of the plan.
    pub fn new(plan: &'a ShardPlan) -> Self {
        let shards: Vec<_> = plan
            .shards
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                let track = if hec_telemetry::ENABLED {
                    format!("{}/shard{}", plan.scenario.name, s)
                } else {
                    String::new()
                };
                ShardEngine {
                    engine: FleetEngine::with_topology(&spec.scenario, spec.topology.clone()),
                    slices: &spec.slices,
                    seq_base: spec.seq_base,
                    shard_id: s,
                    jobs_track: format!("{track}/jobs"),
                    track,
                    barriers: 0,
                    stall_windows: 0,
                }
            })
            .collect();
        Self { plan, shards }
    }

    /// Mutable access to the shard engines, in shard order: the one to run
    /// closed, or the ones to advance to each barrier (any thread
    /// assignment).
    pub fn shards_mut(&mut self) -> &mut [ShardEngine<'a>] {
        &mut self.shards
    }

    /// Renders the fleet-wide report from the shards' raw counters, summed
    /// in stable shard order: per-layer counters added, latency histograms
    /// merged (order-invariant), peaks maxed, and utilizations taken
    /// against the partitioned capacity — all deterministic. With one
    /// shard every one of those steps is exact, so this is byte-for-byte
    /// the serial [`FleetEngine::report`].
    pub fn report(&self) -> FleetReport {
        let plan = self.plan;
        let k = plan.topology.num_layers();
        let mut totals = FleetTotals::new(k);
        for sh in &self.shards {
            sh.engine.add_to(&mut totals);
        }
        let report = totals.report(&plan.scenario.name, &plan.topology, self.merged_trace(k));
        if hec_telemetry::ENABLED {
            self.record_registry_metrics(&report, &totals.overall_latency());
        }
        report
    }

    /// Copies per-shard progress and the report's fleet totals into the
    /// global telemetry registry. Everything recorded here is a
    /// virtual-clock or count fact, so the registry snapshot stays
    /// byte-identical across reruns and `HEC_THREADS` (recording happens
    /// on the coordinator thread in stable shard order, and all values
    /// are set-semantics so re-reporting is idempotent).
    fn record_registry_metrics(&self, report: &FleetReport, overall: &GeomHist) {
        use hec_telemetry::{counter_set, gauge_set, hist_set};
        let scenario = self.plan.scenario.name.as_str();

        for sh in &self.shards {
            // Zero-padded ids keep lexicographic snapshot order numeric.
            let id = format!("{:04}", sh.shard_id);
            let labels = [("scenario", scenario), ("shard", id.as_str())];
            let horizon = sh.engine.last_activity_ms();
            counter_set("fleet.shard.events", &labels, sh.events());
            counter_set("fleet.shard.barriers", &labels, sh.barriers);
            counter_set("fleet.shard.stall_windows", &labels, sh.stall_windows);
            gauge_set(
                "fleet.shard.event_rate_per_ms",
                &labels,
                if horizon > 0.0 { sh.events() as f64 / horizon } else { 0.0 },
            );
        }

        for l in &report.layers {
            let layer = format!("{}", l.layer);
            let labels = [("layer", layer.as_str()), ("scenario", scenario)];
            counter_set("fleet.layer.served", &labels, l.served);
            counter_set("fleet.layer.dropped_queue", &labels, l.dropped_queue);
            counter_set("fleet.layer.dropped_link", &labels, l.dropped_link);
        }
        let labels = [("scenario", scenario)];
        counter_set("fleet.emitted", &labels, report.emitted);
        counter_set("fleet.served", &labels, report.served);
        counter_set("fleet.dropped", &labels, report.dropped);
        counter_set("fleet.events", &labels, report.events);
        hist_set("fleet.latency_ms", &labels, overall);
    }

    /// Element-wise sum of the shards' queue traces. Shards sample at
    /// identical virtual times (multiples of the trace interval), but may
    /// stop at different sample counts as their horizons diverge — the
    /// merged trace truncates to the shortest among shards that emit any
    /// windows (empty shards contribute a lone all-zero sample and are
    /// skipped).
    fn merged_trace(&self, k: usize) -> Vec<TraceSample> {
        let contributing: Vec<&[TraceSample]> = self
            .plan
            .shards
            .iter()
            .zip(&self.shards)
            .filter(|(spec, _)| spec.scenario.total_windows() > 0)
            .map(|(_, sh)| sh.engine.trace_samples())
            .collect();
        let n = contributing.iter().map(|t| t.len()).min().unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut queue_depth = vec![0usize; k];
            let mut link_inflight = vec![0usize; k];
            for t in &contributing {
                for l in 0..k {
                    queue_depth[l] += t[i].queue_depth.get(l).copied().unwrap_or(0);
                    link_inflight[l] += t[i].link_inflight.get(l).copied().unwrap_or(0);
                }
            }
            out.push(TraceSample { t_ms: contributing[0][i].t_ms, queue_depth, link_inflight });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::des::tests::{by_step, Token};
    use crate::fleet::scenario::FleetScale;

    /// A closed loop's router that logs every route and heard outcome.
    struct Logged<R> {
        route: R,
        tokens: Vec<Token>,
    }

    impl<R: FnMut(&RouteCtx) -> usize> FeedbackRouter for Logged<R> {
        fn route(&mut self, ctx: &RouteCtx) -> usize {
            let layer = (self.route)(ctx);
            self.tokens.push(Token::Route(ctx.seq, layer));
            layer
        }

        fn heard(&mut self, outcomes: &[JobEvent]) {
            self.tokens.extend(outcomes.iter().map(|&ev| Token::Hear(ev)));
        }
    }

    /// One scenario's routes and heard outcomes, in order, and its report
    /// under the scenario's own plans: the serial engine stepped by the
    /// referee the closed loop replaced, and the shard of a one-shard plan
    /// run closed.
    fn serial_and_one_shard(sc: &FleetScenario) -> [(Vec<Token>, FleetReport); 2] {
        let route = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
        let (tokens, _, _, _, serial) = by_step(&mut FleetEngine::new(sc), route);
        let plan = ShardPlan::new(sc, 1);
        let mut sharded = ShardedFleetEngine::new(&plan);
        let mut lp = Logged { route, tokens: vec![] };
        sharded.shards_mut()[0].run_closed(&mut lp);
        [(tokens, serial), (lp.tokens, sharded.report())]
    }

    #[test]
    fn one_shard_is_byte_identical_to_serial() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let [(_, serial), (_, sharded)] = serial_and_one_shard(&sc);
            assert_eq!(serial, sharded, "{name}");
            assert_eq!(serial.to_text(), sharded.to_text(), "{name}");
            assert_eq!(serial.layers_csv(), sharded.layers_csv(), "{name}");
            assert_eq!(serial.trace_csv(), sharded.trace_csv(), "{name}");
        }
    }

    /// The closed loop routes and hears in the stepper's order: every
    /// window of an emission bucket routed before any outcome of the
    /// bucket is heard, and each outcome heard before anything the next
    /// event does — on every named scenario (`edge_saturated` drops
    /// mid-group, `cloud_link_constrained` releases `LinkDone` groups).
    #[test]
    fn one_shard_outcome_stream_matches_serial_engine() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let [(serial, _), (sharded, _)] = serial_and_one_shard(&sc);
            assert_eq!(serial.len() as u64, 2 * sc.total_windows(), "{name}");
            assert!(serial == sharded, "{name}: the closed loop routed or heard out of order");
        }
    }

    #[test]
    fn partition_conserves_devices_and_stays_contiguous() {
        let sc = FleetScenario::flash_crowd(FleetScale::Quick);
        for shards in [1usize, 2, 5, 13] {
            let plan = ShardPlan::new(&sc, shards);
            let slice = |s: usize, c: usize| &plan.shards[s].slices[c];
            for (c, spec) in sc.cohorts.iter().enumerate() {
                let total: u32 = (0..shards).map(|s| slice(s, c).len).sum();
                assert_eq!(total, spec.devices, "cohort {c} at {shards} shards");
                // Slices tile the cohort's global id range in shard order.
                let mut expect = slice(0, c).global_base;
                for s in 0..shards {
                    assert_eq!(slice(s, c).global_base, expect, "cohort {c} shard {s}");
                    expect += slice(s, c).len;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let sc = FleetScenario::light_load(FleetScale::Quick);
        let _ = ShardPlan::new(&sc, 0);
    }
}
