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
//! Shards still have to agree on a *global* outcome order, and the
//! coordinator must bound how far any shard's clock runs ahead of the
//! caller (routers may mutate between outcomes). Both come from a
//! conservative lookahead-window scheme:
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
//! This crate spawns no threads. [`ShardedFleetEngine::step`] runs the
//! three steps on the calling thread; `hec_core::sharded::run_plan` runs
//! the same three over worker threads that live for one whole run — each
//! holding a contiguous chunk of [`ShardedFleetEngine::shards_mut`] —
//! when the plan is large enough to pay for them, and calls `step`
//! otherwise.
//!
//! `shards = 1` is the serial engine: the single shard's scenario,
//! topology and resource bounds are exactly the original's, and
//! [`ShardedFleetEngine::step`] delegates straight to
//! [`FleetEngine::step`], preserving the resumable pull contract (and its
//! byte-identical reports) for in-fleet training.
//!
//! Note that `shards > 1` is a *different* (equally valid) simulation
//! than the serial one — partitioning re-buckets emission phases and
//! splits queues — so its reports are deterministic and conserve windows
//! but are not expected to byte-match the serial run.
//!
//! [`FleetScale`]: super::scenario::FleetScale
//! [`EventQueue`]: crate::event::EventQueue

use std::collections::VecDeque;

use crate::topology::HecTopology;

use super::des::{FleetEngine, JobEvent, RouteCtx};
use super::metrics::{FleetReport, FleetTotals, LatencyHist, TraceSample};
use super::scenario::FleetScenario;

/// The contiguous run of one cohort's devices owned by one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSlice {
    /// Cohort the slice belongs to.
    pub cohort: u32,
    /// First shard-local device id of the slice (slices are laid out in
    /// cohort order within the shard, exactly as in the serial engine).
    pub local_base: u32,
    /// First fleet-global device id of the slice.
    pub global_base: u32,
    /// Devices in the slice (may be 0 when a cohort is smaller than the
    /// shard count).
    pub len: u32,
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
                    cohort: c as u32,
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

    /// Shard `s`'s derived sub-scenario (its device counts and `1/S`
    /// resource bounds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_scenario(&self, s: usize) -> &FleetScenario {
        &self.shards[s].scenario
    }

    /// Shard `s`'s device slices, one per cohort in cohort order.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn device_slices(&self, s: usize) -> &[DeviceSlice] {
        &self.shards[s].slices
    }

    /// The conservative lookahead window, ms.
    pub fn lookahead_ms(&self) -> f64 {
        self.lookahead_ms
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

/// One shard's engine plus its global-coordinate translation: routers
/// always see fleet-global device ids and window sequence numbers,
/// whichever shard asks.
pub struct ShardEngine<'a> {
    engine: FleetEngine<'a>,
    slices: &'a [DeviceSlice],
    seq_base: u64,
    /// Shard index within the plan (trace-track and metric labelling).
    shard_id: usize,
    /// Virtual-trace track name, `<scenario>/shard<id>` (empty when
    /// telemetry is compiled out).
    track: String,
    /// Lookahead windows this shard has been advanced through.
    barriers: u64,
    /// Windows in which the shard processed no events (it had nothing
    /// at or before the barrier) — the lookahead-stall gauge.
    stall_windows: u64,
}

impl ShardEngine<'_> {
    /// Virtual time of this shard's earliest pending event, or `None`
    /// when the shard has drained.
    pub fn next_event_time_ms(&self) -> Option<f64> {
        self.engine.next_event_time_ms()
    }

    /// Discrete events this shard has processed (per-shard throughput
    /// accounting for scale benchmarks).
    pub fn events(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Shard index within the plan.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Lookahead windows this shard has advanced through.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Lookahead windows in which this shard processed zero events.
    pub fn stall_windows(&self) -> u64 {
        self.stall_windows
    }

    /// Advances this shard through every event at or before `barrier_ms`,
    /// appending the produced outcomes — time-tagged and already
    /// globalized — to `outbox`, this shard's buffer for the window
    /// (drained by [`merge_window`]). The router receives fleet-global
    /// contexts; safe to call from any thread (each shard is advanced by
    /// at most one thread at a time — `&mut self` enforces it).
    ///
    /// # Panics
    ///
    /// Panics if the router returns a layer outside the topology.
    pub fn advance_to(
        &mut self,
        barrier_ms: f64,
        router: &mut dyn FnMut(&RouteCtx) -> usize,
        outbox: &mut Vec<(f64, JobEvent)>,
    ) {
        let capture = hec_telemetry::trace_capture_enabled();
        let window_start = if capture { self.engine.next_event_time_ms() } else { None };
        let events_before = if hec_telemetry::ENABLED { self.engine.events_processed() } else { 0 };
        let from = outbox.len();
        {
            let Self { engine, slices, seq_base, .. } = self;
            let (slices, sb): (&[DeviceSlice], u64) = (slices, *seq_base);
            let mut wrapped = |ctx: &RouteCtx| router(&globalize_ctx(slices, sb, ctx));
            engine.advance_until(barrier_ms, &mut wrapped, &mut |t, ev| {
                outbox.push((t, globalize_event(slices, sb, ev)));
            });
        }
        if hec_telemetry::ENABLED {
            self.barriers += 1;
            if self.engine.events_processed() == events_before {
                self.stall_windows += 1;
            }
            if capture {
                if let Some(start) = window_start {
                    let start = start.min(barrier_ms);
                    hec_telemetry::vspan(&self.track, "advance", start, barrier_ms - start);
                }
                self.trace_outcomes(&outbox[from..]);
            }
        }
    }

    /// Records one virtual-trace event per buffered outcome: served
    /// windows as residency spans (emission-to-completion is exactly the
    /// latency), drops as instants tagged with layer and cause.
    fn trace_outcomes(&self, outcomes: &[(f64, JobEvent)]) {
        let jobs_track = format!("{}/jobs", self.track);
        for &(t, ev) in outcomes {
            match ev {
                JobEvent::Served { layer, latency_ms, .. } => {
                    hec_telemetry::vspan(
                        &jobs_track,
                        &format!("serve L{layer}"),
                        t - latency_ms,
                        latency_ms,
                    );
                }
                JobEvent::Dropped { layer, reason, .. } => {
                    hec_telemetry::vinstant(&jobs_track, &format!("drop L{layer} {reason:?}"), t);
                }
            }
        }
    }

    /// The serial (`shards = 1`) fast path: exactly [`FleetEngine::step`]
    /// with global-coordinate translation (the identity for shard 0 of a
    /// one-shard plan).
    fn step_translated(&mut self, router: &mut dyn FnMut(&RouteCtx) -> usize) -> Option<JobEvent> {
        let ev = {
            let Self { engine, slices, seq_base, .. } = self;
            let (slices, sb): (&[DeviceSlice], u64) = (slices, *seq_base);
            let mut wrapped = |ctx: &RouteCtx| router(&globalize_ctx(slices, sb, ctx));
            engine.step(&mut wrapped).map(|ev| globalize_event(slices, sb, ev))
        };
        if let Some(out) = ev {
            if hec_telemetry::trace_capture_enabled() {
                self.trace_outcomes(&[(self.engine.last_activity_ms(), out)]);
            }
        }
        ev
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

/// The sharded fleet engine: shard sub-engines behind the serial
/// [`FleetEngine`]'s resumable pull contract.
///
/// [`ShardedFleetEngine::step`] yields per-window outcomes in the
/// deterministic merged order, advancing the shards serially. A caller
/// with a `Sync` router may instead spread [`ShardedFleetEngine::
/// shards_mut`] over threads and run the same windows itself —
/// [`earliest_event_ms`], [`ShardPlan::barrier_after`],
/// [`ShardEngine::advance_to`], [`merge_window`] — which is what
/// `hec_core::sharded` does above its work grain; both drivers produce
/// identical streams and byte-identical reports.
pub struct ShardedFleetEngine<'a> {
    plan: &'a ShardPlan,
    shards: Vec<ShardEngine<'a>>,
    /// The current window's outcome buffer of each shard.
    outboxes: Vec<Vec<(f64, JobEvent)>>,
    /// [`merge_window`]'s scratch.
    cursors: Vec<usize>,
    ready: VecDeque<JobEvent>,
}

impl<'a> ShardedFleetEngine<'a> {
    /// Builds one engine per shard of the plan.
    pub fn new(plan: &'a ShardPlan) -> Self {
        let shards: Vec<_> = plan
            .shards
            .iter()
            .enumerate()
            .map(|(s, spec)| ShardEngine {
                engine: FleetEngine::with_topology(&spec.scenario, spec.topology.clone()),
                slices: &spec.slices,
                seq_base: spec.seq_base,
                shard_id: s,
                track: if hec_telemetry::ENABLED {
                    format!("{}/shard{}", plan.scenario.name, s)
                } else {
                    String::new()
                },
                barriers: 0,
                stall_windows: 0,
            })
            .collect();
        let outboxes = vec![Vec::new(); shards.len()];
        Self { plan, shards, outboxes, cursors: Vec::new(), ready: VecDeque::new() }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Windows emitted so far, across shards.
    pub fn emitted(&self) -> u64 {
        self.shards.iter().map(|sh| sh.engine.emitted()).sum()
    }

    /// Discrete events processed so far, across shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|sh| sh.engine.events_processed()).sum()
    }

    /// Advances the fleet until the next per-window outcome (in the
    /// deterministic merged order) and returns it, or `None` when every
    /// shard has drained. With one shard this *is* [`FleetEngine::step`];
    /// with more it advances all shards window-by-window, consulting the
    /// router shard-by-shard in stable shard order within each window
    /// (which is what lets a `FnMut` router — e.g. a policy being
    /// trained — remain legal under sharding).
    ///
    /// # Panics
    ///
    /// Panics if the router returns a layer outside the topology.
    pub fn step(&mut self, router: &mut dyn FnMut(&RouteCtx) -> usize) -> Option<JobEvent> {
        if self.shards.len() == 1 {
            return self.shards[0].step_translated(router);
        }
        loop {
            if let Some(ev) = self.ready.pop_front() {
                return Some(ev);
            }
            let barrier = self.plan.barrier_after(earliest_event_ms(&self.shards))?;
            for (shard, outbox) in self.shards.iter_mut().zip(&mut self.outboxes) {
                shard.advance_to(barrier, router, outbox);
            }
            let ready = &mut self.ready;
            merge_window(&mut self.outboxes, &mut self.cursors, &mut |ev| ready.push_back(ev));
        }
    }

    /// Mutable access to the shard engines, for a parallel window driver
    /// (each shard to the same barrier, any thread assignment).
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
    fn record_registry_metrics(&self, report: &FleetReport, overall: &LatencyHist) {
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
    use crate::fleet::des::FleetSim;
    use crate::fleet::scenario::{FleetScale, RoutePlan};

    fn default_router(sc: &FleetScenario) -> impl FnMut(&RouteCtx) -> usize + '_ {
        move |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq)
    }

    /// Runs a sharded plan to completion through `step`, returning the
    /// outcome stream and report.
    fn run_sharded(sc: &FleetScenario, shards: usize) -> (Vec<JobEvent>, FleetReport) {
        let plan = ShardPlan::new(sc, shards);
        let mut engine = ShardedFleetEngine::new(&plan);
        let mut router = default_router(sc);
        let mut outcomes = Vec::new();
        while let Some(ev) = engine.step(&mut router) {
            outcomes.push(ev);
        }
        (outcomes, engine.report())
    }

    #[test]
    fn one_shard_is_byte_identical_to_serial() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let serial = FleetSim::new(&sc).run();
            let (_, sharded) = run_sharded(&sc, 1);
            assert_eq!(serial, sharded, "{name}");
            assert_eq!(serial.to_text(), sharded.to_text(), "{name}");
            assert_eq!(serial.layers_csv(), sharded.layers_csv(), "{name}");
            assert_eq!(serial.trace_csv(), sharded.trace_csv(), "{name}");
        }
    }

    #[test]
    fn one_shard_outcome_stream_matches_serial_engine() {
        let sc = FleetScenario::flash_crowd(FleetScale::Quick);
        let mut serial = Vec::new();
        FleetSim::new(&sc).run_with(&mut default_router(&sc), &mut |ev| serial.push(*ev));
        let (sharded, _) = run_sharded(&sc, 1);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn sharded_runs_conserve_windows_and_are_deterministic() {
        for shards in [2usize, 3, 7] {
            for name in FleetScenario::NAMES {
                let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
                let (ev_a, rep_a) = run_sharded(&sc, shards);
                let (ev_b, rep_b) = run_sharded(&sc, shards);
                assert_eq!(ev_a, ev_b, "{name}/{shards}: outcome stream not deterministic");
                assert_eq!(rep_a, rep_b, "{name}/{shards}: report not deterministic");
                assert_eq!(rep_a.emitted, sc.total_windows(), "{name}/{shards}");
                assert_eq!(rep_a.served + rep_a.dropped, rep_a.emitted, "{name}/{shards}");
            }
        }
    }

    #[test]
    fn partition_conserves_devices_and_stays_contiguous() {
        let sc = FleetScenario::flash_crowd(FleetScale::Quick);
        for shards in [1usize, 2, 5, 13] {
            let plan = ShardPlan::new(&sc, shards);
            for (c, spec) in sc.cohorts.iter().enumerate() {
                let total: u32 = (0..shards).map(|s| plan.device_slices(s)[c].len).sum();
                assert_eq!(total, spec.devices, "cohort {c} at {shards} shards");
                // Slices tile the cohort's global id range in shard order.
                let mut expect = plan.device_slices(0)[c].global_base;
                for s in 0..shards {
                    let sl = &plan.device_slices(s)[c];
                    assert_eq!(sl.global_base, expect, "cohort {c} shard {s}");
                    expect += sl.len;
                }
            }
        }
    }

    #[test]
    fn global_ids_and_seqs_are_unique_and_dense() {
        let sc = FleetScenario::flash_crowd(FleetScale::Quick);
        let plan = ShardPlan::new(&sc, 4);
        let mut engine = ShardedFleetEngine::new(&plan);
        let total = sc.total_windows();
        let mut seen_seq = vec![false; total as usize];
        let devices = sc.total_devices();
        let mut router = |ctx: &RouteCtx| {
            assert!((ctx.device as u64) < devices, "device {} out of range", ctx.device);
            assert!(ctx.seq < total, "seq {} out of range", ctx.seq);
            assert!(!seen_seq[ctx.seq as usize], "seq {} routed twice", ctx.seq);
            seen_seq[ctx.seq as usize] = true;
            sc.planned_layer(ctx.cohort, ctx.seq)
        };
        while engine.step(&mut router).is_some() {}
        assert!(seen_seq.iter().all(|&b| b), "not every window was routed");
    }

    #[test]
    fn merged_outcomes_are_time_ordered_within_windows() {
        // The merged stream must visit shards deterministically; outcome
        // seqs of a Fixed(0) run arrive grouped by emission time.
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.cohorts[0].route = RoutePlan::Fixed(0);
        let (outcomes, report) = run_sharded(&sc, 3);
        assert_eq!(outcomes.len() as u64, report.emitted);
    }

    #[test]
    fn more_shards_than_devices_still_completes() {
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.cohorts[0].devices = 3;
        let (outcomes, report) = run_sharded(&sc, 8);
        assert_eq!(report.emitted, sc.total_windows());
        assert_eq!(outcomes.len() as u64, report.served + report.dropped);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let sc = FleetScenario::light_load(FleetScale::Quick);
        let _ = ShardPlan::new(&sc, 0);
    }
}
