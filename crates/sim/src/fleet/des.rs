//! The discrete-event fleet engine.
//!
//! A virtual-clock simulator driven by [`EventQueue`] that streams every
//! window of a [`FleetScenario`] through the 3-layer hierarchy:
//!
//! ```text
//! device cohorts ──emit──▶ router ──▶ layer 0: per-device dedicated server
//!                                 └─▶ layer ℓ≥1: uplink (PS when capped)
//!                                          └──▶ FIFO compute queue
//!                                                   └──▶ downlink ─▶ done
//! ```
//!
//! Service times come from the topology's [`HecTopology::exec_ms`] ladder,
//! concurrency limits from `DeviceProfile::concurrency`, and link
//! contention from the scenario's bandwidth overrides. Cohorts may be
//! heterogeneous: per-cohort payload sizes change link serialisation and
//! per-cohort `local_speed` scales the layer-0 execution time. Detection
//! delay is therefore *load-dependent*: the same action costs more under
//! queueing.
//!
//! The engine has one loop, [`FleetEngine::advance_until`]: every event up
//! to a barrier, a router asked for the layer of each window emitted, each
//! per-window outcome ([`JobEvent::Served`] / [`JobEvent::Dropped`]) handed
//! on with the virtual time of the event that produced it. A shard runs it
//! barrier by barrier in a multi-shard plan's window loop
//! ([`super::shard::ShardEngine::advance_to`]), or to `+∞` as a closed
//! loop ([`super::shard::ShardEngine::run_closed`]) that hears each handled
//! event's outcomes before the next event — an emission event's windows
//! all routed first. That closes the training loop: the router can change
//! with what it has heard without re-running whole scenarios.
//!
//! An engine is single-threaded and fully deterministic — same scenario,
//! same seed ⇒ byte-identical [`FleetReport`] regardless of host thread
//! count or `HEC_THREADS`, and however it is driven.
//!
//! The hot path is batched, and what is left of it is kept out of the
//! heap. One emission event injects a whole phase bucket of windows and a
//! freed server dequeues jobs in batches, so a window costs only about
//! 1.15 events. That count is of events as a queue holding each one would
//! have popped them: it includes device-local completions and counts every
//! member of an arrival group (below) one by one, although neither is an
//! entry of the queue of its own. Nearly all of the queue's entries belong
//! to three kinds of stream that are scheduled in time order anyway, and
//! each stream has a monotone lane of the [`EventQueue`] to itself: a
//! cohort's `Emit`s (its buckets fire round-robin, phase by phase), a
//! shared layer's arrival groups (`now +` propagation) and a shared FIFO
//! layer's `ComputeDone`s (`now +` a batch's service time, in order unless
//! batches of different sizes overtake one another). Scheduling those is
//! a FIFO append and popping them a scan of the few lane heads. A
//! bandwidth-capped uplink, a processor-sharing resource, has one pending
//! completion (`LinkDone`), re-estimated after every arrival and
//! departure: it sits in a replaceable slot of the queue, so an estimate
//! the share changed is overwritten, never popped.
//! The heap keeps the handful of `Trace` events, plus any lane entry that
//! arrives out of order — the queue pops in `(time, seq)` order either
//! way, so where an event waited never shows in a report.
//!
//! Every window one handler sends to one shared layer's compute stage — an
//! `Emit` bucket's windows routed over an uncapped uplink, the transfers
//! one `LinkDone` completes — arrives at the same instant, `now +`
//! propagation, so they enter the queue as **one arrival group**: one
//! entry (`Ev::Arrive`) standing for `count` `(seq, job)` members held in
//! the layer's FIFO of arrivals. A layer's groups pop in the order they
//! are filed, so that FIFO is the one buffer they all need, grown once and
//! reused. Each member takes its `seq` where its own arrival event would
//! have been scheduled ([`EventQueue::reserve_seq`]), the group is filed
//! under its first member's ([`EventQueue::schedule_reserved_on`]), and
//! its members are handled one by one, each counted as an event. Another
//! event can pop between two members only if it shares their instant and
//! was scheduled between them — another layer's group when two
//! propagations are equal, say. Handling a member only schedules events
//! after every member, so one look at the queue's head
//! ([`EventQueue::peek_head`]) when a group's second member is due says
//! where to stop: the rest of the group is re-filed under the next
//! member's `seq`. Pop order, event counts and every outcome are therefore
//! those of one event per arriving window (a closed loop hears a group's
//! drops after its last member; nothing is routed in between either way).
//!
//! A device-local completion changes nothing but the layer-0 in-flight
//! gauge, so it never enters the queue. Serving a window at layer 0 takes
//! the `seq` scheduling would have taken ([`EventQueue::reserve_seq`]) and
//! files `(finish, seq)` in its cohort's FIFO (`now + exec0`, in order
//! unless the device is backlogged; those few go to one small heap). The
//! engine retires every completion that would have popped before the
//! `(time, seq)` of the event it handles wherever the gauge is read (an
//! `Emit`, a `Trace`) and where a caller can look between calls
//! (`advance_until` reaching its barrier). A retired completion still
//! counts as a processed event at its finish time, and
//! `FleetEngine::next_event_time_ms` sees pending ones, so event counts,
//! horizons, barriers and traces are those of a queue that held them.
//!
//! Each outcome is written once, by `dispatch`, straight to where the
//! driver wants it: a shard's outbox, or the closed loop's buffer of the
//! event being handled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hec_telemetry::GeomHist;

use crate::event::{before, EventQueue, Head, NO_HEAD};
use crate::topology::HecTopology;

use super::metrics::{DropReason, FleetReport, FleetTotals, TraceSample};
use super::queueing::{FifoQueue, JobRec, PsResource};
use super::scenario::FleetScenario;

/// Context handed to the router when a window is emitted.
#[derive(Debug)]
pub struct RouteCtx<'a> {
    /// Emitting device (global id).
    pub device: u32,
    /// Global window sequence number.
    pub seq: u64,
    /// Cohort the device belongs to.
    pub cohort: u32,
    /// Virtual emission time, ms.
    pub now_ms: f64,
    /// Per-layer compute backlog, sampled at the emitting bucket's start
    /// (the waiting line at a shared layer, device-local in-flight for
    /// layer 0).
    pub queue_depth: &'a [usize],
    /// Per-layer concurrent uplink transfers (0 for uncapped links).
    pub link_inflight: &'a [usize],
}

/// Per-window completion/drop notification for observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobEvent {
    /// The window was served to completion.
    Served {
        /// Global window sequence number.
        seq: u64,
        /// Emitting device.
        device: u32,
        /// Layer that served it.
        layer: usize,
        /// Load-dependent end-to-end latency, ms.
        latency_ms: f64,
    },
    /// The window was shed by admission control.
    Dropped {
        /// Global window sequence number.
        seq: u64,
        /// Emitting device.
        device: u32,
        /// Layer it was routed to.
        layer: usize,
        /// Where it was shed.
        reason: DropReason,
    },
}

/// What runs an engine's loop: the layer of each emitted window, where
/// each outcome goes, and what happens once an event is handled.
pub(crate) trait Driver {
    /// The layer of the window emitted under `ctx`.
    fn route(&mut self, ctx: &RouteCtx) -> usize;

    /// An outcome of the event being handled, at its virtual time `t`.
    fn outcome(&mut self, t: f64, ev: JobEvent);

    /// An event has been handled, its outcomes handed to
    /// [`Driver::outcome`], the next not popped; `engine` is as the event
    /// left it. Nothing, unless the driver closes a loop.
    fn handled(&mut self, _engine: &FleetEngine<'_>) {}
}

/// A router and a sink: the driver of a loop nobody closes.
impl<R, S> Driver for (&mut R, &mut S)
where
    R: FnMut(&RouteCtx) -> usize + ?Sized,
    S: FnMut(f64, JobEvent) + ?Sized,
{
    fn route(&mut self, ctx: &RouteCtx) -> usize {
        (self.0)(ctx)
    }

    fn outcome(&mut self, t: f64, ev: JobEvent) {
        (self.1)(t, ev)
    }
}

/// Discrete events of the fleet simulation.
enum Ev {
    /// One phase bucket of a cohort emits its next window per device.
    Emit { cohort: u32, bucket: u32 },
    /// A bandwidth-shared uplink may have completed transfers.
    LinkDone { layer: u8 },
    /// Windows reaching a shared layer's compute stage at one instant, one
    /// handler's worth: the `count` members at the front of the layer's
    /// `arrivals`, each one event.
    Arrive { layer: u8, count: u32 },
    /// A service batch finishes.
    ComputeDone { layer: u8, slot: u32 },
    /// A device-local execution finishes, as a queue event: only the
    /// referee engine ([`FleetEngine::eager`]) schedules these.
    #[cfg(test)]
    LocalDone,
    /// Periodic queue-depth sample.
    Trace,
}

/// Device-local completions not yet retired, each `(finish, seq)` with
/// its `seq` reserved from the engine's queue (module docs).
struct LocalCompletions {
    /// One per cohort: an idle device finishes `exec0` after it is served,
    /// so a cohort's completions mostly arrive in `(finish, seq)` order.
    fifos: Vec<VecDeque<Head>>,
    /// The ones that do not (a backlogged device's), keyed by the bits of
    /// `finish`: a finish is finite and not negative, and such `f64`s
    /// order as their bits do.
    late: BinaryHeap<Reverse<(u64, u64)>>,
}

impl LocalCompletions {
    fn new(cohorts: usize) -> Self {
        Self { fifos: vec![VecDeque::new(); cohorts], late: BinaryHeap::new() }
    }

    /// Files a completion of cohort `c`.
    #[inline]
    fn push(&mut self, c: usize, finish: f64, seq: u64) {
        debug_assert!(finish >= 0.0 && finish.is_finite(), "local finish {finish}");
        let fifo = &mut self.fifos[c];
        if fifo.back().is_none_or(|&(tail, _)| finish >= tail) {
            fifo.push_back((finish, seq));
        } else {
            self.late.push(Reverse((finish.to_bits(), seq)));
        }
    }

    /// The earliest pending completion ([`NO_HEAD`] if none) and the
    /// cohort FIFO it heads (`None`: the heap, or nothing pending).
    #[inline]
    fn earliest(&self) -> (Head, Option<usize>) {
        let mut best =
            self.late.peek().map_or(NO_HEAD, |&Reverse((bits, seq))| (f64::from_bits(bits), seq));
        let mut at = None;
        for (c, fifo) in self.fifos.iter().enumerate() {
            if let Some(&head) = fifo.front() {
                if before(head, best) {
                    best = head;
                    at = Some(c);
                }
            }
        }
        (best, at)
    }

    /// Finish time of the earliest pending completion.
    fn next_ms(&self) -> Option<f64> {
        let ((finish, _), _) = self.earliest();
        finish.is_finite().then_some(finish)
    }

    /// Removes the earliest pending completion if it pops before `bound`
    /// and returns its finish time.
    #[inline]
    fn pop_before(&mut self, bound: Head) -> Option<f64> {
        let (head, at) = self.earliest();
        if !before(head, bound) {
            return None;
        }
        if let Some(c) = at {
            self.fifos[c].pop_front();
        } else {
            self.late.pop();
        }
        Some(head.0)
    }
}

/// Per-layer mutable simulation state.
struct LayerState {
    exec_ms: f64,
    /// One-way propagation, ms (half the round trip).
    prop_ms: f64,
    /// Queue lane of this layer's `Arrive` groups: `now + prop_ms`, from
    /// the router on an uncapped uplink and from `LinkDone` on a capped one
    /// (layer 0 has none and never looks).
    arrive_lane: usize,
    /// Queue lane of this layer's `ComputeDone`s: in order unless batches
    /// of different sizes overtake one another.
    done_lane: usize,
    /// Members of this layer's arrival groups not handled yet, `(queue seq,
    /// job)`, in filing order — which is their pop order: a layer's groups
    /// are due `now + prop_ms`, filed in `now` order, one a handler.
    arrivals: VecDeque<(u64, JobRec)>,
    /// Members at the back of `arrivals` the running handler has gathered
    /// and not filed yet, and the first one's `seq`.
    open: u32,
    open_seq: u64,
    /// `Some` when the uplink is bandwidth-capped (the per-window
    /// serialisation work is per-cohort, see `FleetEngine::ser_ms`).
    link: Option<PsResource>,
    /// The compute queue. Layer 0's is never offered a job: each device
    /// serves its own windows (`FleetEngine::busy_until`).
    queue: FifoQueue,
    offered: u64,
    served: u64,
    dropped_queue: u64,
    dropped_link: u64,
    busy_ms: f64,
    link_work_ms: f64,
    latency: GeomHist,
    /// `ComputeDone`s scheduled before their lane's tail (the heap's).
    #[cfg(test)]
    done_lane_misses: u64,
}

impl LayerState {
    /// `job`, done at this layer (`l`) at `now` and one propagation away
    /// from its device, counted as served: its outcome.
    #[inline]
    fn serve(&mut self, l: usize, now: f64, job: JobRec) -> JobEvent {
        let latency_ms = now + self.prop_ms - job.emit_ms;
        self.served += 1;
        self.latency.record(latency_ms);
        JobEvent::Served { seq: job.seq, device: job.device, layer: l, latency_ms }
    }
}

/// A resumable fleet simulation, advanced barrier by barrier (module
/// docs); once `FleetEngine::next_event_time_ms` is `None` the run is
/// complete and [`FleetEngine::report`] renders its [`FleetReport`].
pub struct FleetEngine<'a> {
    sc: &'a FleetScenario,
    topo: HecTopology,
    k: usize,
    layers: Vec<LayerState>,
    q: EventQueue<Ev>,
    /// First global device id of each cohort.
    bases: Vec<u32>,
    bucket_count: Vec<u32>,
    ticks: Vec<Vec<u32>>,
    /// Per-cohort layer-0 execution time (heterogeneous `local_speed`).
    exec0: Vec<f64>,
    /// Per-cohort per-layer link serialisation work, ms at full bandwidth
    /// (`None` for uncapped links; heterogeneous payloads).
    ser_ms: Vec<Vec<Option<f64>>>,
    total_devices: u64,
    busy_until: Vec<f64>,
    /// Layer-0 windows served and not yet retired from `local`.
    local_inflight: usize,
    local: LocalCompletions,
    next_seq: u64,
    emitted: u64,
    events: u64,
    depth_scratch: Vec<usize>,
    link_scratch: Vec<usize>,
    done_buf: Vec<JobRec>,
    trace: Vec<TraceSample>,
    last_activity_ms: f64,
    /// `LinkDone` pops that completed no job: the estimated completion
    /// time fell short of the job's credit by more than
    /// `PsResource::pop_due_into`'s tolerance.
    #[cfg(test)]
    idle_completions: u64,
    /// Arrival groups re-filed because another event fell between two of
    /// their members.
    #[cfg(test)]
    group_splits: u64,
    /// Every device-local completion and every arrival is a queue event of
    /// its own (`Ev::LocalDone`, one-member groups): the referee the
    /// retirement rule and the arrival groups are held to.
    #[cfg(test)]
    eager: bool,
}

impl<'a> FleetEngine<'a> {
    /// Prepares an engine on the scenario's own topology
    /// ([`FleetScenario::topology`]).
    pub fn new(scenario: &'a FleetScenario) -> Self {
        let topology = scenario.topology();
        Self::with_topology(scenario, topology)
    }

    /// Prepares an engine on an explicit topology (the scenario's
    /// bandwidth overrides are ignored; the topology is taken as-is).
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no cohorts or a cohort's `local_speed`
    /// is invalid.
    pub(crate) fn with_topology(scenario: &'a FleetScenario, topology: HecTopology) -> Self {
        let lanes = scenario.cohorts.len() + 2 * (topology.num_layers() - 1);
        Self::build(scenario, topology, lanes)
    }

    /// The engine over a queue of `lanes` lanes (see `emit_lane`,
    /// `LayerState::arrive_lane` and `LayerState::done_lane` for who gets
    /// which) and one slot per layer (`link_slot`).
    fn build(scenario: &'a FleetScenario, topology: HecTopology, lanes: usize) -> Self {
        assert!(!scenario.cohorts.is_empty(), "scenario has no cohorts");
        let sc = scenario;
        let topo = topology;
        let k = topo.num_layers();
        let total_devices: u64 = sc.total_devices();

        let layers: Vec<LayerState> = (0..k)
            .map(|l| {
                let spec = &topo.layers()[l];
                let link = spec
                    .uplink
                    .bandwidth_mbps
                    .filter(|_| l > 0)
                    .map(|_| PsResource::new(1.0, f64::INFINITY, sc.link_max_inflight));
                let queue = FifoQueue::new(
                    spec.device.concurrency.max(1),
                    sc.queue_capacity,
                    sc.batch_max,
                    sc.batch_factor,
                );
                LayerState {
                    exec_ms: topo.exec_ms(l),
                    prop_ms: spec.uplink.rtt_ms / 2.0,
                    arrive_lane: sc.cohorts.len() + l - 1,
                    done_lane: sc.cohorts.len() + k - 1 + l - 1,
                    arrivals: VecDeque::new(),
                    open: 0,
                    open_seq: 0,
                    link,
                    queue,
                    offered: 0,
                    served: 0,
                    dropped_queue: 0,
                    dropped_link: 0,
                    busy_ms: 0.0,
                    link_work_ms: 0.0,
                    latency: GeomHist::new(),
                    #[cfg(test)]
                    done_lane_misses: 0,
                }
            })
            .collect();

        // Per-cohort heterogeneity tables.
        let exec0: Vec<f64> = sc.cohorts.iter().map(|c| c.local_exec_ms(topo.exec_ms(0))).collect();
        let ser_ms: Vec<Vec<Option<f64>>> = sc
            .cohorts
            .iter()
            .map(|c| {
                let bits = c.payload_or(sc.payload_bytes) as f64 * 8.0;
                (0..k)
                    .map(|l| {
                        topo.layers()[l]
                            .uplink
                            .bandwidth_mbps
                            .filter(|_| l > 0)
                            .map(|mbps| bits / (mbps * 1e6) * 1e3)
                    })
                    .collect()
            })
            .collect();

        // Emission schedule: devices of cohort c occupy the contiguous id
        // range starting at `bases[c]`; each cohort's devices are spread
        // over `buckets` phase offsets within the period, one Emit event
        // per bucket tick.
        let mut bases: Vec<u32> = Vec::with_capacity(sc.cohorts.len());
        let mut next = 0u32;
        for c in &sc.cohorts {
            bases.push(next);
            next += c.devices;
        }
        let bucket_count: Vec<u32> =
            sc.cohorts.iter().map(|c| sc.emit_buckets.clamp(1, c.devices.max(1))).collect();
        let ticks: Vec<Vec<u32>> = bucket_count.iter().map(|&b| vec![0u32; b as usize]).collect();

        let mut engine = Self {
            sc,
            topo,
            k,
            layers,
            q: EventQueue::with_lanes_and_slots(lanes, k),
            bases,
            bucket_count,
            ticks,
            exec0,
            ser_ms,
            total_devices,
            busy_until: vec![0.0f64; total_devices as usize],
            local_inflight: 0,
            local: LocalCompletions::new(sc.cohorts.len()),
            next_seq: 0,
            emitted: 0,
            events: 0,
            depth_scratch: vec![0usize; k],
            link_scratch: vec![0usize; k],
            done_buf: Vec::with_capacity(sc.batch_max.max(16)),
            trace: Vec::new(),
            last_activity_ms: 0.0,
            #[cfg(test)]
            idle_completions: 0,
            #[cfg(test)]
            group_splits: 0,
            #[cfg(test)]
            eager: false,
        };

        for (c, spec) in sc.cohorts.iter().enumerate() {
            if spec.devices == 0 || spec.windows_per_device == 0 {
                continue;
            }
            for b in 0..engine.bucket_count[c] {
                engine.q.schedule_on(
                    engine.emit_lane(c),
                    engine.emit_time(c, b, 0),
                    Ev::Emit { cohort: c as u32, bucket: b },
                );
            }
        }
        if sc.max_trace_samples > 0 {
            engine.q.schedule(0.0, Ev::Trace);
        }
        engine
    }

    /// Virtual time of the earliest pending event, device-local
    /// completions included, or `None` when the run is complete. This is
    /// what the sharded coordinator derives its conservative barrier times
    /// from.
    pub(crate) fn next_event_time_ms(&self) -> Option<f64> {
        match (self.q.peek_time_ms(), self.local.next_ms()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the simulation through every event at or before
    /// `barrier_ms`, handing each per-window outcome to `sink` with the
    /// virtual time of the event that produced it (the sink is therefore
    /// called in time order).
    ///
    /// This is the shard-local primitive behind the sharded fleet engine:
    /// a shard advances to the coordinator's barrier, and the coordinator
    /// merges the timestamped outcomes across shards in stable shard order.
    ///
    /// # Panics
    ///
    /// Panics if the router returns a layer outside the topology.
    pub fn advance_until<R: FnMut(&RouteCtx) -> usize + ?Sized>(
        &mut self,
        barrier_ms: f64,
        router: &mut R,
        sink: &mut impl FnMut(f64, JobEvent),
    ) {
        self.advance(barrier_ms, &mut (router, sink));
    }

    /// The loop behind [`FleetEngine::advance_until`] and a shard's closed
    /// loop: every event at or before `barrier_ms`, `driver` told after
    /// each, then the local completions due by the barrier retired.
    pub(crate) fn advance<D: Driver + ?Sized>(&mut self, barrier_ms: f64, driver: &mut D) {
        while let Some((now, seq, ev)) = self.q.pop_seq_at_or_before(barrier_ms) {
            self.dispatch((now, seq), ev, driver);
            driver.handled(self);
        }
        self.retire_local((barrier_ms, u64::MAX));
    }

    /// Retires every pending device-local completion that would have
    /// popped before `bound`, a `(time, seq)`: each counts as an event
    /// processed at its finish time.
    #[inline]
    fn retire_local(&mut self, bound: Head) {
        while let Some(finish) = self.local.pop_before(bound) {
            debug_assert!(self.local_inflight > 0, "more local completions than serves");
            self.local_inflight -= 1;
            self.events += 1;
            // Completions retire in order, but possibly after queue events
            // due later: the horizon is the latest of them all.
            self.last_activity_ms = self.last_activity_ms.max(finish);
        }
    }

    /// Files the completion of a window served at layer 0 by cohort `c`,
    /// due at `finish`: in `local`, under a `seq` taken where scheduling
    /// it would have taken one.
    #[inline]
    fn complete_locally(&mut self, c: usize, finish: f64) {
        #[cfg(test)]
        if self.eager {
            self.q.schedule(finish, Ev::LocalDone);
            return;
        }
        let seq = self.q.reserve_seq();
        self.local.push(c, finish, seq);
    }

    /// Adds this engine's raw counters to a fleet's totals: the one sum
    /// every report is rendered from, whether the fleet is this engine
    /// alone ([`FleetEngine::report`]) or the shards of a plan.
    pub(crate) fn add_to(&self, totals: &mut FleetTotals) {
        totals.engines += 1;
        totals.horizon_ms = totals.horizon_ms.max(self.last_activity_ms);
        totals.events += self.events;
        totals.emitted += self.emitted;
        for (l, (sum, layer)) in totals.layers.iter_mut().zip(&self.layers).enumerate() {
            sum.servers += if l == 0 {
                self.total_devices
            } else {
                self.topo.layers()[l].device.concurrency.max(1) as u64
            };
            sum.offered += layer.offered;
            sum.served += layer.served;
            sum.dropped_queue += layer.dropped_queue;
            sum.dropped_link += layer.dropped_link;
            sum.busy_ms += layer.busy_ms;
            sum.link_work_ms += layer.link_work_ms;
            sum.latency.merge(&layer.latency);
            sum.peak_queue_depth = sum.peak_queue_depth.max(layer.queue.peak_depth);
            sum.peak_link_inflight =
                sum.peak_link_inflight.max(layer.link.as_ref().map_or(0, |ps| ps.peak_inflight));
            sum.has_link |= layer.link.is_some();
        }
    }

    /// Discrete events processed so far.
    pub(crate) fn events_processed(&self) -> u64 {
        self.events
    }

    /// Virtual time of the last processed non-trace event.
    pub(crate) fn last_activity_ms(&self) -> f64 {
        self.last_activity_ms
    }

    /// Queue-depth samples collected so far.
    pub(crate) fn trace_samples(&self) -> &[TraceSample] {
        &self.trace
    }

    /// Device-id range `(lo, hi)` of bucket `b` within cohort `c`.
    fn bucket_range(&self, c: usize, b: u32) -> (u32, u32) {
        let devices = self.sc.cohorts[c].devices;
        let buckets = self.bucket_count[c];
        let base = devices / buckets;
        let rem = devices % buckets;
        let lo = b * base + b.min(rem);
        let hi = lo + base + u32::from(b < rem);
        (lo, hi)
    }

    /// Virtual time at which bucket `b` of cohort `c` emits tick `tick`.
    fn emit_time(&self, c: usize, b: u32, tick: u32) -> f64 {
        let spec = &self.sc.cohorts[c];
        let phase = spec.period_ms * (b as f64 / self.bucket_count[c] as f64);
        spec.start_ms + tick as f64 * spec.period_ms + phase
    }

    /// Lane of cohort `c`'s `Emit` events: its buckets fire round-robin in
    /// phase order, tick after tick.
    fn emit_lane(&self, c: usize) -> usize {
        c
    }

    /// Slot of layer `l`'s `LinkDone`: the capped uplink's next completion.
    fn link_slot(l: usize) -> usize {
        l
    }

    /// Layer `l`'s backlog as the router and the trace see it: the
    /// device-local in-flight count at layer 0, the waiting line above.
    fn depth(&self, l: usize) -> usize {
        if l == 0 {
            self.local_inflight
        } else {
            self.layers[l].queue.depth()
        }
    }

    /// Adds `job` to layer `l`'s open arrival group under the `seq` its own
    /// arrival event would have taken here.
    #[inline]
    fn gather(&mut self, l: usize, job: JobRec) {
        let seq = self.q.reserve_seq();
        let lay = &mut self.layers[l];
        if lay.open == 0 {
            lay.open_seq = seq;
        }
        lay.open += 1;
        lay.arrivals.push_back((seq, job));
        #[cfg(test)]
        if self.eager {
            self.file_open(l);
        }
    }

    /// Files layer `l`'s open arrival group, if it has members, on the
    /// layer's arrive lane: due one propagation after the running handler,
    /// under its first member's `seq`.
    #[inline]
    fn file_open(&mut self, l: usize) {
        let lay = &mut self.layers[l];
        if lay.open == 0 {
            return;
        }
        let group = Ev::Arrive { layer: l as u8, count: lay.open };
        lay.open = 0;
        let t = self.q.now_ms() + lay.prop_ms;
        self.q.schedule_reserved_on(lay.arrive_lane, t, lay.open_seq, group);
    }

    /// Handles one queue entry popped at `at` = `(now, seq)`, routing its
    /// windows and handing its per-window outcomes to `driver`.
    fn dispatch<D: Driver + ?Sized>(&mut self, at: Head, ev: Ev, driver: &mut D) {
        let now = at.0;
        self.events += 1;
        if !matches!(ev, Ev::Trace) {
            self.last_activity_ms = now;
        }
        match ev {
            Ev::Emit { cohort, bucket } => {
                let c = cohort as usize;
                // The bucket's depths read the local gauge.
                self.retire_local(at);
                for l in 0..self.k {
                    self.depth_scratch[l] = self.depth(l);
                    self.link_scratch[l] =
                        self.layers[l].link.as_ref().map_or(0, PsResource::inflight);
                }
                let (lo, hi) = self.bucket_range(c, bucket);
                let exec0 = self.exec0[c];
                for local in lo..hi {
                    let device = self.bases[c] + local;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.emitted += 1;
                    let ctx = RouteCtx {
                        device,
                        seq,
                        cohort,
                        now_ms: now,
                        queue_depth: &self.depth_scratch,
                        link_inflight: &self.link_scratch,
                    };
                    let target = driver.route(&ctx);
                    assert!(target < self.k, "router chose layer {target} of {}", self.k);
                    let layer = &mut self.layers[target];
                    layer.offered += 1;
                    if target == 0 {
                        // Dedicated per-device server: the device's own
                        // backlog is the queue.
                        let d = device as usize;
                        let start = self.busy_until[d].max(now);
                        if start - now > self.sc.local_backlog_ms {
                            layer.dropped_queue += 1;
                            driver.outcome(
                                now,
                                JobEvent::Dropped {
                                    seq,
                                    device,
                                    layer: 0,
                                    reason: DropReason::QueueFull,
                                },
                            );
                        } else {
                            let finish = start + exec0;
                            self.busy_until[d] = finish;
                            layer.busy_ms += exec0;
                            layer.served += 1;
                            let latency = finish - now;
                            layer.latency.record(latency);
                            self.local_inflight += 1;
                            self.complete_locally(c, finish);
                            driver.outcome(
                                now,
                                JobEvent::Served { seq, device, layer: 0, latency_ms: latency },
                            );
                        }
                    } else {
                        let job = JobRec { emit_ms: now, seq, device };
                        match (&mut layer.link, self.ser_ms[c][target]) {
                            (Some(ps), Some(work)) => {
                                if ps.offer(now, work, job) {
                                    layer.link_work_ms += work;
                                    // Invariant: `offer` just admitted a
                                    // transfer, so one is in flight.
                                    let t = ps.next_completion_ms().expect("just offered").max(now);
                                    self.q.schedule_in_slot(
                                        Self::link_slot(target),
                                        t,
                                        Ev::LinkDone { layer: target as u8 },
                                    );
                                } else {
                                    layer.dropped_link += 1;
                                    driver.outcome(
                                        now,
                                        JobEvent::Dropped {
                                            seq,
                                            device,
                                            layer: target,
                                            reason: DropReason::LinkSaturated,
                                        },
                                    );
                                }
                            }
                            _ => self.gather(target, job),
                        }
                    }
                }
                for l in 1..self.k {
                    self.file_open(l);
                }
                let tick = self.ticks[c][bucket as usize] + 1;
                self.ticks[c][bucket as usize] = tick;
                if tick < self.sc.cohorts[c].windows_per_device {
                    self.q.schedule_on(
                        self.emit_lane(c),
                        self.emit_time(c, bucket, tick),
                        Ev::Emit { cohort, bucket },
                    );
                }
            }

            Ev::LinkDone { layer } => {
                let l = layer as usize;
                // Invariant: only a capped link's `offer` and completions
                // schedule a `LinkDone`, and a layer's cap is fixed at build.
                let ps = self.layers[l].link.as_mut().expect("LinkDone on uncapped link");
                self.done_buf.clear();
                ps.pop_due_into(now, &mut self.done_buf);
                #[cfg(test)]
                {
                    self.idle_completions += u64::from(self.done_buf.is_empty());
                }
                if let Some(t) = ps.next_completion_ms() {
                    self.q.schedule_in_slot(Self::link_slot(l), t.max(now), Ev::LinkDone { layer });
                }
                let mut done = std::mem::take(&mut self.done_buf);
                for job in done.drain(..) {
                    self.gather(l, job);
                }
                self.done_buf = done;
                self.file_open(l);
            }

            Ev::Arrive { layer, count } => self.arrive_group(at, layer as usize, count, driver),

            Ev::ComputeDone { layer, slot } => {
                let l = layer as usize;
                let lay = &mut self.layers[l];
                self.done_buf.clear();
                lay.queue.complete_into(slot as usize, &mut self.done_buf);
                for job in self.done_buf.drain(..) {
                    driver.outcome(now, lay.serve(l, now, job));
                }
                self.start_services(l, now);
            }

            #[cfg(test)]
            Ev::LocalDone => {
                self.local_inflight -= 1;
            }

            Ev::Trace => {
                // The sample reads the local gauge.
                self.retire_local(at);
                let sample = TraceSample {
                    t_ms: now,
                    queue_depth: (0..self.k).map(|l| self.depth(l)).collect(),
                    link_inflight: self
                        .layers
                        .iter()
                        .map(|layer| layer.link.as_ref().map_or(0, PsResource::inflight))
                        .collect(),
                };
                self.trace.push(sample);
                if self.trace.len() < self.sc.max_trace_samples
                    && self.next_event_time_ms().is_some()
                {
                    self.q.schedule_in(self.sc.trace_interval_ms, Ev::Trace);
                }
            }
        }
    }

    /// Handles the `count` members of layer `l`'s arrival group, popped at
    /// `at` = `(t, seq of its first member)`, one event each. The group
    /// stops early — the rest re-filed under the next member's `seq` —
    /// before a member that another queued event pops ahead of.
    fn arrive_group<D: Driver + ?Sized>(&mut self, at: Head, l: usize, count: u32, driver: &mut D) {
        let t = at.0;
        // Handling a member schedules events after every member, so the
        // queue's earliest entry when the second member is due is the only
        // one that can interleave (a group of one never looks).
        let mut bound = None;
        for i in 0..count {
            // Invariant: a layer's groups pop in filing order, so this
            // group's members are the front `count` of `arrivals`.
            let &(seq, job) = self.layers[l].arrivals.front().expect("group members queued");
            debug_assert!(i > 0 || seq == at.1, "group popped off its first member's seq");
            if i > 0 {
                let bound = *bound.get_or_insert_with(|| self.q.peek_head().unwrap_or(NO_HEAD));
                if !before((t, seq), bound) {
                    #[cfg(test)]
                    {
                        self.group_splits += 1;
                    }
                    let rest = Ev::Arrive { layer: l as u8, count: count - i };
                    self.q.schedule_reserved_on(self.layers[l].arrive_lane, t, seq, rest);
                    return;
                }
                self.events += 1;
            }
            self.layers[l].arrivals.pop_front();
            if let Some(dropped) = self.arrive(l, t, job) {
                driver.outcome(t, dropped);
            }
        }
    }

    /// One window reaching layer `l`'s compute queue at `now`: its drop,
    /// if the queue turns it away.
    #[inline]
    fn arrive(&mut self, l: usize, now: f64, job: JobRec) -> Option<JobEvent> {
        if self.layers[l].queue.offer(job) {
            self.start_services(l, now);
            return None;
        }
        let lay = &mut self.layers[l];
        lay.dropped_queue += 1;
        Some(JobEvent::Dropped {
            seq: job.seq,
            device: job.device,
            layer: l,
            reason: DropReason::QueueFull,
        })
    }

    /// Starts every service layer `l`'s queue can start at `now`, each
    /// one's `ComputeDone` on the layer's lane.
    #[inline]
    fn start_services(&mut self, l: usize, now: f64) {
        let lay = &mut self.layers[l];
        while let Some((slot, dur)) = lay.queue.dispatch(lay.exec_ms) {
            lay.busy_ms += dur;
            #[cfg(test)]
            {
                let tail = self.q.lane_tail_ms(lay.done_lane);
                lay.done_lane_misses += u64::from(tail.is_some_and(|tail| now + dur < tail));
            }
            let done = Ev::ComputeDone { layer: l as u8, slot: slot as u32 };
            self.q.schedule_on(lay.done_lane, now + dur, done);
        }
    }

    /// Renders the run's report. Normally called once the run is complete
    /// (`FleetEngine::next_event_time_ms` is `None`); calling earlier
    /// reports the progress so far (utilization denominators use the last
    /// processed activity time).
    pub fn report(&self) -> FleetReport {
        let mut totals = FleetTotals::new(self.k);
        self.add_to(&mut totals);
        totals.report(&self.sc.name, &self.topo, self.trace.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fleet::scenario::{CohortSpec, FleetScale, RoutePlan};
    use crate::network::Link;

    impl<'a> FleetEngine<'a> {
        /// The engine with every queue event but the PS completions in the
        /// queue's heap: the referee the lane mapping is held to.
        fn heap_only(scenario: &'a FleetScenario, topology: HecTopology) -> Self {
            Self::build(scenario, topology, 0)
        }

        /// The engine that keeps every device-local completion as a queue
        /// event and retires it when it pops, and files every arrival as a
        /// group of one where it reserves the arrival's `seq`: the referee
        /// the retirement rule and the arrival groups are held to.
        fn eager(scenario: &'a FleetScenario, topology: HecTopology) -> Self {
            Self { eager: true, ..Self::with_topology(scenario, topology) }
        }
    }

    /// A tiny scenario: `devices` devices, `windows` windows each, one
    /// window per `period_ms`, all routed by `route`.
    fn tiny(devices: u32, windows: u32, period_ms: f64, route: RoutePlan) -> FleetScenario {
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.name = "tiny".into();
        sc.cohorts = vec![CohortSpec::uniform(devices, windows, period_ms, 0.0, route)];
        sc
    }

    /// Runs `sc` to completion as a closed loop under `router`, handing
    /// every outcome to `observer` once the event that produced it is
    /// handled.
    fn run_with(
        sc: &FleetScenario,
        router: &mut dyn FnMut(&RouteCtx) -> usize,
        observer: &mut dyn FnMut(&JobEvent),
    ) -> FleetReport {
        let mut engine = FleetEngine::new(sc);
        let hear = |heard: &[JobEvent]| heard.iter().for_each(&mut *observer);
        engine.advance(f64::INFINITY, &mut Hearing::new(router, hear));
        engine.report()
    }

    /// Runs `sc` to completion under its own routing plans.
    fn run(sc: &FleetScenario) -> FleetReport {
        run_with(sc, &mut |ctx| sc.planned_layer(ctx.cohort, ctx.seq), &mut |_| {})
    }

    #[test]
    fn unloaded_cloud_latency_matches_table2() {
        // One device, slow emission, always-cloud: no queueing anywhere,
        // so every window costs exactly 500 ms RTT + 4.5 ms exec.
        let sc = tiny(1, 5, 10_000.0, RoutePlan::Fixed(2));
        let report = run(&sc);
        assert_eq!(report.served, 5);
        assert_eq!(report.dropped, 0);
        assert!((report.layers[2].mean_ms - 504.5).abs() < 1e-9, "{}", report.layers[2].mean_ms);
        assert!((report.layers[2].max_ms - 504.5).abs() < 1e-9);
    }

    #[test]
    fn unloaded_iot_latency_matches_table2() {
        let sc = tiny(3, 4, 10_000.0, RoutePlan::Fixed(0));
        let report = run(&sc);
        assert_eq!(report.served, 12);
        assert!((report.layers[0].mean_ms - 12.4).abs() < 1e-9);
    }

    #[test]
    fn saturation_makes_latency_load_dependent() {
        // 200 devices fire a window every 2 ms at the edge (100k/s) —
        // far beyond the TX2's ~540/s: queueing must push p99 well above
        // the unloaded 257.4 ms, and the bounded queue must shed load.
        let mut sc = tiny(200, 20, 2.0, RoutePlan::Fixed(1));
        sc.batch_max = 1;
        sc.queue_capacity = 100;
        let report = run(&sc);
        let edge = &report.layers[1];
        assert!(edge.dropped_queue > 0, "bounded queue never shed load");
        assert!(edge.p99_ms > 400.0, "p99 {} not load-dependent", edge.p99_ms);
        assert!(edge.utilization > 0.5, "util {}", edge.utilization);
        assert!(edge.peak_queue_depth == 100, "peak {}", edge.peak_queue_depth);
    }

    #[test]
    fn bandwidth_capped_link_contends() {
        // 50 devices upload simultaneously over a 1 Mbit/s cloud link:
        // 384 B = 3.072 ms alone, ~×50 when fully shared.
        let mut sc = tiny(50, 4, 1000.0, RoutePlan::Fixed(2));
        sc.cloud_bandwidth_mbps = Some(1.0);
        sc.emit_buckets = 1; // all devices in one bucket → simultaneous
        let report = run(&sc);
        let cloud = &report.layers[2];
        assert_eq!(cloud.served, 200);
        assert!(cloud.peak_link_inflight >= 50, "peak {}", cloud.peak_link_inflight);
        // Last transfer of a 50-share round: ≈ 50 × 3.072 = 153.6 ms of
        // serialisation on top of the 504.5 ms floor.
        assert!(cloud.max_ms > 504.5 + 100.0, "max {}", cloud.max_ms);
        assert!(cloud.link_utilization.unwrap() > 0.0);
    }

    #[test]
    fn link_admission_bound_drops() {
        let mut sc = tiny(50, 2, 1000.0, RoutePlan::Fixed(2));
        sc.cloud_bandwidth_mbps = Some(0.5);
        sc.link_max_inflight = 10;
        sc.emit_buckets = 1;
        let report = run(&sc);
        assert!(report.layers[2].dropped_link > 0, "admission bound never tripped");
        assert_eq!(report.served + report.dropped, report.emitted);
    }

    #[test]
    fn local_backlog_bound_drops() {
        // One device emitting every 1 ms but needing 12.4 ms per window
        // locally: the backlog crosses 50 ms and subsequent windows drop.
        let mut sc = tiny(1, 100, 1.0, RoutePlan::Fixed(0));
        sc.local_backlog_ms = 50.0;
        let report = run(&sc);
        assert!(report.layers[0].dropped_queue > 0);
        assert!(report.layers[0].served > 0);
        assert_eq!(report.served + report.dropped, report.emitted);
    }

    #[test]
    fn conservation_emitted_equals_served_plus_dropped() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let report = run(&sc);
            assert_eq!(report.emitted, sc.total_windows(), "{name}");
            assert_eq!(report.served + report.dropped, report.emitted, "{name}");
        }
    }

    #[test]
    fn reruns_are_identical() {
        let sc = FleetScenario::flash_crowd(FleetScale::Quick);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn observer_sees_every_window() {
        let sc = tiny(10, 10, 5.0, RoutePlan::Mixture([0.4, 0.3, 0.3]));
        let mut served = 0u64;
        let mut dropped = 0u64;
        let mut router = |ctx: &RouteCtx| (ctx.seq % 3) as usize;
        let report = run_with(&sc, &mut router, &mut |ev| match ev {
            JobEvent::Served { .. } => served += 1,
            JobEvent::Dropped { .. } => dropped += 1,
        });
        assert_eq!(served, report.served);
        assert_eq!(dropped, report.dropped);
        assert_eq!(served + dropped, 100);
    }

    #[test]
    fn trace_samples_cover_the_run() {
        let sc = tiny(20, 10, 10.0, RoutePlan::Fixed(1));
        let report = run(&sc);
        assert!(!report.trace.is_empty());
        assert!(report.trace.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
    }

    #[test]
    #[should_panic(expected = "router chose layer 9")]
    fn out_of_range_route_panics() {
        let sc = tiny(1, 1, 10.0, RoutePlan::Fixed(0));
        let mut router = |_: &RouteCtx<'_>| 9usize;
        let _ = run_with(&sc, &mut router, &mut |_| {});
    }

    /// Stepping an engine to completion (the referee), running it as a
    /// closed loop and advancing it to an infinite barrier must yield the
    /// same outcome stream and the byte-identical report.
    #[test]
    fn step_matches_advance_until_infinity() {
        let mut sc = tiny(40, 8, 5.0, RoutePlan::Fixed(0));
        sc.batch_max = 2;
        let route = |ctx: &RouteCtx| (ctx.seq % 3) as usize;

        let mut advanced = FleetEngine::new(&sc);
        let mut pushed: Vec<JobEvent> = Vec::new();
        advanced.advance_until(f64::INFINITY, &mut { route }, &mut |_, ev| pushed.push(ev));

        let (tokens, _, _, _, report) = by_step(&mut FleetEngine::new(&sc), route);
        let pulled: Vec<JobEvent> = heard(&tokens).collect();
        assert_eq!(pushed, pulled);
        assert_eq!(advanced.report(), report);
        assert_eq!(advanced.report().to_text(), report.to_text());

        let (looped, _, _, _, closed_report) = by_loop(&mut FleetEngine::new(&sc), route);
        assert_eq!(looped, tokens);
        assert_eq!(closed_report, report);
        assert_eq!(closed_report.to_text(), report.to_text());
    }

    /// A closed loop exists so routing state can change with what it
    /// hears: a router that reacts to the previous outcome must be legal
    /// and deterministic.
    #[test]
    fn router_state_can_mutate_between_steps() {
        let mut sc = tiny(30, 6, 4.0, RoutePlan::Fixed(0));
        // Devices back up locally (12.4 ms of work every 4 ms), so layer 0
        // drops and the router moves.
        sc.local_backlog_ms = 20.0;
        let run = || {
            let mut engine = FleetEngine::new(&sc);
            let target = std::cell::Cell::new(0usize);
            let mut outcomes = Vec::new();
            let hear = |heard: &[JobEvent]| {
                for &ev in heard {
                    // Feedback: a drop pushes subsequent windows up a layer.
                    if matches!(ev, JobEvent::Dropped { .. }) {
                        target.set((target.get() + 1) % 3);
                    }
                    outcomes.push(ev);
                }
            };
            engine.advance(f64::INFINITY, &mut Hearing::new(|_: &RouteCtx| target.get(), hear));
            (outcomes, engine.report())
        };
        let (ev_a, rep_a) = run();
        let (ev_b, rep_b) = run();
        assert!(ev_a.iter().any(|ev| matches!(ev, JobEvent::Dropped { .. })), "no feedback");
        assert_eq!(ev_a, ev_b);
        assert_eq!(rep_a, rep_b);
    }

    /// A slower cohort pays proportionally more for local execution; a
    /// heavier-payload cohort pays more link serialisation on a capped
    /// uplink. Both knobs leave uniform cohorts bit-identical to PR 3.
    #[test]
    fn heterogeneous_cohorts_change_latency() {
        // Two local cohorts, second at half speed → double exec time.
        let mut sc = tiny(2, 3, 10_000.0, RoutePlan::Fixed(0));
        sc.cohorts.push(CohortSpec {
            local_speed: 0.5,
            ..CohortSpec::uniform(2, 3, 10_000.0, 0.0, RoutePlan::Fixed(0))
        });
        let report = run(&sc);
        assert_eq!(report.served, 12);
        assert!((report.layers[0].max_ms - 24.8).abs() < 1e-9, "{}", report.layers[0].max_ms);
        // The fast cohort still pays the testbed 12.4 ms (the p50 over
        // half-fast half-slow sits between the two).
        assert!(report.layers[0].mean_ms > 12.4 && report.layers[0].mean_ms < 24.8);

        // Two cloud cohorts over a capped link, second with 4× payload.
        let mut sc = tiny(1, 2, 10_000.0, RoutePlan::Fixed(2));
        sc.cloud_bandwidth_mbps = Some(1.0);
        sc.cohorts.push(CohortSpec {
            payload_bytes: Some(4 * 384),
            // Offset so transfers never overlap: latency is pure serialisation.
            ..CohortSpec::uniform(1, 2, 10_000.0, 3_000.0, RoutePlan::Fixed(2))
        });
        let report = run(&sc);
        assert_eq!(report.served, 4);
        // 384 B at 1 Mbit/s = 3.072 ms; 1536 B = 12.288 ms.
        let base = 504.5;
        assert_eq!(report.layers[2].served, 4);
        assert!(
            (report.layers[2].max_ms - (base + 12.288)).abs() < 1e-6,
            "max {}",
            report.layers[2].max_ms
        );
        assert!(
            (report.layers[2].mean_ms - (base + (3.072 + 12.288) / 2.0)).abs() < 1e-6,
            "mean {}",
            report.layers[2].mean_ms
        );
    }

    /// What a caller can see of an engine between two calls: events
    /// processed, last activity, next event time.
    pub(crate) type Seen = (u64, f64, Option<f64>);

    /// A run by barriers as the referee tests compare it: what came out of
    /// each call with what the engine showed after it, what it showed at
    /// the end, the PS completions that completed no job, and the report.
    type Run<T> = (Vec<(T, Seen)>, Seen, u64, FleetReport);

    /// One thing a closed run did: route window `seq` to a layer, or hear
    /// an outcome.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Token {
        Route(u64, usize),
        Hear(JobEvent),
    }

    /// A closed run as the referee tests compare it: every route and heard
    /// outcome in the order they happened, what the engine showed when each
    /// outcome was heard, what it showed at the end, the PS completions
    /// that completed no job, and the report.
    pub(crate) type Closed = (Vec<Token>, Vec<Seen>, Seen, u64, FleetReport);

    fn seen(engine: &FleetEngine) -> Seen {
        (engine.events_processed(), engine.last_activity_ms(), engine.next_event_time_ms())
    }

    /// The outcomes among `tokens`, in order.
    fn heard(tokens: &[Token]) -> impl Iterator<Item = JobEvent> + '_ {
        tokens.iter().filter_map(|&token| match token {
            Token::Hear(ev) => Some(ev),
            Token::Route(..) => None,
        })
    }

    /// A closed loop on the engine's own loop, as a shard runs one: each
    /// handled event's outcomes heard by `hear` once it is handled, and
    /// every route and heard outcome logged, with what the engine showed
    /// at each hear.
    struct Hearing<R, H> {
        route: R,
        hear: H,
        outcomes: Vec<JobEvent>,
        tokens: Vec<Token>,
        views: Vec<Seen>,
    }

    impl<R, H> Hearing<R, H> {
        fn new(route: R, hear: H) -> Self {
            Self { route, hear, outcomes: vec![], tokens: vec![], views: vec![] }
        }
    }

    impl<R, H> Driver for Hearing<R, H>
    where
        R: FnMut(&RouteCtx) -> usize,
        H: FnMut(&[JobEvent]),
    {
        fn route(&mut self, ctx: &RouteCtx) -> usize {
            let layer = (self.route)(ctx);
            self.tokens.push(Token::Route(ctx.seq, layer));
            layer
        }

        fn outcome(&mut self, _: f64, ev: JobEvent) {
            self.outcomes.push(ev);
        }

        fn handled(&mut self, engine: &FleetEngine<'_>) {
            if self.outcomes.is_empty() {
                return;
            }
            (self.hear)(&self.outcomes);
            for &ev in &self.outcomes {
                self.tokens.push(Token::Hear(ev));
                self.views.push(seen(engine));
            }
            self.outcomes.clear();
        }
    }

    /// The per-outcome driver the closed loop replaced, kept as its
    /// referee: each call handles events until one has an outcome, returns
    /// that outcome and queues the event's others for the next calls; an
    /// arrival group also stops after a member that drops, where that
    /// member's own event would have returned; and before returning from
    /// an event it retires the device-local completions due before the
    /// last window it handled, so the caller sees what a queue holding
    /// them would show.
    struct Stepper<'e, 'a> {
        engine: &'e mut FleetEngine<'a>,
        pending: VecDeque<JobEvent>,
    }

    impl Stepper<'_, '_> {
        fn step(&mut self, router: &mut dyn FnMut(&RouteCtx) -> usize) -> Option<JobEvent> {
            let Self { engine, pending } = self;
            loop {
                if let Some(ev) = pending.pop_front() {
                    return Some(ev);
                }
                let Some((now, seq, ev)) = engine.q.pop_seq_at_or_before(f64::INFINITY) else {
                    engine.retire_local(NO_HEAD);
                    return None;
                };
                let mut out = (&mut *router, &mut |_, ev| pending.push_back(ev));
                let last = match ev {
                    Ev::Arrive { layer, count } => {
                        engine.events += 1;
                        engine.last_activity_ms = now;
                        engine.yielding_group((now, seq), layer as usize, count, &mut out)
                    }
                    ev => {
                        engine.dispatch((now, seq), ev, &mut out);
                        (now, seq)
                    }
                };
                if !pending.is_empty() {
                    engine.retire_local(last);
                }
            }
        }
    }

    impl FleetEngine<'_> {
        /// `arrive_group` as the stepper ran it: it also stops after a
        /// member that drops, and returns the `(time, seq)` of the last
        /// member it handled.
        fn yielding_group(
            &mut self,
            at: Head,
            l: usize,
            count: u32,
            out: &mut impl Driver,
        ) -> Head {
            let t = at.0;
            let mut bound = None;
            let mut last = at;
            let mut yielded = false;
            for i in 0..count {
                let &(seq, job) = self.layers[l].arrivals.front().expect("group members queued");
                if i > 0 {
                    let bound = *bound.get_or_insert_with(|| self.q.peek_head().unwrap_or(NO_HEAD));
                    let interleaved = !before((t, seq), bound);
                    if interleaved || yielded {
                        self.group_splits += u64::from(interleaved);
                        let rest = Ev::Arrive { layer: l as u8, count: count - i };
                        self.q.schedule_reserved_on(self.layers[l].arrive_lane, t, seq, rest);
                        return last;
                    }
                    self.events += 1;
                }
                self.layers[l].arrivals.pop_front();
                last = (t, seq);
                if let Some(dropped) = self.arrive(l, t, job) {
                    out.outcome(t, dropped);
                    yielded = true;
                }
            }
            last
        }
    }

    /// Steps `engine` to completion with the referee, one outcome a call.
    pub(crate) fn by_step(
        engine: &mut FleetEngine,
        mut route: impl FnMut(&RouteCtx) -> usize,
    ) -> Closed {
        let mut stepper = Stepper { engine, pending: VecDeque::new() };
        let (mut tokens, mut views) = (Vec::new(), Vec::new());
        loop {
            let ev = stepper.step(&mut |ctx| {
                let layer = route(ctx);
                tokens.push(Token::Route(ctx.seq, layer));
                layer
            });
            let Some(ev) = ev else { break };
            tokens.push(Token::Hear(ev));
            views.push(seen(stepper.engine));
        }
        let engine = stepper.engine;
        (tokens, views, seen(engine), engine.idle_completions, engine.report())
    }

    /// Runs `engine` to completion as a closed loop.
    fn by_loop(engine: &mut FleetEngine, route: impl FnMut(&RouteCtx) -> usize) -> Closed {
        let mut driver = Hearing::new(route, |_: &[JobEvent]| {});
        engine.advance(f64::INFINITY, &mut driver);
        (driver.tokens, driver.views, seen(engine), engine.idle_completions, engine.report())
    }

    /// The closed loop held to the stepper it replaced on `sc` over
    /// `topo()`: the same routes and heard outcomes in the same order, and
    /// the same end and report; on the engine that keeps every event one
    /// window's own (`eager`, where no arrival group holds two windows)
    /// the same view at every hear too; and the very same run, views
    /// included, on the engine with every lane event in the heap. Returns
    /// the closed run and the stepped one on the engine itself.
    fn closed_loop_holds_to_the_stepper(
        sc: &FleetScenario,
        topo: impl Fn() -> HecTopology,
        route: impl FnMut(&RouteCtx) -> usize + Copy,
    ) -> (Closed, Closed) {
        let looped = by_loop(&mut FleetEngine::with_topology(sc, topo()), route);
        let stepped = by_step(&mut FleetEngine::with_topology(sc, topo()), route);
        let (tokens, _, end, idle, report) = &stepped;
        assert_eq!((&looped.0, &looped.2, looped.3, &looped.4), (tokens, end, *idle, report));
        assert_eq!(looped, by_loop(&mut FleetEngine::heap_only(sc, topo()), route));
        let eager = || FleetEngine::eager(sc, topo());
        assert_eq!(by_loop(&mut eager(), route), by_step(&mut eager(), route));
        (looped, stepped)
    }

    /// Advances `engine` to completion 5 ms past each next event time, one
    /// barrier's outcomes a call.
    fn by_barriers(
        engine: &mut FleetEngine,
        mut route: impl FnMut(&RouteCtx) -> usize,
    ) -> Run<Vec<(f64, JobEvent)>> {
        let mut barriers = Vec::new();
        while let Some(next) = engine.next_event_time_ms() {
            let mut outcomes = Vec::new();
            engine.advance_until(next + 5.0, &mut route, &mut |t, ev| outcomes.push((t, ev)));
            barriers.push((outcomes, seen(engine)));
        }
        (barriers, seen(engine), engine.idle_completions, engine.report())
    }

    /// Every way an event can miss its lane, in one scenario, against the
    /// same engine with every lane event in the heap and against the one
    /// that keeps device-local completions as queue events: devices
    /// emitting faster than they execute (a backlogged device's completion
    /// lands after an idle one's was filed), two `local_speed`s, two
    /// payload sizes sharing capped links (finish credits out of order).
    /// Where an event waited must not show: same outcome
    /// stream, same event count, horizon and next event time after every
    /// step and barrier, same report — by the stepper and by
    /// `advance_until`; and the closed loop holds to the stepper.
    #[test]
    fn lane_misses_leave_no_trace() {
        let mut sc = tiny(6, 30, 5.0, RoutePlan::Fixed(0));
        sc.cohorts.push(CohortSpec {
            local_speed: 0.5,
            payload_bytes: Some(4 * 384),
            ..CohortSpec::uniform(5, 24, 7.0, 3.0, RoutePlan::Fixed(0))
        });
        sc.edge_bandwidth_mbps = Some(2.0);
        sc.cloud_bandwidth_mbps = Some(1.0);
        sc.link_max_inflight = 12;
        sc.queue_capacity = 1;
        sc.local_backlog_ms = 40.0;
        sc.emit_buckets = 3;
        // Odd devices work locally window after window and back up; even
        // ones take a turn every third window and stay idle.
        let route = |ctx: &RouteCtx| {
            if ctx.device % 2 == 1 {
                0
            } else {
                (ctx.seq % 3) as usize
            }
        };

        let topo = || sc.topology();
        let laned = by_step(&mut FleetEngine::new(&sc), route);
        assert_eq!(laned, by_step(&mut FleetEngine::heap_only(&sc, topo()), route));
        assert_eq!(laned, by_step(&mut FleetEngine::eager(&sc, topo()), route));
        closed_loop_holds_to_the_stepper(&sc, topo, route);
        let barriered = by_barriers(&mut FleetEngine::new(&sc), route);
        assert_eq!(barriered, by_barriers(&mut FleetEngine::heap_only(&sc, topo()), route));
        assert_eq!(barriered, by_barriers(&mut FleetEngine::eager(&sc, topo()), route));

        // The scenario does what it is for: local backlog (a latency above
        // the slow cohort's bare execution time), drops at the backlog
        // bound, the link bound and the PS admission bound, work served on
        // every layer.
        // Every PS completion that pops completes a job here: the estimate
        // lands within `pop_due_into`'s tolerance of the credit each time.
        assert_eq!(laned.3, 0, "PS completions popped that completed no job");

        let report = &laned.4;
        assert!(
            report.layers[0].max_ms > 24.8 + 1.0,
            "no local backlog: {}",
            report.layers[0].max_ms
        );
        assert!(report.layers[0].dropped_queue > 0, "local backlog bound never tripped");
        assert!(report.layers.iter().all(|l| l.served > 0));
        assert!(report.layers[1..].iter().any(|l| l.dropped_link > 0), "link bound never tripped");
        assert!(report.layers[1..].iter().any(|l| l.dropped_queue > 0), "PS bound never tripped");
        assert_eq!(report.served + report.dropped, report.emitted);
    }

    /// Device-local completions due at the very instant of an emission or
    /// a trace sample, on both sides of it in `(time, seq)` order: a
    /// cohort whose layer-0 time equals its emission period (a completion
    /// filed before the next `Emit` was scheduled, so it pops first) and a
    /// twice-as-fast cohort half a period out of phase (filed after, so it
    /// pops after the other cohort's `Emit` and after the `Trace`). The
    /// router reads the local gauge, so a completion retired on the wrong
    /// side of an event moves windows. Held to the engine that keeps
    /// completions as queue events, after every step and barrier; the
    /// closed loop held to the stepper.
    #[test]
    fn completions_at_an_emission_instant_retire_in_seq_order() {
        let mut sc = tiny(8, 20, 8.0, RoutePlan::Fixed(0));
        sc.cohorts.push(CohortSpec {
            local_speed: 2.0,
            ..CohortSpec::uniform(6, 20, 8.0, 4.0, RoutePlan::Fixed(0))
        });
        sc.emit_buckets = 2;
        sc.trace_interval_ms = 8.0;
        let depths = std::cell::RefCell::new(std::collections::BTreeSet::new());
        let route = |ctx: &RouteCtx| {
            depths.borrow_mut().insert(ctx.queue_depth[0]);
            if ctx.device % 2 == 1 {
                0
            } else {
                ctx.queue_depth[0] % 3
            }
        };

        let mut layers = sc.topology().layers().to_vec();
        layers[0].exec_ms = 8.0;
        let topo = || HecTopology::new(layers.clone());

        let stepped = by_step(&mut FleetEngine::with_topology(&sc, topo()), route);
        assert_eq!(stepped, by_step(&mut FleetEngine::eager(&sc, topo()), route));
        closed_loop_holds_to_the_stepper(&sc, topo, route);
        let barriered = by_barriers(&mut FleetEngine::with_topology(&sc, topo()), route);
        assert_eq!(barriered, by_barriers(&mut FleetEngine::eager(&sc, topo()), route));

        let report = &stepped.4;
        assert_eq!(report.served + report.dropped, report.emitted);
        assert!(report.layers.iter().all(|l| l.served > 0), "{report:?}");
        assert!(depths.borrow().len() > 2, "the router saw one gauge value: {depths:?}");
        assert!(!report.trace.is_empty());
    }

    /// Arrival groups at one instant with other events between their
    /// members, held to the engine that files every arrival as an event of
    /// its own. Edge and cloud are one equal propagation away, so an
    /// emission bucket routed over both files two groups whose members
    /// interleave by `seq` (each group splits at the other); layer-0 work
    /// takes that propagation too, so device-local completions retire at
    /// those instants; trace samples land on them. A short edge queue
    /// drops arrivals mid-group (where the stepper returns, and a closed
    /// loop hears the drop only after the group's last member), two edge
    /// servers with batches of up to four finish out of order
    /// (`ComputeDone` lane misses), and — on the second topology — a capped
    /// cloud uplink releases its transfers as `LinkDone` groups. After
    /// every step and barrier: same events, horizon, next event time,
    /// outcomes, report; and the closed loop held to the stepper.
    ///
    /// Mutants it kills: a fresh `seq` per group instead of the first
    /// member's, no split at an interleaving event, the stepper retiring
    /// device-local completions up to a group's first member instead of
    /// its last handled one, and a `ComputeDone` appended to its lane
    /// without the order check.
    #[test]
    fn arrival_groups_sharing_an_instant_split_in_seq_order() {
        const PROP_MS: f64 = 10.0;
        let mut sc = tiny(12, 30, 10.0, RoutePlan::Fixed(0));
        sc.batch_max = 4;
        sc.batch_factor = 0.5;
        sc.queue_capacity = 3;
        sc.emit_buckets = 2;
        sc.trace_interval_ms = 5.0;
        let route = |ctx: &RouteCtx| (ctx.seq as usize + ctx.queue_depth[0]) % 3;
        let (mut splits, mut misses) = (0, 0);
        for cloud_mbps in [None, Some(2.0)] {
            let mut layers = sc.topology().layers().to_vec();
            layers[0].exec_ms = PROP_MS;
            layers[2].exec_ms = 3.0 * PROP_MS;
            layers[1].device.concurrency = 2;
            layers[2].device.concurrency = 1;
            layers[1].uplink = Link::delay_only(2.0 * PROP_MS);
            layers[2].uplink = Link::delay_only(2.0 * PROP_MS);
            if let Some(mbps) = cloud_mbps {
                layers[2].uplink = layers[2].uplink.clone().with_bandwidth(mbps);
            }
            let topo = || HecTopology::new(layers.clone());

            let mut engine = FleetEngine::with_topology(&sc, topo());
            let stepped = by_step(&mut engine, route);
            splits += engine.group_splits;
            misses += engine.layers.iter().map(|l| l.done_lane_misses).sum::<u64>();
            assert_eq!(stepped, by_step(&mut FleetEngine::heap_only(&sc, topo()), route));
            assert_eq!(stepped, by_step(&mut FleetEngine::eager(&sc, topo()), route));
            let (looped, _) = closed_loop_holds_to_the_stepper(&sc, topo, route);
            // A group went on past a drop: the loop had handled more of it
            // than the stepper when that drop was heard.
            assert_ne!(looped.1, stepped.1, "no group went on after a drop");
            let barriered = by_barriers(&mut FleetEngine::with_topology(&sc, topo()), route);
            assert_eq!(barriered, by_barriers(&mut FleetEngine::heap_only(&sc, topo()), route));
            assert_eq!(barriered, by_barriers(&mut FleetEngine::eager(&sc, topo()), route));

            let report = &stepped.4;
            assert_eq!(report.served + report.dropped, report.emitted);
            assert!(report.layers.iter().all(|l| l.served > 0), "{report:?}");
            assert!(report.layers[1..].iter().all(|l| l.dropped_queue > 0), "{report:?}");
            // Cloud windows arrive by `LinkDone` groups here, several
            // transfers sharing the link.
            let capped = cloud_mbps.is_some();
            assert_eq!(report.layers[2].peak_link_inflight > 1, capped, "{report:?}");
        }
        assert!(splits > 0, "no group split at an interleaving event");
        assert!(misses > 0, "every ComputeDone kept its lane in order");
    }

    #[test]
    #[should_panic(expected = "local_speed must be positive")]
    fn invalid_local_speed_rejected() {
        let mut sc = tiny(1, 1, 10.0, RoutePlan::Fixed(0));
        sc.cohorts[0].local_speed = 0.0;
        let _ = FleetEngine::new(&sc);
    }
}
