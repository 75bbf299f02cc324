//! The fleet driver of `Fn + Sync` routers: a shard plan of any size run
//! to completion through one **window loop**.
//!
//! `hec_sim::fleet::shard` owns the partitioning and the deterministic
//! merge. The window loop pays for its threads **once per run**: inside
//! one `thread::scope` the calling thread — the coordinator — keeps the
//! first contiguous chunk of shards and spawns `workers − 1` threads that
//! each own one chunk until the plan has drained. Per lookahead window
//! the coordinator publishes the barrier, every thread advances its chunk
//! to it and leaves the buffered outcomes at the rendezvous, and the
//! coordinator merges them in stable `(time, shard-id)` order and calls
//! the observer serially; at one worker — always, for a one-shard plan —
//! it holds every shard, spawns nothing and waits on nobody. A run nobody
//! observes (`run_scenario_sharded`) buffers and merges nothing: its
//! shards hand their outcomes to no sink, and the rendezvous only
//! collects the next barrier. Because shards are independent and the merge order is fixed, the
//! outcome stream, the observer calls, the final report, the registry
//! snapshot and the virtual-clock trace are byte-identical whatever the
//! worker count — the same invariant CI enforces for the serial engine. A
//! thread that panics (a router returning a layer outside the topology)
//! aborts the rendezvous instead of leaving the others waiting, and the
//! panic propagates out of `run_plan`.
//!
//! Threads are only worth their spawn and one rendezvous per window when
//! each has enough to do, so `run_plan` uses `min(HEC_THREADS, shards,
//! windows / WINDOWS_PER_WORKER)` workers, and at least one. A
//! quick-profile scenario (~20 000 windows) or an adaptation pass (a few
//! thousand) runs at one worker whatever `HEC_THREADS` is. The grain comes from
//! a sweep on the two-core build machine (the ignored `grain_sweep` test
//! and its one-process-per-cell repeat; tables in EXPERIMENTS.md): one
//! worker against 2 at 4 shards, two win from below 16 000 windows per
//! worker on the replay fleet (ten emission rounds, so about eleven
//! barriers however large it is) and from about 49 000 per worker on
//! `flash_crowd` (about 120 barriers at every size, each a rendezvous
//! that costs what it did when a window cost 1.7× as much: the
//! lane-backed event loop moved this crossover up from about 33 000 and
//! the constant from 16 384). 32 768 sits between: at worst a third is
//! forgone on the replay shape just below it, and about a seventh lost on
//! `flash_crowd` just above it.
//!
//! The router must be `Fn + Sync` (shared across workers); routing tables
//! and scenario route plans qualify. A router whose state changes with the
//! outcomes it hears — a load-aware policy, a probe cohort's bookkeeping,
//! a policy mid-training — goes through the crate's closed loop instead
//! (`closed_loop.rs`), which runs the same event loop on a one-shard plan
//! to completion and hears each handled event's outcomes before the next.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use hec_sim::fleet::{
    earliest_event_ms, merge_window, FleetReport, FleetScenario, JobEvent, RouteCtx, ShardEngine,
    ShardPlan, ShardedFleetEngine,
};

use crate::parallel::thread_count;

/// Windows of the plan each worker must have before [`run_plan`] spawns
/// any (see the module docs for the sweep behind the value).
const WINDOWS_PER_WORKER: u64 = 32_768;

/// Result of one sharded fleet run: the merged report plus per-shard
/// event counts (for per-shard throughput reporting in `repro_fleet`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedFleetRun {
    /// The merged, deterministic fleet report.
    pub report: FleetReport,
    /// Discrete events processed by each shard, in shard order.
    pub shard_events: Vec<u64>,
}

/// Runs a shard plan to completion through the window loop and delivers
/// every merged outcome to `observer` in the deterministic
/// `(time, shard-id)` order, on up to `HEC_THREADS` workers — spawned once
/// for the whole run, and only as many as the plan has shards and
/// `WINDOWS_PER_WORKER` windows for (a one-shard plan runs on the
/// calling thread). The outcome stream and the report do not depend on
/// the worker count. Without an observer the outcomes are never buffered
/// or merged; the run, the registry snapshot and the virtual-clock trace
/// are those of an observed run.
///
/// # Panics
///
/// Panics if the router returns a layer outside the topology (on
/// whichever thread it was called; the run stops and the panic
/// propagates).
pub fn run_plan<R: Fn(&RouteCtx) -> usize + Sync + ?Sized>(
    plan: &ShardPlan,
    router: &R,
    observer: Option<&mut dyn FnMut(&JobEvent)>,
) -> ShardedFleetRun {
    let _span = hec_telemetry::WallSpan::new("core.fleet_run");
    let by_grain = (plan.scenario().total_windows() / WINDOWS_PER_WORKER) as usize;
    drive(plan, thread_count().min(plan.num_shards()).min(by_grain).max(1), router, observer)
}

/// What the threads of one run share: the barrier the coordinator
/// published and what each thread left behind on reaching it.
struct Window {
    /// Bumped with every published barrier.
    epoch: u64,
    /// The barrier of this epoch; `None` ends the run.
    barrier_ms: Option<f64>,
    /// Threads that have advanced their chunk to the barrier.
    arrived: usize,
    /// A thread panicked; nobody waits any longer.
    aborted: bool,
    /// Earliest pending event among the chunks that have arrived.
    earliest_ms: f64,
    /// Every shard's outcomes of this epoch, by shard id.
    outboxes: Vec<Vec<(f64, JobEvent)>>,
}

/// The per-window meeting point of a run's threads. Unlike
/// `std::sync::Barrier` it can be aborted: a thread that unwinds wakes
/// everyone waiting for it.
struct Rendezvous {
    window: Mutex<Window>,
    published: Condvar,
    arrived: Condvar,
    /// Whether anyone observes the outcomes; if not, the shards buffer
    /// none and the outboxes stay empty.
    observed: bool,
}

impl Rendezvous {
    /// The lock, poisoned or not: `Window` is only ever updated whole.
    fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts an epoch (`None`: the last one, which only releases the
    /// workers).
    fn publish(&self, barrier_ms: Option<f64>) {
        let mut win = self.lock();
        win.epoch += 1;
        win.barrier_ms = barrier_ms;
        win.arrived = 0;
        win.earliest_ms = f64::INFINITY;
        drop(win);
        self.published.notify_all();
    }

    /// Advances `chunk` (shards `base..`) to the barrier into the
    /// thread's own `outboxes` (if observed), then hands them over —
    /// swapped for the emptied buffers of the epoch before — and counts
    /// the thread in.
    fn advance<R: Fn(&RouteCtx) -> usize + Sync + ?Sized>(
        &self,
        barrier_ms: f64,
        base: usize,
        chunk: &mut [ShardEngine<'_>],
        outboxes: &mut [Vec<(f64, JobEvent)>],
        router: &R,
    ) {
        let mut shim = |ctx: &RouteCtx| router(ctx);
        for (shard, outbox) in chunk.iter_mut().zip(outboxes.iter_mut()) {
            shard.advance_to(barrier_ms, &mut shim, self.observed.then_some(outbox));
        }
        let mut win = self.lock();
        if self.observed {
            for (outbox, slot) in outboxes.iter_mut().zip(&mut win.outboxes[base..]) {
                std::mem::swap(outbox, slot);
            }
        }
        win.earliest_ms = win.earliest_ms.min(earliest_event_ms(chunk));
        win.arrived += 1;
        drop(win);
        self.arrived.notify_one();
    }

    /// A worker's whole run: every published barrier, until the last.
    fn work<R: Fn(&RouteCtx) -> usize + Sync + ?Sized>(
        &self,
        base: usize,
        chunk: &mut [ShardEngine<'_>],
        router: &R,
    ) {
        let _abort = AbortOnPanic(self);
        let mut outboxes = vec![Vec::new(); chunk.len()];
        let mut seen = 0;
        loop {
            let win = self
                .published
                .wait_while(self.lock(), |win| win.epoch == seen && !win.aborted)
                .unwrap_or_else(PoisonError::into_inner);
            let (Some(barrier_ms), false) = (win.barrier_ms, win.aborted) else { return };
            seen = win.epoch;
            drop(win);
            self.advance(barrier_ms, base, chunk, &mut outboxes, router);
        }
    }
}

/// Held by every thread of a run; aborts the rendezvous if the thread
/// unwinds, so the others stop waiting for it.
struct AbortOnPanic<'a>(&'a Rendezvous);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.published.notify_all();
            self.0.arrived.notify_all();
        }
    }
}

/// [`run_plan`] at a given worker count (one or more): the window loop,
/// with the plan's shards in one contiguous chunk per worker, the first
/// on the calling thread — the coordinator, which also publishes the
/// barriers and, if there is an observer, merges and calls it.
fn drive<R: Fn(&RouteCtx) -> usize + Sync + ?Sized>(
    plan: &ShardPlan,
    workers: usize,
    router: &R,
    mut observer: Option<&mut dyn FnMut(&JobEvent)>,
) -> ShardedFleetRun {
    let mut engine = ShardedFleetEngine::new(plan);
    let shards = engine.shards_mut();
    let mut earliest_ms = earliest_event_ms(shards);
    let chunk_len = shards.len().div_ceil(workers);
    let rendezvous = Rendezvous {
        window: Mutex::new(Window {
            epoch: 0,
            barrier_ms: None,
            arrived: 0,
            aborted: false,
            earliest_ms: f64::INFINITY,
            outboxes: vec![Vec::new(); shards.len()],
        }),
        published: Condvar::new(),
        arrived: Condvar::new(),
        observed: observer.is_some(),
    };
    let mut chunks = shards.chunks_mut(chunk_len);
    let own = chunks.next().expect("a plan has at least one shard");
    std::thread::scope(|scope| {
        let rendezvous = &rendezvous;
        let _abort = AbortOnPanic(rendezvous);
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(w, chunk)| {
                scope.spawn(move || rendezvous.work((w + 1) * chunk_len, chunk, router))
            })
            .collect();
        let threads = handles.len() + 1;
        let mut outboxes = vec![Vec::new(); own.len()];
        let mut cursors = Vec::new();
        while let Some(barrier_ms) = plan.barrier_after(earliest_ms) {
            rendezvous.publish(Some(barrier_ms));
            rendezvous.advance(barrier_ms, 0, own, &mut outboxes, router);
            let mut win = rendezvous
                .arrived
                .wait_while(rendezvous.lock(), |win| win.arrived < threads && !win.aborted)
                .unwrap_or_else(PoisonError::into_inner);
            if win.aborted {
                break;
            }
            earliest_ms = win.earliest_ms;
            // The workers stay parked until the next `publish`, so keeping
            // the lock through the merge holds nobody up.
            if let Some(observer) = observer.as_mut() {
                merge_window(&mut win.outboxes, &mut cursors, &mut |ev| observer(&ev));
            }
        }
        rendezvous.publish(None);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let shard_events = engine.shards_mut().iter().map(|shard| shard.events()).collect();
    ShardedFleetRun { report: engine.report(), shard_events }
}

/// Runs `scenario` under its own routing plans, partitioned into
/// `shards` shards and driven in parallel — the scale tier behind
/// `repro_fleet --shards`. Nobody observes the outcomes, so none is
/// merged.
///
/// # Panics
///
/// Panics if `shards` is 0 or the scenario has no cohorts.
pub fn run_scenario_sharded(scenario: &FleetScenario, shards: usize) -> ShardedFleetRun {
    let plan = ShardPlan::new(scenario, shards);
    run_plan(&plan, &scenario.planned_router(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_thread_count;
    use crate::replay::replay_scenario;
    use hec_sim::fleet::{FleetEngine, FleetScale};
    use hec_sim::DatasetKind;

    fn run_plan_driven(
        sc: &FleetScenario,
        shards: usize,
        threads: usize,
    ) -> (Vec<JobEvent>, ShardedFleetRun) {
        let plan = ShardPlan::new(sc, shards);
        let mut outcomes = Vec::new();
        let run = with_thread_count(threads, || {
            run_plan(
                &plan,
                &|ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq),
                Some(&mut |ev| outcomes.push(*ev)),
            )
        });
        (outcomes, run)
    }

    /// A named scenario grown until four workers clear the grain (the
    /// Quick presets, ~20 k windows, sit below it for two).
    fn above_grain(name: &str) -> FleetScenario {
        let mut sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        sc.scale_fleet((4 * WINDOWS_PER_WORKER + 1000) as f64 / sc.total_windows() as f64);
        assert!(sc.total_windows() >= 4 * WINDOWS_PER_WORKER);
        sc
    }

    /// One worker and four on every named scenario. The shards × threads
    /// matrix on both sides of the grain against the serial barrier loop,
    /// with the registry snapshot and the Chrome trace, and small plans
    /// against it at one worker, are `tests/sharded_driver.rs` — a binary
    /// of its own, because the recorder is global.
    #[test]
    fn sharded_run_is_thread_count_invariant() {
        for name in FleetScenario::NAMES {
            let sc = above_grain(name);
            let (ev_1, run_1) = run_plan_driven(&sc, 4, 1);
            let (ev_4, run_4) = run_plan_driven(&sc, 4, 4);
            assert_eq!(ev_1, ev_4, "{name}: outcome stream depends on HEC_THREADS");
            assert_eq!(run_1, run_4, "{name}: report depends on HEC_THREADS");
            assert_eq!(run_1.report.to_text(), run_4.report.to_text(), "{name}");
            assert_eq!(run_1.report.layers_csv(), run_4.report.layers_csv(), "{name}");
            assert_eq!(run_1.report.trace_csv(), run_4.report.trace_csv(), "{name}");
            assert_eq!(run_4.shard_events.len(), 4, "{name}");
            assert_eq!(run_4.shard_events.iter().sum::<u64>(), run_4.report.events, "{name}");
        }
    }

    /// Plans far below the grain, on 1–4 workers all the same: more shards
    /// than devices (whole chunks of empty shards) and random scenarios of
    /// a few dozen devices. `run_plan` keeps them on one worker, where
    /// `tests/sharded_driver.rs` holds them to the serial barrier loop.
    #[test]
    fn small_plans_are_worker_count_invariant() {
        use hec_sim::fleet::{CohortSpec, RoutePlan};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut few_devices = FleetScenario::light_load(FleetScale::Quick);
        few_devices.cohorts[0].devices = 3;
        let mut plans = vec![(few_devices, 8)];
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..24 {
            let mut sc = FleetScenario::light_load(FleetScale::Quick);
            sc.queue_capacity = rng.gen_range(1..64);
            sc.batch_max = rng.gen_range(1..6);
            let weights = [(); 3].map(|()| rng.gen_range(0.05..1.0));
            let (devices, windows) = (rng.gen_range(1..40), rng.gen_range(1..8));
            let route = RoutePlan::Mixture(weights);
            sc.cohorts =
                vec![CohortSpec::uniform(devices, windows, rng.gen_range(1.0..500.0), 0.0, route)];
            plans.push((sc, rng.gen_range(2..9)));
        }
        for (i, (sc, shards)) in plans.iter().enumerate() {
            let plan = ShardPlan::new(sc, *shards);
            let router = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
            let driven = |workers| {
                let mut outcomes = Vec::new();
                let run = drive(&plan, workers, &router, Some(&mut |ev| outcomes.push(*ev)));
                (outcomes, run)
            };
            let (ev_1, run_1) = driven(1);
            assert_eq!(run_1.report.emitted, sc.total_windows(), "plan {i}");
            assert_eq!(ev_1.len() as u64, run_1.report.emitted, "plan {i}");
            for workers in 2..=4 {
                let (ev, run) = driven(workers);
                assert_eq!(ev, ev_1, "plan {i} ({shards} shards) at {workers} workers");
                assert_eq!(run, run_1, "plan {i} ({shards} shards) at {workers} workers");
            }
        }
    }

    /// A router that panics on a worker's shard (2 workers × 4 shards:
    /// the spawned thread owns shards 2 and 3) must bring `run_plan`
    /// down, not leave the coordinator at the rendezvous.
    #[test]
    #[should_panic(expected = "router chose layer 99")]
    fn a_panicking_worker_propagates() {
        let sc = above_grain("light_load");
        let plan = ShardPlan::new(&sc, 4);
        let worker_seq = sc.total_windows() * 3 / 4;
        let router = |ctx: &RouteCtx| if ctx.seq >= worker_seq { 99 } else { 0 };
        with_thread_count(2, || run_plan(&plan, &router, None));
    }

    /// The same on the coordinator's own chunk: the workers must be
    /// released for the scope to join them.
    #[test]
    #[should_panic(expected = "router chose layer 99")]
    fn a_panicking_coordinator_releases_the_workers() {
        let sc = above_grain("light_load");
        let plan = ShardPlan::new(&sc, 4);
        let router = |ctx: &RouteCtx| if ctx.seq < 100 { 99 } else { 0 };
        with_thread_count(2, || run_plan(&plan, &router, None));
    }

    /// A one-shard plan runs the window loop at one worker; its report is
    /// still the serial engine's, byte for byte.
    #[test]
    fn one_shard_run_matches_the_serial_engine_bytes() {
        for name in FleetScenario::NAMES {
            let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
            let mut engine = FleetEngine::new(&sc);
            let mut route = |ctx: &RouteCtx| sc.planned_layer(ctx.cohort, ctx.seq);
            engine.advance_until(f64::INFINITY, &mut route, &mut |_, _| {});
            let serial = engine.report();
            let run = run_scenario_sharded(&sc, 1);
            assert_eq!(serial, run.report, "{name}");
            assert_eq!(serial.to_text(), run.report.to_text(), "{name}");
        }
    }

    /// The sweep behind `WINDOWS_PER_WORKER` (module docs): the window
    /// loop at 1 worker against 2 workers, 4 shards, runs
    /// alternating, on the replay fleet (ten emission rounds whatever its
    /// size, a third of the windows to each layer) and on `flash_crowd`
    /// (about 120 barriers) from tens to 256 k windows. Largest first:
    /// started on the small ones, the host keeps both threads on one core
    /// and nothing runs in parallel at any size. Prints
    /// `scenario windows serial_us parallel_us cores`, medians of 25 runs;
    /// `cores` is the CPU time the parallel runs used over their wall time
    /// (from `/proc/self/stat`, so only where they add up to enough 10 ms
    /// ticks) — near 1.0 the two threads shared a core and the parallel
    /// column says nothing about the window loop:
    /// `cargo test --release -p hec-core --lib grain_sweep -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing sweep, prints a table"]
    fn grain_sweep() {
        /// User + system time of this process so far, µs.
        fn cpu_us() -> Option<f64> {
            let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
            let mut fields = stat.rsplit(')').next()?.split_whitespace().skip(11);
            let ticks = fields.next()?.parse::<f64>().ok()? + fields.next()?.parse::<f64>().ok()?;
            Some(ticks * 1e4)
        }
        println!("nproc {:?}", std::thread::available_parallelism());
        let sweep = |sc: &FleetScenario, router: &(dyn Fn(&RouteCtx) -> usize + Sync)| {
            let plan = ShardPlan::new(sc, 4);
            let mut us = [Vec::new(), Vec::new()];
            let cpu0 = cpu_us();
            for run in 0..50 {
                let t0 = std::time::Instant::now();
                std::hint::black_box(drive(&plan, 1 + run % 2, router, None));
                us[run % 2].push(t0.elapsed().as_secs_f64() * 1e6);
            }
            // A serial run is one thread: its CPU time is its wall time.
            let [serial_wall, parallel_wall] = [0, 1].map(|side| us[side].iter().sum::<f64>());
            let cores = match (cpu0, cpu_us()) {
                (Some(c0), Some(c1)) if parallel_wall >= 2e5 => {
                    format!("{:.2}", (c1 - c0 - serial_wall) / parallel_wall)
                }
                _ => "-".into(),
            };
            let [serial, parallel] = us.map(|mut v| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            });
            println!(
                "{:<12} {:>7} {serial:>9.0} {parallel:>9.0} {cores:>6}",
                sc.name,
                sc.total_windows()
            );
        };
        for windows in [256_000, 64_000, 32_000, 16_000, 8_000, 4_000, 2_000, 500, 50] {
            let sc = replay_scenario(DatasetKind::Univariate, 384, windows);
            sweep(&sc, &|ctx| (ctx.seq % 3) as usize);
        }
        for factor in [12.0, 3.0, 1.5, 0.8, 0.4, 0.1, 0.01] {
            let mut sc = FleetScenario::flash_crowd(FleetScale::Quick);
            sc.scale_fleet(factor);
            sweep(&sc, &|ctx| sc.planned_layer(ctx.cohort, ctx.seq));
        }
    }

    #[test]
    fn scenario_helper_conserves_windows() {
        let sc = FleetScenario::edge_saturated(FleetScale::Quick);
        let run = run_scenario_sharded(&sc, 3);
        assert_eq!(run.report.emitted, sc.total_windows());
        assert_eq!(run.report.served + run.report.dropped, run.report.emitted);
    }
}
