//! The run protocol: three slices, each a set-up ending in a warm-up rep
//! and then timed reps for a third of the measuring budget, and — in a
//! traced run — one more rep under the span recorder, from which every
//! per-layer row comes.
//!
//! Each rep, warm-up included, is one **operation**. It fails if a layer
//! call returns `Err` or panics, if window conservation breaks, or if its
//! result digest differs from the first rep's. Failed reps contribute no
//! windows and no timing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hec_core::parallel::with_thread_count;
use hec_tensor::Matrix;

use crate::names::{END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats::{quantile_of, summarize, Summary};
use crate::workloads::{self, LayerValues, LibStats, RepOutput, SimValues, Size, Workload};

/// An untraced run is this many slices, each a set-up from nothing and
/// then timed reps: the set-ups are a third of the run apart, so a slow
/// spell of the host seldom covers them all.
const SLICES: usize = 3;
/// Interference on a shared host only ever adds time, in spells of tens
/// of seconds that slow every rep they cover. The run therefore reports
/// the fast end of its samples — the fastest tenth of the timed reps, the
/// fastest set-up — which reads the program; their median reads the host
/// whenever half the run fell in such a spell.
const FAST_SHARE: f64 = 0.1;
/// Calls of the calibration kernel per set-up.
const CALIB_CALLS: usize = 1000;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measuring budget on the wall clock, set-ups not counted.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Worker count the libraries' parallel helpers are pinned to.
    pub threads: usize,
    /// Timed reps to run at least (rounded up to a whole number per
    /// slice), whatever the budget.
    pub min_reps: usize,
}

/// One metric of one run.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything one run of one workload reports.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub threads: usize,
    pub nproc: usize,
    pub calib_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub sim: SimValues,
    pub metrics: Vec<Measured>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Median time of one 96×64×96 `matmul_into`, in nanoseconds: printed
/// beside every host-time number so rows from different hosts compare as
/// ratios.
fn gemm_calib_ns() -> f64 {
    let a = Matrix::filled(96, 64, 0.5);
    let b = Matrix::filled(64, 96, 0.25);
    let mut out = Matrix::zeros(96, 96);
    let samples: Vec<f64> = (0..CALIB_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
            std::hint::black_box(&mut out);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    summarize(&samples).value
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Reps of one run, with the operation accounting.
struct Reps {
    attempted: u64,
    failed: u64,
    first: Option<RepOutput>,
}

impl Reps {
    /// Runs one rep; returns its wall time if it succeeded and agreed
    /// with the first rep.
    fn run(&mut self, workload: &mut dyn Workload, rec: &mut Recorder) -> Option<f64> {
        self.attempted += 1;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.rep(rec)));
        let wall = t0.elapsed().as_secs_f64();
        let failure = match outcome {
            Err(_) => "panicked".to_string(),
            Ok(Err(e)) => e,
            Ok(Ok(out)) => match &self.first {
                Some(first) if first.digest != out.digest => {
                    format!(
                        "digest {:016x} differs from the first rep's {:016x}",
                        out.digest, first.digest
                    )
                }
                Some(_) => return Some(wall),
                None => {
                    self.first = Some(out);
                    return Some(wall);
                }
            },
        };
        eprintln!("[perf] rep {} failed: {failure}", self.attempted);
        self.failed += 1;
        None
    }
}

/// In-library aggregates accumulated while `f` runs.
fn with_lib_stats<T>(f: impl FnOnce() -> T) -> (T, LibStats) {
    let gemm_calls = || {
        hec_tensor::kernel::publish_telemetry();
        let snapshot = hec_telemetry::snapshot();
        (
            workloads::counter_sum(&snapshot, "tensor.gemm.f32_calls"),
            workloads::counter_sum(&snapshot, "tensor.gemm.i8_calls"),
        )
    };
    hec_telemetry::clear_wall_stats();
    hec_telemetry::reset();
    let before = gemm_calls();
    let out = f();
    let after = gemm_calls();
    let stats = LibStats {
        wall: hec_telemetry::wall_stats(),
        gemm_f32_calls: after.0 - before.0,
        gemm_i8_calls: after.1 - before.1,
        registry: hec_telemetry::snapshot(),
    };
    (out, stats)
}

/// Runs one workload by the protocol above.
pub fn run(args: &RunArgs) -> Result<Record, String> {
    with_thread_count(args.threads, || run_pinned(args))
}

fn run_pinned(args: &RunArgs) -> Result<Record, String> {
    let mut rec = Recorder::new(args.trace);
    rec.set_rep(spans::SETUP);
    let mut reps = Reps { attempted: 0, failed: 0, first: None };

    // The traced run needs one set-up and a third of the budget, for the
    // untraced baseline of its overhead figure.
    let (slices, budget) =
        if args.trace { (1, args.seconds / 3.0) } else { (SLICES, args.seconds) };
    let mut setup_s = Vec::with_capacity(slices);
    let mut walls = Vec::new();
    let mut calib_ns = 0.0;
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..slices {
        // Set-up, from nothing: calibration, input generation, offline
        // training of the pipeline the reps reuse, and the first rep —
        // the warm-up, where first-touch page faults and lazily grown
        // buffers are paid.
        drop(workload.take());
        let t0 = Instant::now();
        calib_ns = gemm_calib_ns();
        rec.set_enabled(args.trace);
        let mut built = catch_unwind(AssertUnwindSafe(|| {
            rec.span("setup", |rec| workloads::build(&args.workload, args.seed, args.size, rec))
        }))
        .map_err(|_| "set-up panicked".to_string())??;
        rec.set_enabled(false);
        built.before_rep();
        reps.run(built.as_mut(), &mut rec);
        setup_s.push(t0.elapsed().as_secs_f64());

        // Timed reps, with the recorder off, until the slice has used its
        // share of the budget on the wall clock (untimed work between
        // reps included: `drift_adapt` retrains before every rep).
        let started = Instant::now();
        let mut timed = 0;
        while timed < args.min_reps.div_ceil(slices)
            || started.elapsed().as_secs_f64() < budget / slices as f64
        {
            built.before_rep();
            match reps.run(built.as_mut(), &mut rec) {
                Some(wall) => {
                    timed += 1;
                    walls.push(wall);
                }
                // A failing workload must not spin until the budget ends.
                None if reps.failed >= 3 => break,
                None => {}
            }
        }
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one slice ran");
    let workload = workload.as_mut();

    let mut metrics = Vec::new();
    if args.trace {
        let layers = traced_rep(args, workload, &mut rec, &mut reps, &walls, calib_ns)?;
        for m in &PER_LAYER {
            metrics.push(Measured {
                name: m.name,
                unit: m.unit,
                summary: Summary::single(layers.get(m.name)),
            });
        }
    } else {
        let first = reps.first.as_ref().ok_or("no rep succeeded")?;
        if walls.is_empty() {
            return Err("no timed rep succeeded".to_string());
        }
        let rates: Vec<f64> = walls.iter().map(|w| first.windows as f64 / w).collect();
        let setup = Summary { value: quantile_of(&setup_s, 0.0), ..summarize(&setup_s) };
        let rate = Summary { value: quantile_of(&rates, 1.0 - FAST_SHARE), ..summarize(&rates) };
        let values = [setup, rate, Summary::single(peak_rss_mb()?)];
        for (m, summary) in END_TO_END.iter().zip(values) {
            metrics.push(Measured { name: m.name, unit: m.unit, summary });
        }
    }

    let first = reps.first.as_ref().ok_or("no rep succeeded")?;
    Ok(Record {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        threads: args.threads,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calib_ns,
        attempted: reps.attempted,
        failed: reps.failed,
        digest: first.digest,
        sim: first.sim,
        metrics,
    })
}

/// The traced rep and the per-layer rows. Writes the spans as
/// Chrome-trace JSON to `BENCH_perf_trace_<workload>.json`.
fn traced_rep(
    args: &RunArgs,
    workload: &mut dyn Workload,
    rec: &mut Recorder,
    reps: &mut Reps,
    untraced_walls: &[f64],
    calib_ns: f64,
) -> Result<LayerValues, String> {
    workload.before_rep();
    rec.set_enabled(true);
    rec.set_rep(spans::TRACED_REP);
    let root = rec.spans().len() as u32;
    let (wall, lib) = with_lib_stats(|| {
        let mut wall = None;
        rec.span("rep", |rec| wall = reps.run(workload, rec));
        wall
    });
    let wall = wall.ok_or("the traced rep failed")?;

    let mut layers = LayerValues::new();
    rec.set_rep(spans::EXTRAS);
    rec.span("extras", |rec| workload.layer_metrics(rec, &lib, &mut layers));
    rec.set_enabled(false);

    let sim = reps.first.as_ref().ok_or("no rep succeeded")?.sim;
    layers.set("core.sim_f1", sim.f1.unwrap_or(0.0));
    layers.set("core.sim_reward_x100", sim.reward_x100.unwrap_or(0.0));
    layers.set("sim.delay_mean_ms", sim.delay_mean_ms.unwrap_or(0.0));
    layers.set("sim.drop_share", sim.drop_share.unwrap_or(0.0));
    layers.set("nn.train_batch.busy_ms", lib.total_ms("nn.train_batch"));
    layers.set("nn.train_batch.count", lib.count("nn.train_batch") as f64);
    layers.set("tensor.gemm.f32_calls", lib.gemm_f32_calls as f64);
    layers.set("tensor.gemm.i8_calls", lib.gemm_i8_calls as f64);
    layers.set("tensor.gemm_calib.ns", calib_ns);
    let runs = lib.count("core.fleet_run");
    layers.set("sim.des.runs", runs as f64);
    layers.set("sim.des.us_per_run", lib.total_ms("core.fleet_run") * 1e3 / runs.max(1) as f64);

    // The spans must account for the rep: root self time plus every
    // descendant's self time against the wall time measured around it.
    let accounted = spans::tree_self_ns(rec.spans(), root) as f64 / 1e9;
    layers.set("telemetry.rep_wall_ms", wall * 1e3);
    layers.set("telemetry.span_residual_share", (wall - accounted).abs() / wall);
    if !untraced_walls.is_empty() {
        let untraced = summarize(untraced_walls).value;
        layers.set("telemetry.trace_overhead_share", (wall - untraced) / untraced);
    }

    let path = format!("BENCH_perf_trace_{}.json", args.workload);
    std::fs::write(&path, spans::chrome_trace(rec.spans()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("[perf] wrote {path} ({} spans)", rec.spans().len());
    Ok(layers)
}
