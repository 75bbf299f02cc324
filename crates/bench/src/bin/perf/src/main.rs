//! The repo's benchmark: five workloads over the pipeline ingest →
//! standardise → detect → route → fleet DES → adapt, end-to-end metrics
//! from untraced reps and per-layer metrics from one traced rep. See
//! `README.md` beside this package and `/BENCHMARK.json`.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perf [--seed N] [--seconds S] [--trace 0|1] [--out FILE]     (all five, one process each)
//! perf --compare A.json B.json
//! perf --self-check
//! ```

mod compare;
mod inputs;
mod json;
mod names;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use names::{END_TO_END, PER_LAYER, WORKLOADS};
use run::{Record, RunArgs};
use workloads::Size;

/// The counting allocator the repro bins install, in traced and untraced
/// runs alike, so its cost is the same on both sides of any comparison.
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

/// The build machine has two cores; pinning the worker count keeps the
/// inputs' chunking, and so the work, the same on every host.
const THREADS: usize = 2;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] | --compare A.json B.json | --self-check";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { workload: None, seed: 7, seconds: 18.0, trace: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                cli.workload = Some(value.clone())
            }
            "--workload" => {
                return Err(format!("unknown workload {value:?} (one of {WORKLOADS:?})"))
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds =
                    value.parse().ok().filter(|s| (0.0..=600.0).contains(s)).ok_or_else(bad)?
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(cli)
}

fn run_args(workload: &str, cli: &Cli) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        size: Size::Full,
        threads: THREADS,
        min_reps: 3,
    }
}

/// One workload in this process: the metric lines, the `--out` record,
/// and the driver's result line last. Failed operations are reported in
/// that line (`correct`, `failed`), not through the exit code.
fn single(workload: &str, cli: &Cli) -> Result<bool, String> {
    let record = run::run(&run_args(workload, cli))?;
    print!("{}", report::lines(&record));
    if let Some(path) = &cli.out {
        std::fs::write(path, report::document(vec![report::to_value(&record)]))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report::driver_line(&record)?);
    Ok(true)
}

/// All five workloads, each in a fresh process of this executable (so
/// `peak_rss_mb` and page-fault state are the workload's own): untraced,
/// and traced as well under `--trace 1`. Their records land in one file.
fn all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = cli.out.clone().unwrap_or_else(|| "BENCH_perf.json".to_string());
    // Matched by the root `.gitignore`'s `/BENCH_*.json` like the rest.
    let part = format!("{}.part.json", out.trim_end_matches(".json"));
    let mut records = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--out", &part])
                .status()
                .map_err(|e| format!("launching {workload}: {e}"))?;
            ok &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{workload} left no record ({status}): {e}"))?;
            let _ = std::fs::remove_file(&part);
            let doc = json::parse(&text)?;
            for record in doc.get("records").map(json::Value::as_arr).unwrap_or_default() {
                ok &= record.get("failed").and_then(json::Value::as_f64) == Some(0.0);
                records.push(record.clone());
            }
        }
    }
    std::fs::write(&out, report::document(records)).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("[perf] wrote {out}");
    Ok(ok)
}

/// Every workload at 1/20 size: digests agree between reps and between
/// one and two workers, and every declared metric comes out finite.
fn self_check() -> Result<bool, String> {
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    for workload in WORKLOADS {
        let small = |threads, trace| {
            run::run(&RunArgs {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                size: Size::Small,
                threads,
                min_reps: 1,
            })
        };
        let all_finite = |r: &Record, declared: usize| {
            r.metrics.len() == declared && r.metrics.iter().all(|m| m.summary.value.is_finite())
        };
        let two = small(2, false)?;
        let one = small(1, false)?;
        let traced = small(2, true)?;
        check(
            format!("{workload}: reps agree at 2 workers ({} ops)", two.attempted),
            two.correct(),
        );
        check(format!("{workload}: reps agree at 1 worker"), one.correct());
        check(format!("{workload}: traced rep agrees"), traced.correct());
        check(
            format!("{workload}: digest {:016x} at 1, 2 workers and traced", two.digest),
            one.digest == two.digest && traced.digest == two.digest && one.sim == two.sim,
        );
        check(
            format!("{workload}: every end-to-end metric finite"),
            all_finite(&two, END_TO_END.len()),
        );
        check(
            format!("{workload}: every per-layer metric finite"),
            all_finite(&traced, PER_LAYER.len()),
        );
        check(
            format!("{workload}: spans account for the traced rep"),
            traced
                .metrics
                .iter()
                .any(|m| m.name == "telemetry.span_residual_share" && m.summary.value < 0.02),
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        Some("--self-check") if args.len() == 1 => self_check(),
        Some("--compare" | "--self-check" | "--help" | "-h") => Err(USAGE.to_string()),
        _ => parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}")).and_then(|cli| {
            match cli.workload.clone() {
                Some(workload) => single(&workload, &cli),
                None => all(&cli),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
