//! Runs the paper's full protocol on **real (file-backed) traces**: the
//! checked-in CSV power-demand and NDJSON MHEALTH fixtures stream through
//! chunked parallel ingestion → standardisation → `paper_split` →
//! detector training → policy training → Table-I/II-style evaluation →
//! the closed-loop fleet simulator (the trace's windows replayed as a
//! probe cohort inside the `light_load` background fleet).
//!
//! Requires the `real-data` feature:
//!
//! ```text
//! cargo run --release -p hec-bench --features real-data --bin repro_real -- \
//!     [fixtures_dir] [--telemetry <dir>] [--amplify <n>] \
//!     [--ingest-threads <n>] [--shards <n>] [--out <dir>]
//! ```
//!
//! With `--amplify N` the power fixture is additionally stretched into an
//! engine-scale stream: the raw CSV bytes are replicated N× and pushed
//! through the chunked parser (ingestion GB/s), and the corpus is
//! amplified N× with deterministic perturbation
//! ([`hec_data::amplify_corpus`]) and replayed through the **sharded**
//! fleet engine under every scheme
//! ([`hec_core::replay::replay_trace_sharded`]), with per-scheme results
//! on stdout and a `replay.csv` in `--out`.
//!
//! Everything on stdout (and in `replay.csv`) is deterministic — same
//! fixtures and flags ⇒ byte-identical output across reruns,
//! `HEC_THREADS` and `--ingest-threads` settings (the CI real-data job
//! enforces this with a diff matrix). Wall-clock timings go to stderr
//! only. The adversarial fixtures demonstrate the loader's failure mode:
//! line-numbered errors, never panics — identical through the chunked
//! path.

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel, TrainConfig};
use hec_bench::cli::Spec;
use hec_core::parallel::{thread_count, with_thread_count};
use hec_core::replay::{replay_scenario, replay_trace_sharded};
use hec_core::stream::{fleet_stream_csv, stream_through_fleet};
use hec_core::{
    format_table1, format_table2, DatasetConfig, Experiment, ExperimentConfig, SchemeKind,
};
use hec_data::ingest::{MhealthNdjsonSource, MissingValuePolicy, PowerCsvSource};
use hec_data::mhealth::MhealthConfig;
use hec_data::power::PowerConfig;
use hec_data::{amplify_corpus, DatasetSource, LabeledCorpus, PerturbConfig};
use hec_sim::fleet::{FleetScale, FleetScenario};

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

/// Day length of the power fixture (readings per day).
const POWER_SPD: usize = 24;
/// Window/stride of the MHEALTH fixture protocol.
const MHEALTH_WINDOW: usize = 16;
const MHEALTH_STRIDE: usize = 8;

const USAGE: &str = "usage: repro_real [fixtures_dir] [--telemetry <dir>] [--amplify <n>] \
                     [--ingest-threads <n>] [--shards <n>] [--out <dir>]\n";

/// Parsed command line.
struct Args {
    fixtures: String,
    telemetry_dir: Option<String>,
    /// Amplification factor for the sharded replay; 0 disables it.
    amplify: usize,
    /// Worker count for chunked ingestion; 0 inherits `HEC_THREADS`.
    ingest_threads: usize,
    /// Shard count for the replay fleet.
    shards: usize,
    /// Directory for `replay.csv` (amplified runs only).
    out_dir: Option<String>,
}

fn parse_args() -> Args {
    let cli = Spec {
        bin: "repro_real",
        usage: USAGE,
        values: &["--telemetry", "--amplify", "--ingest-threads", "--shards", "--out"],
        switches: &[],
    }
    .parse();
    let shards = cli.value("--shards").unwrap_or(4);
    if shards == 0 {
        cli.fail("--shards must be at least 1");
    }
    Args {
        fixtures: cli.positional().map_or_else(
            || format!("{}/../../fixtures", env!("CARGO_MANIFEST_DIR")),
            str::to_owned,
        ),
        telemetry_dir: cli.telemetry_dir().map(str::to_owned),
        amplify: cli.value("--amplify").unwrap_or(0),
        ingest_threads: cli.value("--ingest-threads").unwrap_or(0),
        shards,
        out_dir: cli.value("--out"),
    }
}

/// Runs `f` under the requested ingest worker count (0 = inherit).
fn with_ingest_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    if threads == 0 {
        f()
    } else {
        with_thread_count(threads, f)
    }
}

fn describe(corpus: &LabeledCorpus) -> String {
    let classes: Vec<String> =
        corpus.class_counts().iter().map(|(c, n)| format!("{c}:{n}")).collect();
    format!(
        "{} windows ({} normal, {} anomalous; class counts {{{}}})",
        corpus.len(),
        corpus.normal_count(),
        corpus.len() - corpus.normal_count(),
        classes.join(", ")
    )
}

/// The scenario's light-load background fleet plus the real trace as
/// the standard scheme-routed probe cohort
/// ([`hec_bench::push_probe_cohort`], quick-scale twin rates).
fn probe_scenario(kind: hec_sim::DatasetKind, payload_bytes: usize) -> (FleetScenario, u32) {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.kind = kind;
    sc.payload_bytes = payload_bytes;
    let probe = hec_bench::push_probe_cohort(&mut sc, FleetScale::Quick);
    (sc, probe)
}

/// Full protocol over one loaded corpus. Returns the trained experiment,
/// policy and scaler so the amplified replay can reuse them.
fn run_pipeline(
    label: &str,
    config: ExperimentConfig,
    corpus: LabeledCorpus,
) -> (Experiment, PolicyNetwork, ContextScaler) {
    println!("--- {label} ---");
    println!("corpus: {}", describe(&corpus));

    let mut exp = Experiment::prepare_with_corpus(config, corpus);
    let (train, test, policy_n, full) = exp.split.sizes();
    println!("paper split: ad_train={train} ad_test={test} policy_train={policy_n} full={full}");

    exp.train_detectors();
    println!("{}", format_table1(&exp.table1()));

    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut policy, scaler, curve) = exp.train_policy(&policy_oracle);
    println!(
        "policy training: {} epochs over {} windows, reward {:.4} -> {:.4}\n",
        curve.mean_reward_per_epoch.len(),
        policy_oracle.len(),
        curve.mean_reward_per_epoch[0],
        curve.final_reward()
    );

    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);
    let (table2, actions) = exp.table2(&eval_oracle, &mut policy, &scaler);
    println!("{}", format_table2(&table2));
    println!("adaptive action histogram (IoT/Edge/Cloud): {actions:?}\n");

    // Closed loop: the trace's windows replay as a probe cohort inside
    // the light_load background fleet; every scheme routes the probe.
    let kind = exp.config().dataset.kind();
    let payload = exp.config().payload_bytes();
    let (sc, probe) = probe_scenario(kind, payload);
    let reward = RewardModel::new(kind.paper_alpha());
    println!(
        "fleet closed loop ({} background cohorts + {}-device probe):",
        sc.cohorts.len() - 1,
        sc.cohorts[probe as usize].devices
    );
    for scheme in SchemeKind::ALL {
        let r = match scheme {
            SchemeKind::Adaptive => stream_through_fleet(
                &sc,
                &eval_oracle,
                scheme,
                Some(&mut policy),
                Some(&scaler),
                &reward,
                Some(probe),
            ),
            _ => stream_through_fleet(&sc, &eval_oracle, scheme, None, None, &reward, Some(probe)),
        };
        println!(
            "  {:<11} acc={:.4} f1={:.4} reward={:<8.2} mean={:.2} ms p99={:.2} ms \
             served={} missed={}",
            scheme.to_string(),
            r.accuracy(),
            r.f1(),
            r.mean_reward_x100,
            r.routed_mean_ms,
            r.routed_p99_ms,
            r.confusion.total(),
            r.missed
        );
    }
    println!();
    (exp, policy, scaler)
}

/// Demonstrates the loader's failure mode on an adversarial trace: a
/// line-numbered error under each missing-value policy, never a panic —
/// through the chunked parallel path, which matches serial byte for
/// byte.
fn show_errors(label: &str, load: impl Fn(MissingValuePolicy) -> Option<hec_data::IngestError>) {
    for policy in [MissingValuePolicy::Reject, MissingValuePolicy::ImputePrevious] {
        match load(policy) {
            Some(err) => println!("  {label} [{policy}] -> error: {err}"),
            None => println!("  {label} [{policy}] -> loaded cleanly"),
        }
    }
}

/// Replicates the power CSV's data lines `factor`× after the original
/// bytes (comments and the header line appear once, at the top, where
/// the parsers expect them) — an amplified byte stream for measuring
/// parse throughput on real-format input.
fn amplified_power_bytes(raw: &[u8], factor: usize) -> Vec<u8> {
    // Find the end of the first real record (the header line): data
    // replicas must not repeat it.
    let mut pos = 0usize;
    let tail_start = loop {
        if pos >= raw.len() {
            break raw.len();
        }
        let eol =
            raw[pos..].iter().position(|&b| b == b'\n').map(|i| pos + i + 1).unwrap_or(raw.len());
        let line = &raw[pos..eol];
        let trimmed: &[u8] = {
            let mut l = line;
            while let [rest @ .., b'\n' | b'\r' | b' ' | b'\t'] = l {
                l = rest;
            }
            l
        };
        if trimmed.is_empty() || trimmed.starts_with(b"#") {
            pos = eol;
            continue;
        }
        break eol;
    };
    let tail = &raw[tail_start..];
    let mut big = Vec::with_capacity(raw.len() + tail.len() * factor.saturating_sub(1));
    big.extend_from_slice(raw);
    for _ in 1..factor {
        big.extend_from_slice(tail);
        if !big.ends_with(b"\n") {
            big.push(b'\n');
        }
    }
    big
}

fn main() {
    let args = parse_args();
    let dir = &args.fixtures;
    hec_bench::telemetry::init("repro_real", args.telemetry_dir.as_deref());
    println!("== repro_real (fixture traces through the full paper protocol) ==\n");

    // --- univariate: power-demand CSV (chunked parallel ingestion) ---
    let power_source =
        PowerCsvSource::new(format!("{dir}/power_good.csv"), POWER_SPD, MissingValuePolicy::Reject);
    let t0 = std::time::Instant::now();
    let corpus = match with_ingest_threads(args.ingest_threads, || power_source.load_chunked()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load power_good.csv: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("[timing] power ingest (chunked): {:.4} s", t0.elapsed().as_secs_f64());
    let power_corpus = corpus.clone();
    let days = corpus.len();
    let config = ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days,
            samples_per_day: POWER_SPD,
            anomaly_rate: 0.0, // unused: the corpus is file-backed
            noise_std: 0.0,
            seed: 42,
        }),
        ad_epochs: 60,
        policy: TrainConfig { epochs: 25, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: 42,
    };
    let t0 = std::time::Instant::now();
    let (mut power_exp, mut power_policy, power_scaler) =
        run_pipeline(&power_source.name(), config, corpus);
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] power pipeline: {wall:.2} s");

    // --- multivariate: MHEALTH NDJSON (chunked parallel ingestion) ---
    let mhealth_source = MhealthNdjsonSource::new(
        format!("{dir}/mhealth_good.ndjson"),
        MHEALTH_WINDOW,
        MHEALTH_STRIDE,
        MissingValuePolicy::Reject,
    );
    let t0 = std::time::Instant::now();
    let corpus = match with_ingest_threads(args.ingest_threads, || mhealth_source.load_chunked()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load mhealth_good.ndjson: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("[timing] mhealth ingest (chunked): {:.4} s", t0.elapsed().as_secs_f64());
    let config = ExperimentConfig {
        dataset: DatasetConfig::Multivariate(MhealthConfig {
            subjects: 2,
            window: MHEALTH_WINDOW,
            stride: MHEALTH_STRIDE,
            session_len: MHEALTH_WINDOW, // unused: the corpus is file-backed
            normal_session_multiplier: 1,
            noise_std: 0.0,
            seed: 42,
        }),
        ad_epochs: 6,
        policy: TrainConfig { epochs: 25, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: 42,
    };
    let t0 = std::time::Instant::now();
    run_pipeline(&mhealth_source.name(), config, corpus);
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] mhealth pipeline: {wall:.2} s");

    // --- adversarial traces: line-numbered errors, not panics ---
    println!("--- adversarial traces ---");
    show_errors("power_bad.csv", |policy| {
        PowerCsvSource::new(format!("{dir}/power_bad.csv"), POWER_SPD, policy).load_chunked().err()
    });
    show_errors("mhealth_bad.ndjson", |policy| {
        MhealthNdjsonSource::new(
            format!("{dir}/mhealth_bad.ndjson"),
            MHEALTH_WINDOW,
            MHEALTH_STRIDE,
            policy,
        )
        .load_chunked()
        .err()
    });

    // --- amplified sharded replay: the power trace at engine scale ---
    if args.amplify > 0 {
        println!("\n--- sharded trace replay (power fixture, amplify x{}) ---", args.amplify);

        // Ingestion throughput: the raw CSV's data lines replicated
        // amplify× through the chunked parser — real-format bytes at
        // engine volume.
        let raw = std::fs::read(format!("{dir}/power_good.csv")).expect("fixture just loaded");
        let big = amplified_power_bytes(&raw, args.amplify);
        let threads = if args.ingest_threads == 0 { thread_count() } else { args.ingest_threads };
        let chunk = big.len().div_ceil(threads).max(64 * 1024);
        let t0 = std::time::Instant::now();
        let parsed =
            with_ingest_threads(args.ingest_threads, || power_source.parse_chunked(&big, chunk))
                .expect("amplified bytes replicate a clean fixture");
        let ingest_wall = t0.elapsed().as_secs_f64();
        let gb_per_s = big.len() as f64 / ingest_wall / 1e9;
        println!("ingest: {} bytes -> {} windows (chunked)", big.len(), parsed.len());
        eprintln!(
            "[timing] amplified ingest: {ingest_wall:.3} s ({gb_per_s:.3} GB/s, {:.0} windows/s, \
             {} chunk(s))",
            parsed.len() as f64 / ingest_wall,
            big.len().div_ceil(chunk)
        );

        // Replay corpus: the loaded corpus amplified with deterministic
        // perturbation (repetition 0 verbatim), scored by the trained
        // detectors, streamed through the sharded fleet per scheme.
        let amplified = amplify_corpus(&power_corpus, args.amplify, &PerturbConfig::default());
        let replay_windows = power_exp.standardize_windows(&amplified.windows);
        let t0 = std::time::Instant::now();
        let oracle = power_exp.oracle_over(&replay_windows);
        eprintln!("[timing] oracle over amplified corpus: {:.2} s", t0.elapsed().as_secs_f64());
        let kind = power_exp.config().dataset.kind();
        let payload = power_exp.config().payload_bytes();
        let sc = replay_scenario(kind, payload, amplified.len() as u64);
        let reward = RewardModel::new(kind.paper_alpha());
        println!(
            "replay fleet: {} windows over {} devices x {} windows/device, {} shard(s)",
            sc.total_windows(),
            sc.total_devices(),
            sc.cohorts[0].windows_per_device,
            args.shards
        );
        let mut results = Vec::new();
        for scheme in SchemeKind::ALL {
            let t0 = std::time::Instant::now();
            let r = match scheme {
                SchemeKind::Adaptive => replay_trace_sharded(
                    &sc,
                    &oracle,
                    scheme,
                    Some(&mut power_policy),
                    Some(&power_scaler),
                    &reward,
                    args.shards,
                ),
                _ => replay_trace_sharded(&sc, &oracle, scheme, None, None, &reward, args.shards),
            };
            let wall = t0.elapsed().as_secs_f64();
            eprintln!(
                "[timing] replay {scheme}: {wall:.2} s ({:.0} windows/s)",
                r.fleet.emitted as f64 / wall
            );
            println!(
                "  {:<11} acc={:.4} f1={:.4} reward={:<8.2} mean={:.2} ms p99={:.2} ms \
                 served={} missed={}",
                scheme.to_string(),
                r.accuracy(),
                r.f1(),
                r.mean_reward_x100,
                r.routed_mean_ms,
                r.routed_p99_ms,
                r.confusion.total(),
                r.missed
            );
            results.push(r);
        }
        if let Some(out) = &args.out_dir {
            std::fs::create_dir_all(out).expect("create --out dir");
            let path = format!("{out}/replay.csv");
            std::fs::write(&path, fleet_stream_csv(&results)).expect("write replay.csv");
            eprintln!("[out] wrote {path}");
        }
    }

    hec_bench::telemetry::dump("repro_real", args.telemetry_dir.as_deref());
}
