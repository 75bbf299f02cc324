//! Int8 quantisation sweep for the layer-0 detector — the F1-cost table
//! behind the "quantised inference path" entry in EXPERIMENTS.md.
//!
//! Trains the univariate AE-IoT detector **once** in f32 on the standard
//! split, then re-quantises the same trained weights through every
//! [`QuantMode`] — weight-only vs full int8, per-tensor vs per-row
//! parameters — recalibrating the scorer each time (quantised
//! reconstruction shifts the error distribution, so the threshold must
//! re-fit). Each scheme is evaluated on the AD test split so the table
//! isolates the accuracy cost of quantisation from training noise.
//!
//! Everything on stdout is deterministic — same profile ⇒ byte-identical
//! output across reruns and `HEC_THREADS` settings (the integer kernels
//! accumulate in a fixed order), which the CI smoke job enforces by
//! diffing two runs. Per-window latency is *measured wall-clock* and
//! goes to **stderr** only, alongside the suggested
//! `repro_fleet_train --layer0-exec-ms` value (the paper's 12.4 ms
//! layer-0 execution time scaled by the measured int8/f32 ratio).
//!
//! ```text
//! cargo run --release -p hec-bench --bin repro_quant -- [out_dir] [--telemetry <dir>]
//! ```
//!
//! With `out_dir`, the table is also written to `quant_schemes.csv`.

use std::fmt::Write as _;
use std::time::Instant;

use hec_anomaly::{AeArchitecture, AnomalyDetector, AutoencoderDetector, QuantMode, QuantScheme};
use hec_bench::cli::Spec;
use hec_bench::{univariate_config, Profile};
use hec_core::{DatasetConfig, Experiment};
use hec_data::{BinaryConfusion, LabeledWindow};

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

/// Accuracy/F1 of a fitted detector over the test split.
fn evaluate(det: &mut AutoencoderDetector, test: &[LabeledWindow]) -> BinaryConfusion {
    let mut confusion = BinaryConfusion::new();
    for (d, w) in det.detect_batch(test).into_iter().zip(test.iter()) {
        confusion.record(d.anomalous, w.anomalous);
    }
    confusion
}

/// Mean wall-clock per-window detection latency, microseconds, measured
/// over `passes` per-window sweeps of the test split after one warm-up
/// pass (so buffer growth is excluded — the steady state the fleet's
/// delay economy models). Wall-clock ⇒ stderr only.
fn per_window_us(det: &mut AutoencoderDetector, test: &[LabeledWindow], passes: usize) -> f64 {
    for w in test {
        let _ = det.detect(w);
    }
    let t0 = Instant::now();
    for _ in 0..passes {
        for w in test {
            let _ = det.detect(w);
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (passes * test.len()) as f64
}

fn main() {
    let cli = Spec {
        bin: "repro_quant",
        usage: "usage: repro_quant [out_dir] [--telemetry <dir>]\n",
        values: &["--telemetry"],
        switches: &[],
    }
    .parse();
    let out_dir = cli.positional();
    hec_bench::telemetry::init("repro_quant", cli.telemetry_dir());
    let profile = Profile::from_env();
    println!("== repro_quant (profile: {profile:?}) ==\n");

    let config = univariate_config(profile);
    let DatasetConfig::Univariate(power) = &config.dataset else {
        unreachable!("univariate_config is univariate");
    };
    let input_dim = power.samples_per_day;
    let seed = config.seed;
    let ad_epochs = config.ad_epochs;
    let exp = Experiment::prepare(config);
    let train = exp.split.ad_train.clone();
    let test = exp.split.ad_test.clone();
    println!(
        "pipeline: AE-IoT [{}], {} training windows, {} test windows, {} epochs\n",
        AeArchitecture::iot(input_dim)
            .layer_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("-"),
        train.len(),
        test.len(),
        ad_epochs
    );

    // One f32 training run; every scheme below re-quantises these weights.
    let mut det = AutoencoderDetector::new("AE-IoT", AeArchitecture::iot(input_dim), seed);
    let t0 = Instant::now();
    let report = det.fit(&train, ad_epochs).expect("AE-IoT fit");
    let fit_wall = t0.elapsed().as_secs_f64();
    eprintln!("[timing] f32 training: {fit_wall:.2} s");

    // Sub-microsecond per-window latency needs a long measurement window:
    // 200 full-profile passes over the test split is ~20 ms per scheme.
    let passes = match profile {
        Profile::Quick => 20,
        Profile::Full => 200,
    };
    let f32_confusion = evaluate(&mut det, &test);
    let f32_detections = det.detect_batch(&test);
    let f32_threshold = report.threshold;
    let f32_us = per_window_us(&mut det, &test, passes);
    eprintln!("[latency] {:<15}: {f32_us:9.1} us/window", "f32");

    let modes = [
        QuantMode::weight_only(QuantScheme::PerTensor),
        QuantMode::weight_only(QuantScheme::PerRow),
        QuantMode::int8(QuantScheme::PerTensor),
        QuantMode::int8(QuantScheme::PerRow),
    ];
    println!("scheme          params      accuracy   f1       delta_f1");
    println!(
        "{:<15} {:>9}  {:>7.4}  {:.4}   {:+.4}",
        "f32",
        det.param_count(),
        f32_confusion.accuracy(),
        f32_confusion.f1(),
        0.0
    );
    let mut csv = String::from("scheme,params,accuracy,f1,delta_f1\n");
    let _ = writeln!(
        csv,
        "f32,{},{:.6},{:.6},{:.6}",
        det.param_count(),
        f32_confusion.accuracy(),
        f32_confusion.f1(),
        0.0
    );

    let mut int8_per_row_us = f32_us;
    for mode in modes {
        det.requantize(Some(mode), &train).expect("requantize");
        let confusion = evaluate(&mut det, &test);
        let us = per_window_us(&mut det, &test, passes);
        eprintln!("[latency] {:<15}: {us:9.1} us/window", mode.label());
        if mode == QuantMode::int8(QuantScheme::PerRow) {
            int8_per_row_us = us;
        }
        let delta = confusion.f1() - f32_confusion.f1();
        println!(
            "{:<15} {:>9}  {:>7.4}  {:.4}   {:+.4}",
            mode.label(),
            det.param_count(),
            confusion.accuracy(),
            confusion.f1(),
            delta
        );
        let _ = writeln!(
            csv,
            "{},{},{:.6},{:.6},{:.6}",
            mode.label(),
            det.param_count(),
            confusion.accuracy(),
            confusion.f1(),
            delta
        );
    }

    // The f32 weights were never touched: restoring the f32 path must
    // reproduce the original threshold and detections bit-for-bit.
    let restored_threshold = det.requantize(None, &train).expect("restore f32");
    let restored = det.detect_batch(&test);
    assert_eq!(restored_threshold, f32_threshold, "f32 restore changed the threshold");
    assert_eq!(restored, f32_detections, "f32 restore changed detections");
    println!("\nf32 restore check: ok (threshold and detections bit-identical)");

    // Feed the measurement back into the delay economy: scale the paper's
    // measured 12.4 ms layer-0 execution time by the int8/f32 ratio this
    // implementation observes. Wall-clock ⇒ stderr.
    let paper_layer0_ms = 12.4;
    let ratio = int8_per_row_us / f32_us;
    eprintln!(
        "[latency] int8-per-row / f32 ratio: {ratio:.3}  ->  suggested \
         repro_fleet_train --layer0-exec-ms {:.2}  (paper 12.4 ms x ratio)",
        paper_layer0_ms * ratio
    );

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = format!("{dir}/quant_schemes.csv");
        std::fs::write(&path, csv).expect("write scheme CSV");
        println!("wrote {path}");
    }

    hec_bench::telemetry::dump("repro_quant", cli.telemetry_dir());
}
