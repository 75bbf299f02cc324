//! `repro_fleet`: the named discrete-event **fleet scenarios** —
//! light_load, edge_saturated, cloud_link_constrained, flash_crowd —
//! streaming the whole device fleet's windows through the 3-layer
//! hierarchy with per-layer queueing, bandwidth-shared links and admission
//! control, and reporting load-dependent latency distributions,
//! utilization and drop rates per layer.
//!
//! `HEC_PROFILE=full` (the default) runs ≥100k devices / ≥1M windows per
//! scenario; `quick` runs the same rates at 1/50 scale. `--devices`,
//! `--windows` and `--shards` scale further: the 1M-device / 10M-window
//! tier is `--devices 1000000 --shards 8`, sharding the fleet across
//! `HEC_THREADS` workers through `hec_core::sharded`. Everything written
//! to `out` is deterministic — the same (profile, devices, windows,
//! shards) setting produces byte-identical output on any host and under
//! any worker count (timing goes to stderr). `--shards 1` (the default)
//! is the serial engine.
//!
//! With an output directory, per-layer and queue-trace CSVs are written
//! there. With `--stream`, the evaluation corpus is additionally streamed
//! through a mid-load fleet under all five schemes (closed loop: the
//! trained bandit's actions shape the queueing), printing accuracy/F1 next
//! to the load-dependent delays.

use std::io::{self, Write};
use std::time::Instant;

use hec_bandit::RewardModel;
use hec_core::sharded::run_scenario_sharded;
use hec_core::stream::{fleet_stream_csv, stream_through_fleet, FleetStreamResult};
use hec_core::{Experiment, SchemeKind};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
use hec_sim::DatasetKind;

use crate::cli::{Cli, Spec};
use crate::{univariate_config, Profile};

const USAGE: &str = "\
usage: repro_fleet [out_dir] [--stream] [--devices N] [--windows N] [--shards N]
                   [--telemetry DIR]

Runs the named discrete-event fleet scenarios and prints deterministic,
byte-stable reports on stdout (timing goes to stderr).

  out_dir        write per-layer and queue-trace CSVs here
  --stream       additionally stream the evaluation corpus through a
                 mid-load fleet under all five schemes (closed loop)
  --devices N    scale every scenario to ~N total devices; emission
                 periods and the virtual horizon stretch by the same
                 factor, preserving every offered-load rate
  --windows N    windows emitted per device (default: the scenario's
                 own, 10; total windows = devices x N)
  --shards N     partition each fleet into N independent shards driven
                 in parallel on HEC_THREADS workers; N=1 (default) is
                 the serial engine
  --telemetry DIR  capture the metric registry and virtual-clock span
                 trace and write telemetry_snapshot.{txt,ndjson} and
                 trace.json (Perfetto-loadable) into DIR; the files are
                 byte-identical across reruns and HEC_THREADS values
  --help         print this help

HEC_PROFILE=full|quick selects the base scale (default: full). For a
fixed (profile, devices, windows, shards) setting, stdout and the CSVs
are byte-identical across reruns and across HEC_THREADS values.
";

/// The binary's command line.
pub const SPEC: Spec = Spec {
    bin: "repro_fleet",
    usage: USAGE,
    values: &["--devices", "--windows", "--shards", "--telemetry"],
    switches: &["--stream"],
};

/// Runs the binary, writing its stdout to `out` and, given a positional
/// directory, its CSVs into it. A flag value out of range exits 2 with
/// the usage text.
///
/// # Errors
///
/// A failed write to `out` or to a CSV.
pub fn run(profile: Profile, cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
    let out_dir = cli.positional();
    let devices: Option<u64> = cli.value("--devices");
    let windows: Option<u32> = cli.value("--windows");
    let shards: usize = cli.value("--shards").unwrap_or(1);
    if shards == 0 || devices == Some(0) || windows == Some(0) {
        cli.fail("--devices/--windows/--shards must be at least 1");
    }

    crate::telemetry::init(SPEC.bin, cli.telemetry_dir());

    let scale = profile.fleet_scale();
    writeln!(out, "== repro_fleet (profile: {profile:?}) ==\n")?;
    // Deterministic banner for non-default tiers only, so the default
    // invocation stays byte-identical to the pre-sharding recordings.
    if devices.is_some() || windows.is_some() || shards > 1 {
        let dev = devices.map_or_else(|| "scenario".into(), |d| d.to_string());
        let win = windows.map_or_else(|| "scenario".into(), |w| w.to_string());
        writeln!(out, "-- scale tier: devices={dev} windows/device={win} shards={shards} --\n")?;
    }

    for name in FleetScenario::NAMES {
        let mut sc = FleetScenario::by_name(name, scale).expect("named scenario");
        if let Some(d) = devices {
            sc.scale_fleet(d as f64 / sc.total_devices() as f64);
        }
        if let Some(w) = windows {
            sc.set_windows_per_device(w);
        }
        let t0 = Instant::now();
        let run = run_scenario_sharded(&sc, shards);
        let wall = t0.elapsed().as_secs_f64();
        let report = &run.report;
        // Wall-clock throughput is machine-dependent: stderr only, so
        // the output stays byte-identical across reruns.
        eprintln!(
            "[timing] {name}: {:.2} s wall, {:.2}M events/s, {:.2}M windows/s",
            wall,
            report.events as f64 / wall / 1e6,
            report.emitted as f64 / wall / 1e6
        );
        if shards > 1 {
            let per_shard: Vec<String> =
                run.shard_events.iter().map(|&e| format!("{:.2}M", e as f64 / 1e6)).collect();
            eprintln!(
                "[timing] {name}: {} shards, per-shard events [{}], aggregate {:.2}M events/s",
                shards,
                per_shard.join(", "),
                report.events as f64 / wall / 1e6
            );
        }
        write!(out, "{}", report.to_text())?;
        writeln!(out)?;
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir)?;
            let layers = format!("{dir}/fleet_{name}_layers.csv");
            std::fs::write(&layers, report.layers_csv())?;
            let trace = format!("{dir}/fleet_{name}_trace.csv");
            std::fs::write(&trace, report.trace_csv())?;
            writeln!(out, "  wrote {layers} and {trace}\n")?;
        }
    }

    if cli.switch("--stream") {
        stream_schemes(out, profile, scale, out_dir)?;
    }

    crate::telemetry::dump(SPEC.bin, cli.telemetry_dir());
    Ok(())
}

/// Closed loop: train the univariate pipeline, then stream the evaluation
/// corpus from every device of a mid-load fleet under each scheme — the
/// policy's action distribution now determines which queues build up.
/// (The `--devices`/`--windows`/`--shards` tier applies to the named
/// scenarios above, not to this training-in-the-loop section.)
fn stream_schemes(
    out: &mut dyn Write,
    profile: Profile,
    scale: FleetScale,
    out_dir: Option<&str>,
) -> io::Result<()> {
    writeln!(out, "-- closed-loop scheme streaming (fleet-loaded delays) --\n")?;
    let config = univariate_config(profile);
    let mut exp = Experiment::prepare(config);
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut policy, scaler, _) = exp.train_policy(&policy_oracle);
    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);

    // A fleet hot enough that routing everything to one layer hurts:
    // ~1.3k windows/s offered against the edge's ~540/s and a 6 Mbit/s
    // cloud uplink (~2k windows/s of 384 B payloads). The same divisor
    // the named scenarios use keeps the rates identical at both scales.
    let s = scale.divisor();
    let mut sc = FleetScenario::light_load(scale);
    sc.name = "scheme_stream".into();
    sc.batch_max = 1;
    sc.cloud_bandwidth_mbps = Some(6.0);
    // RoutePlan is overridden by the scheme router.
    sc.cohorts = vec![CohortSpec::uniform(
        (100_000.0 / s) as u32,
        10,
        75_000.0 / s,
        0.0,
        RoutePlan::Fixed(0),
    )];

    let reward = RewardModel::new(DatasetKind::Univariate.paper_alpha());
    let results: Vec<FleetStreamResult> = SchemeKind::ALL
        .iter()
        .map(|&kind| match kind {
            SchemeKind::Adaptive => stream_through_fleet(
                &sc,
                &eval_oracle,
                kind,
                Some(&mut policy),
                Some(&scaler),
                &reward,
                None,
            ),
            _ => stream_through_fleet(&sc, &eval_oracle, kind, None, None, &reward, None),
        })
        .collect();

    for r in &results {
        writeln!(
            out,
            "{:<12} served={:<8} missed={:<8} acc={:.4} f1={:.4} reward={:<8.2} mean={:.2} ms \
             p99={:.2} ms",
            r.scheme.to_string(),
            r.fleet.served,
            r.missed,
            r.accuracy(),
            r.f1(),
            r.mean_reward_x100,
            r.fleet.overall_mean_ms,
            r.fleet.overall_p99_ms
        )?;
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/fleet_schemes.csv");
        std::fs::write(&path, fleet_stream_csv(&results))?;
        writeln!(out, "\n  wrote {path}")?;
    }
    Ok(())
}
