//! Shared telemetry plumbing for the `repro_*` binaries.
//!
//! Every reproduction binary accepts `--telemetry <dir>`. When the
//! `telemetry` feature is on (the default), the flag arms virtual-event
//! capture at startup and, at exit, writes three artifacts into `<dir>`:
//!
//! * `telemetry_snapshot.txt` — the deterministic metric registry in the
//!   stable text format (byte-identical across reruns and `HEC_THREADS`);
//! * `telemetry_snapshot.ndjson` — the same snapshot, one JSON object per
//!   metric (also byte-stable — CI diffs both);
//! * `trace.json` — the virtual-clock span capture in Chrome-trace JSON,
//!   loadable in Perfetto (<https://ui.perfetto.dev>). Virtual time is
//!   deterministic, so this file is byte-stable too.
//!
//! Wall-clock span and allocation-phase aggregates are **not** written to
//! the dump directory — they are machine-dependent, so they go to stderr
//! only, keeping every CI-diffed artifact stable.
//!
//! When the binary was built with `--no-default-features`, the flag is
//! accepted but warns on stderr and writes nothing.

/// Arms telemetry for a run: enables virtual-event capture when a dump
/// directory was requested, and warns when the flag is used in a build
/// with telemetry compiled out.
pub fn init(bin: &str, dir: Option<&str>) {
    if dir.is_some() {
        if hec_telemetry::ENABLED {
            hec_telemetry::set_trace_capture(true);
        } else {
            eprintln!(
                "{bin}: --telemetry requested but the `telemetry` feature is compiled out \
                 (build hec-bench with default features); no dump will be written"
            );
        }
    }
}

/// Writes the end-of-run telemetry dump into `dir` (see the module docs
/// for the artifact list) and prints the wall-clock sidecar aggregates to
/// stderr. No-op when `dir` is `None` or telemetry is compiled out.
pub fn dump(bin: &str, dir: Option<&str>) {
    let Some(dir) = dir else { return };
    if !hec_telemetry::ENABLED {
        return;
    }
    // Fold the lock-free fast counters into the registry before reading it.
    hec_tensor::kernel::publish_telemetry();
    let snapshot = hec_telemetry::snapshot();
    std::fs::create_dir_all(dir).expect("create telemetry directory");
    let txt = format!("{dir}/telemetry_snapshot.txt");
    std::fs::write(&txt, snapshot.to_text()).expect("write telemetry snapshot");
    let ndjson = format!("{dir}/telemetry_snapshot.ndjson");
    std::fs::write(&ndjson, snapshot.to_ndjson()).expect("write telemetry ndjson");
    let trace = format!("{dir}/trace.json");
    std::fs::write(&trace, hec_telemetry::export_chrome_trace()).expect("write trace");
    eprintln!("[telemetry] {bin}: wrote {txt}, {ndjson}, {trace}");
    let wall = hec_telemetry::wall_stats_text();
    if !wall.is_empty() {
        eprintln!("[telemetry] wall-clock spans (machine-dependent, stderr only):\n{wall}");
    }
}
