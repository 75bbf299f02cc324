//! Every checked-in golden under `golden/`, diffed in process: each case
//! calls a binary's body (`hec_bench::repro::<bin>::run`) with the
//! command line the golden was recorded from, at `Profile::Quick` whatever
//! `HEC_PROFILE` says, under `with_thread_count(n)` for one, two and four
//! workers (`repro_table2` also at three), and compares what it wrote
//! byte for byte. A mismatch names the file and its first differing line.
//!
//! Stdout goldens come from runs without an output directory; the CSVs
//! from a second run that writes under this target's scratch directory.
//! The worker count is a thread-local override, so the cases run side by
//! side on the test harness's threads.
//!
//! A golden is re-recorded by redirecting the release binary's own output
//! at `HEC_PROFILE=quick HEC_THREADS=1` (README, "Goldens"); no switch
//! here rewrites one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hec_bench::cli::{Cli, Spec};
use hec_bench::repro;
use hec_bench::Profile;
use hec_tensor::parallel::with_thread_count;

/// A binary: its command line and its body.
type Bin = (Spec, fn(Profile, &Cli, &mut dyn io::Write) -> io::Result<()>);

const TABLE1: Bin = (repro::table1::SPEC, repro::table1::run);
const TABLE2: Bin = (repro::table2::SPEC, repro::table2::run);
const FIG1: Bin = (repro::fig1::SPEC, repro::fig1::run);
const FIG2: Bin = (repro::fig2::SPEC, repro::fig2::run);
const FIG3: Bin = (repro::fig3::SPEC, repro::fig3::run);
const ABLATION: Bin = (repro::ablation::SPEC, repro::ablation::run);
const FLEET: Bin = (repro::fleet::SPEC, repro::fleet::run);
const FLEET_TRAIN: Bin = (repro::fleet_train::SPEC, repro::fleet_train::run);
const DRIFT: Bin = (repro::drift::SPEC, repro::drift::run);
const DEMO_PANEL: Bin = (repro::demo_panel::SPEC, repro::demo_panel::run);
#[cfg(feature = "real-data")]
const REAL: Bin = (repro::real::SPEC, repro::real::run);

/// The worker counts every case runs at.
const WORKERS: [usize; 3] = [1, 2, 4];

/// What `bin` writes for `args` on `workers` workers.
fn output(bin: Bin, args: &[&str], workers: usize) -> Vec<u8> {
    let (spec, run) = bin;
    let cli = spec
        .parse_from(args.iter().map(|&a| a.to_owned()))
        .unwrap_or_else(|stop| panic!("{} {args:?}: {stop:?}", spec.bin));
    let mut out = Vec::new();
    with_thread_count(workers, || run(Profile::Quick, &cli, &mut out))
        .unwrap_or_else(|e| panic!("{} {args:?} at {workers} workers: {e}", spec.bin));
    out
}

/// A path under `golden/`.
fn golden(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden").join(rel)
}

/// An empty directory for one run's files, under this target's scratch
/// directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens").join(name);
    match fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => panic!("clear {}: {e}", dir.display()),
        _ => dir,
    }
}

/// Runs `bin` with `args` on `workers` workers, where `"DIR"` stands for
/// the fresh scratch directory `name`; returns the directory and what the
/// run wrote.
fn output_in(bin: Bin, name: &str, args: &[&str], workers: usize) -> (PathBuf, Vec<u8>) {
    let dir = scratch(name);
    let path = dir.to_str().expect("UTF-8 path");
    let line: Vec<&str> = args.iter().map(|&a| if a == "DIR" { path } else { a }).collect();
    let out = output(bin, &line, workers);
    (dir, out)
}

/// Panics unless `got` is `expected`, naming the first line that differs.
fn assert_same(what: &str, expected: &[u8], got: &[u8]) {
    if expected == got {
        return;
    }
    let expected = String::from_utf8_lossy(expected);
    let got = String::from_utf8_lossy(got);
    let (mut want, mut have) = (expected.split('\n'), got.split('\n'));
    for line in 1.. {
        match (want.next(), have.next()) {
            (None, None) => break,
            (w, h) if w != h => {
                panic!("{what}: first difference at line {line}:\n  want: {w:?}\n  got:  {h:?}")
            }
            _ => {}
        }
    }
    unreachable!("{what}: bytes differ but every line matches");
}

/// Panics unless `got` is the golden file `rel`.
fn assert_golden(rel: &str, got: &[u8], what: &str) {
    let path = golden(rel);
    let expected = fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_same(&format!("{what} vs golden/{rel}"), &expected, got);
}

/// The files of `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display()));
    let mut files: Vec<(String, Vec<u8>)> = entries
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display())))
        })
        .collect();
    files.sort();
    files
}

/// Panics unless `a` and `b` hold the same file names with the same bytes.
fn assert_same_files(what: &str, a: &Path, b: &Path) {
    let (a, b) = (files(a), files(b));
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b), "{what}: file names");
    for ((name, want), (_, got)) in a.iter().zip(&b) {
        assert_same(&format!("{what}: {name}"), want, got);
    }
}

/// Runs `bin` with `args` at every worker count of `workers` and diffs its
/// output against the golden file `rel`.
fn check(rel: &str, bin: Bin, args: &[&str], workers: &[usize]) {
    for &n in workers {
        let what = format!("{} {args:?} at {n} workers", bin.0.bin);
        assert_golden(rel, &output(bin, args, n), &what);
    }
}

/// Runs `bin` with `args` after an output directory at every worker count
/// of [`WORKERS`] and diffs the files it writes against the golden
/// directory `rel`.
fn check_files(rel: &str, bin: Bin, args: &[&str]) {
    for n in WORKERS {
        let (dir, _) = output_in(bin, &format!("{rel}_w{n}"), &[&["DIR"], args].concat(), n);
        let what = format!("{} DIR {args:?} at {n} workers vs golden/{rel}", bin.0.bin);
        assert_same_files(&what, &golden(rel), &dir);
    }
}

#[test]
fn table1() {
    check("quick/repro_table1.txt", TABLE1, &[], &WORKERS);
}

/// Three workers fit one detector each; four are more than the
/// detectors.
#[test]
fn table2() {
    check("quick/repro_table2.txt", TABLE2, &[], &[1, 2, 3, 4]);
}

#[test]
fn fig1() {
    check("quick/repro_fig1.txt", FIG1, &[], &WORKERS);
}

#[test]
fn fig2() {
    check("quick/repro_fig2.txt", FIG2, &[], &WORKERS);
}

#[test]
fn fig3() {
    check("quick/repro_fig3.txt", FIG3, &[], &WORKERS);
    check_files("quick/repro_fig3", FIG3, &[]);
}

/// The sweeps fan out per grid point, so every worker count above one
/// spawns.
#[test]
fn ablation() {
    check("quick/repro_ablation.txt", ABLATION, &[], &WORKERS);
}

/// The serial engine, and one shard, which is the same run.
#[test]
fn fleet() {
    check("quick/repro_fleet.txt", FLEET, &[], &WORKERS);
    check("quick/repro_fleet.txt", FLEET, &["--shards", "1"], &[4]);
}

/// The closed-loop scheme streaming, and the serial run's layer, trace
/// and scheme CSVs.
#[test]
fn fleet_stream() {
    check("quick/repro_fleet_stream.txt", FLEET, &["--stream"], &WORKERS);
    check_files("quick/repro_fleet", FLEET, &["--stream"]);
}

/// Four shards: the golden stdout, and CSVs that do not depend on the
/// worker count or on where the flag stands.
#[test]
fn fleet_shards4() {
    check("quick/repro_fleet_shards4.txt", FLEET, &["--shards", "4"], &WORKERS);
    let csvs =
        |args: &[&str], n: usize| output_in(FLEET, &format!("fleet_shards4_w{n}"), args, n).0;
    let one = csvs(&["DIR", "--shards", "4"], 1);
    let what = "repro_fleet --shards 4 CSVs";
    assert_same_files(
        &format!("{what}, 1 vs 4 workers"),
        &one,
        &csvs(&["DIR", "--shards", "4"], 4),
    );
    assert_same_files(
        &format!("{what}, 1 vs 2 workers"),
        &one,
        &csvs(&["--shards", "4", "DIR"], 2),
    );
}

/// A scale tier: no golden, but one worker == three (uneven chunks).
#[test]
fn fleet_scale_tier() {
    let args = ["--devices", "5000", "--windows", "4", "--shards", "4"];
    assert_same(
        "repro_fleet --devices 5000 --windows 4 --shards 4, 1 vs 3 workers",
        &output(FLEET, &args, 1),
        &output(FLEET, &args, 3),
    );
}

#[test]
fn fleet_train() {
    check("quick/repro_fleet_train.txt", FLEET_TRAIN, &[], &WORKERS);
    check_files("quick/repro_fleet_train", FLEET_TRAIN, &[]);
}

#[test]
fn drift() {
    check("quick/repro_drift.txt", DRIFT, &[], &WORKERS);
    check_files("quick/repro_drift", DRIFT, &[]);
}

/// The example sets its own sizes; the profile does not reach it.
#[test]
fn demo_panel() {
    check("examples/demo_panel.txt", DEMO_PANEL, &[], &WORKERS);
}

#[cfg(feature = "real-data")]
#[test]
fn real() {
    check("quick/repro_real.txt", REAL, &[], &WORKERS);
}

/// The amplified replay (power fixture ×500 → 40k windows, four shards):
/// stdout is its golden and `replay.csv` the same in every cell of
/// [`WORKERS`] × `--ingest-threads` {1, 2, 3, 4}. 40k windows are above
/// the detectors' fan-out grain, so four workers score on four threads;
/// one ingest thread is a single scan, two and three leave uneven chunk
/// tails.
#[cfg(feature = "real-data")]
#[test]
fn real_amplify() {
    let mut first: Option<PathBuf> = None;
    for workers in WORKERS {
        for ingest in ["1", "2", "3", "4"] {
            let args =
                ["--amplify", "500", "--shards", "4", "--ingest-threads", ingest, "--out", "DIR"];
            let name = format!("real_amplify_w{workers}_i{ingest}");
            let (dir, out) = output_in(REAL, &name, &args, workers);
            let what = format!("repro_real {args:?} at {workers} workers");
            assert_golden("quick/repro_real_amplify.txt", &out, &what);
            match &first {
                None => first = Some(dir),
                Some(first) => assert_same_files(&what, first, &dir),
            }
        }
    }
}
