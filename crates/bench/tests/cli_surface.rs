//! Every repro binary with a golden parses its command line through
//! `hec_bench::cli` before doing any work: `--help` exits 0, and an unknown
//! flag exits 2 with an error line prefixed by the binary's name, and so
//! do a positional argument to a binary that takes none and a flag a
//! binary no longer takes.

use std::process::Command;

const BINS: &[(&str, &str)] = &[
    ("repro_table1", env!("CARGO_BIN_EXE_repro_table1")),
    ("repro_table2", env!("CARGO_BIN_EXE_repro_table2")),
    ("repro_fig1", env!("CARGO_BIN_EXE_repro_fig1")),
    ("repro_fig2", env!("CARGO_BIN_EXE_repro_fig2")),
    ("repro_fig3", env!("CARGO_BIN_EXE_repro_fig3")),
    ("repro_ablation", env!("CARGO_BIN_EXE_repro_ablation")),
    ("repro_fleet", env!("CARGO_BIN_EXE_repro_fleet")),
    ("repro_fleet_train", env!("CARGO_BIN_EXE_repro_fleet_train")),
    ("repro_drift", env!("CARGO_BIN_EXE_repro_drift")),
    #[cfg(feature = "real-data")]
    ("repro_real", env!("CARGO_BIN_EXE_repro_real")),
];

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let bogus = BINS.iter().map(|&(name, exe)| (name, exe, &["--bogus"][..]));
    // A flag the binary no longer takes.
    let removed = [(
        "repro_fleet_train",
        env!("CARGO_BIN_EXE_repro_fleet_train"),
        &["--layer0-exec-ms", "15.2"][..],
    )];
    for (name, exe, args) in bogus.chain(removed) {
        let out = Command::new(exe).args(args).output().expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("{name}: ")), "{name} {args:?} wrote {stderr:?}");
        assert!(out.stdout.is_empty(), "{name} {args:?} wrote to stdout");
    }
}

#[test]
fn a_positional_to_a_binary_without_one_is_a_usage_error() {
    let takes_none = ["repro_table1", "repro_table2", "repro_fig1", "repro_fig2", "repro_ablation"];
    for &(name, exe) in BINS.iter().filter(|(name, _)| takes_none.contains(name)) {
        let out = Command::new(exe).arg("stray").output().expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{name} stray");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("{name}: unexpected argument \"stray\"")),
            "{name} stray wrote {stderr:?}"
        );
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for &(name, exe) in BINS {
        let out = Command::new(exe).arg("--help").output().expect("binary starts");
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(&format!("usage: {name}")), "{name} --help wrote {stdout:?}");
    }
}
