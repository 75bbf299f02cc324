//! The workspace's environment surface is two variables. Every other knob
//! of a repro binary is a flag (`hec_bench::cli`), so a run is described by
//! its command line plus `HEC_PROFILE` and `HEC_THREADS` — this guard fails
//! when library or binary source starts reading a third.

use std::collections::BTreeSet;
use std::path::Path;

/// Collects the name of every `env::var(..)` / `env::var_os(..)` read in
/// the `.rs` files under `dir`, skipping the benchmark package.
fn env_reads(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if !path.ends_with("bin/perf") {
                env_reads(&path, names);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            for (at, _) in source.match_indices("env::var") {
                let call = source[at + "env::var".len()..].trim_start_matches("_os");
                let Some(args) = call.strip_prefix('(') else { continue };
                let literal = args.trim_start().strip_prefix('"').and_then(|s| s.split_once('"'));
                let (name, _) = literal.unwrap_or_else(|| {
                    panic!("{}: environment variable name is not a literal", path.display())
                });
                names.insert(name.to_owned());
            }
        }
    }
}

#[test]
fn the_environment_surface_is_hec_profile_and_hec_threads() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates directory");
    let mut names = BTreeSet::new();
    for entry in std::fs::read_dir(crates).expect("readable crates directory") {
        let src = entry.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            env_reads(&src, &mut names);
        }
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(names, ["HEC_PROFILE", "HEC_THREADS"]);
}
