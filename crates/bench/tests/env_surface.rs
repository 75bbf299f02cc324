//! The workspace's environment surface is two variables. Every other knob
//! of a repro binary is a flag (`hec_bench::cli`), so a run is described by
//! its command line plus `HEC_PROFILE` and `HEC_THREADS` — this guard fails
//! when library or binary source starts reading a third.

mod sources;

use std::collections::BTreeSet;

#[test]
fn the_environment_surface_is_hec_profile_and_hec_threads() {
    // The name of every `env::var(..)` / `env::var_os(..)` read.
    let mut names = BTreeSet::new();
    sources::for_each_source_file(|path, source| {
        for (at, _) in source.match_indices("env::var") {
            let call = source[at + "env::var".len()..].trim_start_matches("_os");
            let Some(args) = call.strip_prefix('(') else { continue };
            let literal = args.trim_start().strip_prefix('"').and_then(|s| s.split_once('"'));
            let (name, _) = literal.unwrap_or_else(|| {
                panic!("{}: environment variable name is not a literal", path.display())
            });
            names.insert(name.to_owned());
        }
    });
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(names, ["HEC_PROFILE", "HEC_THREADS"]);
}
