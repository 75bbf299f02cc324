//! The walk the source-surface guards share: every `.rs` file under
//! `crates/*/src`, the benchmark package left out (it is measured code's
//! client, not part of it).

use std::path::{Path, PathBuf};

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("readable source directory")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    entries.sort();
    entries
}

fn visit_dir(dir: &Path, crates: &Path, visit: &mut dyn FnMut(&Path, &str)) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            if !path.ends_with("bin/perf") {
                visit_dir(&path, crates, visit);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            visit(path.strip_prefix(crates).expect("path under crates/"), &source);
        }
    }
}

/// Calls `visit(path relative to crates/, contents)` for every source file
/// of every workspace crate, in path order.
pub fn for_each_source_file(mut visit: impl FnMut(&Path, &str)) {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates directory");
    for member in sorted_entries(crates) {
        let src = member.join("src");
        if src.is_dir() {
            visit_dir(&src, crates, &mut visit);
        }
    }
}
