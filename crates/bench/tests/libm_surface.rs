//! The workspace calls no libm function. Every `f32` transcendental goes
//! through `hec_tensor::math`, whose bits do not depend on the host's
//! libm, and the telemetry crate's `GeomHist` bins by the bits of its
//! samples; this guard fails when library or binary source calls one of
//! libm's functions anywhere. `.sqrt()` is an IEEE operation, not libm,
//! and is not listed.

mod sources;

/// The libm-backed functions, as method calls (`x.exp()`) and as paths
/// (`f32::exp`, what `map(f32::tanh)` spells).
fn libm_spellings() -> Vec<String> {
    let names = ["exp", "ln", "tanh", "sin", "cos", "powf", "ln_1p", "exp_m1"];
    let methods = names.iter().map(|name| format!(".{name}("));
    let paths = names.iter().flat_map(|name| [format!("f32::{name}"), format!("f64::{name}")]);
    methods.chain(paths).collect()
}

#[test]
fn the_libm_surface_is_empty() {
    let spellings = libm_spellings();
    // `path: line` for every non-comment line that calls a libm function,
    // outside `math.rs` itself and before a file's `#[cfg(test)] mod`.
    let mut found = Vec::new();
    sources::for_each_source_file(|path, source| {
        if path.ends_with("math.rs") {
            return;
        }
        let mut lines = source.lines().map(str::trim).peekable();
        while let Some(line) = lines.next() {
            if line == "#[cfg(test)]" && lines.peek().is_some_and(|next| next.starts_with("mod ")) {
                break;
            }
            if !line.starts_with("//") && spellings.iter().any(|s| line.contains(s.as_str())) {
                found.push(format!("{}: {line}", path.display()));
            }
        }
    });
    assert_eq!(found, Vec::<String>::new());
}
