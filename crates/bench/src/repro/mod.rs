//! The body of every `repro_*` binary and of the `demo_panel` example, one
//! module each.
//!
//! A module holds the binary's [`Spec`](crate::cli::Spec) as `SPEC` and its
//! whole run as `run(profile, cli, out)`, which writes what the binary
//! prints on stdout to `out`. A binary's `main` parses `SPEC`, reads the
//! profile from the environment and calls `run` with the locked stdout;
//! `crates/bench/tests/goldens.rs` calls the same `run` with a `Cli` built
//! from an argument list and a buffer, and diffs the buffer against
//! `golden/`. Wall-clock diagnostics (`[timing]` lines) go to stderr,
//! never to `out`.

pub mod ablation;
pub mod demo_panel;
pub mod drift;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fleet;
pub mod fleet_train;
#[cfg(feature = "real-data")]
pub mod real;
pub mod table1;
pub mod table2;
