//! The paper's protocol on the checked-in fixture traces (`--features real-data`).
//! The body is [`hec_bench::repro::real`].

use hec_bench::repro::real;
use hec_bench::Profile;

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

fn main() -> std::io::Result<()> {
    let cli = real::SPEC.parse();
    real::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
