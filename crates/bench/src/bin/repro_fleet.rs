//! The named fleet scenarios through the discrete-event fleet (`repro_fleet --help`).
//! The body is [`hec_bench::repro::fleet`].

use hec_bench::repro::fleet;
use hec_bench::Profile;

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

fn main() -> std::io::Result<()> {
    let cli = fleet::SPEC.parse();
    fleet::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
