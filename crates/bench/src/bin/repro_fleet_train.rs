//! Fleet-in-the-loop training vs the paper's static training regime.
//! The body is [`hec_bench::repro::fleet_train`].

use hec_bench::repro::fleet_train;
use hec_bench::Profile;

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

fn main() -> std::io::Result<()> {
    let cli = fleet_train::SPEC.parse();
    fleet_train::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
