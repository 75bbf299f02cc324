//! Fig. 2: the policy network and a worked selection trace.
//! The body is [`hec_bench::repro::fig2`].

use hec_bench::repro::fig2;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = fig2::SPEC.parse_without_positional();
    fig2::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
