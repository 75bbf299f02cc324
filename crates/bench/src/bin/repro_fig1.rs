//! Fig. 1a: the HEC testbed topology and the six AD models' architectures.
//! The body is [`hec_bench::repro::fig1`].

use hec_bench::repro::fig1;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = fig1::SPEC.parse_without_positional();
    fig1::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
