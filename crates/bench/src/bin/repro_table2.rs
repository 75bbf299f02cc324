//! Table II: the five model-selection schemes on both datasets.
//! The body is [`hec_bench::repro::table2`].

use hec_bench::repro::table2;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = table2::SPEC.parse_without_positional();
    table2::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
