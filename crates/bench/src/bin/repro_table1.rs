//! Table I: #parameters, accuracy, F1 and execution time of the six AD models.
//! The body is [`hec_bench::repro::table1`].

use hec_bench::repro::table1;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = table1::SPEC.parse_without_positional();
    table1::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
