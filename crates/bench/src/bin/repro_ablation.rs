//! The ablation studies: α, the REINFORCE baseline, bandit solvers, Successive's rule.
//! The body is [`hec_bench::repro::ablation`].

use hec_bench::repro::ablation;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = ablation::SPEC.parse_without_positional();
    ablation::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
