//! Fig. 3b: the demo result panel, with one CSV per scheme (`repro_fig3 [out_dir]`).
//! The body is [`hec_bench::repro::fig3`].

use hec_bench::repro::fig3;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = fig3::SPEC.parse();
    fig3::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
