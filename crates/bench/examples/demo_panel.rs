//! A terminal rendition of the paper's demo GUI (Fig. 3):
//! `cargo run --release --example demo_panel`.
//! The body is [`hec_bench::repro::demo_panel`].

use hec_bench::repro::demo_panel;
use hec_bench::Profile;

fn main() -> std::io::Result<()> {
    let cli = demo_panel::SPEC.parse_without_positional();
    demo_panel::run(Profile::from_env(), &cli, &mut std::io::stdout().lock())
}
