//! `repro_fig1`: **Fig. 1a** — the HEC testbed topology and the
//! architecture inventory of the six AD models — as a textual diagram.

use std::io::{self, Write};

use hec_anomaly::{AeArchitecture, ModelCatalog};
use hec_sim::{DatasetKind, HecTopology};

use crate::cli::{Cli, Spec};
use crate::Profile;

/// The binary's command line: no argument.
pub const SPEC: Spec =
    Spec { bin: "repro_fig1", usage: "usage: repro_fig1\n", values: &[], switches: &[] };

/// Runs the binary, writing its stdout to `out`. The figure is the same
/// at either profile.
///
/// # Errors
///
/// A failed write to `out`.
pub fn run(_profile: Profile, _cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== repro_fig1: HEC testbed and AD model architectures ==\n")?;

    for kind in [DatasetKind::Univariate, DatasetKind::Multivariate] {
        let topo = HecTopology::paper_testbed(kind);
        writeln!(out, "--- Topology ({kind:?}) ---")?;
        for (i, layer) in topo.layers().iter().enumerate() {
            writeln!(
                out,
                "  layer {i}: {:<28} uplink rtt = {:>7.2} ms   exec = {:>6.1} ms",
                layer.device.name,
                layer.uplink.rtt_ms,
                topo.exec_ms(i)
            )?;
        }
        writeln!(out)?;
    }

    writeln!(out, "--- Univariate models (autoencoders) ---")?;
    let catalog = ModelCatalog::univariate(96, 0);
    for ((spec, arch_name), arch) in catalog
        .specs()
        .into_iter()
        .zip(["iot", "edge", "cloud"])
        .zip([AeArchitecture::iot(96), AeArchitecture::edge(96), AeArchitecture::cloud(96)])
    {
        writeln!(
            out,
            "  {:<10} {} neuron layers {:?}  ({} params) [{arch_name}]",
            spec.name,
            arch.depth(),
            arch.layer_sizes,
            spec.params
        )?;
    }
    writeln!(out)?;

    writeln!(out, "--- Multivariate models (LSTM seq2seq) ---")?;
    let catalog = ModelCatalog::multivariate(18, 32, 0);
    for spec in catalog.specs() {
        writeln!(
            out,
            "  {:<22} layer {:<5} {} params",
            spec.name,
            spec.layer.to_string(),
            spec.params
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Fig. 1a correspondence: Raspberry Pi 3 (IoT) / Jetson TX2 (edge, 250 ms\n\
         WAN RTT via tc) / Devbox (cloud, 500 ms WAN RTT); AE depth 3/5/7 for\n\
         univariate data; LSTM units x1 (IoT), x2 (edge), bidirectional (cloud)\n\
         for multivariate data."
    )
}
