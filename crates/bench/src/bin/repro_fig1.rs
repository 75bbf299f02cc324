//! Regenerates **Fig. 1a** — the HEC testbed topology and the architecture
//! inventory of the six AD models — as a textual diagram.
//!
//! Run with `cargo run -p hec-bench --bin repro_fig1`.

use hec_anomaly::{AeArchitecture, ModelCatalog};
use hec_bench::cli::Spec;
use hec_sim::{DatasetKind, HecTopology};

fn main() {
    Spec { bin: "repro_fig1", usage: "usage: repro_fig1\n", values: &[], switches: &[] }
        .parse_without_positional();
    println!("== repro_fig1: HEC testbed and AD model architectures ==\n");

    for kind in [DatasetKind::Univariate, DatasetKind::Multivariate] {
        let topo = HecTopology::paper_testbed(kind);
        println!("--- Topology ({kind:?}) ---");
        for (i, layer) in topo.layers().iter().enumerate() {
            println!(
                "  layer {i}: {:<28} uplink rtt = {:>7.2} ms   exec = {:>6.1} ms",
                layer.device.name,
                layer.uplink.rtt_ms,
                topo.exec_ms(i)
            );
        }
        println!();
    }

    println!("--- Univariate models (autoencoders) ---");
    let catalog = ModelCatalog::univariate(96, 0);
    for ((spec, arch_name), arch) in catalog
        .specs()
        .into_iter()
        .zip(["iot", "edge", "cloud"])
        .zip([AeArchitecture::iot(96), AeArchitecture::edge(96), AeArchitecture::cloud(96)])
    {
        println!(
            "  {:<10} {} neuron layers {:?}  ({} params) [{arch_name}]",
            spec.name,
            arch.depth(),
            arch.layer_sizes,
            spec.params
        );
    }
    println!();

    println!("--- Multivariate models (LSTM seq2seq) ---");
    let catalog = ModelCatalog::multivariate(18, 32, 0);
    for spec in catalog.specs() {
        println!("  {:<22} layer {:<5} {} params", spec.name, spec.layer.to_string(), spec.params);
    }
    println!();
    println!(
        "Fig. 1a correspondence: Raspberry Pi 3 (IoT) / Jetson TX2 (edge, 250 ms\n\
         WAN RTT via tc) / Devbox (cloud, 500 ms WAN RTT); AE depth 3/5/7 for\n\
         univariate data; LSTM units x1 (IoT), x2 (edge), bidirectional (cloud)\n\
         for multivariate data."
    );
}
