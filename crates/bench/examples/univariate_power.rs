//! Univariate power-demand scenario: inspect the synthetic dataset, train
//! the three autoencoders, and look at how detection hardness maps to model
//! capacity — the paper's §II-A1 pipeline in isolation.
//!
//! ```text
//! cargo run --release --example univariate_power
//! ```

use hec_anomaly::ModelCatalog;
use hec_data::power::{AnomalyKind, PowerConfig, PowerGenerator};
use hec_data::{paper_split, LabeledWindow, Standardizer};
use hec_tensor::Matrix;

fn main() {
    let config = PowerConfig {
        days: 400,
        samples_per_day: 48,
        anomaly_rate: 0.15,
        noise_std: 0.03,
        seed: 11,
    };
    let gen = PowerGenerator::new(config.clone());
    let days = gen.generate();

    // Dataset tour.
    let mut per_kind = [0usize; 3];
    let mut normal = 0usize;
    for (_, kind) in &days {
        match kind {
            None => normal += 1,
            Some(k) => per_kind[k.class_index()] += 1,
        }
    }
    println!("dataset: {} days ({normal} normal)", days.len());
    for kind in AnomalyKind::ALL {
        println!("  {kind:?}: {} days", per_kind[kind.class_index()]);
    }

    // Standardise on normal days, split per the paper.
    let normals: Vec<Matrix> =
        days.iter().filter(|(w, _)| !w.anomalous).map(|(w, _)| w.data.clone()).collect();
    let mut stacked = normals[0].clone();
    for m in &normals[1..] {
        stacked = stacked.vconcat(m);
    }
    let std = Standardizer::fit(&stacked);
    let windows: Vec<LabeledWindow> =
        days.iter().map(|(w, _)| LabeledWindow::new(std.transform(&w.data), w.anomalous)).collect();
    let classes: Vec<Option<usize>> =
        days.iter().map(|(_, k)| k.map(|x| x.class_index())).collect();
    let split = paper_split(&windows, &|i| classes[i], 11);
    println!(
        "\nsplit: {} AD-train / {} AD-test / {} policy-train",
        split.ad_train.len(),
        split.ad_test.len(),
        split.policy_train.len()
    );

    // Train the catalog and report per-hardness detection rates.
    let mut catalog = ModelCatalog::univariate(config.samples_per_day, 11);
    for det in catalog.detectors_mut() {
        let r = det.fit(&split.ad_train, 120).expect("fit");
        println!(
            "trained {:<10} ({} params): loss {:.5}, threshold {:.2}",
            det.name(),
            det.param_count(),
            r.final_loss,
            r.threshold
        );
    }

    println!("\ndetection rate by anomaly hardness (per model):");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>12}",
        "Model", "Holiday", "Outage", "Damped", "FalsePos(%)"
    );
    for det in catalog.detectors_mut() {
        let mut caught = [0usize; 3];
        let mut totals = [0usize; 3];
        let mut fp = 0usize;
        let mut negatives = 0usize;
        for (i, w) in windows.iter().enumerate() {
            let d = det.detect(w);
            match classes[i] {
                Some(c) => {
                    totals[c] += 1;
                    if d.anomalous {
                        caught[c] += 1;
                    }
                }
                None => {
                    negatives += 1;
                    if d.anomalous {
                        fp += 1;
                    }
                }
            }
        }
        let pct = |c: usize, t: usize| 100.0 * c as f64 / t.max(1) as f64;
        println!(
            "{:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>11.1}%",
            det.name(),
            pct(caught[0], totals[0]),
            pct(caught[1], totals[1]),
            pct(caught[2], totals[2]),
            pct(fp, negatives)
        );
    }
    println!("\nexpected shape: every model catches holidays; only the larger models");
    println!("catch damped-peak days — the hardness/capacity matching the bandit exploits.");
}
