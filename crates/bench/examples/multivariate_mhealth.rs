//! Multivariate MHEALTH-like scenario: generate the 18-channel activity
//! corpus, train the LSTM-seq2seq catalog, and report per-activity detection
//! — the paper's §II-A2 pipeline in isolation.
//!
//! ```text
//! cargo run --release --example multivariate_mhealth
//! ```

use hec_anomaly::ModelCatalog;
use hec_data::mhealth::{Activity, MhealthConfig, MhealthGenerator};
use hec_data::{paper_split, LabeledWindow, Standardizer};
use hec_tensor::Matrix;

fn main() {
    // Small-but-real configuration: 2 subjects, 64-step windows.
    let config = MhealthConfig {
        subjects: 2,
        window: 64,
        stride: 32,
        session_len: 256,
        normal_session_multiplier: 6,
        noise_std: 0.12,
        seed: 5,
    };
    let gen = MhealthGenerator::new(config.clone());
    let pairs = gen.generate();
    println!(
        "corpus: {} windows of {}x18 ({} walking / {} other)",
        pairs.len(),
        config.window,
        pairs.iter().filter(|(_, a)| a.is_normal()).count(),
        pairs.iter().filter(|(_, a)| !a.is_normal()).count()
    );

    // Standardise on normal windows, split per the paper.
    let normals: Vec<Matrix> =
        pairs.iter().filter(|(w, _)| !w.anomalous).map(|(w, _)| w.data.clone()).collect();
    let mut stacked = normals[0].clone();
    for m in &normals[1..] {
        stacked = stacked.vconcat(m);
    }
    let std = Standardizer::fit(&stacked);
    let windows: Vec<LabeledWindow> = pairs
        .iter()
        .map(|(w, _)| LabeledWindow::new(std.transform(&w.data), w.anomalous))
        .collect();
    let classes: Vec<Option<usize>> =
        pairs.iter().map(|(_, a)| if a.is_normal() { None } else { Some(a.index()) }).collect();
    let split = paper_split(&windows, &|i| classes[i], 5);
    println!(
        "split: {} AD-train / {} AD-test / {} policy-train\n",
        split.ad_train.len(),
        split.ad_test.len(),
        split.policy_train.len()
    );

    // Train a reduced catalog (hidden 12) so the example runs in ~a minute.
    let mut catalog = ModelCatalog::multivariate(18, 12, 5);
    for det in catalog.detectors_mut() {
        let r = det.fit(&split.ad_train, 8).expect("fit");
        println!(
            "trained {:<22} ({:>6} params): loss {:.4}, threshold {:.1}",
            det.name(),
            det.param_count(),
            r.final_loss,
            r.threshold
        );
    }

    // Per-activity detection rate of each model.
    println!("\ndetection rate by activity (IoT / Edge / Cloud):");
    for activity in Activity::ALL {
        if activity.is_normal() {
            continue;
        }
        let mut caught = [0usize; 3];
        let mut total = 0usize;
        for (i, w) in windows.iter().enumerate() {
            if classes[i] != Some(activity.index()) {
                continue;
            }
            total += 1;
            for (k, det) in catalog.detectors_mut().iter_mut().enumerate() {
                if det.detect(w).anomalous {
                    caught[k] += 1;
                }
            }
        }
        let pct = |c: usize| 100.0 * c as f64 / total.max(1) as f64;
        println!(
            "  {:<16} {:>5.1}% / {:>5.1}% / {:>5.1}%   ({total} windows)",
            format!("{activity:?}"),
            pct(caught[0]),
            pct(caught[1]),
            pct(caught[2])
        );
    }
    println!("\nstatic postures (Standing/Sitting/LyingDown) are easy for every model;");
    println!("near-walking gaits (ClimbingStairs, Jogging) separate the capacity tiers.");
}
