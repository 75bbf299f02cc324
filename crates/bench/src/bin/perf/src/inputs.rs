//! Seeded input generators shared by the workloads: the synthetic
//! power-demand corpus and its rendering as a UCI-layout CSV byte stream.

use std::fmt::Write as _;

use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::{DatasetSource, LabeledCorpus, LabeledWindow};

/// The synthetic power-demand corpus of `config`, drawn with `seed`.
pub fn power_corpus(config: &PowerConfig, seed: u64) -> LabeledCorpus {
    PowerGenerator::new(PowerConfig { seed, ..config.clone() })
        .load()
        .expect("synthetic sources are infallible")
}

/// Renders univariate windows in the layout `PowerCsvSource` reads: a
/// `demand,label` header, then one reading per line with its day's label
/// (`0` = normal, `k ≥ 1` = anomaly class `k − 1`). Readings print with
/// round-trip precision, so parsing the text gives back the same bits.
pub fn render_power_csv(windows: &[LabeledWindow], classes: &[Option<usize>]) -> String {
    let readings: usize = windows.iter().map(|w| w.data.as_slice().len()).sum();
    let mut csv = String::with_capacity(16 + readings * 13);
    csv.push_str("demand,label\n");
    for (window, class) in windows.iter().zip(classes) {
        let label = class.map_or(0, |c| c + 1);
        for value in window.data.as_slice() {
            let _ = writeln!(csv, "{value},{label}");
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_data::ingest::{MissingValuePolicy, PowerCsvSource};
    use hec_data::{amplify_corpus, PerturbConfig};

    #[test]
    fn rendered_csv_parses_back_to_the_identical_corpus() {
        let config = PowerConfig {
            days: 40,
            samples_per_day: 24,
            anomaly_rate: 0.25,
            noise_std: 0.03,
            seed: 0,
        };
        let corpus = amplify_corpus(&power_corpus(&config, 5), 3, &PerturbConfig::default());
        assert!(corpus.classes.iter().any(Option::is_some), "corpus needs anomalous days");
        let csv = render_power_csv(&corpus.windows, &corpus.classes);
        let source = PowerCsvSource::new("rendered.csv", 24, MissingValuePolicy::Reject);
        let parsed = source.parse(csv.as_bytes()).expect("rendered CSV is well formed");
        assert_eq!(parsed.classes, corpus.classes);
        assert_eq!(parsed.windows.len(), corpus.windows.len());
        for (a, b) in parsed.windows.iter().zip(&corpus.windows) {
            assert_eq!(a.anomalous, b.anomalous);
            let bits = |w: &LabeledWindow| -> Vec<u32> {
                w.data.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b));
        }
        // The chunked parser, which the workload uses, agrees.
        let chunked = source.parse_chunked(csv.as_bytes(), 1000).expect("chunked parse");
        assert_eq!(chunked.windows, parsed.windows);
    }
}
