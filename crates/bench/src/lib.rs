//! # hec-bench
//!
//! The reproduction harness: shared experiment profiles for the `repro_*`
//! binaries (one per table/figure of the paper) and, in [`repro`], each
//! binary's whole run as a library call.
//!
//! Two profiles are provided:
//!
//! * **quick** — small corpora and few epochs, finishes in seconds even in
//!   debug builds (used by CI and the harness self-tests);
//! * **full** — the defaults sized for `--release` runs, whose outputs are
//!   recorded in EXPERIMENTS.md.
//!
//! Select with the `HEC_PROFILE` environment variable (`quick` | `full`,
//! default `full` for binaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod repro;
pub mod telemetry;

use hec_bandit::TrainConfig;
use hec_core::{DatasetConfig, ExperimentConfig};
use hec_data::{mhealth::MhealthConfig, power::PowerConfig};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};

/// Appends the standard scheme-routed **probe cohort** to a fleet
/// scenario and returns its cohort index: 20k devices (at full scale)
/// each emitting 10 windows one minute apart, scaled by the
/// [`FleetScale`] divisor so offered-load rates match at either scale.
/// The cohort's `RoutePlan` is a placeholder — the closed-loop drivers
/// override it with the scheme router. Shared by `repro_fleet_train`
/// and `repro_real` so their closed-loop numbers stay comparable.
pub fn push_probe_cohort(scenario: &mut FleetScenario, scale: FleetScale) -> u32 {
    let s = scale.divisor();
    let probe = scenario.cohorts.len() as u32;
    scenario.cohorts.push(CohortSpec::uniform(
        (20_000.0 / s) as u32,
        10,
        60_000.0 / s,
        0.0,
        RoutePlan::Fixed(0),
    ));
    probe
}

/// Which experiment scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-scale run for CI and smoke tests.
    Quick,
    /// The release-mode run recorded in EXPERIMENTS.md.
    Full,
}

impl Profile {
    /// The fleet-scenario scale this profile runs at.
    pub fn fleet_scale(self) -> FleetScale {
        match self {
            Profile::Quick => FleetScale::Quick,
            Profile::Full => FleetScale::Full,
        }
    }

    /// Reads `HEC_PROFILE` (`quick`/`full`), defaulting to `Full`.
    pub fn from_env() -> Self {
        Self::from_env_or(Profile::Full)
    }

    /// Reads `HEC_PROFILE` (case-insensitive, whitespace-trimmed), falling
    /// back to `default` when unset. Unrecognized values also fall back but
    /// warn on stderr, so a typo'd profile never silently runs at the wrong
    /// scale. The integration tests use this with a `Quick` default so
    /// `cargo test` stays seconds-scale, while `HEC_PROFILE=full` still
    /// exercises the release-sized configuration.
    pub fn from_env_or(default: Profile) -> Self {
        let Ok(raw) = std::env::var("HEC_PROFILE") else {
            return default;
        };
        let value = raw.trim();
        if value.eq_ignore_ascii_case("quick") {
            Profile::Quick
        } else if value.eq_ignore_ascii_case("full") {
            Profile::Full
        } else {
            if !value.is_empty() {
                eprintln!(
                    "warning: unrecognized HEC_PROFILE value {value:?} (expected \"quick\" or \"full\"); using the {default:?} profile"
                );
            }
            default
        }
    }
}

/// The univariate (power-demand / autoencoder) experiment configuration.
pub fn univariate_config(profile: Profile) -> ExperimentConfig {
    match profile {
        Profile::Full => ExperimentConfig {
            dataset: DatasetConfig::Univariate(PowerConfig {
                days: 600,
                samples_per_day: 96,
                anomaly_rate: 0.12,
                noise_std: 0.03,
                seed: 42,
            }),
            ad_epochs: 150,
            policy: TrainConfig { epochs: 150, learning_rate: 2e-3, ..Default::default() },
            seq2seq_hidden: 32,
            policy_hidden: 100,
            seed: 42,
        },
        Profile::Quick => ExperimentConfig {
            dataset: DatasetConfig::Univariate(PowerConfig {
                days: 150,
                samples_per_day: 24,
                anomaly_rate: 0.15,
                noise_std: 0.03,
                seed: 42,
            }),
            ad_epochs: 60,
            policy: TrainConfig { epochs: 20, learning_rate: 2e-3, ..Default::default() },
            seq2seq_hidden: 8,
            policy_hidden: 32,
            seed: 42,
        },
    }
}

/// The multivariate (MHEALTH-like / seq2seq) experiment configuration.
pub fn multivariate_config(profile: Profile) -> ExperimentConfig {
    match profile {
        Profile::Full => ExperimentConfig {
            dataset: DatasetConfig::Multivariate(MhealthConfig {
                subjects: 4,
                window: 128,
                stride: 64,
                session_len: 512,
                normal_session_multiplier: 6,
                noise_std: 0.12,
                seed: 42,
            }),
            ad_epochs: 12,
            policy: TrainConfig { epochs: 100, learning_rate: 2e-3, ..Default::default() },
            seq2seq_hidden: 32,
            policy_hidden: 100,
            seed: 42,
        },
        Profile::Quick => ExperimentConfig {
            dataset: DatasetConfig::Multivariate(MhealthConfig {
                subjects: 2,
                window: 32,
                stride: 32,
                session_len: 128,
                normal_session_multiplier: 4,
                noise_std: 0.12,
                seed: 42,
            }),
            ad_epochs: 8,
            policy: TrainConfig { epochs: 15, learning_rate: 2e-3, ..Default::default() },
            seq2seq_hidden: 8,
            policy_hidden: 32,
            seed: 42,
        },
    }
}

/// Paper reference values for Table I (for side-by-side printing).
pub mod paper {
    /// (model, #params, accuracy %, F1, exec ms) — Table I, univariate.
    pub const TABLE1_UNIVARIATE: [(&str, usize, f64, f64, f64); 3] = [
        ("AE-IoT", 271_017, 78.09, 0.465, 12.4),
        ("AE-Edge", 949_468, 93.33, 0.741, 7.4),
        ("AE-Cloud", 1_085_077, 98.09, 0.909, 4.5),
    ];

    /// (model, #params, accuracy %, F1, exec ms) — Table I, multivariate.
    pub const TABLE1_MULTIVARIATE: [(&str, usize, f64, f64, f64); 3] = [
        ("LSTM-seq2seq-IoT", 28_518, 82.63, 0.852, 591.0),
        ("LSTM-seq2seq-Edge", 97_818, 94.21, 0.955, 417.3),
        ("BiLSTM-seq2seq-Cloud", 1_028_018, 97.37, 0.980, 232.3),
    ];

    /// (scheme, F1, accuracy %, delay ms) — Table II, univariate.
    /// The paper's "Reward" column is omitted (scale not reproducible from
    /// the stated formula; see EXPERIMENTS.md).
    pub const TABLE2_UNIVARIATE: [(&str, f64, f64, f64); 5] = [
        ("IoT Device", 0.465, 93.68, 12.4),
        ("Edge", 0.800, 98.63, 257.43),
        ("Cloud", 0.909, 99.46, 504.50),
        ("Successive", 0.769, 98.35, 105.27),
        ("Our Method", 0.870, 99.17, 144.50),
    ];

    /// (scheme, F1, accuracy %, delay ms) — Table II, multivariate.
    pub const TABLE2_MULTIVARIATE: [(&str, f64, f64, f64); 5] = [
        ("IoT Device", 0.848, 93.19, 591.0),
        ("Edge", 0.951, 97.59, 667.30),
        ("Cloud", 0.980, 99.00, 732.30),
        ("Successive", 0.911, 95.79, 626.16),
        ("Our Method", 0.972, 98.60, 674.87),
    ];
}

/// Formats the paper's Table I reference block.
pub fn paper_table1(rows: &[(&str, usize, f64, f64, f64)]) -> String {
    let mut out = String::from("Paper reference (Table I):\n");
    for (m, p, acc, f1, ms) in rows {
        out.push_str(&format!(
            "  {m:<22} params={p:>9}  acc={acc:>6.2}%  f1={f1:.3}  exec={ms:.1} ms\n"
        ));
    }
    out
}

/// Formats the paper's Table II reference block.
pub fn paper_table2(rows: &[(&str, f64, f64, f64)]) -> String {
    let mut out = String::from("Paper reference (Table II):\n");
    for (s, f1, acc, ms) in rows {
        out.push_str(&format!("  {s:<12} f1={f1:.3}  acc={acc:>6.2}%  delay={ms:>7.2} ms\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profiles_are_small() {
        let uni = univariate_config(Profile::Quick);
        assert!(uni.ad_epochs <= 60);
        let multi = multivariate_config(Profile::Quick);
        assert!(multi.ad_epochs <= 8);
    }

    #[test]
    fn full_profile_matches_paper_dimensions() {
        let uni = univariate_config(Profile::Full);
        assert_eq!(uni.payload_bytes(), 96 * 4);
        let multi = multivariate_config(Profile::Full);
        assert_eq!(multi.payload_bytes(), 128 * 18 * 4);
    }

    #[test]
    fn reference_blocks_render() {
        assert!(paper_table1(&paper::TABLE1_UNIVARIATE).contains("AE-IoT"));
        assert!(paper_table2(&paper::TABLE2_MULTIVARIATE).contains("Our Method"));
    }
}
