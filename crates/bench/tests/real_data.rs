//! End-to-end integration of the real-trace loaders with the experiment
//! pipeline (feature `real-data`): fixture file → ingestion → paper
//! protocol → scheme evaluation → closed-loop fleet streaming.
#![cfg(feature = "real-data")]

use hec_bandit::{RewardModel, TrainConfig};
use hec_core::{DatasetConfig, Experiment, ExperimentConfig, SchemeKind};
use hec_data::ingest::{MissingValuePolicy, PowerCsvSource};
use hec_data::power::PowerConfig;
use hec_data::DatasetSource;
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};

const SPD: usize = 24;

fn power_fixture_config(days: usize) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days,
            samples_per_day: SPD,
            anomaly_rate: 0.0,
            noise_std: 0.0,
            seed: 42,
        }),
        ad_epochs: 60,
        policy: TrainConfig { epochs: 25, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: 42,
    }
}

fn load_power() -> hec_data::LabeledCorpus {
    let path = format!("{}/../../fixtures/power_good.csv", env!("CARGO_MANIFEST_DIR"));
    PowerCsvSource::new(path, SPD, MissingValuePolicy::Reject).load().expect("well-formed fixture")
}

#[test]
fn power_fixture_runs_the_full_paper_protocol() {
    let corpus = load_power();
    let days = corpus.len();
    let mut exp = Experiment::prepare_with_corpus(power_fixture_config(days), corpus);

    // The split respects the paper's 70/30 protocol on the real trace.
    let (train, test, policy_n, full) = exp.split.sizes();
    assert_eq!(full, days);
    assert!(train > 0 && test > 0 && policy_n > 0);
    let normals = exp.split.full.iter().filter(|w| !w.anomalous).count();
    assert!((train as f64 / normals as f64 - 0.7).abs() < 0.02);

    exp.train_detectors();
    let table1 = exp.table1();
    assert_eq!(table1.len(), 3);
    assert!(table1.iter().all(|r| (0.0..=100.0).contains(&r.accuracy_pct)));

    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);
    let (table2, actions) = exp.table2(&eval_oracle, &mut policy, &scaler);
    assert_eq!(table2.len(), 5);
    assert_eq!(actions.iter().sum::<usize>(), days);

    // Closed loop: the real-trace corpus as a probe cohort.
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    let probe = sc.cohorts.len() as u32;
    sc.cohorts.push(CohortSpec::uniform(100, 10, 1200.0, 0.0, RoutePlan::Fixed(0)));
    let reward = RewardModel::new(hec_sim::DatasetKind::Univariate.paper_alpha());
    let r = hec_core::stream::stream_through_fleet(
        &sc,
        &eval_oracle,
        SchemeKind::Adaptive,
        Some(&mut policy),
        Some(&scaler),
        &reward,
        Some(probe),
    );
    assert_eq!(r.fleet.served + r.missed, r.fleet.emitted);
    assert!(r.confusion.total() > 0, "probe windows must be scored");
}

#[test]
fn standardisation_sees_only_finite_real_data() {
    // The reject-policy loader guarantees finiteness, so the pipeline's
    // Standardizer::fit cannot trip its non-finite guard on this corpus.
    let corpus = load_power();
    for w in &corpus.windows {
        assert!(w.data.as_slice().iter().all(|x| x.is_finite()));
    }
    let days = corpus.len();
    let exp = Experiment::prepare_with_corpus(power_fixture_config(days), corpus);
    for w in &exp.split.full {
        assert!(w.data.as_slice().iter().all(|x| x.is_finite()));
    }
}
