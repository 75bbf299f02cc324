//! End-to-end integration tests: the whole paper pipeline at test scale.
//!
//! The configuration comes from `hec-bench`'s shared profiles, honoring
//! `HEC_PROFILE` with a `quick` default so `cargo test` stays seconds-scale
//! (`HEC_PROFILE=full cargo test` runs the release-sized experiment).

use hec_bench::{univariate_config, Profile};
use hec_core::{DatasetConfig, Experiment, ExperimentConfig, SchemeKind};
use hec_sim::DatasetKind;

fn tiny_univariate(seed: u64) -> ExperimentConfig {
    let profile = Profile::from_env_or(Profile::Quick);
    let mut config = univariate_config(profile);
    config.seed = seed;
    if let DatasetConfig::Univariate(ref mut power) = config.dataset {
        power.seed = seed;
        if profile == Profile::Quick {
            // Lower noise than the bench profile: these tests assert relative
            // orderings (per-layer accuracy, adaptive vs fixed) that need a
            // cleaner signal at quick scale than the profile's smoke runs do.
            power.noise_std = 0.015;
        }
    }
    config
}

#[test]
fn univariate_report_has_paper_shape() {
    let report = Experiment::run(tiny_univariate(7));
    assert_eq!(report.kind, DatasetKind::Univariate);

    // Table I: capacity ladder up, exec-time ladder down.
    assert_eq!(report.table1.len(), 3);
    assert!(report.table1[0].params < report.table1[1].params);
    assert!(report.table1[1].params < report.table1[2].params);
    assert!(report.table1[0].exec_ms > report.table1[2].exec_ms);

    // Table II: all five schemes present, delays ordered IoT < Edge < Cloud.
    assert_eq!(report.table2.len(), 5);
    let row = |k: SchemeKind| report.table2.iter().find(|r| r.scheme == k).unwrap();
    assert!(row(SchemeKind::IoTDevice).delay_ms < row(SchemeKind::Edge).delay_ms);
    assert!(row(SchemeKind::Edge).delay_ms < row(SchemeKind::Cloud).delay_ms);

    // Successive reports N/A reward; others report a value.
    assert!(row(SchemeKind::Successive).reward.is_none());
    for k in [SchemeKind::IoTDevice, SchemeKind::Edge, SchemeKind::Cloud, SchemeKind::Adaptive] {
        assert!(row(k).reward.is_some(), "{k} missing reward");
    }

    // The adaptive scheme must undercut always-Cloud on delay.
    assert!(row(SchemeKind::Adaptive).delay_ms < row(SchemeKind::Cloud).delay_ms);

    // The action histogram accounts for every evaluated window.
    assert_eq!(report.adaptive_actions.iter().sum::<usize>(), report.eval_windows);
}

#[test]
fn adaptive_reward_is_best_or_near_best() {
    let report = Experiment::run(tiny_univariate(11));
    let rewards: Vec<(SchemeKind, f64)> =
        report.table2.iter().filter_map(|r| r.reward.map(|v| (r.scheme, v))).collect();
    let adaptive = rewards.iter().find(|(k, _)| *k == SchemeKind::Adaptive).unwrap().1;
    let best = rewards.iter().map(|(_, v)| *v).fold(f64::NEG_INFINITY, f64::max);
    // The bandit trains on a small corpus at test scale; allow a small slack
    // rather than demanding strict optimality.
    assert!(
        adaptive >= best - 2.0,
        "adaptive reward {adaptive:.2} far below best fixed scheme {best:.2}"
    );
}

#[test]
fn training_curve_improves() {
    let report = Experiment::run(tiny_univariate(3));
    let curve = &report.training_curve.mean_reward_per_epoch;
    assert!(curve.len() >= 10);
    let early: f32 = curve[..3].iter().sum::<f32>() / 3.0;
    let late: f32 = curve[curve.len() - 3..].iter().sum::<f32>() / 3.0;
    assert!(
        late >= early - 0.05,
        "policy reward regressed during training: early {early}, late {late}"
    );
}

#[test]
fn deterministic_given_seed() {
    let a = Experiment::run(tiny_univariate(5));
    let b = Experiment::run(tiny_univariate(5));
    for (ra, rb) in a.table2.iter().zip(b.table2.iter()) {
        assert_eq!(ra.scheme, rb.scheme);
        assert!((ra.accuracy_pct - rb.accuracy_pct).abs() < 1e-9);
        assert!((ra.delay_ms - rb.delay_ms).abs() < 1e-9);
    }
}

#[test]
fn stage_api_exposes_split_sizes() {
    let config = tiny_univariate(1);
    let days = match &config.dataset {
        DatasetConfig::Univariate(power) => power.days,
        other => panic!("expected univariate dataset, got {other:?}"),
    };
    let mut exp = Experiment::prepare(config);
    let (train, test, policy, full) = exp.split.sizes();
    assert!(train > 0 && test > 0 && policy > 0);
    assert_eq!(full, days);
    // The paper's protocol: training normals ≈ 70% of all normals.
    let normals = exp.split.full.iter().filter(|w| !w.anomalous).count();
    let frac = train as f64 / normals as f64;
    assert!((frac - 0.7).abs() < 0.02, "train fraction {frac}");
    exp.train_detectors();
    let t1 = exp.table1();
    assert!(t1.iter().all(|r| r.accuracy_pct >= 0.0 && r.accuracy_pct <= 100.0));
}
