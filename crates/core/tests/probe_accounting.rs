//! Probe-cohort accounting, to the window.
//!
//! Under a probe cohort only one cohort's windows are scheme-routed; the
//! rest are background load that must enter the fleet's drop totals but
//! neither the scores nor the trainer's updates. On a two-cohort fleet
//! whose background pegs the edge queue, for a table-routed scheme and
//! for a load-aware policy:
//!
//! * `confusion.total() + missed` is exactly the probe cohort's windows;
//! * the per-layer × per-cause drop breakdown sums to `fleet.dropped`,
//!   background drops included;
//!
//! and `train_policy_in_fleet` on the same fleet updates the policy once
//! per probe window per epoch (`train.updates`), dropped ones included
//! (`train.drops`).
//!
//! One `#[test]` in a binary of its own: the registry is global. Without
//! `hec-telemetry/enabled` the registry section is skipped and the
//! accounting checks remain.

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel, TrainConfig};
use hec_core::stream::{scenario_load_normalizer, stream_through_fleet, FleetStreamResult};
use hec_core::{train_policy_in_fleet, Oracle, SchemeKind, WindowOutcome};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
use hec_telemetry::MetricValue;
use hec_tensor::Matrix;

/// Layer 0 is right only on even windows, layers 1 and 2 always.
fn oracle(n: usize) -> Oracle {
    let outcomes = (0..n)
        .map(|i| {
            let truth = i % 3 == 0;
            let verdict0 = if i % 2 == 0 { truth } else { !truth };
            let frac = |v: bool| if v { 0.4f32 } else { 0.0 };
            let lp = if truth { -60.0 } else { -1.0 };
            WindowOutcome {
                truth,
                min_log_pd: [-5.0, lp, lp],
                anomalous_fraction: [frac(verdict0), frac(truth), frac(truth)],
            }
        })
        .collect();
    let contexts = (0..n).flat_map(|i| [(i % 2) as f32, (i % 3) as f32 / 2.0]).collect();
    Oracle {
        outcomes,
        contexts: Some(Matrix::from_vec(n, 2, contexts)),
        thresholds: [-10.0; 3],
        confidence: hec_anomaly::ConfidenceRule::default(),
    }
}

/// Background: 2.5 k windows/s, 90 % of them to an edge that serves about
/// 540/s behind a 40-deep queue — pegged, so it sheds load. Probe: 30
/// devices × 8 windows.
fn scenario() -> (FleetScenario, u32) {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "probe_accounting".into();
    sc.batch_max = 1;
    sc.queue_capacity = 40;
    sc.cohorts = vec![
        CohortSpec::uniform(250, 10, 100.0, 0.0, RoutePlan::Mixture([0.05, 0.90, 0.05])),
        CohortSpec::uniform(30, 8, 100.0, 0.0, RoutePlan::Fixed(0)),
    ];
    (sc, 1)
}

fn counter(name: &str, scenario: &str) -> u64 {
    hec_telemetry::snapshot()
        .entries()
        .iter()
        .filter(|(k, _)| k.name() == name && k.labels().iter().any(|(_, v)| v == scenario))
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn probe_cohort_windows_are_scored_and_trained_exactly_once() {
    let o = oracle(48);
    let scaler = ContextScaler::fit(o.contexts());
    let reward = RewardModel::new(0.0005);
    let (sc, probe) = scenario();
    let probe_windows = sc.cohorts[probe as usize].total_windows();
    assert_eq!(probe_windows, 240);

    let check = |what: &str, r: &FleetStreamResult| {
        assert_eq!(r.fleet.emitted, sc.total_windows(), "{what}");
        assert!(r.fleet.dropped > 0, "{what}: the background must shed load");
        assert_eq!(r.confusion.total() as u64 + r.missed, probe_windows, "{what}");
        let breakdown: u64 = r.drops.iter().map(|d| d.queue + d.link).sum();
        assert_eq!(breakdown, r.fleet.dropped, "{what}");
        assert!(r.missed < r.fleet.dropped, "{what}: background drops are not misses");
    };

    // A table-routed scheme: every probe window into the pegged edge.
    let edge = stream_through_fleet(&sc, &o, SchemeKind::Edge, None, None, &reward, Some(probe));
    check("Edge", &edge);
    assert!(edge.missed > 0, "probe windows sent to the pegged edge must share its drops");

    // A load-aware policy, routed per window on the live queue state.
    let load_aware_dim = scaler.dim() + scenario_load_normalizer(&sc).dims();
    let mut policy = PolicyNetwork::new(load_aware_dim, 8, 3, 0);
    let adaptive = stream_through_fleet(
        &sc,
        &o,
        SchemeKind::Adaptive,
        Some(&mut policy),
        Some(&scaler),
        &reward,
        Some(probe),
    );
    check("load-aware Adaptive", &adaptive);

    // Training: one update per probe window per epoch, background none.
    hec_telemetry::reset();
    let epochs = 3;
    let config = TrainConfig { epochs, learning_rate: 5e-3, ..Default::default() };
    let out = train_policy_in_fleet(&sc, &o, &scaler, &reward, 8, config, Some(probe));
    assert_eq!(out.curve.mean_reward_per_epoch.len(), epochs);
    assert!(out.drops_per_epoch.iter().all(|&drops| drops <= probe_windows));
    if hec_telemetry::ENABLED {
        assert_eq!(counter("train.updates", &sc.name), epochs as u64 * probe_windows);
        assert_eq!(counter("train.drops", &sc.name), out.drops_per_epoch.iter().sum::<u64>());
        hec_telemetry::reset();
    } else {
        eprintln!("telemetry disabled: skipping the train.updates section");
    }
}
