//! Allocation accounting for fleet-in-the-loop training: once the first
//! epoch has grown every buffer, a further epoch allocates **per epoch**
//! (a fresh engine and its queue trace, the loop's sequence →
//! oracle-window table: ≈ 230 allocations for 7 680 windows), never per
//! window — `route` writes the window's feature row into a flat buffer
//! sized before the first epoch and `hear` reads it back, where each
//! routed window used to cost a `Vec<f32>`.
//!
//! Measured as the difference between a two-epoch and a one-epoch run of
//! the same training (everything before the second epoch is identical, so
//! it cancels), with a counting global allocator. One `#[test]`, so no
//! concurrent test can disturb the global counter.

use hec_bandit::{ContextScaler, RewardModel, TrainConfig};
use hec_core::{try_train_policy_in_fleet, Oracle, WindowOutcome};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::Matrix;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn oracle(n: usize) -> Oracle {
    let outcomes = (0..n)
        .map(|i| WindowOutcome {
            truth: i % 3 == 0,
            min_log_pd: [-5.0, -1.0, -1.0],
            anomalous_fraction: [0.0, 0.4, 0.4],
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

/// Every window is trained on: `devices × windows` updates an epoch.
fn scenario(devices: u32, windows: u32) -> FleetScenario {
    let mut sc = FleetScenario::light_load(FleetScale::Quick);
    sc.name = "fleet_train_alloc".into();
    sc.batch_max = 1;
    sc.cohorts = vec![CohortSpec::uniform(devices, windows, 25.0, 0.0, RoutePlan::Fixed(0))];
    sc
}

#[test]
fn second_epoch_allocates_per_epoch_not_per_window() {
    let o = oracle(48);
    let scaler = ContextScaler::fit(o.contexts());
    let reward = RewardModel::new(0.0005);
    let sc = scenario(60, 128);
    let allocations_of = |epochs: usize| {
        let config = TrainConfig { epochs, entropy_beta: 0.01, ..Default::default() };
        let before = allocations();
        let out = try_train_policy_in_fleet(&sc, &o, &scaler, &reward, 16, config, None)
            .expect("arguments fit");
        assert_eq!(out.curve.mean_reward_per_epoch.len(), epochs);
        allocations() - before
    };
    // The harness occasionally allocates from another thread mid-run: the
    // cleanest of three.
    let second = (0..3)
        .map(|_| allocations_of(2).saturating_sub(allocations_of(1)))
        .min()
        .expect("three attempts");
    let windows = sc.total_windows() as usize;
    assert!(
        second < windows / 16,
        "the second epoch of {windows} windows performed {second} allocations"
    );
}
