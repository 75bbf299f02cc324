//! The crate's two closed-loop drivers held, bit for bit, to the
//! per-outcome stepping driver they ran on before the closed loop rode the
//! engine's window loop.
//!
//! `train_policy_in_fleet` and `stream_through_fleet` are run on every
//! named quick scenario, with and without a probe cohort, and on sixteen
//! small random scenarios (`scenario_from`, the fleet tests' builder, with
//! parameters drawn from a seeded generator in the fleet proptests'
//! ranges): training a load-aware policy, then streaming under every
//! scheme — the fixed arms, Successive, a static Adaptive policy (a routing
//! table) and the trained load-aware one (a greedy forward pass per window
//! on the live queue state). Each run is reduced to one FNV-1a digest of
//! its trained weights (`weights_le_bytes`), curve and drops per epoch, or
//! of its whole `FleetStreamResult` (`Debug`, which prints every float so
//! that it parses back to the same bits).
//!
//! `EXPECTED` holds those digests as this file computed them against the
//! stepping driver: each call handled events until one produced an
//! outcome, returned it and queued the event's others, and an arrival
//! group stopped after a member that dropped. Both drivers must reproduce
//! them at one worker and at four. A mismatch prints the table this build
//! computes.

#[path = "../../sim/tests/common/mod.rs"]
mod common;

use std::fmt::Write as _;

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel, TrainConfig};
use hec_core::parallel::with_thread_count;
use hec_core::stream::stream_through_fleet;
use hec_core::{train_policy_in_fleet, Oracle, SchemeKind, WindowOutcome};
use hec_sim::fleet::{CohortSpec, FleetScale, FleetScenario, RoutePlan};
use hec_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(case, digest)` as the stepping driver left them.
const EXPECTED: &[(&str, u64)] = &[
    ("light_load/train", 0x5d338d2870cab00d),
    ("light_load/IoT Device", 0xe276633e96629f74),
    ("light_load/Edge", 0x45f66c231cdefb30),
    ("light_load/Cloud", 0x2a0384cfa614eb37),
    ("light_load/Successive", 0x44b3a12c160989ee),
    ("light_load/Our Method", 0x2d0749e86978b180),
    ("light_load/Our Method load-aware", 0xddf55cbe9d169703),
    ("light_load+probe/train", 0x67ef6ded996cf3b7),
    ("light_load+probe/IoT Device", 0x69995532b5346a5a),
    ("light_load+probe/Edge", 0x62bfeb33302859ab),
    ("light_load+probe/Cloud", 0x7cc4d46bb1c400ba),
    ("light_load+probe/Successive", 0x865c28e6aa890bb4),
    ("light_load+probe/Our Method", 0x7b462eefa7bcbb70),
    ("light_load+probe/Our Method load-aware", 0xb63b96eaa22954d7),
    ("edge_saturated/train", 0xb59d2159dddc8458),
    ("edge_saturated/IoT Device", 0x1dea2642ad7b1c9c),
    ("edge_saturated/Edge", 0xbb27a328cb9b0ef9),
    ("edge_saturated/Cloud", 0xea5fc51a16d02554),
    ("edge_saturated/Successive", 0xc94a68da43296fe2),
    ("edge_saturated/Our Method", 0xed442e110c087728),
    ("edge_saturated/Our Method load-aware", 0x2ade77ef94d54b0f),
    ("edge_saturated+probe/train", 0x217b106e988394a8),
    ("edge_saturated+probe/IoT Device", 0xc3c20c61588557cf),
    ("edge_saturated+probe/Edge", 0x8b7fa8d9f184959e),
    ("edge_saturated+probe/Cloud", 0xa1b86ec8ae6884d3),
    ("edge_saturated+probe/Successive", 0xea98543bfb28a58a),
    ("edge_saturated+probe/Our Method", 0x28917c2dc0441a9b),
    ("edge_saturated+probe/Our Method load-aware", 0x891081a51193de2a),
    ("cloud_link_constrained/train", 0x5fe2d080041b7748),
    ("cloud_link_constrained/IoT Device", 0x33dc853fc8793c27),
    ("cloud_link_constrained/Edge", 0x4b00fd7715e81204),
    ("cloud_link_constrained/Cloud", 0x422d21638af353e1),
    ("cloud_link_constrained/Successive", 0xd47c8f9fde0fa40c),
    ("cloud_link_constrained/Our Method", 0xfa837ffeed7af313),
    ("cloud_link_constrained/Our Method load-aware", 0x1b4547f28210b6b3),
    ("cloud_link_constrained+probe/train", 0xc00caee6039dc919),
    ("cloud_link_constrained+probe/IoT Device", 0x0f482a2e4b20ead8),
    ("cloud_link_constrained+probe/Edge", 0xa58203d59ab0841e),
    ("cloud_link_constrained+probe/Cloud", 0x56dc115686bb0ae9),
    ("cloud_link_constrained+probe/Successive", 0x0fbe3d652266ba5b),
    ("cloud_link_constrained+probe/Our Method", 0x631e9991642f8ca0),
    ("cloud_link_constrained+probe/Our Method load-aware", 0x17ce9647d387e502),
    ("flash_crowd/train", 0x61e269fe7c44ff2c),
    ("flash_crowd/IoT Device", 0x231c0ad97818f8c5),
    ("flash_crowd/Edge", 0xe12b355dcbf04513),
    ("flash_crowd/Cloud", 0x535384141a068b1b),
    ("flash_crowd/Successive", 0x2146596839c89e09),
    ("flash_crowd/Our Method", 0x654675db501613a7),
    ("flash_crowd/Our Method load-aware", 0xfddb5fd368245dd9),
    ("flash_crowd+probe/train", 0x04799a2b28c23a39),
    ("flash_crowd+probe/IoT Device", 0x4b166c368912b1d6),
    ("flash_crowd+probe/Edge", 0x3b43212ac242f99b),
    ("flash_crowd+probe/Cloud", 0x26c1484edf34ee8c),
    ("flash_crowd+probe/Successive", 0xe2cdddc124e87668),
    ("flash_crowd+probe/Our Method", 0x9436409707d647c0),
    ("flash_crowd+probe/Our Method load-aware", 0x8c2390bbe7af8334),
    ("random0/train", 0x1f8502d3d7a97516),
    ("random0/IoT Device", 0x9d455169d4caaed0),
    ("random0/Edge", 0x88acfc5dcce4bbbb),
    ("random0/Cloud", 0x373b508b9750309b),
    ("random0/Successive", 0xd2b19025aca6d775),
    ("random0/Our Method", 0x944bfd7893d22f8e),
    ("random0/Our Method load-aware", 0x31823c18229f4f26),
    ("random1/train", 0xe2afd8f8f654611d),
    ("random1/IoT Device", 0x73e9cd2edb683916),
    ("random1/Edge", 0xfdd6273c73a0d7bf),
    ("random1/Cloud", 0x5051fa9bc643c16a),
    ("random1/Successive", 0x4ba2602e3c58c236),
    ("random1/Our Method", 0xa12ea91fedf70333),
    ("random1/Our Method load-aware", 0x75c36ba2024d2815),
    ("random2/train", 0x2c20fb45411255a1),
    ("random2/IoT Device", 0xb202435e44c923f1),
    ("random2/Edge", 0x7e9d3fd8280ed053),
    ("random2/Cloud", 0x0f1d5945e38cb35e),
    ("random2/Successive", 0x4bbf58d52cec9c92),
    ("random2/Our Method", 0x5e407c402c3484f3),
    ("random2/Our Method load-aware", 0x5e1302f358da433c),
    ("random3/train", 0x460ede76e6c4b03f),
    ("random3/IoT Device", 0x219bf6bfb199014c),
    ("random3/Edge", 0x3c55047abf0b1314),
    ("random3/Cloud", 0x7285a6bb38f29385),
    ("random3/Successive", 0xda2bf3983be5efa3),
    ("random3/Our Method", 0x256fb180da40ab52),
    ("random3/Our Method load-aware", 0x030493a4d67c76cc),
    ("random4/train", 0x93c22b5173e66a5f),
    ("random4/IoT Device", 0x6c710c1b3cad9998),
    ("random4/Edge", 0xfd3a46627f49cc01),
    ("random4/Cloud", 0xf1e43230ca0e2691),
    ("random4/Successive", 0x7b5b3154f4eb43fb),
    ("random4/Our Method", 0xef3df070269618ef),
    ("random4/Our Method load-aware", 0x67447b40c2b26f80),
    ("random5/train", 0x74e7c5a3c865c8c0),
    ("random5/IoT Device", 0x204184a21091447a),
    ("random5/Edge", 0xbcbd9e319e8e3ec9),
    ("random5/Cloud", 0xb40d9a3536c6a9a4),
    ("random5/Successive", 0x4e60c4626108acb3),
    ("random5/Our Method", 0x2a84973112baafa0),
    ("random5/Our Method load-aware", 0xc89f80f13f1507f4),
    ("random6/train", 0x91b6848cc56f66eb),
    ("random6/IoT Device", 0x4645630a1ec7d5da),
    ("random6/Edge", 0x397e05cf0358d38d),
    ("random6/Cloud", 0x0afe5ad212cd5d1f),
    ("random6/Successive", 0x780de64deee0b041),
    ("random6/Our Method", 0xeb17208192131d23),
    ("random6/Our Method load-aware", 0x0e82d2b0dd406955),
    ("random7/train", 0x80d22949a1dc270c),
    ("random7/IoT Device", 0xfc4f9a9ea3156553),
    ("random7/Edge", 0xb283215fbe0fcaed),
    ("random7/Cloud", 0xb2eac00396e19065),
    ("random7/Successive", 0x0e71e352a5379e0e),
    ("random7/Our Method", 0x6275ce05fa028677),
    ("random7/Our Method load-aware", 0xd87864ef9b15f8f5),
    ("random8/train", 0x110ab523ea841b08),
    ("random8/IoT Device", 0xb05374a1fd6e8077),
    ("random8/Edge", 0x0db89e3d882e939b),
    ("random8/Cloud", 0xe51fae0838ded8dd),
    ("random8/Successive", 0xe7dccb10811d09f6),
    ("random8/Our Method", 0x81f913e0552d04ab),
    ("random8/Our Method load-aware", 0x2dd4c54dd2178d0b),
    ("random9/train", 0xe33b2bb27b4900eb),
    ("random9/IoT Device", 0xd3f06bd8c2694353),
    ("random9/Edge", 0xc0903efd4f13526b),
    ("random9/Cloud", 0x3ea20d80d5e158df),
    ("random9/Successive", 0x8d711b1da4949ec1),
    ("random9/Our Method", 0x9307b58518657858),
    ("random9/Our Method load-aware", 0x5abfbf180a50a7cb),
    ("random10/train", 0x10f246c62b44a9f8),
    ("random10/IoT Device", 0xd1cb6c2d8f07c4db),
    ("random10/Edge", 0xe5df50d88af5cdd2),
    ("random10/Cloud", 0xe866e000027cc79d),
    ("random10/Successive", 0x96d3095ec45c0996),
    ("random10/Our Method", 0xaf1c1c069112a0fd),
    ("random10/Our Method load-aware", 0x05bcd3b4f0b47782),
    ("random11/train", 0xa2d5c4a2d0700020),
    ("random11/IoT Device", 0xc10bb27e085604bb),
    ("random11/Edge", 0x1e78530c373d08c0),
    ("random11/Cloud", 0x10ef23155282a907),
    ("random11/Successive", 0xed0cafbf1f334188),
    ("random11/Our Method", 0xcb9bcaa3f5c2b12e),
    ("random11/Our Method load-aware", 0x310b0ef6f0b1311a),
    ("random12/train", 0xa36655cb02a61ce2),
    ("random12/IoT Device", 0x3f2a08ed51b18277),
    ("random12/Edge", 0xdbda082c320f7f87),
    ("random12/Cloud", 0xaa57c7cd55c2aea4),
    ("random12/Successive", 0xacd04e6b258dd156),
    ("random12/Our Method", 0x8a2ba692d12d46e2),
    ("random12/Our Method load-aware", 0xe9ccb0f18302b1a0),
    ("random13/train", 0x3813bf28f5d0c424),
    ("random13/IoT Device", 0x85757e4198d5ebe6),
    ("random13/Edge", 0x3bec735026c450aa),
    ("random13/Cloud", 0x4ab7268acc9f3d77),
    ("random13/Successive", 0x94da02c484612530),
    ("random13/Our Method", 0x0604fe2824d17ac6),
    ("random13/Our Method load-aware", 0xd3f16b5e4cf4fbe8),
    ("random14/train", 0x4820792606e5f343),
    ("random14/IoT Device", 0x3451f268f28f60a2),
    ("random14/Edge", 0xa5a23ec7bc7e2544),
    ("random14/Cloud", 0x9d9e75438b597351),
    ("random14/Successive", 0xbed13c4d558f557d),
    ("random14/Our Method", 0xca968368537f27e4),
    ("random14/Our Method load-aware", 0x4cd9044a1643bcdc),
    ("random15/train", 0x35dccc3c0e24f472),
    ("random15/IoT Device", 0xcf90306b02fe0a9c),
    ("random15/Edge", 0x535a25e9ca80c5d7),
    ("random15/Cloud", 0x4f5b4a40310086c1),
    ("random15/Successive", 0x55a77859ba617a76),
    ("random15/Our Method", 0x112182237ca982fe),
    ("random15/Our Method load-aware", 0x661aee7012faee70),
];

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Layer 0 is right only on even windows, layers 1 and 2 always; the
/// context says which.
fn oracle(n: usize) -> Oracle {
    let outcomes = (0..n)
        .map(|i| {
            let truth = i % 3 == 0;
            let verdict0 = if i % 2 == 0 { truth } else { !truth };
            let frac = |v: bool| if v { 0.4f32 } else { 0.0 };
            let lp = if truth { -60.0 } else { -1.0 };
            WindowOutcome {
                truth,
                min_log_pd: [-5.0, lp, if i % 5 == 0 { -1.0 } else { lp }],
                anomalous_fraction: [frac(verdict0), frac(truth), frac(truth)],
            }
        })
        .collect();
    let contexts =
        (0..n).flat_map(|i| [(i % 2) as f32, (i % 3) as f32 / 2.0, (i % 7) as f32]).collect();
    Oracle {
        outcomes,
        contexts: Some(Matrix::from_vec(n, 3, contexts)),
        thresholds: [-10.0; 3],
        confidence: hec_anomaly::ConfidenceRule::default(),
    }
}

/// `sc` with a probe cohort appended: 2 % of its devices (at least two),
/// eight windows each, at the scenario's fastest period.
fn with_probe(sc: &FleetScenario) -> (FleetScenario, u32) {
    let mut sc = sc.clone();
    let devices = (sc.total_devices() / 50).max(2) as u32;
    let period = sc.cohorts.iter().map(|c| c.period_ms).fold(f64::INFINITY, f64::min);
    sc.cohorts.push(CohortSpec::uniform(devices, 8, period, 0.0, RoutePlan::Fixed(0)));
    (sc.clone(), sc.cohorts.len() as u32 - 1)
}

/// Every case's digest on `sc`, with `probe` routed (`None`: every
/// cohort), appended to `out` under `name`.
fn cases(name: &str, sc: &FleetScenario, probe: Option<u32>, out: &mut Vec<(String, u64)>) {
    let o = oracle(60);
    let scaler = ContextScaler::fit(o.contexts());
    let reward = RewardModel::new(0.0005);
    let config =
        TrainConfig { epochs: 2, learning_rate: 5e-3, entropy_beta: 0.08, ..Default::default() };
    let mut trained = train_policy_in_fleet(sc, &o, &scaler, &reward, 8, config, probe);
    let mut bytes = trained.policy.weights_le_bytes();
    for r in &trained.curve.mean_reward_per_epoch {
        bytes.extend_from_slice(&r.to_le_bytes());
    }
    for d in &trained.drops_per_epoch {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    out.push((format!("{name}/train"), fnv(&bytes)));

    let mut static_policy = PolicyNetwork::new(scaler.dim(), 8, 3, 3);
    for kind in SchemeKind::ALL {
        let mut stream = |label: &str, policy: Option<&mut PolicyNetwork>| {
            let result = stream_through_fleet(sc, &o, kind, policy, Some(&scaler), &reward, probe);
            out.push((format!("{name}/{kind}{label}"), fnv(format!("{result:?}").as_bytes())));
        };
        stream("", Some(&mut static_policy));
        if kind == SchemeKind::Adaptive {
            stream(" load-aware", Some(&mut trained.policy));
        }
    }
}

/// Every case of the file, in order.
fn all_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for name in FleetScenario::NAMES {
        let sc = FleetScenario::by_name(name, FleetScale::Quick).unwrap();
        cases(name, &sc, None, &mut out);
        let (probed, probe) = with_probe(&sc);
        cases(&format!("{name}+probe"), &probed, Some(probe), &mut out);
    }
    let mut rng = StdRng::seed_from_u64(45);
    for case in 0..16 {
        let sc = common::scenario_from(
            rng.gen_range(1..40),
            rng.gen_range(1..8),
            rng.gen_range(1.0..500.0),
            [(); 3].map(|()| rng.gen_range(0.05..1.0)),
            rng.gen_range(1..64),
            rng.gen_range(1..6),
        );
        cases(&format!("random{case}"), &sc, None, &mut out);
    }
    out
}

#[test]
fn closed_loop_drivers_match_the_stepping_driver_bit_for_bit() {
    for threads in [1, 4] {
        let got = with_thread_count(threads, all_cases);
        let matches = got.len() == EXPECTED.len()
            && got.iter().zip(EXPECTED).all(|((name, d), &(n, e))| name == n && *d == e);
        let mut table = String::new();
        for (name, digest) in &got {
            let _ = writeln!(table, "    (\"{name}\", 0x{digest:016x}),");
        }
        assert!(
            matches,
            "{threads} worker(s): digests differ from the stepping driver's:\n{table}"
        );
    }
}
