//! Integration tests spanning the simulator runtime and the scheme layer:
//! the threaded message-passing testbed must agree with the analytic delay
//! model used by the scheme evaluator.

use hec_ad::anomaly::ConfidenceRule;
use hec_ad::bandit::RewardModel;
use hec_ad::core::{Oracle, SchemeEvaluator, SchemeKind, WindowOutcome};
use hec_ad::sim::{DatasetKind, DetectJob, HecRuntime, HecTopology};

fn synthetic_oracle(n: usize) -> Oracle {
    let outcomes = (0..n)
        .map(|i| {
            let truth = i % 5 == 0;
            WindowOutcome {
                truth,
                min_log_pd: [if truth { -40.0 } else { -2.0 }; 3],
                anomalous_fraction: [if truth { 0.3 } else { 0.0 }; 3],
                context: vec![i as f32 % 7.0, truth as u8 as f32],
            }
        })
        .collect();
    Oracle { outcomes, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
}

#[test]
fn runtime_delays_agree_with_scheme_evaluator() {
    let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
    let oracle = synthetic_oracle(30);
    let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));

    // Analytic per-window outcomes for the Cloud scheme.
    let analytic: Vec<f64> = (0..oracle.len()).map(|i| ev.fixed(&oracle, i, 2).delay_ms).collect();

    // The same jobs through the threaded runtime.
    let verdicts: Vec<bool> = (0..oracle.len()).map(|i| oracle.verdict(i, 2)).collect();
    let executors: Vec<_> = (0..3)
        .map(|_| {
            let v = verdicts.clone();
            Box::new(move |id: u64| v[id as usize]) as _
        })
        .collect();
    let runtime = HecRuntime::spawn(topo.clone(), executors);
    for i in 0..oracle.len() {
        runtime.submit(DetectJob { id: i as u64, layer: 2, payload_bytes: 384 });
    }
    let results = runtime.shutdown();

    assert_eq!(results.len(), analytic.len());
    for (r, a) in results.iter().zip(analytic.iter()) {
        assert!((r.e2e_ms - a).abs() < 1e-9, "runtime {} vs analytic {a}", r.e2e_ms);
    }
    // Verdicts carried through unchanged.
    for (r, i) in results.iter().zip(0..) {
        assert_eq!(r.verdict, oracle.verdict(i, 2));
    }
}

#[test]
fn runtime_handles_mixed_layer_assignment_from_policy_histogram() {
    let topo = HecTopology::paper_testbed(DatasetKind::Multivariate);
    let oracle = synthetic_oracle(60);
    let ev = SchemeEvaluator::new(&topo, 9216, RewardModel::new(0.00035));

    // Successive scheme decides the layer per window; replay on the runtime.
    let outcomes: Vec<_> = (0..oracle.len()).map(|i| ev.successive(&oracle, i)).collect();
    let executors: Vec<_> = (0..3).map(|_| Box::new(move |_id: u64| false) as _).collect();
    let runtime = HecRuntime::spawn(topo.clone(), executors);
    for (i, o) in outcomes.iter().enumerate() {
        runtime.submit(DetectJob { id: i as u64, layer: o.final_layer, payload_bytes: 9216 });
    }
    let results = runtime.shutdown();
    let counts = {
        let mut c = [0usize; 3];
        for r in &results {
            c[r.layer] += 1;
        }
        c
    };
    // Every window accounted for, on the layer the scheme chose.
    assert_eq!(counts.iter().sum::<usize>(), 60);
    for (r, o) in results.iter().zip(outcomes.iter()) {
        assert_eq!(r.layer, o.final_layer);
    }
}

#[test]
fn all_five_schemes_run_on_synthetic_oracle() {
    let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
    let oracle = synthetic_oracle(50);
    let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));

    use hec_ad::bandit::{ContextScaler, PolicyNetwork};
    let scaler = ContextScaler::fit(&oracle.contexts());
    let mut policy = PolicyNetwork::new(2, 16, 3, 0);

    for kind in SchemeKind::ALL {
        let result = match kind {
            SchemeKind::Adaptive => ev.evaluate(kind, &oracle, Some(&mut policy), Some(&scaler)),
            _ => ev.evaluate(kind, &oracle, None, None),
        };
        assert_eq!(result.confusion.total(), 50, "{kind} did not cover the corpus");
        assert!(result.mean_delay_ms > 0.0);
    }
}
