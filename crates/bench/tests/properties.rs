//! Property-based tests (proptest) on the core invariants across crates.

use proptest::prelude::*;

use hec_bandit::{CostModel, PolicyNetwork};
use hec_data::BinaryConfusion;
use hec_sim::{DatasetKind, EventQueue, HecTopology};
use hec_tensor::{vecops, Matrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in left.as_slice().iter().zip(right.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
    ) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-30.0f32..30.0, 1..8)) {
        let p = vecops::softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_argmax_matches_logit_argmax(
        logits in proptest::collection::vec(-5.0f32..5.0, 2..6)
    ) {
        let p = vecops::softmax(&logits);
        prop_assert_eq!(vecops::argmax(&p), vecops::argmax(&logits));
    }

    #[test]
    fn cost_is_monotone_and_bounded(
        alpha in 1e-6f64..1e-1,
        t1 in 0.0f64..10_000.0,
        dt in 0.0f64..10_000.0,
    ) {
        let c = CostModel::new(alpha);
        let lo = c.cost(t1);
        let hi = c.cost(t1 + dt);
        prop_assert!(lo <= hi + 1e-12);
        prop_assert!((0.0..1.0).contains(&lo));
        prop_assert!((0.0..1.0).contains(&hi));
    }

    #[test]
    fn confusion_metrics_stay_in_unit_range(
        outcomes in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..64)
    ) {
        let c = BinaryConfusion::from_predictions(outcomes);
        for v in [c.accuracy(), c.precision(), c.recall(), c.f1()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(c.total(), c.tp + c.fp + c.tn + c.fn_);
    }

    #[test]
    fn event_queue_pops_in_time_order(
        times in proptest::collection::vec(0.0f64..1000.0, 1..50)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = -1.0f64;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn policy_probabilities_always_normalised(
        ctx in proptest::collection::vec(-100.0f32..100.0, 4)
    ) {
        let mut policy = PolicyNetwork::new(4, 16, 3, 1);
        let p = policy.probabilities(&ctx);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn end_to_end_delay_is_monotone_in_layer_for_paper_testbed(
        payload in 0usize..100_000
    ) {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let d0 = topo.end_to_end_ms(0, payload);
        let d1 = topo.end_to_end_ms(1, payload);
        let d2 = topo.end_to_end_ms(2, payload);
        prop_assert!(d0 < d1 && d1 < d2);
    }

    #[test]
    fn successive_delay_dominates_fixed_delay(
        visited in 1usize..=3,
        payload in 0usize..10_000
    ) {
        let topo = HecTopology::paper_testbed(DatasetKind::Multivariate);
        let successive = topo.successive_ms(visited, payload);
        let fixed = topo.end_to_end_ms(visited - 1, payload);
        prop_assert!(successive >= fixed - 1e-9);
    }

    #[test]
    fn standardizer_output_is_zero_mean(m in small_matrix(8, 3)) {
        let s = hec_data::Standardizer::fit(&m);
        let z = s.transform(&m);
        for c in 0..3 {
            let col = z.col(c);
            let mean: f32 = col.iter().sum::<f32>() / col.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "col {c} mean {mean}");
        }
    }
}
