//! Property-based tests (proptest) on the core invariants across crates.

use proptest::prelude::*;

use hec_bandit::{CostModel, PolicyNetwork};
use hec_data::BinaryConfusion;
use hec_nn::{Activation, QuantMode, QuantizedDense};
use hec_sim::{DatasetKind, EventQueue, HecTopology};
use hec_tensor::{vecops, Matrix, QuantScheme, QuantizedMatrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// An `m × k` input, a `k × n` weight and a `1 × n` bias cut from the
/// fronts of fixed-size pools.
fn layer_operands(
    (m, k, n): (usize, usize, usize),
    x_pool: &[f32],
    w_pool: &[f32],
    b_pool: &[f32],
) -> (Matrix, Matrix, Matrix) {
    (
        Matrix::from_vec(m, k, x_pool[..m * k].to_vec()),
        Matrix::from_vec(k, n, w_pool[..k * n].to_vec()),
        Matrix::from_vec(1, n, b_pool[..n].to_vec()),
    )
}

/// The bits of an int8 layer's pre-activation `x·W̃ + b`: weights quantised
/// under `scheme`, activations per row.
fn int8_affine_bits(x: &Matrix, weight: &Matrix, bias: &Matrix, scheme: QuantScheme) -> Vec<u32> {
    let layer =
        QuantizedDense::from_weights(weight, bias, Activation::Linear, QuantMode::int8(scheme));
    let mut out = Matrix::zeros(1, 1);
    layer.affine_into(x, &mut QuantizedMatrix::empty(), &mut out);
    out.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The referee for [`int8_affine_bits`]: each row's codes from its affine
/// parameters, the code product accumulated in i32, then the correction
/// `QuantizedMatrix::matmul_t_into` documents, term for term in its order,
/// and the bias.
fn naive_int8_affine(x: &Matrix, weight: &Matrix, bias: &Matrix, scheme: QuantScheme) -> Vec<u32> {
    let codes = |m: &Matrix, scheme| {
        let q = QuantizedMatrix::quantize(m, scheme);
        let p = q.params().to_vec();
        let param = move |r: usize| p[if p.len() == 1 { 0 } else { r }];
        let rows: Vec<Vec<i32>> = m
            .iter_rows()
            .enumerate()
            .map(|(r, row)| row.iter().map(|&v| param(r).quantize(v) as i32).collect())
            .collect();
        (param, rows)
    };
    let (param_a, codes_a) = codes(x, QuantScheme::PerRow);
    let (param_b, codes_b) = codes(&weight.transpose(), scheme);
    let k = x.cols() as i32;
    let mut bits = Vec::new();
    for (i, a) in codes_a.iter().enumerate() {
        let (pa, sum_a) = (param_a(i), a.iter().sum::<i32>() as f32);
        for (j, b) in codes_b.iter().enumerate() {
            let pb = param_b(j);
            let acc: i32 = a.iter().zip(b).map(|(p, q)| p * q).sum();
            let sbz = pb.scale * pb.zero_point as f32;
            let swk = pb.scale * (b.iter().sum::<i32>() - k * pb.zero_point) as f32;
            let y = pa.scale * (pb.scale * acc as f32 - sbz * sum_a - pa.zero_point as f32 * swk);
            bits.push((y + bias.as_slice()[j]).to_bits());
        }
    }
    bits
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

    #[test]
    fn affine_quantisation_error_within_half_scale(
        m in small_matrix(5, 7),
        per_row in any::<bool>(),
    ) {
        // scale = (hi-lo)/254 spends one of the 256 codes on slack, so every
        // in-range value must land within scale/2 of its code — exactly, not
        // approximately (the tiny epsilon absorbs f32 rounding only).
        let scheme = if per_row { QuantScheme::PerRow } else { QuantScheme::PerTensor };
        let q = QuantizedMatrix::quantize(&m, scheme);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let p = if q.params().len() == 1 { q.params()[0] } else { q.params()[r] };
            prop_assert!(p.scale.is_finite() && p.scale > 0.0, "bad scale {}", p.scale);
            let bound = p.scale * 0.5 * 1.0001 + 1e-6;
            for c in 0..m.cols() {
                let err = (m.row(r)[c] - back.row(r)[c]).abs();
                prop_assert!(err <= bound, "|{}| > {bound} at ({r},{c})", err);
            }
        }
    }

    #[test]
    fn constant_matrices_quantise_with_finite_params(
        value in -10.0f32..10.0,
        per_row in any::<bool>(),
    ) {
        // Degenerate ranges (constant or all-zero matrices) must not
        // produce NaN/zero scales, and must round-trip within scale/2.
        let scheme = if per_row { QuantScheme::PerRow } else { QuantScheme::PerTensor };
        let m = Matrix::from_vec(3, 4, vec![value; 12]);
        let q = QuantizedMatrix::quantize(&m, scheme);
        for p in q.params() {
            prop_assert!(p.scale.is_finite() && p.scale > 0.0);
        }
        let back = q.dequantize();
        let p = q.params()[0];
        for (a, b) in m.as_slice().iter().zip(back.as_slice().iter()) {
            prop_assert!((a - b).abs() <= p.scale * 0.5 * 1.0001 + 1e-6);
        }
    }

    #[test]
    fn quantised_product_matches_naive_i32_reference(
        dims in (1usize..40, 1usize..40, 1usize..40),
        x_pool in proptest::collection::vec(-10.0f32..10.0, 40 * 40),
        w_pool in proptest::collection::vec(-1.0f32..1.0, 40 * 40),
        b_pool in proptest::collection::vec(-1.0f32..1.0, 40),
        per_row in any::<bool>(),
    ) {
        // Dims up to 40 cross MR = 4 and NR = 16, so the register tiles,
        // the edge rows and both ragged-strip paths of the f32 gemm each
        // compute codes. The layer must equal the i32 referee bit for bit.
        let scheme = if per_row { QuantScheme::PerRow } else { QuantScheme::PerTensor };
        let (x, w, b) = layer_operands(dims, &x_pool, &w_pool, &b_pool);
        prop_assert_eq!(int8_affine_bits(&x, &w, &b, scheme), naive_int8_affine(&x, &w, &b, scheme));
    }

    #[test]
    fn quantization_error_bounded_by_half_delta(m in small_matrix(4, 4)) {
        // A bound from the data alone, not from the reported scale: the
        // affine range [min(lo, 0), max(hi, 0)] spans at most 2·max|x| over
        // 254 steps, so the per-tensor step never exceeds the symmetric
        // 8-bit grid's Δ = max|x| / 127, and the round-trip error Δ / 2.
        let max_abs = m.as_slice().iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
        let delta = max_abs / 127.0;
        let q = QuantizedMatrix::quantize(&m, QuantScheme::PerTensor);
        let scale = q.params()[0].scale;
        prop_assert!(max_abs == 0.0 || scale <= delta * 1.0001, "scale {scale} > Δ {delta}");
        let back = q.dequantize();
        for (a, b) in m.as_slice().iter().zip(back.as_slice().iter()) {
            prop_assert!((a - b).abs() <= scale.min(delta) * 0.5 * 1.0001 + 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The referee on a wider grid, up to the exact depth (CI
    /// `parallel-smoke` runs it with `--include-ignored`).
    #[test]
    #[ignore]
    fn quantised_product_matches_naive_i32_reference_wide_grid(
        dims in (1usize..41, 1usize..1025, 1usize..101),
        x_pool in proptest::collection::vec(-10.0f32..10.0, 40 * 1024),
        w_pool in proptest::collection::vec(-1.0f32..1.0, 1024 * 100),
        b_pool in proptest::collection::vec(-1.0f32..1.0, 100),
        per_row in any::<bool>(),
    ) {
        let scheme = if per_row { QuantScheme::PerRow } else { QuantScheme::PerTensor };
        let (x, w, b) = layer_operands(dims, &x_pool, &w_pool, &b_pool);
        prop_assert_eq!(int8_affine_bits(&x, &w, &b, scheme), naive_int8_affine(&x, &w, &b, scheme));
    }
}

/// The exactness bound at its edge: depth 1024 with extreme codes, where
/// the code product reaches `2²⁴` in magnitude.
#[test]
fn quantised_product_is_exact_at_depth_1024_with_extreme_codes() {
    let k = 1024;
    for (m, n) in [(1, 3), (5, 19)] {
        // Codes as f32 straight through the gemm: all −128, all 127, the
        // two mixed, and a pattern that walks every code.
        let pattern = |len: usize, step: usize| -> Vec<f32> {
            (0..len).map(|i| ((i * step + 11) % 256) as f32 - 128.0).collect()
        };
        let operands = [
            (vec![-128.0; m * k], vec![-128.0; k * n]),
            (vec![127.0; m * k], vec![127.0; k * n]),
            (vec![-128.0; m * k], vec![127.0; k * n]),
            (pattern(m * k, 37), pattern(k * n, 101)),
        ];
        for (a, b) in operands {
            let (a, b) = (Matrix::from_vec(m, k, a), Matrix::from_vec(k, n, b));
            let mut out = Matrix::zeros(1, 1);
            a.matmul_into(&b, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let acc: i32 = (0..k).map(|kk| a.row(i)[kk] as i32 * b.row(kk)[j] as i32).sum();
                    assert_eq!(out.row(i)[j].to_bits(), (acc as f32).to_bits(), "({i}, {j})");
                }
            }
        }
        // Through the layer: a constant negative input row quantises to
        // −128 throughout, a constant weight to −128 (negative) or to the
        // top of its range (positive).
        let x = Matrix::filled(m, k, -3.0);
        let bias = Matrix::zeros(1, n);
        for w in [-0.5f32, 0.5] {
            let weight = Matrix::filled(k, n, w);
            for scheme in [QuantScheme::PerTensor, QuantScheme::PerRow] {
                let got = int8_affine_bits(&x, &weight, &bias, scheme);
                assert_eq!(got, naive_int8_affine(&x, &weight, &bias, scheme), "w {w} {scheme:?}");
            }
        }
    }
}

/// Past depth 1024 a code product may round, so an int8 layer that deep is
/// refused when it is built, in release builds too; a weight-only layer
/// multiplies dequantised weights and has no such bound.
#[test]
fn int8_layer_past_depth_1024_is_rejected() {
    let builds = |k: usize, mode: QuantMode| {
        let (weight, bias) = (Matrix::filled(k, 2, 0.5), Matrix::zeros(1, 2));
        std::panic::catch_unwind(|| {
            QuantizedDense::from_weights(&weight, &bias, Activation::Linear, mode)
        })
        .is_ok()
    };
    assert!(builds(1024, QuantMode::int8(QuantScheme::PerRow)));
    assert!(!builds(1025, QuantMode::int8(QuantScheme::PerRow)));
    assert!(!builds(1025, QuantMode::int8(QuantScheme::PerTensor)));
    assert!(builds(1025, QuantMode::weight_only(QuantScheme::PerRow)));
}
