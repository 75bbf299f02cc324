//! `vecops::summary_features` folds the window's mean once and hands it to
//! the standard deviation; the result must be `[min, max, mean(v),
//! std_dev(v)]` bit for bit — the policy's univariate context is read off
//! it, and every digest downstream of a univariate policy with it.

use proptest::prelude::*;

use hec_tensor::vecops::{mean, std_dev, summary_features};

/// A window value: a signed zero now and then, so windows hold both
/// `-0.0` and `+0.0`, otherwise a float of either sign.
fn value() -> impl Strategy<Value = f32> {
    (0u8..8, -1.0e3f32..1.0e3).prop_map(|(pick, x)| match pick {
        0 => -0.0,
        1 => 0.0,
        _ => x,
    })
}

/// A window of 1–200 values; one in four is constant (every value its
/// first).
fn window() -> impl Strategy<Value = Vec<f32>> {
    (collection::vec(value(), 1..200), 0u8..4).prop_map(|(mut v, constant)| {
        if constant == 0 {
            let first = v[0];
            v.fill(first);
        }
        v
    })
}

fn bits(v: [f32; 4]) -> [u32; 4] {
    v.map(f32::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn summary_features_is_min_max_mean_std_dev(v in window()) {
        let min = v.iter().copied().fold(f32::INFINITY, f32::min);
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let want = [min, max, mean(&v), std_dev(&v)];
        prop_assert_eq!(bits(summary_features(&v)), bits(want), "{:?}", v);
    }
}

#[test]
fn constant_and_signed_zero_windows() {
    for v in [
        vec![0.0f32; 7],
        vec![-0.0; 7],
        vec![-0.0, 0.0, -0.0],
        vec![0.0, -0.0, 0.0, -0.0],
        vec![3.25; 96],
        vec![-0.0, 0.0, 1.5, -2.5],
    ] {
        let min = v.iter().copied().fold(f32::INFINITY, f32::min);
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let want = [min, max, mean(&v), std_dev(&v)];
        assert_eq!(bits(summary_features(&v)), bits(want), "{v:?}");
    }
}
