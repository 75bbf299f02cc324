//! `hec_tensor::math` against its own contract: the special-value table,
//! the ULP budgets (sampled here, every finite `f32` under `--ignored`),
//! monotonicity, slice form == scalar form bit for bit, and
//! `flush_subnormal` zeroing the subnormals and nothing else.
//!
//! The referee is the platform's `f64` libm, correct to well under an `f32`
//! ulp. Measured maxima of the exhaustive run are quoted in the module docs
//! and EXPERIMENTS.md (PR 23):
//!
//! ```text
//! cargo test --release -p hec-tensor --test math -- --ignored --nocapture
//! ```

use hec_tensor::math;
use proptest::prelude::*;

/// One function under test: scalar form, slice form, `f64` referee, the
/// ULP budget, the largest `|x|` the budget is stated for, and where the
/// function is held to be non-decreasing.
struct Case {
    name: &'static str,
    scalar: fn(f32) -> f32,
    slice: fn(&mut [f32]),
    reference: fn(f64) -> f64,
    budget: f64,
    domain: f32,
    monotone: Monotone,
}

#[derive(PartialEq)]
enum Monotone {
    No,
    /// On the sampled grid; neighbouring floats may dip by an ulp.
    OnTheGrid,
    /// From every finite `f32` to the next.
    Everywhere,
}

fn sigmoid_f64(x: f64) -> f64 {
    // The form that keeps its digits in both tails.
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        x.exp() / (1.0 + x.exp())
    }
}

const CASES: [Case; 6] = [
    Case {
        name: "exp",
        scalar: math::exp,
        slice: math::exp_slice,
        reference: f64::exp,
        budget: 2.0,
        domain: f32::MAX,
        monotone: Monotone::Everywhere,
    },
    Case {
        name: "ln",
        scalar: math::ln,
        slice: math::ln_slice,
        reference: f64::ln,
        budget: 2.0,
        domain: f32::MAX,
        monotone: Monotone::Everywhere,
    },
    Case {
        name: "tanh",
        scalar: math::tanh,
        slice: math::tanh_slice,
        reference: f64::tanh,
        budget: 2.0,
        domain: f32::MAX,
        monotone: Monotone::Everywhere,
    },
    Case {
        name: "sigmoid",
        scalar: math::sigmoid,
        slice: math::sigmoid_slice,
        reference: sigmoid_f64,
        budget: 4.0,
        domain: f32::MAX,
        monotone: Monotone::OnTheGrid,
    },
    Case {
        name: "sin",
        scalar: math::sin,
        slice: math::sin_slice,
        reference: f64::sin,
        budget: 2.0,
        domain: math::SIN_COS_MAX,
        monotone: Monotone::No,
    },
    Case {
        name: "cos",
        scalar: math::cos,
        slice: math::cos_slice,
        reference: f64::cos,
        budget: 2.0,
        domain: math::SIN_COS_MAX,
        monotone: Monotone::No,
    },
];

/// `|got − reference|` in ulps of the `f32` nearest `reference` (an
/// infinite result counts as `2¹²⁸`, subnormal ulps are `2⁻¹⁴⁹`).
fn ulp_error(got: f32, reference: f64) -> f64 {
    if reference.is_nan() || got.is_nan() {
        return if reference.is_nan() && got.is_nan() { 0.0 } else { f64::INFINITY };
    }
    let top = 2f64.powi(128);
    let r = reference.clamp(-top, top);
    let g = f64::from(got).clamp(-top, top);
    let exponent = (((r.to_bits() >> 52) & 0x7ff) as i32 - 1023).clamp(-126, 127);
    (g - r).abs() / 2f64.powi(exponent - 23)
}

/// Every finite `f32` in increasing order (`−0.0` before `+0.0`).
fn every_finite_f32() -> impl Iterator<Item = f32> {
    let negative = (0x8000_0000u32..=0xff7f_ffff).rev();
    let positive = 0x0000_0000u32..=0x7f7f_ffff;
    negative.chain(positive).map(f32::from_bits)
}

/// The default suite's sample: a dense grid over the arguments the call
/// sites reach, and the eight floats either side of every power of two of
/// both signs (where exponent handling goes wrong first).
fn sampled(domain: f32) -> Vec<f32> {
    let reach = domain.min(20.0);
    let mut xs: Vec<f32> = (0..=400_000).map(|i| -reach + i as f32 * (reach / 200_000.0)).collect();
    if domain > 20.0 {
        let wide = domain.min(110.0);
        xs.extend((0..=20_000).map(|i| -wide + i as f32 * (wide / 10_000.0)));
    }
    for e in -149..=127 {
        let bits = 2f32.powi(e).to_bits();
        for delta in -8i32..=8 {
            let x = f32::from_bits(bits.wrapping_add(delta as u32));
            if x.is_finite() {
                xs.extend([x, -x]);
            }
        }
    }
    xs.retain(|x| x.abs() <= domain);
    xs
}

#[test]
fn sampled_ulp_error_is_within_budget() {
    for case in &CASES {
        let mut worst = (0.0, 0.0f32);
        for x in sampled(case.domain) {
            let err = ulp_error((case.scalar)(x), (case.reference)(f64::from(x)));
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(
            worst.0 <= case.budget,
            "{}: {:.3} ulp at {:e}, budget {}",
            case.name,
            worst.0,
            worst.1,
            case.budget
        );
    }
}

/// The exhaustive run: every finite `f32` inside the stated domain is
/// within budget (and, for `exp`, `ln` and `tanh`, no smaller than its
/// predecessor's image); every one outside it is NaN.
fn exhaustive(case: &Case) {
    let mut worst = (0.0, 0.0f32);
    let mut previous = f32::NEG_INFINITY;
    let mut dips = 0u64;
    for x in every_finite_f32() {
        let got = (case.scalar)(x);
        if x.abs() > case.domain {
            assert!(got.is_nan(), "{}({x:e}) = {got:e} outside the domain", case.name);
            continue;
        }
        let err = ulp_error(got, (case.reference)(f64::from(x)));
        if err > worst.0 {
            worst = (err, x);
        }
        if got < previous {
            assert!(case.monotone != Monotone::Everywhere, "{} dips at {x:e}", case.name);
            dips += 1;
        }
        previous = got;
    }
    println!("{}: max {:.4} ulp at {:e} (budget {})", case.name, worst.0, worst.1, case.budget);
    if case.monotone != Monotone::No {
        println!("{}: {dips} dips between neighbouring floats", case.name);
    }
    assert!(worst.0 <= case.budget, "{} over budget", case.name);
}

macro_rules! exhaustive_tests {
    ($($test:ident => $name:literal;)*) => {$(
        #[test]
        #[ignore = "every finite f32: minutes in release, hours in debug"]
        fn $test() {
            exhaustive(CASES.iter().find(|case| case.name == $name).expect("a case by that name"));
        }
    )*};
}

exhaustive_tests! {
    exhaustive_exp => "exp";
    exhaustive_ln => "ln";
    exhaustive_tanh => "tanh";
    exhaustive_sigmoid => "sigmoid";
    exhaustive_sin => "sin";
    exhaustive_cos => "cos";
}

#[test]
fn nan_in_nan_out() {
    for case in &CASES {
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
            assert!((case.scalar)(nan).is_nan(), "{}(NaN)", case.name);
        }
    }
}

#[test]
fn exp_special_values_and_thresholds() {
    assert_eq!(math::exp(f32::NEG_INFINITY), 0.0);
    assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(-0.0), 1.0);
    // Neighbouring floats either side of ln(f32::MAX) = 88.722839…: the
    // last finite result and the first overflow.
    assert_eq!(math::exp(f32::from_bits(0x42b1_7217)), 3.402_798_5e38);
    assert_eq!(math::exp(f32::from_bits(0x42b1_7218)), f32::INFINITY);
    assert_eq!(math::exp(f32::MAX), f32::INFINITY);
    // Gradual underflow: either side of ln 2⁻¹²⁶ = −87.336544… the last
    // normal and the first subnormal result; either side of
    // ln 2⁻¹⁵⁰ = −103.972077… the smallest subnormal and zero.
    assert!(math::exp(f32::from_bits(0xc2ae_ac4f)) >= f32::MIN_POSITIVE);
    assert!(math::exp(f32::from_bits(0xc2ae_ac50)) < f32::MIN_POSITIVE);
    assert_eq!(math::exp(f32::from_bits(0xc2cf_f1b4)), f32::from_bits(1));
    assert_eq!(math::exp(f32::from_bits(0xc2cf_f1b5)), 0.0);
    assert_eq!(math::exp(f32::MIN), 0.0);
}

#[test]
fn ln_special_values_and_subnormals() {
    assert_eq!(math::ln(0.0), f32::NEG_INFINITY);
    assert_eq!(math::ln(-0.0), f32::NEG_INFINITY);
    assert_eq!(math::ln(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::ln(1.0), 0.0);
    for negative in [-f32::from_bits(1), -1.0, f32::MIN, f32::NEG_INFINITY] {
        assert!(math::ln(negative).is_nan(), "ln({negative:e})");
    }
    // 2⁻¹⁴⁹ and the largest subnormal, against −149 ln 2 and −126 ln 2.
    assert_eq!(math::ln(f32::from_bits(1)), -103.278_93);
    assert_eq!(math::ln(f32::from_bits(0x007f_ffff)), -87.336_55);
    assert_eq!(math::ln(f32::MAX), 88.722_84);
}

#[test]
fn tanh_and_sigmoid_special_values_and_ranges() {
    assert_eq!(math::tanh(f32::INFINITY), 1.0);
    assert_eq!(math::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(math::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(math::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(math::sigmoid(f32::INFINITY), 1.0);
    assert_eq!(math::sigmoid(f32::NEG_INFINITY), 0.0);
    assert_eq!(math::sigmoid(0.0), 0.5);
    assert_eq!(math::sigmoid(-0.0), 0.5);
    // The deep negative tail keeps its digits: σ(x) → e^x, subnormals included.
    assert_eq!(math::sigmoid(-100.0), math::exp(-100.0));
    for x in sampled(f32::MAX) {
        let (t, s) = (math::tanh(x), math::sigmoid(x));
        assert!((-1.0..=1.0).contains(&t), "tanh({x:e}) = {t:e}");
        assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s:e}");
        assert_eq!(math::tanh(-x).to_bits(), (-t).to_bits(), "tanh is odd at {x:e}");
    }
}

#[test]
fn sin_cos_special_values_and_domain() {
    assert_eq!(math::sin(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(math::sin(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(math::cos(0.0), 1.0);
    assert_eq!(math::cos(-0.0), 1.0);
    for outside in [f32::INFINITY, f32::NEG_INFINITY, f32::MAX, -1_048_576.1, 1_048_576.1] {
        assert!(math::sin(outside).is_nan(), "sin({outside:e})");
        assert!(math::cos(outside).is_nan(), "cos({outside:e})");
    }
    for x in sampled(math::SIN_COS_MAX) {
        let (s, c) = (math::sin(x), math::cos(x));
        assert!((-1.0..=1.0).contains(&s) && (-1.0..=1.0).contains(&c), "at {x:e}");
        assert_eq!(math::sin(-x).to_bits(), (-s).to_bits(), "sin is odd at {x:e}");
        assert_eq!(math::cos(-x).to_bits(), c.to_bits(), "cos is even at {x:e}");
    }
    // Absolute error well past the call sites' largest argument (the
    // MHEALTH generator's third harmonic reaches ≈ 6·10³ over a default
    // walking session) and at the edge of the domain.
    for x in (0..=200_000).map(|i| i as f32 * 0.2).chain([math::SIN_COS_MAX, -math::SIN_COS_MAX]) {
        let (ds, dc) = (f64::from(x).sin(), f64::from(x).cos());
        assert!((f64::from(math::sin(x)) - ds).abs() < 6e-8, "sin({x})");
        assert!((f64::from(math::cos(x)) - dc).abs() < 6e-8, "cos({x})");
    }
}

#[test]
fn exp_ln_tanh_sigmoid_are_monotone_on_the_grid() {
    for case in CASES.iter().filter(|case| case.monotone != Monotone::No) {
        // Where the function is defined: `ln` is NaN left of zero.
        let mut xs = sampled(case.domain);
        xs.retain(|&x| !(case.scalar)(x).is_nan());
        xs.sort_by(f32::total_cmp);
        for pair in xs.windows(2) {
            let (lo, hi) = ((case.scalar)(pair[0]), (case.scalar)(pair[1]));
            assert!(lo <= hi, "{} falls after {:e}", case.name, pair[0]);
        }
    }
}

#[test]
fn flush_subnormal_zeroes_exactly_the_subnormals() {
    let min = f32::MIN_POSITIVE;
    let below = f32::from_bits(min.to_bits() - 1); // the largest subnormal
    let above = f32::from_bits(min.to_bits() + 1);
    let smallest = f32::from_bits(1);
    // Passed through, bit for bit.
    let nan = f32::from_bits(0x7fc0_1234);
    for x in [0.0, min, above, 1.0, f32::MAX, f32::INFINITY, nan] {
        for x in [x, -x] {
            assert_eq!(math::flush_subnormal(x).to_bits(), x.to_bits(), "{x:e} must pass");
        }
    }
    // Flushed to a zero of their sign.
    for x in [below, smallest, min / 2.0] {
        assert_eq!(math::flush_subnormal(x).to_bits(), 0.0f32.to_bits(), "{x:e}");
        assert_eq!(math::flush_subnormal(-x).to_bits(), (-0.0f32).to_bits(), "-{x:e}");
    }
    // The rule is `|x| < MIN_POSITIVE → ±0` on every float: a zero
    // exponent field and nothing else.
    for bits in (0..=u32::MAX).step_by(65_537) {
        let x = f32::from_bits(bits);
        let expected = if x.abs() < min { 0.0f32.copysign(x) } else { x };
        assert_eq!(math::flush_subnormal(x).to_bits(), expected.to_bits(), "{bits:#010x}");
    }
}

/// A function's name, scalar form and in-place slice form.
type SlicePair = (&'static str, fn(f32) -> f32, fn(&mut [f32]));

/// Every scalar / slice pair of the module, `flush_subnormal` included.
fn slice_pairs() -> impl Iterator<Item = SlicePair> {
    let flush: SlicePair = ("flush_subnormal", math::flush_subnormal, math::flush_subnormal_slice);
    CASES.iter().map(|case| (case.name, case.scalar, case.slice)).chain([flush])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The vector lanes and the scalar tail of a slice form give the bits
    /// of the scalar form, wherever in a buffer the slice starts and however
    /// long it is, and touch nothing outside it.
    #[test]
    fn slice_forms_match_scalar_forms_bit_for_bit(
        bits in collection::vec(any::<u32>(), 0..68),
        near in collection::vec(-30.0f32..30.0, 0..68),
        tiny in collection::vec((0u32..0x0100_0000, any::<bool>()), 0..68),
        offset in 0usize..17,
    ) {
        // Raw bit patterns reach NaNs, infinities and subnormals; the
        // second draw stays where the functions do their real work, the
        // third on both sides of `MIN_POSITIVE`, where the flush does its.
        let raw: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let tiny: Vec<f32> =
            tiny.iter().map(|&(b, neg)| f32::from_bits(b | u32::from(neg) << 31)).collect();
        for xs in [raw, near, tiny] {
            let offset = offset.min(xs.len());
            for (name, scalar, slice) in slice_pairs() {
                let mut ys = xs.clone();
                slice(&mut ys[offset..]);
                for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                    let expected = if i < offset { x } else { scalar(x) };
                    prop_assert_eq!(y.to_bits(), expected.to_bits(), "{}({:e})", name, x);
                }
            }
        }
    }
}
