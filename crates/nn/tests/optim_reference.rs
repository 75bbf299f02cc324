//! The one-pass, `Vec`-backed `Adam` and `RmsProp` against the two-pass,
//! `HashMap`-keyed ones they replaced, and `Adam` against its own element
//! loop before the skip rules (`reference/optim.rs`).
//!
//! Three regimes. In the first two the flush
//! ([`hec_tensor::math::flush_subnormal`], where `Adam` stores `m` and `v`)
//! is what tells library and referee apart:
//!
//! * **no moment underflows** — gradients that keep every moment zero or
//!   normal: new == old **bit for bit**, parameters and state, whatever the
//!   shapes, however many slots, in whatever order the slots of a step
//!   arrive. The step counts here stay far below `i32::MAX`, where the
//!   saturating exponent of the new bias corrections and the old `as i32`
//!   are the same number;
//! * **long exact-zero gradient runs** — what a dead ReLU unit feeds its
//!   weights: the referee's `m` decays into the subnormals and sticks at a
//!   few ulps for good, the library's state holds only zeros and normals,
//!   and the parameters part by no more than the bound `optim.rs` derives.
//!
//! The third holds the skip rules — an operand replaced by `+0` where the
//! product provably cannot change a stored bit — to the unskipped loop
//! ([`UnskippedAdam`]):
//!
//! * **streams that straddle every bound** — gradients a few ulps either
//!   side of `2⁻⁵⁹` and `2⁻¹²³`, subnormal, `±0`, a saturated policy's mix
//!   (mostly zeros, many tiny); first steps that put a decayed moment a few
//!   ulps either side of `2⁻¹⁰¹` and `2⁻¹²⁶`; parameters either side of
//!   `2⁻⁷⁵` and `±0`; step counts across both points where a bias
//!   correction rounds to `1.0`; `lr` ∈ {1e-3, 2e-3, 5e-3}; and NaN/±∞
//!   planted in a gradient or a parameter: parameters, `m` and `v` equal
//!   **bit for bit** after every step (a NaN only as a NaN).
//!
//! The default suite runs 32 cases of each property; CI's `parallel-smoke`
//! job also runs the ignored 512-case variants.

mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use hec_nn::{Adam, Optimizer, RmsProp};
use hec_tensor::{init, Matrix};
use reference::bits;
use reference::optim::{RefAdam, RefRmsProp, UnskippedAdam};

const LR: f32 = 1e-3;

/// `2 · lr · 2⁻¹²⁶ / (ε · (1 − β₁))`: what one flushed `m` can move a
/// parameter by in one step, rounding included (`optim.rs` module docs).
const FLUSH_STEP_BOUND: f32 = 2.0 * LR * f32::MIN_POSITIVE / (1e-8 * 0.1);

fn zero_or_normal(m: &Matrix) -> bool {
    m.as_slice().iter().all(|v| *v == 0.0 || v.is_normal())
}

/// One parameter tensor per shape, twice, and per step the order its slots
/// are visited in (slot 0 — which opens Adam's step — anywhere in it).
struct Run {
    rng: StdRng,
    params: Vec<Matrix>,
    ref_params: Vec<Matrix>,
}

impl Run {
    fn new(seed: u64, shapes: &[(usize, usize)]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params: Vec<Matrix> =
            shapes.iter().map(|&(r, c)| init::uniform(&mut rng, r, c, -1.0, 1.0)).collect();
        Self { rng, ref_params: params.clone(), params }
    }

    /// One step of both optimisers over every slot in a shuffled order,
    /// each slot's gradient drawn by `grad_of(rng, shape)`.
    fn step(
        &mut self,
        opt: &mut dyn Optimizer,
        ref_opt: &mut dyn Optimizer,
        mut grad_of: impl FnMut(&mut StdRng, (usize, usize)) -> Matrix,
    ) {
        let mut order: Vec<usize> = (0..self.params.len()).collect();
        order.shuffle(&mut self.rng);
        for slot in order {
            let grad = grad_of(&mut self.rng, self.params[slot].shape());
            opt.step(slot, &mut self.params[slot], &grad);
            ref_opt.step(slot, &mut self.ref_params[slot], &grad);
        }
    }

    fn assert_params_equal(&self, case: &str) {
        for (slot, (p, r)) in self.params.iter().zip(&self.ref_params).enumerate() {
            assert_eq!(bits(p), bits(r), "{case}: parameter of slot {slot}");
        }
    }
}

/// Gradients of mixed magnitude that never underflow a moment.
fn normal_grad(rng: &mut StdRng, (rows, cols): (usize, usize)) -> Matrix {
    let scale = [1e-3f32, 1.0, 30.0][rng.gen_range(0..3usize)];
    init::uniform(rng, rows, cols, -scale, scale)
}

fn new_equals_old_while_moments_stay_normal(seed: u64, shapes: &[(usize, usize)], steps: usize) {
    let case = format!("seed {seed} shapes {shapes:?} steps {steps}");

    let (mut adam, mut ref_adam) = (Adam::new(LR), RefAdam::new(LR));
    let mut run = Run::new(seed, shapes);
    for _ in 0..steps {
        run.step(&mut adam, &mut ref_adam, normal_grad);
    }
    run.assert_params_equal(&format!("{case}: Adam"));
    for slot in 0..shapes.len() {
        let (m, v) = adam.moments(slot).expect("every slot was stepped");
        let (ref_m, ref_v) = ref_adam.moments(slot);
        assert!(zero_or_normal(ref_m) && zero_or_normal(ref_v), "{case}: the stream underflowed");
        assert_eq!((bits(m), bits(v)), (bits(ref_m), bits(ref_v)), "{case}: moments of {slot}");
    }

    let (mut rms, mut ref_rms) = (RmsProp::new(LR), RefRmsProp::new(LR));
    let mut run = Run::new(seed, shapes);
    for _ in 0..steps {
        run.step(&mut rms, &mut ref_rms, normal_grad);
    }
    run.assert_params_equal(&format!("{case}: RMSProp"));
    for slot in 0..shapes.len() {
        let ms = rms.mean_sq(slot).expect("every slot was stepped");
        assert_eq!(bits(ms), bits(ref_rms.mean_sq(slot)), "{case}: mean square of {slot}");
    }
}

/// `live` steps of real gradients, then `dead` steps in which every odd
/// element of every tensor — a unit that stopped firing — gets exact zero
/// while the even ones go on; then `live` steps with everything firing.
fn flushed_state_stays_within_the_bound(
    seed: u64,
    shapes: &[(usize, usize)],
    live: usize,
    dead: usize,
) {
    let case = format!("seed {seed} shapes {shapes:?} live {live} dead {dead}");
    let (mut adam, mut ref_adam) = (Adam::new(LR), RefAdam::new(LR));
    let mut run = Run::new(seed, shapes);
    let mut steps = 0usize;
    for (phase, len) in [("live", live), ("dead", dead), ("revived", live)] {
        for _ in 0..len {
            run.step(&mut adam, &mut ref_adam, |rng, shape| {
                let mut g = normal_grad(rng, shape);
                if phase == "dead" {
                    g.as_mut_slice().iter_mut().skip(1).step_by(2).for_each(|x| *x = 0.0);
                }
                g
            });
        }
        steps += len;
        let bound = steps as f32 * FLUSH_STEP_BOUND;
        for slot in 0..shapes.len() {
            let (m, v) = adam.moments(slot).expect("every slot was stepped");
            assert!(zero_or_normal(m) && zero_or_normal(v), "{case}: {phase}: subnormal state");
            // What the flush is measured against: at the end of the dead
            // run the referee holds what the library no longer does.
            let stuck = !zero_or_normal(&ref_adam.moments(slot).0);
            assert_eq!(stuck, phase == "dead", "{case}: {phase}: referee's first moment");
            let (p, r) = (&run.params[slot], &run.ref_params[slot]);
            for (a, b) in p.as_slice().iter().zip(r.as_slice()) {
                assert!((a - b).abs() <= bound, "{case}: {phase}: {a:e} vs {b:e} > {bound:e}");
            }
        }
    }
}

/// Every tensor has an odd element — one that can die.
fn shapes() -> impl Strategy<Value = Vec<(usize, usize)>> {
    collection::vec((1usize..7, 2usize..20), 1..6)
}

/// `2^e`, exact, for a normal exponent.
fn pow2(e: i32) -> f32 {
    f32::from_bits(((127 + e) as u32) << 23)
}

/// `x` moved by up to eight ulps either way, with a random sign.
fn near(rng: &mut StdRng, x: f32) -> f32 {
    let moved = f32::from_bits((i64::from(x.to_bits()) + rng.gen_range(-8i64..=8)) as u32);
    signed(rng, moved)
}

/// A magnitude log-uniform in `[2^lo, 2^hi)`, with a random sign.
fn log_uniform(rng: &mut StdRng, lo: i32, hi: i32) -> f32 {
    let x = rng.gen_range(f64::from(lo)..f64::from(hi)).exp2() as f32;
    signed(rng, x)
}

/// `x` or `-x`, at random.
fn signed(rng: &mut StdRng, x: f32) -> f32 {
    if rng.gen() {
        -x
    } else {
        x
    }
}

/// What an element is fed, step after step.
#[derive(Clone, Copy)]
enum Feed {
    /// A saturated policy's gradients: mostly exact zeros, many far below
    /// `2⁻⁵⁹`, some of ordinary size.
    Policy,
    /// A first gradient that leaves a decayed moment a few ulps from
    /// `2⁻¹⁰¹` or `2⁻¹²⁶` at the next step (and now and then another), tiny
    /// ones in between: the moments decay across both bounds.
    Decay,
    /// Only gradients small enough that a parameter near `2⁻⁷⁵` keeps
    /// stepping by less than half its ulp — or not quite.
    Tiny,
}

/// The gradient streams of the third regime.
struct Straddle {
    c1: f32,
    c2: f32,
    /// `fl(2⁻¹²⁶ / (2·lr))`: the parameter rule's bound on `|m̂|`.
    tiny_m_hat: f32,
}

impl Straddle {
    fn new(lr: f32) -> Self {
        Self { c1: 1.0 - 0.9f32, c2: 1.0 - 0.999f32, tiny_m_hat: f32::MIN_POSITIVE / (2.0 * lr) }
    }

    fn grad(&self, rng: &mut StdRng, feed: Feed, first: bool) -> f32 {
        let zero = signed(rng, 0.0);
        let subnormal = f32::from_bits(rng.gen_range(1..0x0080_0000));
        let subnormal = signed(rng, subnormal);
        match feed {
            Feed::Policy => match rng.gen_range(0..100) {
                0..68 => zero,
                68..86 => log_uniform(rng, -149, -59),
                86..90 => near(rng, pow2(-59)),
                _ => rng.gen_range(-1.0f32..1.0) * [1e-3, 1.0, 30.0][rng.gen_range(0..3usize)],
            },
            Feed::Decay if first || rng.gen_range(0..60) == 0 => match rng.gen_range(0..5) {
                // `m = c₁·g` from zero, so `β₁·m` lands on the target.
                0 => near(rng, pow2(-101) / 0.9 / self.c1),
                1 => near(rng, pow2(-126) / 0.9 / self.c1),
                // `v = c₂·g·g` from zero, so `β₂·v` lands on the target.
                2 => near(rng, (pow2(-101) / 0.999 / self.c2).sqrt()),
                3 => near(rng, (pow2(-126) / 0.999 / self.c2).sqrt()),
                _ => rng.gen_range(-1.0..1.0),
            },
            Feed::Decay => match rng.gen_range(0..6) {
                0 => zero,
                1 => near(rng, pow2(-59)),
                2 => near(rng, pow2(-123)),
                3 => subnormal,
                _ => log_uniform(rng, -149, -40),
            },
            // From zero, `m̂ = fl(c₁·g) / (1 − β₁)` is `g` within an ulp.
            Feed::Tiny if first => near(rng, self.tiny_m_hat),
            Feed::Tiny => match rng.gen_range(0..5) {
                0 => zero,
                1 => near(rng, pow2(-123)),
                2 => near(rng, self.tiny_m_hat),
                3 => subnormal,
                _ => log_uniform(rng, -149, -110),
            },
        }
    }

    fn param(rng: &mut StdRng, feed: Feed, poison: bool) -> f32 {
        if poison && rng.gen_range(0..40) == 0 {
            return [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
        }
        match (feed, rng.gen_range(0..5)) {
            (Feed::Tiny, 0..3) | (_, 0) => near(rng, pow2(-75)),
            (_, 1) => signed(rng, 0.0),
            (Feed::Tiny, _) => log_uniform(rng, -100, -60),
            _ => rng.gen_range(-1.0..1.0),
        }
    }
}

fn assert_same_bits(got: &Matrix, want: &Matrix, what: &dyn Fn() -> String) {
    for (idx, (&x, &y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{}: element {idx} is {x:e} ({:#010x}), unskipped {y:e} ({:#010x})",
            what(),
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// The pre-step state of one element where a skip rule decides, as seen
/// by the referee: what the coverage test counts.
struct Decision {
    g: f32,
    bm: f32,
    bv: f32,
    m_sum: f32,
    v_sum: f32,
    m_hat: f32,
    p: f32,
}

/// `steps` steps of `Adam` and [`UnskippedAdam`] at `lr` on straddling
/// streams, slots in a shuffled order, every state compared after every
/// slot; with `poison`, NaN/±∞ in some parameters and in one gradient.
/// Calls `seen` with every element's [`Decision`] and the step's `lr`.
fn skipped_equals_unskipped(
    seed: u64,
    shapes: &[(usize, usize)],
    steps: usize,
    lr: f32,
    poison: bool,
    mut seen: impl FnMut(&Decision, f32),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let straddle = Straddle::new(lr);
    let feeds: Vec<Vec<Feed>> = shapes
        .iter()
        .map(|&(r, c)| {
            (0..r * c)
                .map(|_| [Feed::Policy, Feed::Decay, Feed::Tiny][rng.gen_range(0..3usize)])
                .collect()
        })
        .collect();
    let mut params: Vec<Matrix> = shapes
        .iter()
        .zip(&feeds)
        .map(|(&(r, c), feed)| {
            let values: Vec<f32> =
                feed.iter().map(|&f| Straddle::param(&mut rng, f, poison)).collect();
            Matrix::from_vec(r, c, values)
        })
        .collect();
    let mut ref_params = params.clone();
    let (mut adam, mut referee) = (Adam::new(lr), UnskippedAdam::new(lr));
    let poisoned_step = if poison { rng.gen_range(0..steps) } else { usize::MAX };
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    for step in 0..steps {
        order.shuffle(&mut rng);
        // Steps opened so far, as both optimisers count them: slot 0 opens
        // one, and a slot stepped before the first opening is corrected as
        // in step 1.
        let mut t = (step as u64).max(1);
        for &slot in &order {
            let (rows, cols) = shapes[slot];
            let mut g: Vec<f32> =
                feeds[slot].iter().map(|&f| straddle.grad(&mut rng, f, step == 0)).collect();
            if step == poisoned_step {
                let at = rng.gen_range(0..g.len());
                g[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
            }
            if slot == 0 {
                t = step as u64 + 1;
            }
            let (bias1, _) = UnskippedAdam::bias_corrections(0.9, 0.999, t);
            let zeros = Matrix::zeros(rows, cols);
            let (m, v) = if step == 0 { (&zeros, &zeros) } else { referee.moments(slot) };
            let pre = m.as_slice().iter().zip(v.as_slice()).zip(ref_params[slot].as_slice());
            for (((&m, &v), &p), &g) in pre.zip(&g) {
                let (bm, bv) = (0.9 * m, 0.999 * v);
                let (m_sum, v_sum) = (bm + straddle.c1 * g, bv + straddle.c2 * g * g);
                let m_hat = hec_tensor::math::flush_subnormal(m_sum) / bias1;
                seen(&Decision { g, bm, bv, m_sum, v_sum, m_hat, p }, lr);
            }
            let grad = Matrix::from_vec(rows, cols, g);
            adam.step(slot, &mut params[slot], &grad);
            referee.step(slot, &mut ref_params[slot], &grad);
            let what = || format!("seed {seed} lr {lr} step {step} slot {slot}");
            let (m, v) = adam.moments(slot).expect("stepped");
            let (ref_m, ref_v) = referee.moments(slot);
            assert_same_bits(&params[slot], &ref_params[slot], &|| format!("{}: p", what()));
            assert_same_bits(m, ref_m, &|| format!("{}: m", what()));
            assert_same_bits(v, ref_v, &|| format!("{}: v", what()));
        }
    }
}

const LRS: [f32; 3] = [1e-3, 2e-3, 5e-3];

/// The steps at which `1 − β₁ᵗ` and then `1 − β₂ᵗ` first round to `1.0`,
/// found by search.
fn exact_one_steps() -> (u64, u64) {
    let first = |which: fn((f32, f32)) -> f32| {
        (1u64..).find(|&t| which(UnskippedAdam::bias_corrections(0.9, 0.999, t)) == 1.0).unwrap()
    };
    (first(|b| b.0), first(|b| b.1))
}

/// One stream long enough to cross both exact-one points, at every `lr`.
#[test]
fn skip_rules_hold_across_both_exact_one_bias_corrections() {
    let (t1, t2) = exact_one_steps();
    assert!((100..300).contains(&t1) && (10_000..30_000).contains(&t2), "{t1}, {t2}");
    for (idx, lr) in LRS.into_iter().enumerate() {
        let steps = t2 as usize + 50;
        skipped_equals_unskipped(idx as u64, &[(1, 8), (2, 3)], steps, lr, false, |_, _| {});
    }
}

/// The streams reach each rule's bound from both sides: a few ulps below
/// and at-or-above it, with the rule's other condition met.
#[test]
fn straddling_streams_reach_every_bound_from_both_sides() {
    // Within 2⁻¹⁶ of `bound`, below it (0) or at-or-above it (1).
    let side = |x: f32, bound: f32| {
        let x = x.abs();
        let close = (x - bound).abs() < bound * pow2(-16);
        close.then_some(usize::from(x >= bound))
    };
    let mut reached = [[0usize; 2]; 8];
    let mut count = |row: usize, s: Option<usize>| {
        if let Some(s) = s {
            reached[row][s] += 1;
        }
    };
    for seed in 0..24 {
        let lr = LRS[seed as usize % 3];
        skipped_equals_unskipped(seed, &[(4, 10), (1, 10)], 400, lr, false, |d, lr| {
            count(0, side(d.g, pow2(-59)));
            count(1, side(d.g, pow2(-123)));
            if d.g.abs() < pow2(-59) {
                count(2, side(d.bv, pow2(-101)));
            }
            if d.g.abs() < pow2(-123) {
                count(3, side(d.bm, pow2(-101)));
            }
            count(4, side(d.m_sum, f32::MIN_POSITIVE));
            count(5, side(d.v_sum, f32::MIN_POSITIVE));
            if d.p.abs() >= pow2(-75) {
                count(6, side(d.m_hat, f32::MIN_POSITIVE / (2.0 * lr)));
            }
            if d.m_hat.abs() < f32::MIN_POSITIVE / (2.0 * lr) {
                count(7, side(d.p, pow2(-75)));
            }
        });
    }
    let names = [
        "|g| ~ 2⁻⁵⁹",
        "|g| ~ 2⁻¹²³",
        "β₂v ~ 2⁻¹⁰¹",
        "β₁m ~ 2⁻¹⁰¹",
        "m ~ 2⁻¹²⁶",
        "v ~ 2⁻¹²⁶",
        "m̂ ~ T",
        "p ~ 2⁻⁷⁵",
    ];
    for (name, [below, above]) in names.iter().zip(reached) {
        assert!(below > 0 && above > 0, "{name}: {below} below, {above} at or above");
    }
}
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_pass_equals_two_pass_bit_for_bit(
        seed in any::<u64>(),
        shapes in shapes(),
        steps in 1usize..60,
    ) {
        new_equals_old_while_moments_stay_normal(seed, &shapes, steps);
    }

    #[test]
    fn dead_units_leave_no_subnormal_and_stay_within_the_bound(
        seed in any::<u64>(),
        shapes in shapes(),
        live in 1usize..20,
        dead in 900usize..1500,
    ) {
        flushed_state_stays_within_the_bound(seed, &shapes, live, dead);
    }

    #[test]
    fn skip_rules_equal_the_unskipped_loop_bit_for_bit(
        seed in any::<u64>(),
        shapes in shapes(),
        steps in 1usize..400,
        lr in 0usize..3,
        poison in any::<bool>(),
    ) {
        skipped_equals_unskipped(seed, &shapes, steps, LRS[lr], poison, |_, _| {});
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    #[ignore = "512 cases; CI's parallel-smoke job runs it with --include-ignored"]
    fn one_pass_equals_two_pass_bit_for_bit_512(
        seed in any::<u64>(),
        shapes in shapes(),
        steps in 1usize..60,
    ) {
        new_equals_old_while_moments_stay_normal(seed, &shapes, steps);
    }

    #[test]
    #[ignore = "512 cases; CI's parallel-smoke job runs it with --include-ignored"]
    fn dead_units_leave_no_subnormal_and_stay_within_the_bound_512(
        seed in any::<u64>(),
        shapes in shapes(),
        live in 1usize..20,
        dead in 900usize..1500,
    ) {
        flushed_state_stays_within_the_bound(seed, &shapes, live, dead);
    }

    #[test]
    #[ignore = "512 cases; CI's parallel-smoke job runs it with --include-ignored"]
    fn skip_rules_equal_the_unskipped_loop_bit_for_bit_512(
        seed in any::<u64>(),
        shapes in shapes(),
        steps in 1usize..400,
        lr in 0usize..3,
        poison in any::<bool>(),
    ) {
        skipped_equals_unskipped(seed, &shapes, steps, LRS[lr], poison, |_, _| {});
    }
}

/// The fact the flush exists for: under zero gradients the unflushed `m`
/// decays by 0.9 a step down to four ulps of the subnormal range and then
/// never moves again (`0.9 × 4` rounds back to 4), where the library's is
/// exactly zero — and the policy network's shape still agrees to the bit
/// on everything that was never flushed.
#[test]
fn the_unflushed_first_moment_sticks_at_four_ulps_for_good() {
    let (mut adam, mut ref_adam) = (Adam::new(LR), RefAdam::new(LR));
    let mut run = Run::new(11, &[(4, 100), (1, 100)]);
    run.step(&mut adam, &mut ref_adam, normal_grad);
    for _ in 0..5_000 {
        run.step(&mut adam, &mut ref_adam, |_, (r, c)| Matrix::zeros(r, c));
    }
    for slot in 0..2 {
        let (m, v) = adam.moments(slot).expect("stepped");
        assert!(m.as_slice().iter().all(|&x| x == 0.0), "slot {slot}: flushed m is exactly zero");
        assert!(zero_or_normal(v));
        let (ref_m, _) = ref_adam.moments(slot);
        for &x in ref_m.as_slice() {
            let ulps = x.to_bits() & 0x7fff_ffff;
            assert!((1..=4).contains(&ulps), "referee m = {x:e} ({ulps} ulps) is not stuck");
        }
    }
    // A weight of ordinary size never sees the difference.
    run.assert_params_equal("5 000 zero-gradient steps");
}
