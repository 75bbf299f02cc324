//! The one-pass, `Vec`-backed `Adam` and `RmsProp` against the two-pass,
//! `HashMap`-keyed ones they replaced (`reference/optim.rs`).
//!
//! Two regimes, and the flush ([`hec_tensor::math::flush_subnormal`], where
//! `Adam` stores `m` and `v`) is what tells them apart:
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
use reference::optim::{RefAdam, RefRmsProp};

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
