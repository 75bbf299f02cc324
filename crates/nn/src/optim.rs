//! First-order optimizers.
//!
//! The paper trains the seq2seq models with **RMSProp** (§II-A2); SGD and Adam
//! are provided for the policy network and ablations. Optimizers keep
//! per-parameter state in a `Vec` indexed by a caller-supplied *slot*
//! (stable across steps because layers visit parameters in a fixed order;
//! slot 0 opens a step) and update state and parameter in **one pass** per
//! tensor.
//!
//! # No subnormal survives an update
//!
//! Adam stores both moments through [`hec_tensor::math::flush_subnormal`].
//! Without it a parameter whose gradient goes to exact zero — a ReLU unit
//! that stopped firing — has its `m` decay by β₁ a step into the subnormal
//! range and stick there for good (`0.9 × 4 ulp` rounds back to `4 ulp`),
//! and every later update pays a microcode assist per stuck element: the
//! in-fleet policy trainer went from 4.8 µs to 26 µs an update over 24 000
//! updates this way (EXPERIMENTS.md, PR 24). What the flush costs in
//! accuracy, against the unflushed update `tests/reference/optim.rs` keeps:
//!
//! * a flushed `m` is below `2⁻¹²⁶`, the denominator `√v̂ + ε` is at least
//!   `ε` and the bias correction `1 − β₁ᵗ` at least `1 − β₁`, so the step it
//!   would have contributed is below `lr · 2⁻¹²⁶ / (ε · (1 − β₁))` —
//!   `≈ 1.2 · 10⁻²⁹ · lr`, `10⁻³²` at `lr = 10⁻³`: under half an ulp of any
//!   weight above `≈ 10⁻²⁵`, which therefore keeps its bits. A smaller
//!   parameter (a bias still at zero) rounds each such step in, so over `N`
//!   steps it differs from the unflushed one by at most `2N` times that;
//! * a flushed `v` is below `2⁻¹²⁶`, so `√v̂` moves by less than
//!   `√(2⁻¹²⁶ / (1 − β₂)) ≈ 3.4 · 10⁻¹⁸` against `ε = 10⁻⁸`, whose half-ulp
//!   is `4.4 · 10⁻¹⁶`: the denominator keeps its bits.
//!
//! While no moment underflows the flush is the identity and every update is
//! the unflushed one bit for bit (`tests/optim_reference.rs`). RMSProp's
//! mean square is not flushed: a census of every benchmark workload found
//! none to flush (EXPERIMENTS.md, PR 24).
//!
//! # No underflowing product that cannot change a bit
//!
//! The flush keeps subnormals out of the *state*; the products of a step
//! can still underflow, and a vector instruction with one subnormal lane
//! pays the same assist. A saturated softmax feeds Adam many gradients far
//! below `2⁻⁵⁹` (≈ 18 % of the in-fleet policy's; EXPERIMENTS.md).
//! [`Adam::step`] replaces an operand by `+0` — a select, not a branch —
//! where that provably leaves every stored bit as it was; elsewhere the
//! product is computed as before. "Cannot change" below always means the
//! skipped term is under half an ulp of the larger addend, so the rounded
//! sum is that addend. With `Adam::new`'s `β₁ = 0.9`, `β₂ = 0.999`,
//! `ε = 10⁻⁸`, write `c₁ = fl(1 − β₁) < 2⁻³` and `c₂ = fl(1 − β₂) < 2⁻⁹`
//! (a unit test re-derives every bound from those three constants):
//!
//! * **second moment.** For `|g| < 2⁻⁵⁹`, `|fl(c₂·g)| ≤ 2⁻⁶⁸`, so
//!   `s = fl(fl(c₂·g)·g)` is `+0` or a positive subnormal `≤ 2⁻¹²⁷`. With
//!   `bv = fl(β₂·v)` either `+0` — the stored `flush(s)` is `+0` — or at
//!   least `2⁻¹⁰¹`, whose half-ulp `2⁻¹²⁵` exceeds `s`, the new `v` is
//!   `flush(bv)`: what `g = +0` in the product gives. Between the two
//!   (`0 < bv < 2⁻¹⁰¹`) the product is computed;
//! * **first moment.** For `|g| < 2⁻¹²³`, `|fl(c₁·g)| < 2⁻¹²⁶`: below the
//!   half-ulp of any `bm = fl(β₁·m)` with `|bm| ≥ 2⁻¹⁰¹`, so the new `m`
//!   is `bm`. Not when `bm = ±0`: there the flushed zero takes `g`'s sign;
//! * **parameter step.** With `T = fl(2⁻¹²⁶ / (2·lr))` and `|m̂| < T`,
//!   `|lr·m̂| < 2⁻¹²⁷(1 + 2⁻²⁴)`, which rounds to at most `2⁻¹²⁷`; the
//!   denominator `√v̂ + ε` is at least `ε > 2⁻²⁷`, so the step is at most
//!   `2⁻¹⁰⁰`, under the half-ulp `2⁻⁹⁹` of any `|p| ≥ 2⁻⁷⁵`. `m̂ = +0`
//!   steps by `+0` (or by the same NaN, if the denominator is one);
//! * **exact-one bias corrections.** Once `1 − β₁ᵗ` (from step 165) or
//!   `1 − β₂ᵗ` (from step 17 321) rounds to `1.0`, its division is
//!   skipped, a choice made once per tensor: `x / 1.0 == x` bit for bit,
//!   and `Adam::step` stops recomputing it: `1 − βᵗ` only moves toward 1,
//!   so it stays 1.0.
//!
//! NaN fails every `<`/`≥` above, so NaN operands are never replaced; `±∞`
//! moments and parameters propagate as before. `tests/optim_reference.rs`
//! holds the step to the unskipped one bit for bit on streams that straddle
//! every bound.

use hec_tensor::math::flush_subnormal;
use hec_tensor::Matrix;

/// `2^e` for a normal exponent `e`.
const fn pow2(e: i32) -> f32 {
    f32::from_bits(((127 + e) as u32) << 23)
}

/// Gradients below this leave `c₂·g·g` no bit to change (module docs).
const V_TINY_G: f32 = pow2(-59);
/// Gradients below this leave `c₁·g` no bit to change.
const M_TINY_G: f32 = pow2(-123);
/// A decayed moment at least this large absorbs either tiny product.
const MOMENT_ABSORBS: f32 = pow2(-101);
/// A parameter at least this large absorbs a step of at most `2⁻¹⁰⁰`.
const PARAM_ABSORBS: f32 = pow2(-75);

/// A stateful first-order optimizer.
///
/// `slot` identifies a parameter tensor; callers must pass the same slot for
/// the same tensor on every step, starting each step at slot 0 (see
/// [`Sequential::apply_gradients`](crate::Sequential::apply_gradients)).
pub trait Optimizer {
    /// Updates `param` in place given its gradient.
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix);
}

/// Slot `slot`'s state in `slots`, made by `init` the first time the slot
/// is seen (slots may arrive in any order).
fn slot_state<T>(slots: &mut Vec<Option<T>>, slot: usize, init: impl FnOnce() -> T) -> &mut T {
    if slot >= slots.len() {
        slots.resize_with(slot + 1, || None);
    }
    slots[slot].get_or_insert_with(init)
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, param: &mut Matrix, grad: &Matrix) {
        param.add_scaled(grad, -self.lr);
    }
}

/// RMSProp (Tieleman & Hinton) — the optimizer the paper uses for the
/// LSTM-seq2seq models.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    epsilon: f32,
    mean_sq: Vec<Option<Matrix>>,
}

impl RmsProp {
    /// RMSProp with the Keras defaults: `rho = 0.9`, `ε = 1e-7`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, decay: 0.9, epsilon: 1e-7, mean_sq: Vec::new() }
    }

    /// Slot `slot`'s running mean of squared gradients, once it has been
    /// stepped.
    pub fn mean_sq(&self, slot: usize) -> Option<&Matrix> {
        self.mean_sq.get(slot)?.as_ref()
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        let ms = slot_state(&mut self.mean_sq, slot, || Matrix::zeros(param.rows(), param.cols()));
        let (d, lr, eps) = (self.decay, self.lr, self.epsilon);
        for ((p, m), &g) in
            param.as_mut_slice().iter_mut().zip(ms.as_mut_slice()).zip(grad.as_slice())
        {
            // ms = ρ·ms + (1-ρ)·g²
            *m = d * *m + (1.0 - d) * g * g;
            *p -= lr * g / (m.sqrt() + eps);
        }
    }
}

/// Adam (Kingma & Ba) with bias correction; both moments are stored
/// subnormal-free (module docs).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    /// Steps opened so far: slot 0 opens one.
    t: u64,
    /// `(1 − β₁ᵗ, 1 − β₂ᵗ)` of the open step.
    bias: (f32, f32),
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl Adam {
    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        let (beta1, beta2) = (0.9, 0.999);
        // A slot stepped before slot 0 ever was is corrected as in step 1.
        let bias = (Self::bias_correction(beta1, 1), Self::bias_correction(beta2, 1));
        Self { lr, beta1, beta2, epsilon: 1e-8, t: 0, bias, moments: Vec::new() }
    }

    /// `1 − βᵗ`. The exponent saturates at `i32::MAX`, where the power has
    /// long underflowed to 0 and the correction is exactly 1 — as it is
    /// for every larger `t`.
    fn bias_correction(beta: f32, t: u64) -> f32 {
        1.0 - beta.powi(i32::try_from(t).unwrap_or(i32::MAX))
    }

    /// Slot `slot`'s first and second moment, once it has been stepped.
    pub fn moments(&self, slot: usize) -> Option<(&Matrix, &Matrix)> {
        self.moments.get(slot)?.as_ref().map(|(m, v)| (m, v))
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        // Slot 0 opens a step: the count and the corrections every slot of
        // the step shares advance here, once. (Counting per slot would be
        // more precise; per step is the common simplification and only
        // affects early bias correction.)
        if slot == 0 {
            self.t = self.t.saturating_add(1);
            // `1 − βᵗ` only moves toward 1: once a correction is exactly
            // 1.0 it stays there (β₁'s from step 165 on, β₂'s from 17 321).
            for (bias, beta) in [(&mut self.bias.0, self.beta1), (&mut self.bias.1, self.beta2)] {
                if *bias != 1.0 {
                    *bias = Self::bias_correction(beta, self.t);
                }
            }
        }
        let (m, v) = slot_state(&mut self.moments, slot, || {
            (Matrix::zeros(param.rows(), param.cols()), Matrix::zeros(param.rows(), param.cols()))
        });
        let hyper = (self.beta1, self.beta2, self.lr, self.epsilon);
        let (p, m, v, g) =
            (param.as_mut_slice(), m.as_mut_slice(), v.as_mut_slice(), grad.as_slice());
        match self.bias {
            (1.0, 1.0) => adam_pass(hyper, p, m, v, g, |m| m, |v| v),
            (1.0, bias2) => adam_pass(hyper, p, m, v, g, |m| m, |v| v / bias2),
            (bias1, bias2) => adam_pass(hyper, p, m, v, g, |m| m / bias1, |v| v / bias2),
        }
    }
}

/// One [`Adam::step`] over a tensor with `(β₁, β₂, lr, ε)`, the bias
/// corrections chosen once per tensor; each skip rule of the module docs
/// is a select on an operand.
#[inline(always)]
fn adam_pass(
    (b1, b2, lr, eps): (f32, f32, f32, f32),
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    unbias1: impl Fn(f32) -> f32,
    unbias2: impl Fn(f32) -> f32,
) {
    let (c1, c2) = (1.0 - b1, 1.0 - b2);
    // `T = fl(2⁻¹²⁶ / (2·lr))`: a smaller `|m̂|` steps by at most `2⁻¹⁰⁰`.
    let tiny_m_hat = f32::MIN_POSITIVE / (2.0 * lr);
    for (((p, mi), vi), &g) in p.iter_mut().zip(m).zip(v).zip(g) {
        let bm = b1 * *mi;
        let gm = if g.abs() < M_TINY_G && bm.abs() >= MOMENT_ABSORBS { 0.0 } else { g };
        *mi = flush_subnormal(bm + c1 * gm);
        let bv = b2 * *vi;
        let gv = if g.abs() < V_TINY_G && (bv == 0.0 || bv >= MOMENT_ABSORBS) { 0.0 } else { g };
        *vi = flush_subnormal(bv + c2 * gv * gv);
        let m_hat = unbias1(*mi);
        let m_hat = if m_hat.abs() < tiny_m_hat && p.abs() >= PARAM_ABSORBS { 0.0 } else { m_hat };
        *p -= lr * m_hat / (unbias2(*vi).sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(θ) = ‖θ − c‖² with each optimizer; all should converge.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Matrix::from_rows(&[&[3.0, -2.0]]);
        let mut theta = Matrix::zeros(1, 2);
        for _ in 0..steps {
            let grad = (&theta - &target).scale(2.0);
            opt.step(0, &mut theta, &grad);
        }
        (&theta - &target).frobenius_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run_quadratic(&mut Sgd::new(0.1), 100) < 1e-3);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        assert!(run_quadratic(&mut RmsProp::new(0.05), 500) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run_quadratic(&mut Adam::new(0.1), 500) < 1e-2);
    }

    #[test]
    fn rmsprop_adapts_per_coordinate() {
        // Coordinates with wildly different curvatures: RMSProp normalises.
        let mut opt = RmsProp::new(0.01);
        let mut theta = Matrix::from_rows(&[&[10.0, 10.0]]);
        for _ in 0..2000 {
            // f = 100·x² + 0.01·y²
            let grad = Matrix::from_rows(&[&[200.0 * theta[(0, 0)], 0.02 * theta[(0, 1)]]]);
            opt.step(0, &mut theta, &grad);
        }
        assert!(theta[(0, 0)].abs() < 0.1, "steep coord did not converge: {theta:?}");
        assert!(theta[(0, 1)].abs() < 5.0, "shallow coord made no progress: {theta:?}");
    }

    #[test]
    fn slots_have_independent_state() {
        let mut opt = RmsProp::new(0.01);
        let mut a = Matrix::ones(1, 1);
        let mut b = Matrix::ones(2, 2);
        let ga = Matrix::ones(1, 1);
        let gb = Matrix::ones(2, 2);
        opt.step(0, &mut a, &ga);
        opt.step(1, &mut b, &gb); // different shape in a different slot: fine
        assert!(a[(0, 0)] < 1.0 && b[(0, 0)] < 1.0);
    }

    /// `Adam::new()`'s `(1 − β₁ᵗ, 1 − β₂ᵗ)`.
    fn corrections(t: u64) -> (f32, f32) {
        (Adam::bias_correction(0.9, t), Adam::bias_correction(0.999, t))
    }

    /// The corrections a step shares are the two powers every slot used to
    /// recompute, and past `i32::MAX` — where an `as i32` exponent wrapped
    /// negative — they stay at the 1 they reached long before.
    #[test]
    fn adam_bias_corrections_match_powi_and_saturate_at_one() {
        for t in [1u64, 2, 10, 1_000, 100_000] {
            let expected = (1.0 - 0.9f32.powi(t as i32), 1.0 - 0.999f32.powi(t as i32));
            assert_eq!(corrections(t), expected, "t = {t}");
        }
        for t in [i32::MAX as u64, i32::MAX as u64 + 1, u64::MAX] {
            assert_eq!(corrections(t), (1.0, 1.0), "t = {t}");
        }
    }

    /// Across the steps where the corrections reach 1.0 — β₁'s at step
    /// 165, β₂'s at 17 321 — `Adam::step`'s kept pair is the recomputed one
    /// at every `t` from 1 to 40 000, and each correction is kept (not
    /// recomputed) from the step after it reached 1.0.
    #[test]
    fn adam_keeps_its_corrections_once_both_are_one() {
        assert_ne!(corrections(164).0, 1.0);
        assert_eq!(corrections(165).0, 1.0);
        assert_eq!(corrections(17_320).0, 1.0);
        assert_ne!(corrections(17_320).1, 1.0);
        let mut opt = Adam::new(1e-3);
        let (mut param, grad) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let (mut first_kept1, mut first_kept) = (None, None);
        for t in 1..=40_000 {
            if opt.bias.0 == 1.0 {
                first_kept1.get_or_insert(t);
            }
            if opt.bias == (1.0, 1.0) {
                first_kept.get_or_insert(t);
            }
            opt.step(0, &mut param, &grad);
            assert_eq!(opt.bias, corrections(t), "t = {t}");
        }
        assert_eq!((first_kept1, first_kept), (Some(166), Some(17_322)));
    }

    /// What keeping them relies on, for every step count the exponent
    /// takes: from step 17 321 on both corrections are exactly 1.0.
    #[test]
    #[ignore = "every step count up to i32::MAX: ≈ 11 minutes in a release build"]
    fn adam_corrections_stay_one_to_the_saturated_exponent() {
        for t in 17_321..=i32::MAX as u64 {
            assert_eq!(corrections(t), (1.0, 1.0), "t = {t}");
        }
    }

    /// The module docs' skip rules, re-derived in `f32` from the `β₁`, `β₂`
    /// and `ε` that `Adam::new` fixes: every product is monotone in its
    /// operand, so the largest skipped one is the one just below its bound.
    /// A constant changed without re-deriving the bounds fails here.
    #[test]
    fn skip_rule_bounds_follow_from_adams_constants() {
        let adam = Adam::new(1e-3);
        let (c1, c2, eps) = (1.0 - adam.beta1, 1.0 - adam.beta2, adam.epsilon);
        let below = |x: f32| f32::from_bits(x.to_bits() - 1);
        let half_ulp = |x: f32| (f32::from_bits(x.to_bits() + 1) - x) / 2.0;

        // Second moment: `+0` or subnormal, and absorbed by `β₂·v ≥ 2⁻¹⁰¹`.
        let g = below(V_TINY_G);
        let s = c2 * g * g;
        assert!(s <= f32::MIN_POSITIVE / 2.0, "c₂·g·g = {s:e}");
        assert!(s < half_ulp(MOMENT_ABSORBS), "c₂·g·g = {s:e}");
        // First moment: absorbed by `|β₁·m| ≥ 2⁻¹⁰¹`.
        let t = c1 * below(M_TINY_G);
        assert!(t < f32::MIN_POSITIVE && t < half_ulp(MOMENT_ABSORBS), "c₁·g = {t:e}");
        // Parameter step, at the least denominator: absorbed by `|p| ≥ 2⁻⁷⁵`.
        assert!(eps > pow2(-27) && half_ulp(PARAM_ABSORBS) == pow2(-99));
        for lr in [1e-5f32, 1e-3, 2e-3, 5e-3, 0.1, 3.0] {
            let step = lr * below(f32::MIN_POSITIVE / (2.0 * lr)) / eps;
            assert!(step <= pow2(-100), "lr = {lr}: step {step:e}");
        }
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn negative_lr_rejected() {
        let _ = Sgd::new(-0.1);
    }
}
