//! Reward and cost functions (§II-B, Eq. 1).

use serde::{Deserialize, Serialize};

/// Error for a cost query with an invalid (negative or non-finite) delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InvalidDelay;

impl std::fmt::Display for InvalidDelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delay must be a finite non-negative number of milliseconds")
    }
}

impl std::error::Error for InvalidDelay {}

/// The delay-to-accuracy cost `C(a, x) = α·t / (1 + α·t)` (Eq. 1):
/// a sigmoid-like map from end-to-end delay (ms) into `[0, 1)` so that
/// "a higher delay will result in a greater reduction of accuracy".
///
/// The paper selects `α = 0.0005` for the univariate dataset and
/// `α = 0.00035` for the multivariate dataset (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    alpha: f64,
}

impl CostModel {
    /// Creates a cost model with the given α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        Self { alpha }
    }

    /// The α parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The cost charged to a window that was dropped (never served):
    /// the supremum of `C(a, x)` as `t → ∞`. A drop is therefore strictly
    /// worse than *any* served outcome with the same correctness, however
    /// slow — exactly the ordering admission-control shedding deserves.
    pub const DROP_COST: f64 = 1.0;

    /// Cost of a detection that took `delay_ms` end-to-end.
    ///
    /// Negative and NaN delays clamp to the **worst** served cost
    /// ([`CostModel::DROP_COST`]): they always signal an upstream bug (a
    /// closed-loop observer can never legitimately produce them), and a
    /// release run must neither abort on one nor — worse — hand the
    /// broken arm the cheapest possible outcome for a trainer to
    /// reinforce. Use `CostModel::try_cost` to detect them instead.
    pub fn cost(&self, delay_ms: f64) -> f64 {
        self.try_cost(delay_ms).unwrap_or(Self::DROP_COST)
    }

    /// Checked cost: `Err(InvalidDelay)` for negative or NaN delays.
    pub(crate) fn try_cost(&self, delay_ms: f64) -> Result<f64, InvalidDelay> {
        if delay_ms.is_nan() || delay_ms < 0.0 {
            return Err(InvalidDelay);
        }
        if delay_ms.is_infinite() {
            return Ok(Self::DROP_COST); // the t → ∞ limit, not inf/inf = NaN
        }
        let at = self.alpha * delay_ms;
        Ok(at / (1.0 + at))
    }
}

/// The bandit reward `R(a, z_x) = accuracy(x) − C(a, x)` where `accuracy(x)`
/// is the per-sample correctness (1 if the selected model's verdict matches
/// the ground truth, else 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardModel {
    cost: CostModel,
}

impl RewardModel {
    /// Creates a reward model with the given cost α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive.
    pub fn new(alpha: f64) -> Self {
        Self { cost: CostModel::new(alpha) }
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Reward for a detection with per-sample correctness `correct` that
    /// took `delay_ms`.
    pub fn reward(&self, correct: bool, delay_ms: f64) -> f64 {
        let accuracy = if correct { 1.0 } else { 0.0 };
        accuracy - self.cost.cost(delay_ms)
    }

    /// Reward for a window that was dropped (never served): no verdict was
    /// produced, so the accuracy term is 0 and the delay term is the drop
    /// cost — `−`[`CostModel::DROP_COST`], strictly below every served
    /// outcome.
    pub fn reward_dropped(&self) -> f64 {
        -CostModel::DROP_COST
    }

    /// Aggregate "Reward" column of Table II: `100 × (mean accuracy − mean
    /// cost)` over a set of `(correct, delay)` pairs.
    ///
    /// Note: the paper's absolute reward scale is not reproducible from the
    /// stated formula (see EXPERIMENTS.md); this is our declared scale, used
    /// consistently across all schemes so the ranking is meaningful.
    pub fn aggregate_reward_x100(&self, outcomes: impl IntoIterator<Item = (bool, f64)>) -> f64 {
        let mut total = 0.0f64;
        let mut n = 0usize;
        for (correct, delay) in outcomes {
            total += self.reward(correct, delay);
            n += 1;
        }
        if n == 0 {
            return 0.0;
        }
        100.0 * total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_zero_at_zero_delay() {
        assert_eq!(CostModel::new(0.0005).cost(0.0), 0.0);
    }

    #[test]
    fn cost_monotone_in_delay() {
        let c = CostModel::new(0.0005);
        let mut prev = -1.0;
        for &t in &[1.0, 10.0, 100.0, 500.0, 5_000.0] {
            let cost = c.cost(t);
            assert!(cost > prev);
            prev = cost;
        }
    }

    #[test]
    fn cost_bounded_below_one() {
        let c = CostModel::new(0.0005);
        assert!(c.cost(1e12) < 1.0);
    }

    #[test]
    fn cost_known_values() {
        // α·t = 0.0005 × 504.5 = 0.25225 → C = 0.25225/1.25225 ≈ 0.20144.
        let c = CostModel::new(0.0005);
        assert!((c.cost(504.5) - 0.201_437).abs() < 1e-5);
        // Univariate IoT: α·t = 0.0062 → C ≈ 0.006162.
        assert!((c.cost(12.4) - 0.006_162).abs() < 1e-5);
    }

    #[test]
    fn reward_prefers_fast_correct() {
        let r = RewardModel::new(0.0005);
        assert!(r.reward(true, 12.4) > r.reward(true, 504.5));
        assert!(r.reward(true, 504.5) > r.reward(false, 12.4));
    }

    #[test]
    fn incorrect_far_reward_is_most_negative() {
        let r = RewardModel::new(0.0005);
        assert!(r.reward(false, 504.5) < r.reward(false, 12.4));
        assert!(r.reward(false, 504.5) < 0.0);
    }

    #[test]
    fn aggregate_scales_by_100() {
        let r = RewardModel::new(0.0005);
        let agg = r.aggregate_reward_x100([(true, 0.0), (true, 0.0)]);
        assert!((agg - 100.0).abs() < 1e-9);
        assert_eq!(r.aggregate_reward_x100([]), 0.0);
    }

    #[test]
    fn alpha_tradeoff_crossover() {
        // With a large α, a slow correct detection is worth less than a fast
        // incorrect one is penalised — the knob the paper tunes per dataset.
        let strict = RewardModel::new(0.01);
        let lax = RewardModel::new(1e-6);
        assert!(strict.reward(true, 500.0) < lax.reward(true, 500.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let _ = CostModel::new(0.0);
    }

    #[test]
    fn invalid_delays_clamp_but_are_detectable() {
        let c = CostModel::new(0.0005);
        // Release-safe clamp: negative/NaN pay the *worst* served cost
        // instead of aborting — an upstream bug must never look cheap.
        assert_eq!(c.cost(-5.0), CostModel::DROP_COST);
        assert_eq!(c.cost(f64::NAN), CostModel::DROP_COST);
        // The checked path surfaces them.
        assert_eq!(c.try_cost(-5.0), Err(InvalidDelay));
        assert_eq!(c.try_cost(f64::NAN), Err(InvalidDelay));
        assert_eq!(c.try_cost(12.4), Ok(c.cost(12.4)));
        // +∞ is the well-defined limit, not NaN.
        assert_eq!(c.try_cost(f64::INFINITY), Ok(CostModel::DROP_COST));
    }

    #[test]
    fn drop_reward_is_strictly_worse_than_any_served_outcome() {
        let r = RewardModel::new(0.0005);
        assert_eq!(r.reward_dropped(), -1.0);
        // Even an incorrect verdict after an absurd delay beats a drop.
        assert!(r.reward_dropped() < r.reward(false, 1e12));
        assert!(r.reward_dropped() < r.reward(true, 1e12));
    }
}
