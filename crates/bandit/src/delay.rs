//! The per-action end-to-end delay the static reward is priced at.
//!
//! The paper's reward `R(a, z_x) = accuracy − C(a, x)` needs the delay `t`
//! the chosen action pays. Offline, that is the unloaded per-layer table
//! (`HecTopology::end_to_end_ms`, Table II's `t_e2e` ladder):
//! [`StaticDelays`]. In the fleet the delay is the one each window was
//! observed to pay, and a shed window pays the drop penalty
//! ([`crate::RewardModel::reward_dropped`]) instead.

/// The load-independent per-action delay table (the paper's Table II
/// `t_e2e` ladder). Every window pays the same delay for a given action
/// and nothing is ever dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticDelays {
    per_action: Vec<f64>,
}

impl StaticDelays {
    /// Creates a table from per-action delays (index = action).
    ///
    /// # Panics
    ///
    /// Panics if `per_action` is empty or contains a non-finite or
    /// negative delay.
    pub fn new(per_action: Vec<f64>) -> Self {
        assert!(!per_action.is_empty(), "need at least one action delay");
        assert!(
            per_action.iter().all(|d| d.is_finite() && *d >= 0.0),
            "delays must be finite and non-negative: {per_action:?}"
        );
        Self { per_action }
    }

    /// Delay in ms for serving a window at `action`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn delay_ms(&self, action: usize) -> f64 {
        self.per_action[action]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_is_indexed_by_action() {
        let t = StaticDelays::new(vec![12.4, 257.43, 504.5]);
        assert_eq!(t.delay_ms(0), 12.4);
        assert_eq!(t.delay_ms(1), 257.43);
        assert_eq!(t.delay_ms(2), 504.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn static_table_rejects_negative() {
        let _ = StaticDelays::new(vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn static_table_rejects_empty() {
        let _ = StaticDelays::new(vec![]);
    }
}
