//! Comparator bandit solvers for the ablation benches.
//!
//! The paper solves the contextual bandit with a policy-gradient network;
//! these are the standard alternatives we ablate against: context-free
//! **ε-greedy** and the linear-contextual **LinUCB** (Li et al., 2010).

use rand::Rng;

use hec_tensor::{vecops, Matrix};

/// A contextual (or context-free) bandit solver.
pub trait BanditSolver {
    /// Algorithm name for reports.
    fn name(&self) -> &str;

    /// Chooses an arm for the given context.
    fn select(&mut self, context: &[f32], rng: &mut dyn rand::RngCore) -> usize;

    /// Observes the reward of a pulled arm.
    fn update(&mut self, context: &[f32], arm: usize, reward: f32);
}

/// Context-free ε-greedy over sample-average arm values.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    epsilon: f32,
    counts: Vec<u64>,
    values: Vec<f32>,
}

impl EpsilonGreedy {
    /// Creates an ε-greedy solver with `arms` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms < 2` or `epsilon ∉ [0, 1]`.
    pub fn new(arms: usize, epsilon: f32) -> Self {
        assert!(arms >= 2, "need at least two arms");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        Self { epsilon, counts: vec![0; arms], values: vec![0.0; arms] }
    }

    /// Current sample-average value estimates.
    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

impl BanditSolver for EpsilonGreedy {
    fn name(&self) -> &str {
        "epsilon-greedy"
    }

    fn select(&mut self, _context: &[f32], rng: &mut dyn rand::RngCore) -> usize {
        if rng.gen::<f32>() < self.epsilon {
            rng.gen_range(0..self.values.len())
        } else {
            vecops::argmax(&self.values)
        }
    }

    fn update(&mut self, _context: &[f32], arm: usize, reward: f32) {
        assert!(arm < self.values.len(), "arm out of range");
        self.counts[arm] += 1;
        let n = self.counts[arm] as f32;
        self.values[arm] += (reward - self.values[arm]) / n;
    }
}

/// LinUCB (disjoint model): per-arm ridge regression with an upper
/// confidence bonus `α √(xᵀ A⁻¹ x)`. `A⁻¹` is maintained incrementally with
/// the Sherman–Morrison identity, so updates are O(d²).
pub struct LinUcb {
    alpha: f32,
    dim: usize,
    a_inv: Vec<Matrix>,
    b: Vec<Vec<f32>>,
}

impl LinUcb {
    /// Creates LinUCB with exploration width `alpha` over `dim`-dimensional
    /// contexts and `arms` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms < 2`, `dim == 0`, or `alpha < 0`.
    pub fn new(arms: usize, dim: usize, alpha: f32) -> Self {
        assert!(arms >= 2, "need at least two arms");
        assert!(dim > 0, "context dimension must be non-zero");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        Self {
            alpha,
            dim,
            a_inv: (0..arms).map(|_| Matrix::eye(dim)).collect(),
            b: vec![vec![0.0; dim]; arms],
        }
    }

    fn theta(&self, arm: usize) -> Vec<f32> {
        // θ = A⁻¹ b
        let ainv = &self.a_inv[arm];
        (0..self.dim).map(|i| vecops::dot(ainv.row(i), &self.b[arm])).collect()
    }

    /// UCB score of an arm for a context.
    fn score(&self, arm: usize, x: &[f32]) -> f32 {
        let theta = self.theta(arm);
        let mean = vecops::dot(&theta, x);
        let ainv = &self.a_inv[arm];
        let ax: Vec<f32> = (0..self.dim).map(|i| vecops::dot(ainv.row(i), x)).collect();
        let var = vecops::dot(x, &ax).max(0.0);
        mean + self.alpha * var.sqrt()
    }
}

impl BanditSolver for LinUcb {
    fn name(&self) -> &str {
        "linucb"
    }

    fn select(&mut self, context: &[f32], _rng: &mut dyn rand::RngCore) -> usize {
        assert_eq!(context.len(), self.dim, "context dimension mismatch");
        let scores: Vec<f32> = (0..self.a_inv.len()).map(|arm| self.score(arm, context)).collect();
        vecops::argmax(&scores)
    }

    fn update(&mut self, context: &[f32], arm: usize, reward: f32) {
        assert_eq!(context.len(), self.dim, "context dimension mismatch");
        assert!(arm < self.a_inv.len(), "arm out of range");
        // Sherman–Morrison: (A + xxᵀ)⁻¹ = A⁻¹ − (A⁻¹x xᵀA⁻¹)/(1 + xᵀA⁻¹x).
        let ainv = &self.a_inv[arm];
        let ax: Vec<f32> = (0..self.dim).map(|i| vecops::dot(ainv.row(i), context)).collect();
        let denom = 1.0 + vecops::dot(context, &ax);
        let mut new_ainv = ainv.clone();
        for i in 0..self.dim {
            for j in 0..self.dim {
                let delta = ax[i] * ax[j] / denom;
                new_ainv[(i, j)] -= delta;
            }
        }
        self.a_inv[arm] = new_ainv;
        for (bi, &xi) in self.b[arm].iter_mut().zip(context.iter()) {
            *bi += reward * xi;
        }
    }
}

impl std::fmt::Debug for LinUcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LinUcb(arms={}, dim={}, alpha={})", self.a_inv.len(), self.dim, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epsilon_greedy_finds_best_arm() {
        let mut solver = EpsilonGreedy::new(3, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        let true_means = [0.2f32, 0.8, 0.5];
        for _ in 0..2000 {
            let arm = solver.select(&[], &mut rng);
            let noise: f32 = rng.gen_range(-0.1..0.1);
            solver.update(&[], arm, true_means[arm] + noise);
        }
        assert_eq!(vecops::argmax(solver.values()), 1);
    }

    #[test]
    fn epsilon_zero_is_pure_greedy() {
        let mut solver = EpsilonGreedy::new(2, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        solver.update(&[], 0, 1.0);
        solver.update(&[], 1, 0.0);
        for _ in 0..50 {
            assert_eq!(solver.select(&[], &mut rng), 0);
        }
    }

    #[test]
    fn linucb_learns_context_dependent_arms() {
        // Arm 0 pays in context [1,0]; arm 1 pays in context [0,1].
        let mut solver = LinUcb::new(2, 2, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..600 {
            let ctx = if i % 2 == 0 { [1.0f32, 0.0] } else { [0.0, 1.0] };
            let arm = solver.select(&ctx, &mut rng);
            let reward = match (i % 2 == 0, arm) {
                (true, 0) | (false, 1) => 1.0,
                _ => 0.0,
            };
            solver.update(&ctx, arm, reward);
        }
        // Exploration bonus has decayed; choices should be context-correct.
        assert_eq!(solver.select(&[1.0, 0.0], &mut rng), 0);
        assert_eq!(solver.select(&[0.0, 1.0], &mut rng), 1);
    }

    #[test]
    fn linucb_sherman_morrison_matches_direct_inverse() {
        // After a handful of rank-1 updates, A⁻¹·A ≈ I.
        let mut solver = LinUcb::new(2, 3, 1.0);
        let contexts = [[1.0f32, 0.5, -0.2], [0.3, -1.0, 0.8], [-0.6, 0.1, 0.4], [0.9, 0.9, 0.9]];
        let mut a = Matrix::eye(3);
        for ctx in contexts {
            solver.update(&ctx, 0, 1.0);
            let x = Matrix::from_vec(3, 1, ctx.to_vec());
            let xxt = x.matmul(&x.transpose());
            a += &xxt;
        }
        let product = solver.a_inv[0].matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (product[(i, j)] - expected).abs() < 1e-3,
                    "A⁻¹A[{i}][{j}] = {}",
                    product[(i, j)]
                );
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EpsilonGreedy::new(2, 0.1).name(), "epsilon-greedy");
        assert_eq!(LinUcb::new(2, 2, 1.0).name(), "linucb");
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn bad_epsilon_rejected() {
        let _ = EpsilonGreedy::new(2, 1.5);
    }
}
