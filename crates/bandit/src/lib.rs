//! # hec-bandit
//!
//! The paper's core contribution (§II-B): adaptive model selection framed as
//! a **contextual bandit** characterised by a single-step Markov decision
//! process and solved with a REINFORCE **policy-gradient network**.
//!
//! * [`PolicyNetwork`] — the single-hidden-layer softmax network (100 hidden
//!   units, K = 3 outputs) mapping a context `z_x` to a categorical policy
//!   `π_θ(a | z_x)` over HEC layers;
//! * [`reward`] — the reward `R(a, z) = accuracy(x) − C(a, x)` with the
//!   delay-to-accuracy cost `C = α·t_e2e / (1 + α·t_e2e)` (Eq. 1);
//! * [`delay`] — the static per-action delay table ([`StaticDelays`]) the
//!   offline reward is priced at;
//! * [`train`] — REINFORCE with the **reinforcement comparison** baseline
//!   (Williams 1992) the paper uses to reduce reward variance;
//! * [`solvers`] — comparator bandit algorithms (ε-greedy, LinUCB) for the
//!   ablation benches, behind the common [`BanditSolver`] trait;
//! * [`context`] — context-vector scaling utilities.
//!
//! # Example
//!
//! ```rust
//! use hec_bandit::{PolicyNetwork, RewardModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut policy = PolicyNetwork::new(4, 100, 3, 0);
//! let ctx = [0.1, 0.9, 0.4, 0.2];
//! let probs = policy.probabilities(&ctx);
//! assert_eq!(probs.len(), 3);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
//!
//! let reward = RewardModel::new(0.0005);
//! // A correct detection at 12.4 ms is worth more than one at 504.5 ms.
//! assert!(reward.reward(true, 12.4) > reward.reward(true, 504.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod delay;
pub mod policy;
pub mod reward;
pub mod solvers;
pub mod train;

pub use context::{ContextScaler, LoadNormalizer};
pub use delay::StaticDelays;
pub use policy::PolicyNetwork;
pub use reward::{CostModel, RewardModel};
pub use solvers::{BanditSolver, EpsilonGreedy, LinUcb};
pub use train::{PolicyTrainer, TrainConfig, TrainingCurve};
