//! Ablation studies over the design choices the paper fixes without
//! measuring: the cost weight α, the reinforcement-comparison baseline, the
//! bandit solver, the confident-detection rule and the threshold rule.
//!
//! All ablations run against a frozen [`Oracle`], so they isolate the knob
//! under study from AD-model training variance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use hec_anomaly::{ConfidenceRule, ThresholdRule};
use hec_bandit::{
    BanditSolver, ContextScaler, EpsilonGreedy, LinUcb, PolicyNetwork, PolicyTrainer, RewardModel,
    TrainConfig, TrainingCurve,
};
use hec_data::BinaryConfusion;
use hec_sim::HecTopology;

use crate::experiment::static_delay_table;
use crate::oracle::Oracle;
use crate::parallel::parallel_map;
use crate::scheme::{SchemeEvaluator, SchemeKind};

/// One point of the α-sensitivity sweep (cost-parameter frontier).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaSweepRow {
    /// The cost parameter α under test.
    pub alpha: f64,
    /// Adaptive-scheme accuracy on the evaluation corpus, percent.
    pub accuracy_pct: f64,
    /// Adaptive-scheme mean delay, ms.
    pub mean_delay_ms: f64,
    /// Adaptive-scheme reward (×100).
    pub reward: f64,
    /// Fraction of windows kept on the IoT device.
    pub local_fraction: f64,
}

/// Sweeps α: larger α penalises delay harder, pushing the learned policy
/// toward lower layers — the accuracy/delay frontier of Eq. 1.
///
/// Each α trains and evaluates its own policy, so the sweep points run in
/// parallel on scoped threads (`HEC_THREADS` workers); row order follows
/// `alphas` regardless of thread count.
pub fn alpha_sweep(
    train_oracle: &Oracle,
    eval_oracle: &Oracle,
    topology: &HecTopology,
    payload_bytes: usize,
    alphas: &[f64],
    policy_hidden: usize,
    train: TrainConfig,
) -> Vec<AlphaSweepRow> {
    let scaler = ContextScaler::fit(train_oracle.contexts());
    let scaled = scaler.transform(train_oracle.contexts());
    let input_dim = scaled.cols();
    let delays = static_delay_table(topology, payload_bytes);

    parallel_map(alphas, |_, &alpha| {
        let reward = RewardModel::new(alpha);
        let policy = PolicyNetwork::new(input_dim, policy_hidden, 3, train.seed);
        let mut trainer = PolicyTrainer::new(policy, train);
        trainer.train_with_delays(
            &scaled,
            &mut |i, a| train_oracle.correct(i, a),
            &delays,
            &reward,
        );
        let mut policy = trainer.into_policy();

        let ev = SchemeEvaluator::new(topology, payload_bytes, reward);
        let result =
            ev.evaluate(SchemeKind::Adaptive, eval_oracle, Some(&mut policy), Some(&scaler));
        AlphaSweepRow {
            alpha,
            accuracy_pct: result.confusion.accuracy() * 100.0,
            mean_delay_ms: result.mean_delay_ms,
            reward: result.reward_x100.expect("adaptive always has a reward"),
            local_fraction: result.action_histogram[0] as f64 / eval_oracle.len().max(1) as f64,
        }
    })
}

/// Learning curves with and without the reinforcement-comparison baseline
/// (paper §II-B claims the baseline improves convergence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineAblation {
    /// Curve with the reinforcement-comparison baseline (the paper's choice).
    pub with_baseline: TrainingCurve,
    /// Curve for plain REINFORCE (advantage = raw reward).
    pub without_baseline: TrainingCurve,
}

/// Trains two identical policies, toggling only the baseline.
pub fn baseline_ablation(
    train_oracle: &Oracle,
    topology: &HecTopology,
    payload_bytes: usize,
    alpha: f64,
    policy_hidden: usize,
    train: TrainConfig,
) -> BaselineAblation {
    let scaler = ContextScaler::fit(train_oracle.contexts());
    let scaled = scaler.transform(train_oracle.contexts());
    let input_dim = scaled.cols();
    let reward = RewardModel::new(alpha);
    let delays = static_delay_table(topology, payload_bytes);

    let run = |use_baseline: bool| -> TrainingCurve {
        let config = TrainConfig { use_baseline, ..train };
        let policy = PolicyNetwork::new(input_dim, policy_hidden, 3, train.seed);
        let mut trainer = PolicyTrainer::new(policy, config);
        trainer.train_with_delays(&scaled, &mut |i, a| train_oracle.correct(i, a), &delays, &reward)
    };

    BaselineAblation { with_baseline: run(true), without_baseline: run(false) }
}

/// One bandit solver's online performance on the frozen oracle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverRow {
    /// Algorithm name.
    pub solver: String,
    /// Mean online reward over all pulls.
    pub mean_reward: f64,
    /// Accuracy of the final greedy policy on the same corpus, percent.
    pub final_accuracy_pct: f64,
    /// Mean delay of the final greedy policy, ms.
    pub final_delay_ms: f64,
}

/// Compares the paper's policy-gradient solver with ε-greedy and LinUCB on
/// identical contexts and rewards.
///
/// The three solvers are independent given the frozen oracle, so they train
/// on separate scoped threads (`HEC_THREADS` workers); row order is fixed
/// (ε-greedy, LinUCB, policy-gradient) regardless of thread count.
pub fn solver_comparison(
    oracle: &Oracle,
    topology: &HecTopology,
    payload_bytes: usize,
    alpha: f64,
    epochs: usize,
    seed: u64,
) -> Vec<SolverRow> {
    let scaler = ContextScaler::fit(oracle.contexts());
    let scaled = scaler.transform(oracle.contexts());
    let input_dim = scaled.cols();
    let reward = RewardModel::new(alpha);
    let delays = static_delay_table(topology, payload_bytes);
    let reward_of = |i: usize, a: usize| -> f32 {
        reward.reward(oracle.correct(i, a), delays.delay_ms(a)) as f32
    };

    // Classic solvers behind the common trait (each worker builds its own).
    let run_classic = |mut solver: Box<dyn BanditSolver>| -> SolverRow {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0f64;
        let mut pulls = 0usize;
        for _ in 0..epochs {
            for (i, ctx) in scaled.iter_rows().enumerate() {
                let arm = solver.select(ctx, &mut rng);
                let r = reward_of(i, arm);
                solver.update(ctx, arm, r);
                total += r as f64;
                pulls += 1;
            }
        }
        // Final greedy pass (no updates).
        let mut confusion = BinaryConfusion::new();
        let mut delay = 0.0f64;
        let mut greedy_rng = StdRng::seed_from_u64(seed ^ 0xFFFF);
        for (i, ctx) in scaled.iter_rows().enumerate() {
            let arm = solver.select(ctx, &mut greedy_rng);
            confusion.record(oracle.verdict(i, arm), oracle.outcomes[i].truth);
            delay += delays.delay_ms(arm);
        }
        SolverRow {
            solver: solver.name().to_owned(),
            mean_reward: total / pulls.max(1) as f64,
            final_accuracy_pct: confusion.accuracy() * 100.0,
            final_delay_ms: delay / scaled.rows() as f64,
        }
    };

    // The paper's policy-gradient solver.
    let run_policy_gradient = || -> SolverRow {
        let policy = PolicyNetwork::new(input_dim, 100, 3, seed);
        let mut trainer =
            PolicyTrainer::new(policy, TrainConfig { epochs, seed, ..Default::default() });
        let mut oracle_reward = |i: usize, a: usize| reward_of(i, a);
        let curve = trainer.train(&scaled, &mut oracle_reward);
        let mut policy = trainer.into_policy();
        let mut confusion = BinaryConfusion::new();
        let mut delay = 0.0f64;
        for (i, ctx) in scaled.iter_rows().enumerate() {
            let arm = policy.greedy(ctx);
            confusion.record(oracle.verdict(i, arm), oracle.outcomes[i].truth);
            delay += delays.delay_ms(arm);
        }
        let mean_reward = curve.mean_reward_per_epoch.iter().map(|&x| x as f64).sum::<f64>()
            / curve.mean_reward_per_epoch.len().max(1) as f64;
        SolverRow {
            solver: "policy-gradient".to_owned(),
            mean_reward,
            final_accuracy_pct: confusion.accuracy() * 100.0,
            final_delay_ms: delay / scaled.rows() as f64,
        }
    };

    parallel_map(&[0usize, 1, 2], |_, &task| match task {
        0 => run_classic(Box::new(EpsilonGreedy::new(3, 0.1))),
        1 => run_classic(Box::new(LinUcb::new(3, input_dim, 0.5))),
        _ => run_policy_gradient(),
    })
}

/// One point of the confidence-rule sweep for the Successive scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceRow {
    /// Condition (i) threshold multiplier.
    pub factor: f32,
    /// Condition (ii) anomalous-point fraction.
    pub fraction: f32,
    /// Successive-scheme accuracy, percent.
    pub accuracy_pct: f64,
    /// Successive-scheme F1.
    pub f1: f64,
    /// Successive-scheme mean delay, ms.
    pub mean_delay_ms: f64,
    /// Fraction of windows resolved at the IoT layer.
    pub local_fraction: f64,
}

/// Sweeps the paper's confident-detection rule (2×, 5 %) over a grid and
/// reports the Successive scheme's operating points.
///
/// Grid points are independent (each re-derives verdicts on its own oracle
/// clone), so they run in parallel on scoped threads (`HEC_THREADS`
/// workers); row order follows the `factors × fractions` grid.
pub fn confidence_sweep(
    oracle: &Oracle,
    topology: &HecTopology,
    payload_bytes: usize,
    alpha: f64,
    factors: &[f32],
    fractions: &[f32],
) -> Vec<ConfidenceRow> {
    let reward = RewardModel::new(alpha);
    let ev = SchemeEvaluator::new(topology, payload_bytes, reward);
    let grid: Vec<(f32, f32)> = factors
        .iter()
        .flat_map(|&factor| fractions.iter().map(move |&fraction| (factor, fraction)))
        .collect();
    parallel_map(&grid, |_, &(factor, fraction)| {
        let mut o = oracle.clone();
        o.confidence = ConfidenceRule { factor, fraction };
        let result = ev.evaluate(SchemeKind::Successive, &o, None, None);
        ConfidenceRow {
            factor,
            fraction,
            accuracy_pct: result.confusion.accuracy() * 100.0,
            f1: result.confusion.f1(),
            mean_delay_ms: result.mean_delay_ms,
            local_fraction: result.action_histogram[0] as f64 / o.len().max(1) as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use hec_sim::DatasetKind;
    use hec_tensor::Matrix;

    /// Synthetic oracle: layer 0 right on even windows, layer 2 always right.
    fn oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| {
                let truth = i % 4 == 0;
                let easy = i % 2 == 0;
                let verdict0 = if easy { truth } else { !truth };
                let frac = |v: bool| if v { 0.3f32 } else { 0.0 };
                WindowOutcome {
                    truth,
                    min_log_pd: [
                        if easy { -40.0 } else { -11.0 },
                        if easy { -40.0 } else { -11.0 },
                        if truth { -40.0 } else { -1.0 },
                    ],
                    anomalous_fraction: [frac(verdict0), frac(truth), frac(truth)],
                }
            })
            .collect();
        let contexts = (0..n).flat_map(|i| [(i % 2 == 0) as u8 as f32, (i % 4 == 0) as u8 as f32]);
        let contexts = Some(Matrix::from_vec(n, 2, contexts.collect()));
        Oracle { outcomes, contexts, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
    }

    fn quick_train() -> TrainConfig {
        TrainConfig { epochs: 25, learning_rate: 5e-3, ..Default::default() }
    }

    #[test]
    fn alpha_sweep_trades_delay_for_accuracy() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let o = oracle(200);
        let rows = alpha_sweep(&o, &o, &topo, 384, &[1e-5, 0.05], 32, quick_train());
        assert_eq!(rows.len(), 2);
        // A much larger α should push more traffic to the local layer
        // (or at least never pull it toward the cloud).
        assert!(
            rows[1].local_fraction >= rows[0].local_fraction,
            "α=0.05 local {} < α=1e-5 local {}",
            rows[1].local_fraction,
            rows[0].local_fraction
        );
        assert!(rows[1].mean_delay_ms <= rows[0].mean_delay_ms + 1e-9);
    }

    #[test]
    fn baseline_ablation_produces_two_curves() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let o = oracle(100);
        let ab = baseline_ablation(&o, &topo, 384, 0.0005, 32, quick_train());
        assert_eq!(
            ab.with_baseline.mean_reward_per_epoch.len(),
            ab.without_baseline.mean_reward_per_epoch.len()
        );
        // Both should end up learning something positive.
        assert!(ab.with_baseline.final_reward() > 0.0);
    }

    #[test]
    fn solver_comparison_reports_three_solvers() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let o = oracle(120);
        let rows = solver_comparison(&o, &topo, 384, 0.0005, 15, 3);
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows.iter().map(|r| r.solver.as_str()).collect();
        assert!(names.contains(&"epsilon-greedy"));
        assert!(names.contains(&"linucb"));
        assert!(names.contains(&"policy-gradient"));
        for r in &rows {
            assert!((0.0..=100.0).contains(&r.final_accuracy_pct), "{r:?}");
            assert!(r.final_delay_ms > 0.0);
        }
    }

    #[test]
    fn parallel_sweeps_match_serial() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let o = oracle(90);
        let run = |threads: usize| {
            crate::parallel::with_thread_count(threads, || {
                let conf =
                    confidence_sweep(&o, &topo, 384, 0.0005, &[1.5, 2.0, 2.5], &[0.02, 0.05]);
                let solvers = solver_comparison(&o, &topo, 384, 0.0005, 6, 3);
                (conf, solvers)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn confidence_sweep_covers_grid() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let o = oracle(80);
        let rows = confidence_sweep(&o, &topo, 384, 0.0005, &[1.5, 2.0], &[0.02, 0.05]);
        assert_eq!(rows.len(), 4);
        // A stricter factor (larger) keeps fewer windows local.
        let strict: Vec<&ConfidenceRow> =
            rows.iter().filter(|r| r.factor == 2.0 && r.fraction == 0.05).collect();
        assert_eq!(strict.len(), 1);
        assert!((0.0..=1.0).contains(&strict[0].local_fraction));
    }
}

/// One row of the threshold-rule ablation: how the paper's `Min` rule, a
/// quantile, the robust `µ−kσ` and the fixed-specificity `WindowFpr` rule
/// shift a single detector's operating point on the same scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// Human-readable rule label.
    pub rule: String,
    /// Per-layer accuracy (%) under the re-derived thresholds.
    pub accuracy_pct: [f64; 3],
}

/// Re-derives each layer's verdicts under different threshold rules using
/// the oracle's stored raw scores. Because the oracle keeps `min_log_pd`
/// per window, window-level rules can be re-evaluated without re-running
/// the models: the new threshold is applied to the stored minima.
pub fn threshold_rule_ablation(oracle: &Oracle) -> Vec<ThresholdRow> {
    let rules: Vec<(String, ThresholdRule)> = vec![
        ("min (paper)".into(), ThresholdRule::Min),
        ("quantile 1%".into(), ThresholdRule::Quantile(0.01)),
        ("mean-6sigma".into(), ThresholdRule::MeanMinusKSigma(6.0)),
        ("window-fpr 2%".into(), ThresholdRule::WindowFpr(0.02)),
    ];
    rules
        .into_iter()
        .map(|(label, rule)| {
            let mut accuracy = [0.0f64; 3];
            for (layer, acc) in accuracy.iter_mut().enumerate() {
                // Calibrate on the oracle's *normal* windows' minima, then
                // re-derive verdicts for everything.
                let normal_minima: Vec<f32> = oracle
                    .outcomes
                    .iter()
                    .filter(|o| !o.truth)
                    .map(|o| o.min_log_pd[layer])
                    .collect();
                if normal_minima.is_empty() {
                    continue;
                }
                let threshold = rule.threshold(&normal_minima);
                let correct = oracle
                    .outcomes
                    .iter()
                    .filter(|o| (o.min_log_pd[layer] < threshold) == o.truth)
                    .count();
                *acc = 100.0 * correct as f64 / oracle.len() as f64;
            }
            ThresholdRow { rule: label, accuracy_pct: accuracy }
        })
        .collect()
}

#[cfg(test)]
mod threshold_tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use hec_tensor::Matrix;

    #[test]
    fn threshold_ablation_covers_all_rules() {
        let outcomes = (0..50)
            .map(|i| {
                let truth = i % 5 == 0;
                WindowOutcome {
                    truth,
                    min_log_pd: [if truth { -30.0 } else { -3.0 - (i % 7) as f32 }; 3],
                    anomalous_fraction: [if truth { 0.2 } else { 0.0 }; 3],
                }
            })
            .collect();
        let oracle = Oracle {
            outcomes,
            contexts: Some(Matrix::zeros(50, 1)),
            thresholds: [-10.0; 3],
            confidence: ConfidenceRule::default(),
        };
        let rows = threshold_rule_ablation(&oracle);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            for layer in 0..3 {
                assert!((0.0..=100.0).contains(&row.accuracy_pct[layer]), "{row:?}");
            }
        }
        // With this cleanly-separated synthetic oracle, every rule should be
        // nearly perfect.
        let wfpr = rows.iter().find(|r| r.rule.starts_with("window-fpr")).unwrap();
        assert!(wfpr.accuracy_pct[0] > 90.0);
    }
}
