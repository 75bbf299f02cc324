//! `repro_ablation`: ablation studies (`hec_core::ablation`) — α
//! sensitivity, the reinforcement-comparison baseline, alternative bandit
//! solvers, and the Successive scheme's confidence rule.

use std::io::{self, Write};

use hec_bandit::{TrainConfig, TrainingCurve};
use hec_core::ablation::{
    alpha_sweep, baseline_ablation, confidence_sweep, solver_comparison, threshold_rule_ablation,
};
use hec_core::Experiment;

use crate::cli::{Cli, Spec};
use crate::{univariate_config, Profile};

/// The binary's command line: no argument.
pub const SPEC: Spec =
    Spec { bin: "repro_ablation", usage: "usage: repro_ablation\n", values: &[], switches: &[] };

/// Runs the binary, writing its stdout to `out`.
///
/// # Errors
///
/// A failed write to `out`.
pub fn run(profile: Profile, _cli: &Cli, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== repro_ablation (profile: {profile:?}) ==\n")?;

    let config = univariate_config(profile);
    let payload = config.payload_bytes();
    let alpha = config.dataset.kind().paper_alpha();
    let train = TrainConfig {
        epochs: config.policy.epochs,
        learning_rate: config.policy.learning_rate,
        ..Default::default()
    };
    let policy_hidden = config.policy_hidden;
    let mut exp = Experiment::prepare(config);
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let train_oracle = exp.oracle_over(&policy_corpus);
    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);
    let topo = exp.topology().clone();

    writeln!(out, "--- (1) alpha sensitivity (Eq. 1 cost parameter) ---")?;
    let alphas = [5e-5, 2e-4, 5e-4, 2e-3, 1e-2];
    for row in
        alpha_sweep(&train_oracle, &eval_oracle, &topo, payload, &alphas, policy_hidden, train)
    {
        writeln!(
            out,
            "  alpha={:<8.0e} acc={:>6.2}%  delay={:>7.2} ms  reward={:>6.2}  local={:.0}%",
            row.alpha,
            row.accuracy_pct,
            row.mean_delay_ms,
            row.reward,
            row.local_fraction * 100.0
        )?;
    }

    writeln!(out, "\n--- (2) reinforcement-comparison baseline vs plain REINFORCE ---")?;
    let ab = baseline_ablation(&train_oracle, &topo, payload, alpha, policy_hidden, train);
    let show = |out: &mut dyn Write, label: &str, curve: &TrainingCurve| {
        let c = &curve.mean_reward_per_epoch;
        let q = c.len() / 4;
        writeln!(
            out,
            "  {label:<18} epoch1={:.3}  e{}={:.3}  e{}={:.3}  final={:.3}",
            c[0],
            q.max(1),
            c[q.max(1) - 1],
            2 * q.max(1),
            c[(2 * q).max(1) - 1],
            curve.final_reward()
        )
    };
    show(out, "with baseline", &ab.with_baseline)?;
    show(out, "without baseline", &ab.without_baseline)?;

    writeln!(out, "\n--- (3) bandit solver comparison ---")?;
    for row in solver_comparison(&train_oracle, &topo, payload, alpha, train.epochs, 42) {
        writeln!(
            out,
            "  {:<16} online mean reward={:>6.3}  greedy acc={:>6.2}%  greedy delay={:>7.2} ms",
            row.solver, row.mean_reward, row.final_accuracy_pct, row.final_delay_ms
        )?;
    }

    writeln!(out, "\n--- (4) threshold-rule ablation (accuracy % per layer IoT/Edge/Cloud) ---")?;
    for row in threshold_rule_ablation(&eval_oracle) {
        writeln!(
            out,
            "  {:<14} {:>6.2}% / {:>6.2}% / {:>6.2}%",
            row.rule, row.accuracy_pct[0], row.accuracy_pct[1], row.accuracy_pct[2]
        )?;
    }

    writeln!(
        out,
        "\n--- (5) Successive confidence-rule sweep (paper: factor 2x, fraction 5%) ---"
    )?;
    for row in
        confidence_sweep(&eval_oracle, &topo, payload, alpha, &[1.5, 2.0, 3.0], &[0.02, 0.05, 0.10])
    {
        writeln!(
            out,
            "  factor={:<4} fraction={:<5} acc={:>6.2}%  f1={:.3}  delay={:>7.2} ms  local={:.0}%",
            row.factor,
            row.fraction,
            row.accuracy_pct,
            row.f1,
            row.mean_delay_ms,
            row.local_fraction * 100.0
        )?;
    }
    Ok(())
}
