//! Fleet-in-the-loop training vs the paper's static training regime.
//!
//! Trains the adaptive policy two ways on the univariate pipeline —
//! **static** (the paper's regime: REINFORCE against the unloaded
//! per-action delay table) and **fleet** (inside the discrete-event
//! simulator: load-aware context features, rewards from observed
//! load-dependent delays, drops at the explicit penalty) — then evaluates
//! both closed-loop on all four named fleet scenarios in the
//! **shared-fleet** setting: each scenario's own cohorts replay their
//! mixture routing as background load (edge_saturated really does peg the
//! edge queue) while the policy routes a dedicated probe cohort through
//! the loaded hierarchy. The statically-trained policy cannot see the
//! congestion; the fleet-trained one carries live queue-depth features.
//!
//! Fleet training always runs on the scenario's **Quick-scale twin**:
//! the twin divides fleet size and virtual time by the same factor, so
//! offered-load rates — and therefore saturation behaviour and the load
//! features' distribution — match the evaluation scale by construction,
//! at 1/50 the training cost. Evaluation runs at the profile's scale
//! (`HEC_PROFILE=full` ⇒ 100k+ devices, ≥1M windows per scenario).
//!
//! Everything on stdout is deterministic — same profile ⇒ byte-identical
//! output across reruns and `HEC_THREADS` settings, which the CI smoke
//! job enforces by diffing two runs (timing goes to stderr).
//!
//! ```text
//! cargo run --release -p hec-bench --bin repro_fleet_train -- [out_dir] \
//!     [--layer0-exec-ms <ms>]
//! ```
//!
//! With `out_dir`, a `fleet_train.csv` comparison table is written there.
//!
//! `--layer0-exec-ms` replaces the paper's measured 12.4 ms layer-0
//! execution time everywhere delays are derived — the static delay table
//! the baseline policy trains against, the fleet scenarios' device-local
//! execution, and the shared layers' service times.
//! Pass the per-window latency `repro_quant` measures for the int8 path to
//! re-record the comparison with the cheaper layer 0. Output stays
//! deterministic for a fixed flag value (the default invocation is
//! byte-identical to the flagless binary).

use std::fmt::Write as _;
use std::time::Instant;

use hec_bandit::{RewardModel, TrainConfig};
use hec_bench::cli::Spec;
use hec_bench::{univariate_config, Profile};
use hec_core::stream::stream_through_fleet;
use hec_core::{train_policy_in_fleet, Experiment, SchemeKind};
use hec_sim::fleet::{FleetScale, FleetScenario};
use hec_sim::DatasetKind;

/// The named scenario plus the standard scheme-routed probe cohort
/// ([`hec_bench::push_probe_cohort`]): 20k devices (full scale) emitting
/// one window per minute through the scenario's background fleet.
/// Returns the scenario and the probe cohort's index.
fn with_probe_cohort(
    name: &str,
    scale: FleetScale,
    layer0_exec_ms: Option<f64>,
) -> (FleetScenario, u32) {
    let mut sc = FleetScenario::by_name(name, scale).expect("named scenario");
    sc.exec_ms_override[0] = layer0_exec_ms;
    let probe = hec_bench::push_probe_cohort(&mut sc, scale);
    (sc, probe)
}

/// Counting global allocator, so `AllocPhase` deltas recorded by the
/// instrumented library layers are real in this binary.
#[cfg(feature = "telemetry")]
#[global_allocator]
static GLOBAL_ALLOC: hec_telemetry::CountingAlloc = hec_telemetry::CountingAlloc;

fn main() {
    let cli = Spec {
        bin: "repro_fleet_train",
        usage: "usage: repro_fleet_train [out_dir] [--layer0-exec-ms <ms>] [--telemetry <dir>]\n",
        values: &["--layer0-exec-ms", "--telemetry"],
        switches: &[],
    }
    .parse();
    let out_dir = cli.positional();
    let layer0_exec_ms: Option<f64> = cli.value("--layer0-exec-ms");
    if let Some(ms) = layer0_exec_ms {
        if !(ms.is_finite() && ms > 0.0) {
            cli.fail("layer-0 exec override must be finite and > 0");
        }
    }
    hec_bench::telemetry::init("repro_fleet_train", cli.telemetry_dir());
    let profile = Profile::from_env();
    let eval_scale = profile.fleet_scale();
    println!("== repro_fleet_train (profile: {profile:?}) ==\n");
    if let Some(ms) = layer0_exec_ms {
        println!("layer-0 exec override: {ms} ms (int8 quantised inference path)\n");
    }

    // Shared pipeline: detectors, oracles, and the statically-trained
    // baseline policy (the paper's regime).
    let config = univariate_config(profile);
    let policy_hidden = config.policy_hidden;
    let policy_cfg = config.policy;
    // Fleet training always uses the quick-scale twin, so its depth does
    // not vary with the evaluation profile. Far more updates per epoch
    // than the static regime (every probe window, not every corpus
    // window) would saturate plain REINFORCE's softmax on the
    // on-average-best action before it discriminates per context; the
    // entropy bonus keeps the policy exploratory at the full learning
    // rate (this replaces the former ×0.25 learning-rate workaround).
    let fleet_epochs = 6usize;
    let fleet_entropy_beta = 0.08f32;
    let t0 = Instant::now();
    let mut exp = Experiment::prepare(config);
    if let Some(ms) = layer0_exec_ms {
        // The static regime trains against this topology's delay table, so
        // the baseline policy sees the quantised layer-0 cost too.
        exp.override_exec_ms(0, ms);
    }
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (mut static_policy, scaler, _static_curve) = exp.train_policy(&policy_oracle);
    let eval_corpus = exp.split.full.clone();
    let eval_oracle = exp.oracle_over(&eval_corpus);
    eprintln!("[timing] pipeline + static policy: {:.2} s", t0.elapsed().as_secs_f64());
    let reward = RewardModel::new(DatasetKind::Univariate.paper_alpha());
    println!(
        "pipeline: {} policy-training windows, {} evaluation windows, alpha = {}\n",
        policy_oracle.len(),
        eval_oracle.len(),
        reward.cost_model().alpha()
    );

    let mut csv = String::from(
        "scenario,policy,fleet_emitted,fleet_served,probe_missed,accuracy,f1,reward_x100,\
         routed_mean_ms,routed_p99_ms\n",
    );
    for name in FleetScenario::NAMES {
        // Train inside the scenario's quick-scale twin (same rates, same
        // saturation behaviour, 1/50 the cost).
        let (train_sc, train_probe) = with_probe_cohort(name, FleetScale::Quick, layer0_exec_ms);
        let t0 = Instant::now();
        let out = train_policy_in_fleet(
            &train_sc,
            &policy_oracle,
            &scaler,
            &reward,
            policy_hidden,
            TrainConfig { epochs: fleet_epochs, entropy_beta: fleet_entropy_beta, ..policy_cfg },
            Some(train_probe),
        );
        let train_wall = t0.elapsed().as_secs_f64();
        eprintln!("[timing] fleet-train {name}: {train_wall:.2} s");
        let curve = &out.curve.mean_reward_per_epoch;
        println!("scenario {name}:");
        println!(
            "  fleet training ({} epochs x {} probe windows): reward {:.4} -> {:.4}, \
             drops {} -> {}",
            fleet_epochs,
            train_sc.cohorts[train_probe as usize].total_windows(),
            curve[0],
            curve[curve.len() - 1],
            out.drops_per_epoch[0],
            out.drops_per_epoch[out.drops_per_epoch.len() - 1],
        );
        let mut fleet_policy = out.policy;

        // Closed-loop evaluation at the profile's scale.
        let (eval_sc, eval_probe) = with_probe_cohort(name, eval_scale, layer0_exec_ms);
        let t0 = Instant::now();
        let results = [
            (
                "static",
                stream_through_fleet(
                    &eval_sc,
                    &eval_oracle,
                    SchemeKind::Adaptive,
                    Some(&mut static_policy),
                    Some(&scaler),
                    &reward,
                    Some(eval_probe),
                ),
            ),
            (
                "fleet",
                stream_through_fleet(
                    &eval_sc,
                    &eval_oracle,
                    SchemeKind::Adaptive,
                    Some(&mut fleet_policy),
                    Some(&scaler),
                    &reward,
                    Some(eval_probe),
                ),
            ),
        ];
        let eval_wall = t0.elapsed().as_secs_f64();
        eprintln!("[timing] eval {name}: {eval_wall:.2} s");
        for (label, r) in &results {
            println!(
                "  {label:<7} acc={:.4} f1={:.4} reward={:<9.2} mean={:.2} ms p99={:.2} ms \
                 served={} missed={}",
                r.accuracy(),
                r.f1(),
                r.mean_reward_x100,
                r.routed_mean_ms,
                r.routed_p99_ms,
                r.confusion.total(),
                r.missed
            );
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{:.6},{:.6},{:.4},{:.3},{:.3}",
                name,
                label,
                r.fleet.emitted,
                r.fleet.served,
                r.missed,
                r.accuracy(),
                r.f1(),
                r.mean_reward_x100,
                r.routed_mean_ms,
                r.routed_p99_ms
            );
        }
        println!(
            "  delta reward (fleet - static): {:+.2}\n",
            results[1].1.mean_reward_x100 - results[0].1.mean_reward_x100
        );
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = format!("{dir}/fleet_train.csv");
        std::fs::write(&path, csv).expect("write comparison CSV");
        println!("wrote {path}");
    }

    hec_bench::telemetry::dump("repro_fleet_train", cli.telemetry_dir());
}
