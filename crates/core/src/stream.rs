//! The demo result panel's streaming series (Fig. 3b) and the closed-loop
//! fleet streaming driver.
//!
//! The paper's GUI continuously plots, as windows stream in: the raw sensory
//! signal, the detection outcome (0/1) vs ground truth, the detection delay
//! vs the action chosen by the policy network, and the accumulated accuracy
//! and F1-score. This module regenerates exactly those series as data.
//!
//! [`stream_through_fleet`] goes further: it replays the evaluation corpus
//! from every device of a [`FleetScenario`] into the discrete-event fleet
//! simulator, with the scheme (in particular the trained bandit policy)
//! choosing each window's layer. The chosen action now changes *queueing* —
//! a policy that routes everything to the cloud saturates the cloud path
//! and pays load-dependent delay, which the per-window Fig. 3b replay
//! cannot express.
//!
//! It is one composition of the crate's closed loop (`closed_loop.rs`;
//! README, "The closed loop"): this module picks the router — the scheme's
//! [`scheme_action_table`], or for a **load-aware** Adaptive policy (input
//! `context + load features`, [`scenario_load_normalizer`]) a per-window
//! greedy forward pass on the live queue state — and records the
//! `stream.*` counters. The loop runs either router over the scenario's
//! own one-shard plan, optionally confined to a probe cohort, each event's
//! outcomes heard before the next. Scoring at the *observed* delay, the
//! drop penalty and the conservation checks are the loop's, shared with
//! [`crate::replay`]; the run is shared with [`crate::fleet_train`].

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use hec_bandit::{ContextScaler, LoadNormalizer, PolicyNetwork, RewardModel};
use hec_data::BinaryConfusion;
use hec_sim::fleet::{FleetReport, FleetScenario, JobEvent, RouteCtx};
use hec_tensor::Matrix;

use crate::closed_loop::{load_features, run_closed_loop, ClosedLoop, Scorecard};
use crate::oracle::Oracle;
use crate::scheme::{action_table, SchemeEvaluator, SchemeKind};

/// One row of the Fig. 3b panel: the state after processing window `index`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Stream position (window index).
    pub index: usize,
    /// Ground truth (1 = anomalous).
    pub truth: bool,
    /// The scheme's verdict.
    pub predicted: bool,
    /// Layer that served the window (the plotted "action").
    pub action: usize,
    /// End-to-end detection delay of this window, ms.
    pub delay_ms: f64,
    /// Accuracy accumulated over the stream so far.
    pub cumulative_accuracy: f64,
    /// F1-score accumulated over the stream so far.
    pub cumulative_f1: f64,
}

/// Replays the evaluation corpus as a stream under the given scheme,
/// producing the Fig. 3b series.
///
/// `policy`/`scaler` are required only for [`SchemeKind::Adaptive`].
///
/// # Panics
///
/// Panics if `Adaptive` is requested without a policy and scaler.
pub fn stream_records(
    evaluator: &SchemeEvaluator<'_>,
    oracle: &Oracle,
    kind: SchemeKind,
    policy: Option<&mut PolicyNetwork>,
    scaler: Option<&ContextScaler>,
) -> Vec<StreamRecord> {
    let mut confusion = BinaryConfusion::new();
    let mut records = Vec::with_capacity(oracle.len());
    for (i, outcome) in evaluator.outcomes(kind, oracle, policy, scaler).into_iter().enumerate() {
        let truth = oracle.outcomes[i].truth;
        confusion.record(outcome.verdict, truth);
        records.push(StreamRecord {
            index: i,
            truth,
            predicted: outcome.verdict,
            action: outcome.final_layer,
            delay_ms: outcome.delay_ms,
            cumulative_accuracy: confusion.accuracy(),
            cumulative_f1: confusion.f1(),
        });
    }
    records
}

/// Renders stream records as CSV (header + one line per window), the format
/// the `repro_fig3` bench binary writes.
pub fn to_csv(records: &[StreamRecord]) -> String {
    let mut out =
        String::from("index,truth,predicted,action,delay_ms,cumulative_accuracy,cumulative_f1\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.6},{:.6}\n",
            r.index,
            r.truth as u8,
            r.predicted as u8,
            r.action,
            r.delay_ms,
            r.cumulative_accuracy,
            r.cumulative_f1
        ));
    }
    out
}

/// Per-layer drop accounting for one fleet stream: how many windows a
/// layer shed, split by cause. Covers **every** dropped window of the run
/// (background cohorts included), unlike `missed`, which counts only the
/// scheme-routed ones — the "silent drop" blind spot this breakdown
/// closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropBreakdown {
    /// Layer index (0 = IoT).
    pub layer: usize,
    /// Windows dropped at the layer's compute queue (or device backlog).
    pub queue: u64,
    /// Windows dropped at the layer's uplink admission bound.
    pub link: u64,
}

/// Result of streaming the corpus through the fleet under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStreamResult {
    /// Which scheme routed the windows.
    pub scheme: SchemeKind,
    /// The fleet simulation's load report (utilization, queue traces,
    /// drops, load-dependent latency distributions per layer).
    pub fleet: FleetReport,
    /// Detection confusion over the *served* windows (each window's
    /// verdict comes from the oracle at the layer that served it).
    pub confusion: BinaryConfusion,
    /// Windows shed by admission control before any model saw them.
    pub missed: u64,
    /// Drop-by-layer / drop-by-cause breakdown over the whole run. Sums
    /// to `fleet.dropped` (asserted — conservation is
    /// `emitted == served + dropped`), and is mirrored into the telemetry
    /// registry as `stream.drops{scheme,layer,cause}` counters.
    pub drops: Vec<DropBreakdown>,
    /// `100 × mean(accuracy − cost)` over **all scheme-routed windows**,
    /// with each served window's cost charged at its *observed*
    /// load-dependent delay and each shed window paying the drop penalty
    /// (`hec_bandit::CostModel::DROP_COST`). Directly comparable to the
    /// static Table II reward column — except this one cannot be gamed by
    /// routing everything into a saturated queue.
    pub mean_reward_x100: f64,
    /// Mean latency over the scheme-routed *served* windows (equals the
    /// fleet's overall mean when the scheme routes every cohort).
    pub routed_mean_ms: f64,
    /// 99th-percentile latency over the scheme-routed served windows.
    pub routed_p99_ms: f64,
}

impl FleetStreamResult {
    /// Accuracy over served windows.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// F1 over served windows.
    pub fn f1(&self) -> f64 {
        self.confusion.f1()
    }
}

/// The load-feature normaliser matching a scenario's admission bounds.
/// Shared-layer queue features cap at the queue capacity and link
/// features at the link admission bound — absolute quantities that the
/// Quick/Full scale twins share, so those features are scale-free as-is.
/// Layer 0's raw gauge counts concurrently-busy devices and grows with
/// fleet size, so it is rescaled to **per-mille of the fleet** before
/// the ramp: a policy trained on the 1/50 Quick twin sees the same
/// layer-0 feature for the same relative occupancy it will meet at Full
/// scale. Policies trained in a scenario's fleet and routers evaluating
/// them must use this same normaliser.
pub fn scenario_load_normalizer(scenario: &FleetScenario) -> LoadNormalizer {
    let k = scenario.topology().num_layers();
    let queue_caps: Vec<f64> = (0..k)
        .map(|l| if l == 0 { 1000.0 } else { scenario.queue_capacity.max(1) as f64 })
        .collect();
    let link_caps = vec![scenario.link_max_inflight.max(1) as f64; k];
    let mut queue_scale = vec![1.0; k];
    queue_scale[0] = 1000.0 / scenario.total_devices().max(1) as f64;
    LoadNormalizer::new(queue_caps, link_caps).with_queue_scale(queue_scale)
}

/// Precomputes the per-oracle-window routing table for a scheme on
/// `scenario`'s hierarchy — the stateless (`Fn + Sync`-able) half of
/// scheme routing. It is the scheme module's one action table, the same
/// [`SchemeEvaluator::evaluate`] and [`stream_records`] read, so
/// [`stream_through_fleet`]'s table mode, the sharded [`crate::replay`]
/// driver and Table II can never diverge on what a scheme does.
///
/// `policy`/`scaler` are required for [`SchemeKind::Adaptive`] and the
/// policy must be **static** (`input_dim == scaler.dim()`): a load-aware
/// policy's action depends on live queue state and has no precomputable
/// table — route it through [`stream_through_fleet`].
///
/// # Panics
///
/// Panics if `Adaptive` is requested without a policy and scaler, or
/// with a policy whose input dimension is not the scaler's.
pub fn scheme_action_table(
    scenario: &FleetScenario,
    oracle: &Oracle,
    kind: SchemeKind,
    policy: Option<&mut PolicyNetwork>,
    scaler: Option<&ContextScaler>,
) -> Vec<usize> {
    action_table(scenario.topology().num_layers(), oracle, kind, policy, scaler)
}

/// How a scheme picks each emitted window's layer.
enum SchemeRouter<'a> {
    /// Per-oracle-window precomputed actions ([`scheme_action_table`]): a
    /// table lookup on the hot path (fixed schemes, Successive, and the
    /// static Adaptive policy).
    Table(&'a [usize]),
    /// A load-aware policy runs greedily per window on [`load_features`] —
    /// the action genuinely depends on the queues the earlier actions
    /// built up.
    LoadAware {
        policy: &'a mut PolicyNetwork,
        base: Matrix,
        norm: LoadNormalizer,
        scratch: Vec<f32>,
    },
}

/// An evaluation run as a closed loop: a scheme routes, and what comes
/// back is scored.
struct Evaluation<'a> {
    router: SchemeRouter<'a>,
    score: Scorecard<'a>,
}

impl ClosedLoop for Evaluation<'_> {
    fn route(&mut self, ctx: &RouteCtx<'_>, i: usize) -> usize {
        match &mut self.router {
            SchemeRouter::Table(actions) => actions[i],
            SchemeRouter::LoadAware { policy, base, norm, scratch } => {
                load_features(base.row(i), norm, ctx, scratch);
                policy.greedy(scratch)
            }
        }
    }

    fn hear(&mut self, ev: &JobEvent, scored: Option<(usize, f64)>) {
        self.score.record(ev, scored);
    }
}

/// Streams the corpus through the discrete-event fleet simulator under a
/// scheme: every scheme-routed window maps to an oracle window (in
/// emission order, round-robin over the corpus), the scheme chooses its
/// layer, the fleet sim charges the load-dependent delay, and the layer's
/// frozen detector verdict is scored against ground truth. Each
/// scheme-routed window's reward is scored under `reward` with the
/// observed delay (drops pay the drop penalty).
///
/// `probe_cohort` selects *which* windows the scheme routes:
///
/// * `None` — the scheme routes **every** cohort's windows (the
///   scenario's own routing plans are ignored);
/// * `Some(c)` — only cohort `c`'s windows are scheme-routed and scored;
///   the other cohorts keep their scenario routing plans and act as
///   **background load**. This is the shared-fleet setting: the adaptive
///   scheme must live with (and route around) congestion it does not
///   control — e.g. a probe cohort inside `edge_saturated`'s pegged edge
///   queue.
///
/// For [`SchemeKind::Successive`] each window is routed to the layer
/// where the escalation would stop (the intermediate hops' delays are not
/// modelled — only the serving layer's queueing is).
/// [`SchemeKind::Adaptive`] accepts two kinds of policy, told apart by
/// input dimensionality:
///
/// * **static** (`input_dim == scaler.dim()`): greedy actions are
///   precomputed in one batched forward pass, as a routing table;
/// * **load-aware** (`input_dim == scaler.dim() + load dims` from
///   [`scenario_load_normalizer`]): routed per window on the live queue
///   state — the router the fleet-trained policy needs.
///
/// Deterministic: same scenario + oracle + policy ⇒ an identical
/// [`FleetStreamResult`], regardless of `HEC_THREADS`.
///
/// # Panics
///
/// Panics if the oracle is empty, `probe_cohort` is out of range,
/// `Adaptive` is requested without a policy and scaler, or the policy's
/// input dimension matches neither routing mode.
pub fn stream_through_fleet(
    scenario: &FleetScenario,
    oracle: &Oracle,
    kind: SchemeKind,
    policy: Option<&mut PolicyNetwork>,
    scaler: Option<&ContextScaler>,
    reward: &RewardModel,
    probe_cohort: Option<u32>,
) -> FleetStreamResult {
    assert!(!oracle.is_empty(), "cannot stream an empty oracle corpus");
    let norm = scenario_load_normalizer(scenario);
    let table;
    let router = match (kind, policy, scaler) {
        (SchemeKind::Adaptive, Some(p), Some(s)) if p.input_dim() == s.dim() + norm.dims() => {
            let base = s.transform(oracle.contexts());
            SchemeRouter::LoadAware { policy: p, base, norm, scratch: Vec::new() }
        }
        // Everything else has a table (a policy of any other dimension is
        // rejected there).
        (_, p, _) => {
            table = scheme_action_table(scenario, oracle, kind, p, scaler);
            SchemeRouter::Table(&table)
        }
    };
    let score = Scorecard::new(oracle, scenario.topology().num_layers());
    let mut lp = Evaluation { router, score };
    let fleet = run_closed_loop(scenario, probe_cohort, oracle, reward, &mut lp, |e| e.report());
    let result = lp.score.finish(kind, fleet);
    if hec_telemetry::ENABLED {
        let scheme = kind.to_string();
        for d in &result.drops {
            let layer = d.layer.to_string();
            for (cause, n) in [("queue_full", d.queue), ("link_saturated", d.link)] {
                if n > 0 {
                    let labels = [("cause", cause), ("layer", &layer), ("scheme", &scheme)];
                    hec_telemetry::counter_add("stream.drops", &labels, n);
                }
            }
        }
        let routed = result.confusion.total() as u64 + result.missed;
        hec_telemetry::counter_add("stream.missed", &[("scheme", &scheme)], result.missed);
        hec_telemetry::counter_add("stream.routed", &[("scheme", &scheme)], routed);
    }
    result
}

/// Renders per-scheme fleet streaming results as CSV: one row per scheme
/// with detection quality next to the load-dependent latency figures.
pub fn fleet_stream_csv(results: &[FleetStreamResult]) -> String {
    let mut out = String::from(
        "scheme,emitted,served,missed,accuracy,f1,reward_x100,routed_mean_ms,routed_p99_ms,\
         mean_ms,p50_ms,p99_ms,iot_util,edge_util,cloud_util,edge_drop_rate,cloud_drop_rate\n",
    );
    for r in results {
        let layer = |l: usize| &r.fleet.layers[l];
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6},{:.6},{:.6},{:.6}",
            r.scheme,
            r.fleet.emitted,
            r.fleet.served,
            r.missed,
            r.accuracy(),
            r.f1(),
            r.mean_reward_x100,
            r.routed_mean_ms,
            r.routed_p99_ms,
            r.fleet.overall_mean_ms,
            r.fleet.overall_p50_ms,
            r.fleet.overall_p99_ms,
            layer(0).utilization,
            layer(1).utilization,
            layer(2).utilization,
            layer(1).drop_rate,
            layer(2).drop_rate,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use hec_anomaly::ConfidenceRule;
    use hec_bandit::RewardModel;
    use hec_sim::{DatasetKind, HecTopology};

    fn oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| {
                let truth = i % 3 == 0;
                WindowOutcome {
                    truth,
                    min_log_pd: [-5.0, -5.0, if truth { -60.0 } else { -1.0 }],
                    anomalous_fraction: [
                        0.0,
                        if truth && i % 2 == 0 { 0.4 } else { 0.0 },
                        if truth { 0.4 } else { 0.0 },
                    ],
                }
            })
            .collect();
        let contexts = (n > 0).then(|| Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect()));
        Oracle { outcomes, contexts, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
    }

    #[test]
    fn stream_length_matches_corpus() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));
        let o = oracle(30);
        let records = stream_records(&ev, &o, SchemeKind::Cloud, None, None);
        assert_eq!(records.len(), 30);
        assert!(records.iter().enumerate().all(|(i, r)| r.index == i));
    }

    #[test]
    fn cumulative_accuracy_is_monotone_series_of_running_mean() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));
        let o = oracle(30);
        let records = stream_records(&ev, &o, SchemeKind::Cloud, None, None);
        // Cloud is always correct in this synthetic oracle.
        let last = records.last().unwrap();
        assert_eq!(last.cumulative_accuracy, 1.0);
        assert_eq!(last.cumulative_f1, 1.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));
        let o = oracle(5);
        let csv = to_csv(&stream_records(&ev, &o, SchemeKind::IoTDevice, None, None));
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("index,truth"));
    }

    #[test]
    fn iot_stream_has_constant_low_delay() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));
        let o = oracle(10);
        let records = stream_records(&ev, &o, SchemeKind::IoTDevice, None, None);
        assert!(records.iter().all(|r| (r.delay_ms - 12.4).abs() < 1e-9));
        assert!(records.iter().all(|r| r.action == 0));
    }

    /// The cumulative accuracy/F1 at every stream position must equal the
    /// metrics recomputed from scratch over the prefix of (predicted,
    /// truth) pairs — the running confusion may never drift.
    #[test]
    fn cumulative_accounting_matches_prefix_recomputation() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let ev = SchemeEvaluator::new(&topo, 384, RewardModel::new(0.0005));
        let o = oracle(50);
        // IoT misses every true anomaly in this oracle (mixed verdicts);
        // Cloud gets everything right — check the accounting on both.
        for kind in [SchemeKind::IoTDevice, SchemeKind::Cloud] {
            let records = stream_records(&ev, &o, kind, None, None);
            for (i, r) in records.iter().enumerate() {
                let prefix = BinaryConfusion::from_predictions(
                    records[..=i].iter().map(|p| (p.predicted, p.truth)),
                );
                assert_eq!(r.cumulative_accuracy, prefix.accuracy(), "accuracy drift at {i}");
                assert_eq!(r.cumulative_f1, prefix.f1(), "f1 drift at {i}");
            }
        }
        // The IoT series genuinely varies (neither all-correct nor all-wrong).
        let last = *stream_records(&ev, &o, SchemeKind::IoTDevice, None, None).last().unwrap();
        assert!(last.cumulative_accuracy > 0.0 && last.cumulative_accuracy < 1.0);
    }

    /// A tiny fleet scenario for driver tests: `devices` devices, 10
    /// windows each, one window per `period_ms`.
    fn fleet_scenario(devices: u32, period_ms: f64) -> FleetScenario {
        use hec_sim::fleet::{CohortSpec, FleetScale, RoutePlan};
        let mut sc = FleetScenario::light_load(FleetScale::Quick);
        sc.name = "driver_test".into();
        sc.trace_interval_ms = 10.0;
        // RoutePlan is overridden by the scheme router.
        sc.cohorts = vec![CohortSpec::uniform(devices, 10, period_ms, 0.0, RoutePlan::Fixed(0))];
        sc
    }

    fn rm() -> RewardModel {
        RewardModel::new(0.0005)
    }

    #[test]
    fn fleet_stream_unloaded_cloud_matches_table2() {
        let sc = fleet_scenario(5, 10_000.0);
        let o = oracle(30);
        let r = stream_through_fleet(&sc, &o, SchemeKind::Cloud, None, None, &rm(), None);
        assert_eq!(r.fleet.served, 50);
        assert_eq!(r.missed, 0);
        assert!((r.fleet.layers[2].mean_ms - 504.5).abs() < 1e-9);
        // Cloud verdicts are always correct in this synthetic oracle.
        assert_eq!(r.accuracy(), 1.0);
        assert_eq!(r.f1(), 1.0);
        // Unloaded cloud reward matches the static table exactly:
        // 100 × (1 − C(504.5)).
        let expected = 100.0 * rm().reward(true, 504.5);
        assert!((r.mean_reward_x100 - expected).abs() < 1e-9, "{}", r.mean_reward_x100);
    }

    #[test]
    fn fleet_stream_load_changes_the_delay_of_the_same_action() {
        // Same scheme, same corpus — a 100× faster fleet must pay more
        // per window at the edge than the slow fleet (queueing).
        let o = oracle(30);
        let slow = stream_through_fleet(
            &fleet_scenario(10, 10_000.0),
            &o,
            SchemeKind::Edge,
            None,
            None,
            &rm(),
            None,
        );
        let mut fast_sc = fleet_scenario(200, 4.0);
        fast_sc.batch_max = 1;
        let fast = stream_through_fleet(&fast_sc, &o, SchemeKind::Edge, None, None, &rm(), None);
        assert!(
            fast.fleet.layers[1].p99_ms > slow.fleet.layers[1].p99_ms + 50.0,
            "fast p99 {} vs slow p99 {}",
            fast.fleet.layers[1].p99_ms,
            slow.fleet.layers[1].p99_ms
        );
        // The observed-delay reward must fall with the load even though
        // the static table would call both runs identical.
        assert!(
            fast.mean_reward_x100 < slow.mean_reward_x100,
            "fast {} vs slow {}",
            fast.mean_reward_x100,
            slow.mean_reward_x100
        );
    }

    #[test]
    fn fleet_stream_adaptive_routes_by_policy_and_is_thread_invariant() {
        let o = oracle(60);
        let scaler = hec_bandit::ContextScaler::fit(o.contexts());
        let mut policy = PolicyNetwork::new(1, 8, 3, 0);
        let sc = fleet_scenario(20, 50.0);

        let mut run = |threads: usize| {
            crate::parallel::with_thread_count(threads, || {
                stream_through_fleet(
                    &sc,
                    &o,
                    SchemeKind::Adaptive,
                    Some(&mut policy),
                    Some(&scaler),
                    &rm(),
                    None,
                )
            })
        };
        let serial = run(1);
        let parallel = run(2);
        assert_eq!(serial, parallel, "fleet stream must not depend on HEC_THREADS");
        assert_eq!(serial.fleet.served + serial.missed, serial.fleet.emitted);
    }

    /// A load-aware policy (input = base context + load features) must be
    /// routed per window on the live queue state, deterministically.
    #[test]
    fn fleet_stream_routes_load_aware_policies() {
        let o = oracle(60);
        let scaler = hec_bandit::ContextScaler::fit(o.contexts());
        let sc = fleet_scenario(20, 50.0);
        let norm = scenario_load_normalizer(&sc);
        let mut policy = PolicyNetwork::new(scaler.dim() + norm.dims(), 8, 3, 0);

        let a = stream_through_fleet(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &rm(),
            None,
        );
        let b = stream_through_fleet(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &rm(),
            None,
        );
        assert_eq!(a, b, "load-aware routing must be deterministic");
        assert_eq!(a.fleet.served + a.missed, a.fleet.emitted);
    }

    #[test]
    #[should_panic(expected = "matches neither")]
    fn fleet_stream_rejects_mismatched_policy_dims() {
        let o = oracle(10);
        let scaler = hec_bandit::ContextScaler::fit(o.contexts());
        let sc = fleet_scenario(5, 1_000.0);
        let mut policy = PolicyNetwork::new(scaler.dim() + 1, 8, 3, 0);
        let _ = stream_through_fleet(
            &sc,
            &o,
            SchemeKind::Adaptive,
            Some(&mut policy),
            Some(&scaler),
            &rm(),
            None,
        );
    }

    /// Dropped windows must show up in the reward as the explicit drop
    /// penalty: a saturated run's mean reward sits below what its served
    /// windows alone would suggest.
    #[test]
    fn fleet_stream_charges_drops_the_penalty() {
        let o = oracle(30);
        let mut sc = fleet_scenario(200, 4.0);
        sc.batch_max = 1;
        sc.queue_capacity = 50;
        let r = stream_through_fleet(&sc, &o, SchemeKind::Edge, None, None, &rm(), None);
        assert!(r.missed > 0, "scenario failed to shed load");
        // Recompute the aggregate from the parts: served mean reward and
        // the −100 penalty per miss.
        let served_sum = r.mean_reward_x100 * r.fleet.emitted as f64 / 100.0 + r.missed as f64;
        let served_mean = 100.0 * served_sum / r.fleet.served as f64;
        assert!(served_mean > r.mean_reward_x100, "penalty not applied");
    }

    #[test]
    fn fleet_stream_csv_has_one_row_per_scheme() {
        let o = oracle(20);
        let sc = fleet_scenario(5, 1_000.0);
        let results: Vec<FleetStreamResult> = [SchemeKind::IoTDevice, SchemeKind::Successive]
            .into_iter()
            .map(|kind| stream_through_fleet(&sc, &o, kind, None, None, &rm(), None))
            .collect();
        let csv = fleet_stream_csv(&results);
        assert!(csv.starts_with("scheme,emitted"));
        assert!(csv.lines().next().unwrap().contains("reward_x100"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("IoT Device"));
    }
}
