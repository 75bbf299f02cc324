//! The five model-selection schemes of §III-C.
//!
//! *"(1) always detects anomaly at IoT Device, (2) always offloads detection
//! tasks to Edge server, (3) always offloads to Cloud, (4) Successive, i.e.,
//! executes at IoT devices first and then offloads to higher layers
//! successively until reaching a confident output or the cloud, and
//! (5) Adaptive which is our proposed adaptive model selection scheme."*

use serde::{Deserialize, Serialize};

use hec_bandit::{ContextScaler, PolicyNetwork, RewardModel};
use hec_data::BinaryConfusion;
use hec_sim::HecTopology;

use crate::oracle::Oracle;
use crate::parallel::parallel_map_range_grained;

/// Minimum windows per worker when parallelising [`SchemeEvaluator::
/// evaluate`]: the per-window work is table lookups, so a thread must own
/// at least this many windows to amortise its spawn cost.
const WINDOWS_PER_WORKER: usize = 256;

/// A model-selection scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Always detect on the IoT device (layer 0).
    IoTDevice,
    /// Always offload to the edge server (layer 1).
    Edge,
    /// Always offload to the cloud (layer 2).
    Cloud,
    /// Escalate bottom-up until a confident output (or the cloud).
    Successive,
    /// The proposed contextual-bandit adaptive scheme.
    Adaptive,
}

impl SchemeKind {
    /// All five schemes in the paper's Table II order.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::IoTDevice,
        SchemeKind::Edge,
        SchemeKind::Cloud,
        SchemeKind::Successive,
        SchemeKind::Adaptive,
    ];
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeKind::IoTDevice => write!(f, "IoT Device"),
            SchemeKind::Edge => write!(f, "Edge"),
            SchemeKind::Cloud => write!(f, "Cloud"),
            SchemeKind::Successive => write!(f, "Successive"),
            SchemeKind::Adaptive => write!(f, "Our Method"),
        }
    }
}

/// One window's outcome under a scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeOutcome {
    /// The scheme's verdict for the window.
    pub verdict: bool,
    /// End-to-end detection delay, ms.
    pub delay_ms: f64,
    /// The layer that produced the final verdict (the bandit's action).
    pub final_layer: usize,
}

/// Aggregate result of running a scheme over a corpus — one Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: SchemeKind,
    /// Confusion matrix over the corpus.
    pub confusion: BinaryConfusion,
    /// Mean end-to-end delay, ms.
    pub mean_delay_ms: f64,
    /// `100 × mean(accuracy − cost)` under the dataset's reward model;
    /// `None` for Successive, matching the paper's "N/A" (its delay is not
    /// a single action's delay).
    pub reward_x100: Option<f64>,
    /// How many windows each layer ended up serving.
    pub action_histogram: [usize; 3],
}

/// Every oracle context through the policy's scaler, in corpus order — the
/// base input of both the static and the load-aware policy.
pub(crate) fn scaled_contexts(oracle: &Oracle, scaler: &ContextScaler) -> Vec<Vec<f32>> {
    // Transform straight from the stored outcomes — no intermediate clone
    // of every context Vec.
    oracle.outcomes.iter().map(|o| scaler.transform(&o.context)).collect()
}

/// Where the Successive escalation stops for window `i`: the first layer
/// with a confident output, or `top`.
fn escalation_stop(oracle: &Oracle, i: usize, top: usize) -> usize {
    (0..top).find(|&layer| oracle.confident(i, layer)).unwrap_or(top)
}

/// The layer each oracle window ends at under a scheme, on a hierarchy of
/// `num_layers` layers — the one place a scheme picks a layer. Every
/// reader ([`SchemeEvaluator::evaluate`], the Fig. 3b series, the fleet
/// drivers through [`crate::stream::scheme_action_table`]) looks its
/// windows up here, so they cannot disagree on what a scheme does. The
/// Adaptive actions are the policy's greedy choices from one batched
/// forward pass over the scaled contexts.
///
/// # Panics
///
/// Panics if `Adaptive` is requested without a policy and scaler, or with
/// a policy whose input dimension is not the scaler's.
pub(crate) fn action_table(
    num_layers: usize,
    oracle: &Oracle,
    kind: SchemeKind,
    policy: Option<&mut PolicyNetwork>,
    scaler: Option<&ContextScaler>,
) -> Vec<usize> {
    let n = oracle.len();
    match kind {
        SchemeKind::IoTDevice => vec![0; n],
        SchemeKind::Edge => vec![1; n],
        SchemeKind::Cloud => vec![2; n],
        SchemeKind::Successive => {
            (0..n).map(|i| escalation_stop(oracle, i, num_layers - 1)).collect()
        }
        SchemeKind::Adaptive => {
            let p = policy.expect("Adaptive needs a trained policy");
            let s = scaler.expect("Adaptive needs a context scaler");
            // A load-aware policy (base context + load features) acts on
            // live queue state and has no table: the fleet streaming
            // driver routes it per window before it asks for one.
            assert_eq!(
                p.input_dim(),
                s.dim(),
                "Adaptive policy input dim matches neither the base context nor base + load features"
            );
            p.greedy_batch(&scaled_contexts(oracle, s))
        }
    }
}

/// Evaluates schemes against a frozen [`Oracle`] on a topology.
pub struct SchemeEvaluator<'a> {
    topology: &'a HecTopology,
    payload_bytes: usize,
    reward: RewardModel,
}

impl<'a> SchemeEvaluator<'a> {
    /// Creates an evaluator.
    pub fn new(topology: &'a HecTopology, payload_bytes: usize, reward: RewardModel) -> Self {
        Self { topology, payload_bytes, reward }
    }

    /// The per-window outcome of a *fixed-layer* scheme.
    pub fn fixed(&self, oracle: &Oracle, i: usize, layer: usize) -> SchemeOutcome {
        SchemeOutcome {
            verdict: oracle.verdict(i, layer),
            delay_ms: self.topology.end_to_end_ms(layer, self.payload_bytes),
            final_layer: layer,
        }
    }

    /// The per-window outcome of the Successive scheme: escalate bottom-up
    /// until a confident detection or the top layer; delay accumulates every
    /// visited hop (§III-C scheme 4).
    pub fn successive(&self, oracle: &Oracle, i: usize) -> SchemeOutcome {
        let layer = escalation_stop(oracle, i, self.topology.num_layers() - 1);
        SchemeOutcome {
            verdict: oracle.verdict(i, layer),
            delay_ms: self.topology.successive_ms(layer + 1, self.payload_bytes),
            final_layer: layer,
        }
    }

    /// Every window's outcome under a scheme, in corpus order: the layer
    /// comes from the scheme's [`action_table`] (for Adaptive, one batched
    /// forward pass), the verdict and delay are that layer's. Computed in
    /// parallel with scoped threads (worker count from `HEC_THREADS`, see
    /// [`crate::parallel`]) and returned in order, so every reader sees
    /// what a serial pass would.
    ///
    /// # Panics
    ///
    /// Panics if `Adaptive` is requested without a policy and scaler.
    pub(crate) fn outcomes(
        &self,
        kind: SchemeKind,
        oracle: &Oracle,
        policy: Option<&mut PolicyNetwork>,
        scaler: Option<&ContextScaler>,
    ) -> Vec<SchemeOutcome> {
        let layers = action_table(self.topology.num_layers(), oracle, kind, policy, scaler);
        parallel_map_range_grained(oracle.len(), WINDOWS_PER_WORKER, |i| {
            let mut outcome = self.fixed(oracle, i, layers[i]);
            if kind == SchemeKind::Successive {
                // Escalation pays every hop up to the layer it stops at.
                outcome.delay_ms = self.topology.successive_ms(layers[i] + 1, self.payload_bytes);
            }
            outcome
        })
    }

    /// Runs a scheme over the whole oracle corpus.
    ///
    /// `policy`/`scaler` are required only for [`SchemeKind::Adaptive`].
    ///
    /// Aggregates the per-window outcomes (layers from the scheme's one
    /// action table, computed on the `HEC_THREADS` workers, returned in
    /// order) serially in corpus order, so results are identical to a
    /// fully serial evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `Adaptive` is requested without a policy and scaler.
    pub fn evaluate(
        &self,
        kind: SchemeKind,
        oracle: &Oracle,
        policy: Option<&mut PolicyNetwork>,
        scaler: Option<&ContextScaler>,
    ) -> SchemeResult {
        let outcomes = self.outcomes(kind, oracle, policy, scaler);
        let mut confusion = BinaryConfusion::new();
        let mut total_delay = 0.0f64;
        let mut histogram = [0usize; 3];
        let mut reward_terms: Vec<(bool, f64)> = Vec::with_capacity(oracle.len());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let truth = oracle.outcomes[i].truth;
            confusion.record(outcome.verdict, truth);
            total_delay += outcome.delay_ms;
            histogram[outcome.final_layer] += 1;
            reward_terms.push((outcome.verdict == truth, outcome.delay_ms));
        }

        let n = oracle.len().max(1) as f64;
        let reward_x100 = match kind {
            SchemeKind::Successive => None,
            _ => Some(self.reward.aggregate_reward_x100(reward_terms)),
        };
        SchemeResult {
            scheme: kind,
            confusion,
            mean_delay_ms: total_delay / n,
            reward_x100,
            action_histogram: histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::WindowOutcome;
    use hec_anomaly::ConfidenceRule;
    use hec_sim::DatasetKind;

    /// Builds a synthetic oracle directly (no model training). Windows
    /// alternate easy (even index) / hard (odd index); anomalies are at
    /// `i % 4 == 0` (easy) and `i % 4 == 3` (hard). With thresholds at -10
    /// and the default rule (factor 2, fraction 5 %):
    ///
    /// * layer 0 is correct and confident on easy windows; on hard windows
    ///   it outputs a *non-confident* normal verdict (lp = -8, inside the
    ///   `threshold/factor = -5` margin), which is wrong for hard anomalies;
    /// * layers 1 and 2 are correct and confident everywhere.
    fn synthetic_oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| {
                let truth = i % 4 == 0 || i % 4 == 3;
                let easy = i % 2 == 0;
                // Confident correct detection at a given layer.
                let confident_lp = if truth { -50.0 } else { -1.0 };
                let confident_frac = if truth { 0.3 } else { 0.0 };
                let (lp0, frac0) = if easy {
                    (confident_lp, confident_frac)
                } else {
                    (-8.0, 0.0) // hesitant "normal": escalation trigger
                };
                WindowOutcome {
                    truth,
                    min_log_pd: [lp0, confident_lp, confident_lp],
                    anomalous_fraction: [frac0, confident_frac, confident_frac],
                    context: vec![if easy { 0.0 } else { 1.0 }, (i % 4) as f32 / 3.0],
                }
            })
            .collect();
        Oracle { outcomes, thresholds: [-10.0; 3], confidence: ConfidenceRule::default() }
    }

    fn evaluator(topo: &HecTopology) -> SchemeEvaluator<'_> {
        SchemeEvaluator::new(topo, 384, RewardModel::new(0.0005))
    }

    #[test]
    fn cloud_beats_iot_on_accuracy_but_not_delay() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(40);
        let ev = evaluator(&topo);
        let iot = ev.evaluate(SchemeKind::IoTDevice, &oracle, None, None);
        let cloud = ev.evaluate(SchemeKind::Cloud, &oracle, None, None);
        assert!(cloud.confusion.accuracy() > iot.confusion.accuracy());
        assert!(cloud.mean_delay_ms > iot.mean_delay_ms);
        assert_eq!(cloud.confusion.accuracy(), 1.0);
    }

    #[test]
    fn successive_stops_at_confident_layers() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(40);
        let ev = evaluator(&topo);
        let succ = ev.evaluate(SchemeKind::Successive, &oracle, None, None);
        // Easy windows (confident at layer 0) stay local; hard ones escalate.
        assert!(succ.action_histogram[0] > 0, "no window stayed at IoT");
        assert!(succ.action_histogram[1] + succ.action_histogram[2] > 0, "no window escalated");
        // Successive is cheaper than Cloud here (half the windows stay local).
        let cloud = ev.evaluate(SchemeKind::Cloud, &oracle, None, None);
        assert!(succ.mean_delay_ms < cloud.mean_delay_ms);
        assert!(succ.reward_x100.is_none(), "paper reports N/A for Successive");
    }

    #[test]
    fn adaptive_with_oracle_trained_policy_beats_fixed_schemes() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(200);
        let ev = evaluator(&topo);

        // Train a policy on the synthetic oracle's contexts.
        let contexts = oracle.contexts();
        let scaler = ContextScaler::fit(&contexts);
        let scaled = scaler.transform_all(&contexts);
        let reward = RewardModel::new(0.0005);
        let delays = crate::experiment::static_delay_table(&topo, 384);
        let mut trainer = hec_bandit::PolicyTrainer::new(
            PolicyNetwork::new(2, 32, 3, 4),
            hec_bandit::TrainConfig { epochs: 40, learning_rate: 5e-3, ..Default::default() },
        );
        trainer.train_with_delays(&scaled, &mut |i, a| oracle.correct(i, a), &delays, &reward);
        let mut policy = trainer.into_policy();

        let adaptive = ev.evaluate(SchemeKind::Adaptive, &oracle, Some(&mut policy), Some(&scaler));
        let iot = ev.evaluate(SchemeKind::IoTDevice, &oracle, None, None);
        let cloud = ev.evaluate(SchemeKind::Cloud, &oracle, None, None);

        // The adaptive policy should discover: easy → IoT, hard → Cloud.
        assert!(
            adaptive.reward_x100.unwrap() > iot.reward_x100.unwrap(),
            "adaptive {:?} ≤ iot {:?}",
            adaptive.reward_x100,
            iot.reward_x100
        );
        assert!(
            adaptive.reward_x100.unwrap() > cloud.reward_x100.unwrap(),
            "adaptive {:?} ≤ cloud {:?}",
            adaptive.reward_x100,
            cloud.reward_x100
        );
        // And its delay sits below always-Cloud.
        assert!(adaptive.mean_delay_ms < cloud.mean_delay_ms);
    }

    /// The scoped-thread evaluation must be bit-identical to the serial
    /// path for every scheme, whatever the worker count.
    #[test]
    fn parallel_evaluate_matches_serial() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        // 1031 windows: enough to clear the per-worker grain so the run
        // really fans out, and not a multiple of any thread count, so
        // chunk edges are exercised.
        let oracle = synthetic_oracle(1031);
        let ev = evaluator(&topo);

        let contexts = oracle.contexts();
        let scaler = ContextScaler::fit(&contexts);
        let scaled = scaler.transform_all(&contexts);
        let reward = RewardModel::new(0.0005);
        let delays = crate::experiment::static_delay_table(&topo, 384);
        let mut trainer = hec_bandit::PolicyTrainer::new(
            PolicyNetwork::new(2, 16, 3, 4),
            hec_bandit::TrainConfig { epochs: 8, ..Default::default() },
        );
        trainer.train_with_delays(&scaled, &mut |i, a| oracle.correct(i, a), &delays, &reward);
        let mut policy = trainer.into_policy();

        let mut run = |threads: usize| -> Vec<SchemeResult> {
            crate::parallel::with_thread_count(threads, || {
                SchemeKind::ALL
                    .iter()
                    .map(|&kind| match kind {
                        SchemeKind::Adaptive => {
                            ev.evaluate(kind, &oracle, Some(&mut policy), Some(&scaler))
                        }
                        _ => ev.evaluate(kind, &oracle, None, None),
                    })
                    .collect()
            })
        };

        let serial = run(1);
        let parallel = run(3);
        assert_eq!(serial, parallel);
    }

    /// The Fig. 3b series and the Table II row read one action table: for
    /// every scheme the records must add up to exactly what `evaluate`
    /// reports — confusion, mean delay and action histogram — and the row
    /// must cover the whole corpus at a positive mean delay.
    #[test]
    fn stream_records_add_up_to_evaluate_for_every_scheme() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(60);
        let ev = evaluator(&topo);
        let scaler = ContextScaler::fit(&oracle.contexts());
        let mut policy = PolicyNetwork::new(scaler.dim(), 8, 3, 0);
        for kind in SchemeKind::ALL {
            let records =
                crate::stream::stream_records(&ev, &oracle, kind, Some(&mut policy), Some(&scaler));
            let row = ev.evaluate(kind, &oracle, Some(&mut policy), Some(&scaler));
            assert_eq!(row.confusion.total(), 60, "{kind} did not cover the corpus");
            assert!(row.mean_delay_ms > 0.0, "{kind}");
            let confusion =
                BinaryConfusion::from_predictions(records.iter().map(|r| (r.predicted, r.truth)));
            assert_eq!(confusion, row.confusion, "{kind}");
            let mean_delay = records.iter().map(|r| r.delay_ms).sum::<f64>() / records.len() as f64;
            assert_eq!(mean_delay, row.mean_delay_ms, "{kind}");
            let mut histogram = [0usize; 3];
            for r in &records {
                histogram[r.action] += 1;
            }
            assert_eq!(histogram, row.action_histogram, "{kind}");
            // Successive stays local on the easy half and escalates on
            // the hard half, so this is not five constant tables.
            if kind == SchemeKind::Successive {
                assert_eq!(histogram, [30, 30, 0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "Adaptive needs a trained policy")]
    fn adaptive_without_policy_panics() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(8);
        let ev = evaluator(&topo);
        let _ = ev.evaluate(SchemeKind::Adaptive, &oracle, None, None);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SchemeKind::IoTDevice.to_string(), "IoT Device");
        assert_eq!(SchemeKind::Adaptive.to_string(), "Our Method");
        assert_eq!(SchemeKind::ALL.len(), 5);
    }

    #[test]
    fn fixed_delays_are_constant_per_layer() {
        let topo = HecTopology::paper_testbed(DatasetKind::Univariate);
        let oracle = synthetic_oracle(10);
        let ev = evaluator(&topo);
        let edge = ev.evaluate(SchemeKind::Edge, &oracle, None, None);
        assert!((edge.mean_delay_ms - 257.43).abs() < 1e-9);
        assert_eq!(edge.action_histogram, [0, 10, 0]);
    }
}
