//! Per-window detection outcomes.
//!
//! The paper trains and freezes the K = 3 AD models first, then trains the
//! policy network against them (§II-B). Detection outcomes per (window,
//! layer) are therefore immutable during bandit training. For evaluation
//! and training ([`Oracle::precompute`], `Experiment::oracle_over`) we
//! score every window at every layer once: this keeps REINFORCE epochs
//! cheap and makes the confidence rule and the detection threshold
//! re-derivable for ablations (we store the raw scores, not just
//! verdicts). The adaptation loop ([`crate::adapt`]) scores only the
//! layers it reads: every window at IoT, and a window above IoT only
//! where it is routed or shadow-sampled there. An entry left unscored
//! holds `NaN` and is never read as a verdict (a debug build panics on
//! the attempt).
//!
//! The policy's contexts are one row-major matrix beside the outcomes,
//! row `i` window `i`'s: the IoT model's encoder states or the windows'
//! summary features are written into it as rows, and the scaler, the
//! greedy table and the trainers read it by row.

use std::borrow::Cow;

use hec_anomaly::{AnomalyDetector, ConfidenceRule, Detection, ModelCatalog, ROW_SPLIT_WINDOWS};
use hec_data::LabeledWindow;
use hec_tensor::parallel::{parallel_map_mut, thread_count};
use hec_tensor::{vecops, Matrix};

/// Fewest multiply-accumulates (summed [`AnomalyDetector::scoring_work`] of
/// the three detectors) before [`Oracle::precompute`] scores them side by
/// side: a worker's spawn and cold scratch must be small change beside its
/// share. The three regimes the benchmark has, and what each needs:
///
/// * a multivariate split — 2 × 10⁸ … 10⁹ for some tens of windows (the
///   seq2seq models make a pass over their parameters per *timestep*, and
///   never split rows themselves): side by side, cloud beside IoT + edge;
/// * an 18 000-window replay segment of autoencoder windows — 3.6 × 10⁸,
///   but at or above [`ROW_SPLIT_WINDOWS`] every detector already splits
///   its rows over all workers, which balances better than 40/60: left to
///   the row split;
/// * a 50-window adaptation chunk — 10⁶ at all three layers, a hundred
///   microseconds of scoring: inline (spawning here read `drift_adapt`
///   −14 %; the loop now asks for less than that).
///
/// Anything from 10⁷ to 10⁸ separates them; the univariate offline splits
/// (a few hundred windows, 7 × 10⁶) sit just below and gain nothing
/// measurable either way.
pub(crate) const SIDE_BY_SIDE_MACS: u64 = 1 << 26;

/// Whether the three detectors of a catalog score a corpus one per worker.
/// Pure in its inputs so the three regimes above stay pinned by a test.
fn scores_side_by_side(work_macs: u64, windows: usize, threads: usize) -> bool {
    threads > 1 && windows < ROW_SPLIT_WINDOWS && work_macs >= SIDE_BY_SIDE_MACS
}

/// The windows of a corpus one layer scores in [`Oracle::score`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every window.
    All,
    /// The listed window indices (possibly none).
    Only(&'a [usize]),
}

impl Rows<'_> {
    /// No window.
    pub(crate) const NONE: Rows<'static> = Rows::Only(&[]);

    /// The corpus index of the `k`-th window these rows pick.
    fn index(self, k: usize) -> usize {
        match self {
            Rows::All => k,
            Rows::Only(picked) => picked[k],
        }
    }

    /// The picked windows, borrowed when that is all of them.
    fn pick(self, windows: &[LabeledWindow]) -> Cow<'_, [LabeledWindow]> {
        match self {
            Rows::All => Cow::Borrowed(windows),
            Rows::Only(picked) => Cow::Owned(picked.iter().map(|&i| windows[i].clone()).collect()),
        }
    }
}

/// What one layer's detector returned for the windows its rows picked.
struct LayerScores {
    threshold: f32,
    detections: Vec<Detection>,
    /// A context row per picked window at layer 0; `None` above it and
    /// where no window was picked.
    contexts: Option<Matrix>,
}

/// Runs each layer's detector over the windows its rows pick, side by
/// side when the asked work pays for a thread ([`Oracle::precompute`]).
fn detect(
    catalog: &mut ModelCatalog,
    windows: &[LabeledWindow],
    asks: [Rows<'_>; 3],
) -> Vec<LayerScores> {
    let picked = asks.map(|rows| rows.pick(windows));
    let detectors = catalog.detectors_mut();
    let work = detectors.iter().zip(&picked).map(|(det, w)| det.scoring_work(w)).sum();
    let most = picked.iter().map(|w| w.len()).max().unwrap_or(0);
    detect_picked(catalog, &picked, scores_side_by_side(work, most, thread_count()))
}

/// [`detect`] with the windows picked and the fan-out decision made by
/// the caller.
fn detect_picked(
    catalog: &mut ModelCatalog,
    picked: &[Cow<'_, [LabeledWindow]>; 3],
    side_by_side: bool,
) -> Vec<LayerScores> {
    // One detector's whole task: batched scoring (one forward pass over
    // its windows where the detector supports it, identical results to
    // per-window) and, at the IoT layer, the policy's model-derived
    // context while that model's scratch is warm. A layer asked for no
    // window calls nothing.
    let score_one = |layer: usize, det: &mut Box<dyn AnomalyDetector>| {
        let threshold =
            det.threshold().expect("detector must be fitted before precomputing outcomes");
        let windows = &*picked[layer];
        if windows.is_empty() {
            return LayerScores { threshold, detections: Vec::new(), contexts: None };
        }
        let detections = det.detect_batch(windows);
        let contexts = if layer == 0 { det.context_features_batch(windows) } else { None };
        LayerScores { threshold, detections, contexts }
    };
    let detectors = catalog.detectors_mut();
    let mut scores: Vec<LayerScores> = if side_by_side {
        parallel_map_mut(detectors, score_one)
    } else {
        detectors.iter_mut().enumerate().map(|(layer, det)| score_one(layer, det)).collect()
    };
    // Where the IoT model gives no context: each window's univariate
    // `{min, max, mean, std}` summary, written into its row.
    if scores[0].contexts.is_none() && !picked[0].is_empty() {
        let mut contexts = Matrix::zeros(picked[0].len(), 4);
        for (row, w) in contexts.as_mut_slice().chunks_exact_mut(4).zip(picked[0].iter()) {
            row.copy_from_slice(&vecops::summary_features(w.data.as_slice()));
        }
        scores[0].contexts = Some(contexts);
    }
    scores
}

/// Raw per-layer scores of one window, plus its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Ground truth: `true` = anomalous.
    pub truth: bool,
    /// Minimum per-point logPD under each layer's model (bottom-up);
    /// `NaN` at a layer the window was not scored at.
    pub min_log_pd: [f32; 3],
    /// Anomalous-point fraction under each layer's model; `NaN` at a
    /// layer the window was not scored at.
    pub anomalous_fraction: [f32; 3],
}

impl WindowOutcome {
    /// Whether the window was scored at `layer`.
    pub fn scored(&self, layer: usize) -> bool {
        !self.anomalous_fraction[layer].is_nan()
    }
}

/// A frozen set of outcomes plus the calibration needed to re-derive
/// verdicts and confidence under any rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// Per-window outcomes, in corpus order.
    pub outcomes: Vec<WindowOutcome>,
    /// The contextual feature vectors `z_x` for the policy network, one
    /// row per window in corpus order; `None` until a window is scored at
    /// layer 0. A window not scored there holds a zero row.
    pub contexts: Option<Matrix>,
    /// Each layer's calibrated logPD threshold.
    pub thresholds: [f32; 3],
    /// Confidence rule for the Successive scheme.
    pub confidence: ConfidenceRule,
}

impl Oracle {
    /// Runs every window through all three (already fitted) detectors.
    ///
    /// Context features come from the IoT-layer detector when it provides
    /// them (the LSTM-encoder state, §III-B); otherwise the univariate
    /// `{min, max, mean, std}` summary of the window is used.
    ///
    /// The detectors are frozen and independent, so when the corpus is too
    /// small for a detector to split its own rows and the work pays for a
    /// thread (`SIDE_BY_SIDE_MACS`) they score side by side, one per
    /// [`crate::parallel`] worker — to the same outcomes at any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if any detector was not fitted.
    pub fn precompute(catalog: &mut ModelCatalog, windows: &[LabeledWindow]) -> Self {
        // Detect before allocating the outcomes: the other order raised an
        // 18 000-window replay's peak memory by ≈ 1 MB.
        let scores = detect(catalog, windows, [Rows::All; 3]);
        let mut oracle = Self::unscored(windows);
        oracle.write([Rows::All; 3], scores);
        oracle
    }

    /// An oracle over `windows` that has scored nothing yet: each window's
    /// ground truth, every entry `NaN`, no context matrix.
    pub(crate) fn unscored(windows: &[LabeledWindow]) -> Self {
        let outcomes = windows
            .iter()
            .map(|w| WindowOutcome {
                truth: w.anomalous,
                min_log_pd: [f32::NAN; 3],
                anomalous_fraction: [f32::NAN; 3],
            })
            .collect();
        Self {
            outcomes,
            contexts: None,
            thresholds: [f32::NAN; 3],
            confidence: ConfidenceRule::default(),
        }
    }

    /// Scores `windows` — the corpus this oracle was made over — at the
    /// rows each layer asks for, one batched `detect_batch` per layer over
    /// the windows it picks, and writes their entries; a window scored at
    /// layer 0 also gets its context row. Every threshold is (re)read from its
    /// detector. The detectors score side by side when the asked work pays
    /// for it ([`Oracle::precompute`]).
    ///
    /// # Panics
    ///
    /// Panics if any detector was not fitted, or if `windows` is not the
    /// oracle's corpus length.
    pub(crate) fn score(
        &mut self,
        catalog: &mut ModelCatalog,
        windows: &[LabeledWindow],
        asks: [Rows<'_>; 3],
    ) {
        assert_eq!(windows.len(), self.len(), "scoring a corpus the oracle was not made over");
        let scores = detect(catalog, windows, asks);
        self.write(asks, scores);
    }

    /// Writes each layer's scores into the entries its rows picked.
    fn write(&mut self, asks: [Rows<'_>; 3], scores: Vec<LayerScores>) {
        for (layer, scores) in scores.into_iter().enumerate() {
            self.thresholds[layer] = scores.threshold;
            if let Some(rows) = scores.contexts {
                self.write_contexts(asks[layer], rows);
            }
            for (k, d) in scores.detections.into_iter().enumerate() {
                let outcome = &mut self.outcomes[asks[layer].index(k)];
                outcome.min_log_pd[layer] = d.min_log_pd;
                outcome.anomalous_fraction[layer] = d.anomalous_fraction;
            }
        }
    }

    /// Files the context rows of the windows `asked` picked: all of them
    /// become the context matrix as they are; some are copied into their
    /// rows of it (made zero-filled first if it is missing or narrower).
    fn write_contexts(&mut self, asked: Rows<'_>, rows: Matrix) {
        let Rows::Only(picked) = asked else {
            self.contexts = Some(rows);
            return;
        };
        let width = rows.cols();
        if self.contexts.as_ref().is_none_or(|c| c.cols() != width) {
            self.contexts = Some(Matrix::zeros(self.len(), width));
        }
        let contexts = self.contexts.as_mut().expect("made above");
        for (k, &i) in picked.iter().enumerate() {
            contexts.row_mut(i).copy_from_slice(rows.row(k));
        }
    }

    /// Like [`Oracle::precompute`] but with exact thresholds supplied by the
    /// caller (from each detector's `FitReport`).
    pub(crate) fn precompute_with_thresholds(
        catalog: &mut ModelCatalog,
        windows: &[LabeledWindow],
        thresholds: [f32; 3],
    ) -> Self {
        let mut oracle = Self::precompute(catalog, windows);
        oracle.thresholds = thresholds;
        oracle
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the oracle holds no windows.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Layer `layer`'s verdict on window `i` (`true` = anomalous): the
    /// detectors' rule, any point below the threshold flags the window.
    ///
    /// A debug build panics if the window was not scored at `layer`.
    pub fn verdict(&self, i: usize, layer: usize) -> bool {
        let outcome = &self.outcomes[i];
        debug_assert!(outcome.scored(layer), "window {i} was not scored at layer {layer}");
        outcome.anomalous_fraction[layer] > 0.0
    }

    /// Whether layer `layer`'s detection of window `i` is confident.
    pub fn confident(&self, i: usize, layer: usize) -> bool {
        let o = &self.outcomes[i];
        self.confidence.is_confident(
            o.min_log_pd[layer],
            o.anomalous_fraction[layer],
            self.thresholds[layer],
            self.verdict(i, layer),
        )
    }

    /// Whether layer `layer` classifies window `i` correctly.
    pub fn correct(&self, i: usize, layer: usize) -> bool {
        self.verdict(i, layer) == self.outcomes[i].truth
    }

    /// The context matrix: row `i` is window `i`'s context.
    ///
    /// # Panics
    ///
    /// Panics if no window was scored at layer 0.
    pub fn contexts(&self) -> &Matrix {
        self.contexts.as_ref().expect("no window of the oracle was scored at layer 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_anomaly::{AeArchitecture, AutoencoderDetector};
    use hec_tensor::Matrix;

    fn ramp(n: usize, jitter: f32) -> LabeledWindow {
        let v: Vec<f32> = (0..n).map(|t| t as f32 / n as f32 + jitter).collect();
        LabeledWindow::new(Matrix::from_vec(n, 1, v), false)
    }

    fn flat(n: usize) -> LabeledWindow {
        LabeledWindow::new(Matrix::from_vec(n, 1, vec![0.5; n]), true)
    }

    fn fitted_catalog(n: usize) -> ModelCatalog {
        let mut catalog = ModelCatalog::from_detectors(vec![
            Box::new(AutoencoderDetector::new("AE-IoT", AeArchitecture::iot(n), 0)),
            Box::new(AutoencoderDetector::new("AE-Edge", AeArchitecture::edge(n), 1)),
            Box::new(AutoencoderDetector::new("AE-Cloud", AeArchitecture::cloud(n), 2)),
        ]);
        let train: Vec<LabeledWindow> = (0..30).map(|i| ramp(n, 0.002 * (i % 5) as f32)).collect();
        for det in catalog.detectors_mut() {
            det.fit(&train, 60).unwrap();
        }
        catalog
    }

    /// The three regimes `SIDE_BY_SIDE_MACS` is recorded with, on the
    /// work the real catalogs report.
    #[test]
    fn the_scoring_decision_separates_the_benchmarks_three_regimes() {
        let work = |catalog: &mut ModelCatalog, windows: &[LabeledWindow]| -> u64 {
            catalog.detectors_mut().iter().map(|det| det.scoring_work(windows)).sum()
        };
        let mut seq2seq = ModelCatalog::multivariate(18, 32, 0);
        let mut ae = ModelCatalog::univariate(96, 0);
        let multivariate_split: Vec<_> =
            (0..32).map(|_| LabeledWindow::new(Matrix::zeros(64, 18), false)).collect();
        let ae_windows = |n| vec![LabeledWindow::new(Matrix::zeros(96, 1), false); n];

        // A multivariate split: side by side at any worker count above one.
        let macs = work(&mut seq2seq, &multivariate_split);
        assert!(macs > 4 * SIDE_BY_SIDE_MACS, "{macs}");
        assert!(scores_side_by_side(macs, 32, 2) && scores_side_by_side(macs, 32, 4));
        assert!(!scores_side_by_side(macs, 32, 1));
        // An 18 000-window replay segment: plenty of work, but the
        // detectors split its rows themselves.
        let macs = work(&mut ae, &ae_windows(18_000));
        assert!(macs > SIDE_BY_SIDE_MACS, "{macs}");
        assert!(!scores_side_by_side(macs, 18_000, 2));
        assert!(scores_side_by_side(macs, ROW_SPLIT_WINDOWS - 1, 2));
        assert!(!scores_side_by_side(macs, ROW_SPLIT_WINDOWS, 2));
        // A 50-window adaptation chunk: a spawn costs more than it scores.
        let macs = work(&mut ae, &ae_windows(50));
        assert!(macs * 16 < SIDE_BY_SIDE_MACS, "{macs}");
        assert!(!scores_side_by_side(macs, 50, 2));
        // The seq2seq estimate counts deployed steps, not windows.
        let long: Vec<_> =
            (0..32).map(|_| LabeledWindow::new(Matrix::zeros(128, 18), false)).collect();
        assert_eq!(work(&mut seq2seq, &long), 2 * work(&mut seq2seq, &multivariate_split));
    }

    /// An oracle over `windows` scored at `asks`, side by side or not.
    fn scored(
        catalog: &mut ModelCatalog,
        windows: &[LabeledWindow],
        asks: [Rows<'_>; 3],
        side_by_side: bool,
    ) -> Oracle {
        let picked = asks.map(|rows| rows.pick(windows));
        let scores = detect_picked(catalog, &picked, side_by_side);
        let mut oracle = Oracle::unscored(windows);
        oracle.write(asks, scores);
        oracle
    }

    fn mixed(n: usize) -> Vec<LabeledWindow> {
        (0..n).map(|i| if i % 7 == 3 { flat(16) } else { ramp(16, 0.001 * i as f32) }).collect()
    }

    /// Side by side or one after another, at any worker count: the same
    /// oracle, context features included.
    #[test]
    fn side_by_side_scoring_is_the_serial_oracle() {
        let mut catalog = fitted_catalog(16);
        let windows = mixed(40);
        let serial = scored(&mut catalog, &windows, [Rows::All; 3], false);
        assert_eq!(serial, Oracle::precompute(&mut catalog, &windows));
        for threads in [1, 2, 3, 4] {
            let fanned = crate::parallel::with_thread_count(threads, || {
                scored(&mut catalog, &windows, [Rows::All; 3], true)
            });
            assert_eq!(fanned, serial, "{threads} workers");
        }
    }

    /// Asked entries, in one call or two, are the full oracle's bit for
    /// bit; the rest stay `NaN`, and only layer-0 rows get a context (the
    /// others a zero row).
    #[test]
    fn asked_entries_are_the_full_oracles() {
        let mut catalog = fitted_catalog(16);
        let windows = mixed(40);
        let full = Oracle::precompute(&mut catalog, &windows);
        let edge: Vec<usize> = (0..40).filter(|i| i % 3 == 1).collect();
        let cloud = [0, 3, 17, 18, 39];
        for side_by_side in [false, true] {
            let asks = [Rows::Only(&[2, 3, 5]), Rows::Only(&edge), Rows::Only(&cloud)];
            let mut two_steps =
                scored(&mut catalog, &windows, [Rows::All, Rows::NONE, Rows::NONE], side_by_side);
            two_steps.score(&mut catalog, &windows, [Rows::NONE, asks[1], asks[2]]);
            let one_call = scored(&mut catalog, &windows, asks, side_by_side);
            for (oracle, layer0) in
                [(&two_steps, (0..40).collect::<Vec<_>>()), (&one_call, vec![2, 3, 5])]
            {
                assert_eq!(oracle.thresholds, full.thresholds);
                let (got_contexts, want_contexts) = (oracle.contexts(), full.contexts());
                assert_eq!(got_contexts.shape(), want_contexts.shape());
                for (i, (got, want)) in oracle.outcomes.iter().zip(&full.outcomes).enumerate() {
                    assert_eq!(got.truth, want.truth);
                    let asked = [layer0.contains(&i), edge.contains(&i), cloud.contains(&i)];
                    for (layer, &ask) in asked.iter().enumerate() {
                        assert_eq!(got.scored(layer), ask, "window {i} layer {layer}");
                        if ask {
                            assert_eq!(
                                got.min_log_pd[layer].to_bits(),
                                want.min_log_pd[layer].to_bits()
                            );
                            assert_eq!(
                                got.anomalous_fraction[layer].to_bits(),
                                want.anomalous_fraction[layer].to_bits()
                            );
                            assert_eq!(oracle.verdict(i, layer), full.verdict(i, layer));
                        }
                    }
                    let context = if asked[0] { want_contexts.row(i) } else { &[0.0; 4] };
                    assert_eq!(got_contexts.row(i), context, "window {i}");
                }
            }
        }
    }

    /// A debug build refuses to read a verdict nobody asked for.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "window 1 was not scored at layer 2")]
    fn reading_an_unasked_entry_panics() {
        let mut catalog = fitted_catalog(16);
        let windows = mixed(4);
        let oracle =
            scored(&mut catalog, &windows, [Rows::All, Rows::All, Rows::Only(&[0])], false);
        assert!(!oracle.outcomes[1].scored(2));
        oracle.correct(1, 2);
    }

    #[test]
    fn precompute_covers_all_windows_and_layers() {
        let mut catalog = fitted_catalog(16);
        let windows = vec![ramp(16, 0.0), flat(16), ramp(16, 0.001)];
        let oracle = Oracle::precompute(&mut catalog, &windows);
        assert_eq!(oracle.len(), 3);
        assert!(!oracle.is_empty());
        for o in &oracle.outcomes {
            assert!(o.min_log_pd.iter().all(|x| x.is_finite()));
        }
        assert_eq!(oracle.contexts().shape(), (3, 4)); // univariate summary features
    }

    #[test]
    fn anomalous_window_detected_by_some_layer() {
        let mut catalog = fitted_catalog(16);
        let windows = vec![ramp(16, 0.0), flat(16)];
        let oracle = Oracle::precompute(&mut catalog, &windows);
        assert!(!oracle.outcomes[0].truth);
        assert!(oracle.outcomes[1].truth);
        let detected = (0..3).any(|layer| oracle.verdict(1, layer));
        assert!(detected, "flat window missed by all layers");
    }

    #[test]
    fn correctness_uses_truth() {
        let mut catalog = fitted_catalog(16);
        let windows = vec![ramp(16, 0.0), flat(16)];
        let oracle = Oracle::precompute(&mut catalog, &windows);
        for layer in 0..3 {
            assert_eq!(
                oracle.correct(0, layer),
                !oracle.verdict(0, layer),
                "normal window correctness must be the negated verdict"
            );
        }
    }

    #[test]
    fn explicit_thresholds_are_adopted() {
        let mut catalog = fitted_catalog(16);
        let windows = vec![ramp(16, 0.0)];
        let oracle = Oracle::precompute_with_thresholds(&mut catalog, &windows, [-1.0, -2.0, -3.0]);
        assert_eq!(oracle.thresholds, [-1.0, -2.0, -3.0]);
    }
}
