//! Precomputed per-window detection outcomes.
//!
//! The paper trains and freezes the K = 3 AD models first, then trains the
//! policy network against them (§II-B). Detection outcomes per (window,
//! layer) are therefore immutable during bandit training, and we precompute
//! them once: this keeps REINFORCE epochs cheap and makes the confidence
//! rule and the detection threshold re-derivable for ablations (we store
//! the raw scores, not just verdicts).

use hec_anomaly::{AnomalyDetector, ConfidenceRule, ModelCatalog, ROW_SPLIT_WINDOWS};
use hec_data::LabeledWindow;
use hec_tensor::parallel::{parallel_map_mut, thread_count};
use hec_tensor::vecops;

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
/// * a 50-window adaptation chunk — 10⁶, a hundred microseconds of
///   scoring: inline (spawning here read `drift_adapt` −14 %).
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

/// Raw per-layer scores of one window, plus its ground truth and context.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Ground truth: `true` = anomalous.
    pub truth: bool,
    /// Minimum per-point logPD under each layer's model (bottom-up).
    pub min_log_pd: [f32; 3],
    /// Anomalous-point fraction under each layer's model.
    pub anomalous_fraction: [f32; 3],
    /// Contextual feature vector `z_x` for the policy network.
    pub context: Vec<f32>,
}

/// A frozen set of outcomes plus the calibration needed to re-derive
/// verdicts and confidence under any rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// Per-window outcomes, in corpus order.
    pub outcomes: Vec<WindowOutcome>,
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
        let work = catalog.detectors_mut().iter().map(|det| det.scoring_work(windows)).sum();
        let side_by_side = scores_side_by_side(work, windows.len(), thread_count());
        Self::score(catalog, windows, side_by_side)
    }

    /// [`Oracle::precompute`] with the fan-out decision made by the caller.
    fn score(catalog: &mut ModelCatalog, windows: &[LabeledWindow], side_by_side: bool) -> Self {
        // One detector's whole task: batched scoring (one forward pass over
        // the corpus where the detector supports it, identical results to
        // per-window) and, at the IoT layer, the policy's model-derived
        // context while that model's scratch is warm.
        let score_one = |layer: usize, det: &mut Box<dyn AnomalyDetector>| {
            let threshold =
                det.threshold().expect("detector must be fitted before precomputing outcomes");
            let scores: Vec<(f32, f32)> = det
                .detect_batch(windows)
                .into_iter()
                .map(|d| (d.min_log_pd, d.anomalous_fraction))
                .collect();
            let contexts = if layer == 0 { det.context_features_batch(windows) } else { None };
            (threshold, scores, contexts)
        };
        let detectors = catalog.detectors_mut();
        let mut per_layer = if side_by_side {
            parallel_map_mut(detectors, score_one)
        } else {
            detectors.iter_mut().enumerate().map(|(layer, det)| score_one(layer, det)).collect()
        };

        let contexts = per_layer[0].2.take().unwrap_or_else(|| {
            windows.iter().map(|w| vecops::summary_features(w.data.as_slice()).to_vec()).collect()
        });
        let outcomes = windows
            .iter()
            .zip(contexts)
            .enumerate()
            .map(|(i, (w, context))| WindowOutcome {
                truth: w.anomalous,
                min_log_pd: [0, 1, 2].map(|layer| per_layer[layer].1[i].0),
                anomalous_fraction: [0, 1, 2].map(|layer| per_layer[layer].1[i].1),
                context,
            })
            .collect();
        let thresholds = [0, 1, 2].map(|layer| per_layer[layer].0);

        Self { outcomes, thresholds, confidence: ConfidenceRule::default() }
    }

    /// Like [`Oracle::precompute`] but with exact thresholds supplied by the
    /// caller (from each detector's `FitReport`).
    pub fn precompute_with_thresholds(
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
    pub fn verdict(&self, i: usize, layer: usize) -> bool {
        self.outcomes[i].anomalous_fraction[layer] > 0.0
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

    /// All context vectors (corpus order).
    pub fn contexts(&self) -> Vec<Vec<f32>> {
        self.outcomes.iter().map(|o| o.context.clone()).collect()
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

    /// Side by side or one after another, at any worker count: the same
    /// oracle, context features included.
    #[test]
    fn side_by_side_scoring_is_the_serial_oracle() {
        let mut catalog = fitted_catalog(16);
        let windows: Vec<LabeledWindow> = (0..40)
            .map(|i| if i % 7 == 3 { flat(16) } else { ramp(16, 0.001 * i as f32) })
            .collect();
        let serial = Oracle::score(&mut catalog, &windows, false);
        assert_eq!(serial, Oracle::precompute(&mut catalog, &windows));
        for threads in [1, 2, 3, 4] {
            let fanned = crate::parallel::with_thread_count(threads, || {
                Oracle::score(&mut catalog, &windows, true)
            });
            assert_eq!(fanned, serial, "{threads} workers");
        }
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
            assert_eq!(o.context.len(), 4); // univariate summary features
        }
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
