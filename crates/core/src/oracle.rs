//! Precomputed per-window detection outcomes.
//!
//! The paper trains and freezes the K = 3 AD models first, then trains the
//! policy network against them (§II-B). Detection outcomes per (window,
//! layer) are therefore immutable during bandit training, and we precompute
//! them once: this keeps REINFORCE epochs cheap and makes the confidence
//! rule and flagging threshold re-derivable for ablations (we store the raw
//! scores, not just verdicts).

use hec_anomaly::{ConfidenceRule, ModelCatalog};
use hec_data::LabeledWindow;
use hec_tensor::vecops;

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
    /// Anomalous-fraction above which a window is flagged (default 0).
    pub flag_fraction: f32,
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
    /// # Panics
    ///
    /// Panics if any detector was not fitted.
    pub fn precompute(catalog: &mut ModelCatalog, windows: &[LabeledWindow]) -> Self {
        let mut thresholds = [0.0f32; 3];
        let mut per_layer: Vec<Vec<(f32, f32)>> = Vec::with_capacity(3);
        for (layer, det) in catalog.detectors_mut().iter_mut().enumerate() {
            thresholds[layer] =
                det.threshold().expect("detector must be fitted before precomputing outcomes");
            // Batched scoring: one forward pass over the whole corpus where
            // the detector supports it (identical results to per-window).
            let scores = det
                .detect_batch(windows)
                .into_iter()
                .map(|d| (d.min_log_pd, d.anomalous_fraction))
                .collect();
            per_layer.push(scores);
        }

        let contexts = extract_contexts(catalog, windows);
        let outcomes = windows
            .iter()
            .zip(contexts)
            .enumerate()
            .map(|(i, (w, context))| WindowOutcome {
                truth: w.anomalous,
                min_log_pd: [per_layer[0][i].0, per_layer[1][i].0, per_layer[2][i].0],
                anomalous_fraction: [per_layer[0][i].1, per_layer[1][i].1, per_layer[2][i].1],
                context,
            })
            .collect();

        Self { outcomes, thresholds, flag_fraction: 0.0, confidence: ConfidenceRule::default() }
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

    /// Layer `layer`'s verdict on window `i` (`true` = anomalous).
    pub fn verdict(&self, i: usize, layer: usize) -> bool {
        self.outcomes[i].anomalous_fraction[layer] > self.flag_fraction
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

    /// Per-layer accuracy over all windows (sanity metric).
    pub fn layer_accuracy(&self, layer: usize) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let correct = (0..self.len()).filter(|&i| self.correct(i, layer)).count();
        correct as f64 / self.len() as f64
    }

    /// All context vectors (corpus order).
    pub fn contexts(&self) -> Vec<Vec<f32>> {
        self.outcomes.iter().map(|o| o.context.clone()).collect()
    }
}

/// Context extraction: IoT-layer model features if available, else the
/// univariate summary features.
fn extract_contexts(catalog: &mut ModelCatalog, windows: &[LabeledWindow]) -> Vec<Vec<f32>> {
    let iot = catalog.detector_mut(hec_anomaly::HecLayer::IoT);
    iot.context_features_batch(windows).unwrap_or_else(|| {
        windows.iter().map(|w| vecops::summary_features(w.data.as_slice()).to_vec()).collect()
    })
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

    #[test]
    fn layer_accuracy_in_unit_range() {
        let mut catalog = fitted_catalog(16);
        let windows = vec![ramp(16, 0.0), flat(16), ramp(16, 0.002)];
        let oracle = Oracle::precompute(&mut catalog, &windows);
        for layer in 0..3 {
            let acc = oracle.layer_accuracy(layer);
            assert!((0.0..=1.0).contains(&acc));
        }
    }
}
