//! Trace amplification: stretch a checked-in fixture into an
//! engine-scale stream without network access.
//!
//! The fleet engine shards to millions of devices, but the repository's
//! real traces are a few hundred windows — big enough to validate the
//! parsers, far too small to exercise the ingestion → sharded-replay
//! path at engine rate. [`amplify_corpus`] multiplies a loaded corpus by
//! a repetition factor: repetition 0 is the base corpus **verbatim**,
//! and every later repetition applies a deterministic per-(repetition,
//! window, channel) perturbation — a multiplicative scale and an
//! additive jitter drawn from splitmix64 streams, **constant across the
//! timesteps of a window** so within-window dynamics (the thing the
//! detectors and the paper's context features look at) are preserved.
//! Windows are never split or recombined, and each repetition appends
//! the base corpus's windows in order, so session/window boundaries
//! survive amplification. Labels and anomaly classes are copied
//! unchanged.
//!
//! Everything is a pure function of `(base corpus, factor, seed)` — same
//! inputs, same amplified stream, on any machine and at any thread
//! count.

use crate::source::LabeledCorpus;
use crate::window::LabeledWindow;

/// How repetitions `>= 1` are perturbed. The defaults are gentle (±1%
/// scale, ±0.002 jitter): enough that repeated windows are not byte
/// copies, small enough that a window's anomaly label stays truthful —
/// the power fixture's anomaly signal survives standardisation at these
/// levels (checked empirically in `repro_real --amplify`; larger values
/// drift the detectors' input distribution and belong to the
/// online-learning-under-drift experiments, not to replay).
#[derive(Debug, Clone, Copy)]
pub struct PerturbConfig {
    /// Half-width of the multiplicative scale band: each (repetition,
    /// window, channel) scales by `1 ± scale`.
    pub scale: f32,
    /// Half-width of the additive jitter band, in raw data units.
    pub jitter: f32,
    /// Stream seed; fixtures amplified with different seeds decorrelate.
    pub seed: u64,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        Self { scale: 0.01, jitter: 0.002, seed: 0x9e37_79b9_7f4a_7c15 }
    }
}

/// Rejection of an invalid [`PerturbConfig`]: a negative or non-finite
/// band half-width would silently manufacture NaN windows (`NaN * v` and
/// `v + NaN` both poison every sample they touch) that the downstream
/// standardiser would then reject one corpus later, far from the cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbConfigError {
    /// Which field was invalid (`"scale"` or `"jitter"`).
    pub field: &'static str,
    /// The offending value.
    pub value: f32,
}

impl std::fmt::Display for PerturbConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid PerturbConfig: {} must be finite and non-negative, got {}",
            self.field, self.value
        )
    }
}

impl std::error::Error for PerturbConfigError {}

impl PerturbConfig {
    /// Checks that both band half-widths are finite and non-negative.
    /// [`amplify_corpus`] calls this and panics with the error's message; validate explicitly at config
    /// parse time to surface the problem as a value instead.
    pub fn validate(&self) -> Result<(), PerturbConfigError> {
        if !self.scale.is_finite() || self.scale < 0.0 {
            return Err(PerturbConfigError { field: "scale", value: self.scale });
        }
        if !self.jitter.is_finite() || self.jitter < 0.0 {
            return Err(PerturbConfigError { field: "jitter", value: self.jitter });
        }
        Ok(())
    }
}

/// `splitmix64` step — the same generator the fleet scenarios use for
/// deterministic derived streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1)` from the generator's top 24 bits.
fn unit(state: &mut u64) -> f32 {
    ((splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// Multiplies `base` by `factor`: repetition 0 verbatim, repetitions
/// `1..factor` perturbed per [`PerturbConfig`]. `factor == 1` returns a
/// clone of the base. The result has `base.len() * factor` windows in
/// repetition-major order (base order preserved within each repetition).
///
/// # Panics
///
/// Panics if `factor == 0` (an amplified corpus with no repetitions is
/// a caller bug — use `Option` at the call site to express "off"), or
/// if `perturb` fails [`PerturbConfig::validate`].
pub fn amplify_corpus(
    base: &LabeledCorpus,
    factor: usize,
    perturb: &PerturbConfig,
) -> LabeledCorpus {
    assert!(factor >= 1, "amplification factor must be at least 1");
    perturb.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut windows = Vec::with_capacity(base.len() * factor);
    let mut classes = Vec::with_capacity(base.len() * factor);
    for rep in 0..factor {
        for (w, window) in base.windows.iter().enumerate() {
            let data = if rep == 0 {
                window.data.clone()
            } else {
                let (steps, channels) = (window.data.rows(), window.data.cols());
                // One scale/jitter pair per channel, held constant over
                // the window's timesteps: the stream key mixes the
                // repetition, window index and seed so every repetition
                // of every window draws an independent perturbation.
                let mut values = window.data.as_slice().to_vec();
                for c in 0..channels {
                    let mut state = perturb
                        .seed
                        .wrapping_add((rep as u64).wrapping_mul(0x0100_0000_01b3))
                        .wrapping_add((w as u64).wrapping_mul(0x1000_0000_0000_001b))
                        .wrapping_add(c as u64);
                    let scale = 1.0 + perturb.scale * unit(&mut state);
                    let jitter = perturb.jitter * unit(&mut state);
                    for t in 0..steps {
                        let v = &mut values[t * channels + c];
                        *v = *v * scale + jitter;
                    }
                }
                hec_tensor::Matrix::from_vec(steps, channels, values)
            };
            windows.push(LabeledWindow::new(data, window.anomalous));
            classes.push(base.classes[w]);
        }
    }
    LabeledCorpus::new(windows, classes)
}

/// The temporal shape of an injected regime change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Full intensity from the onset window onward.
    Step,
    /// Intensity climbs linearly over `ramp_windows` windows after the
    /// onset, then stays at 1.
    Ramp {
        /// Windows from onset until full intensity (must be ≥ 1).
        ramp_windows: usize,
    },
    /// Alternating regimes: `period` drifted windows, `period` base
    /// windows, repeating from the onset.
    Recurring {
        /// Half-cycle length in windows (must be ≥ 1).
        period: usize,
    },
}

/// A deterministic regime-change schedule, layered on top of
/// [`PerturbConfig`] amplification: amplify first (replay-grade
/// perturbation, labels truthful), then [`DriftSchedule::apply`] shifts
/// the post-onset windows' level and scale — `v ↦ v·(1 + scale·I(w)) +
/// level·I(w)` with intensity `I(w) ∈ [0, 1]` a pure function of the
/// window index. The transform is affine and constant within a window,
/// so within-window dynamics (what the detectors score) are preserved
/// and **labels stay truthful**: an anomalous window is exactly as
/// anomalous relative to a refit standardiser, while a pipeline frozen
/// on pre-drift moments sees the whole stream shift.
///
/// Everything is keyed by the window index — no RNG — so the same
/// schedule on the same corpus yields the same stream on any machine and
/// at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSchedule {
    /// Temporal shape of the shift.
    pub kind: DriftKind,
    /// First window index the shift touches.
    pub onset: usize,
    /// Additive level shift at full intensity, in raw data units.
    pub level: f32,
    /// Multiplicative scale shift at full intensity (`0.15` = +15%).
    pub scale: f32,
}

impl DriftSchedule {
    /// The shift intensity at window `w`, in `[0, 1]`.
    pub fn intensity(&self, w: usize) -> f32 {
        if w < self.onset {
            return 0.0;
        }
        let since = w - self.onset;
        match self.kind {
            DriftKind::Step => 1.0,
            DriftKind::Ramp { ramp_windows } => {
                (((since + 1) as f32) / ramp_windows.max(1) as f32).min(1.0)
            }
            DriftKind::Recurring { period } => {
                if (since / period.max(1)).is_multiple_of(2) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the schedule to a corpus: window `w` becomes
    /// `v·(1 + scale·I(w)) + level·I(w)`; labels and anomaly classes are
    /// copied unchanged. Windows before the onset are cloned verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `scale` is non-finite, or if a `Ramp` /
    /// `Recurring` kind has a zero span.
    pub fn apply(&self, base: &LabeledCorpus) -> LabeledCorpus {
        assert!(
            self.level.is_finite() && self.scale.is_finite(),
            "drift level/scale must be finite"
        );
        match self.kind {
            DriftKind::Ramp { ramp_windows } => {
                assert!(ramp_windows >= 1, "ramp_windows must be at least 1")
            }
            DriftKind::Recurring { period } => assert!(period >= 1, "period must be at least 1"),
            DriftKind::Step => {}
        }
        let windows = base
            .windows
            .iter()
            .enumerate()
            .map(|(w, window)| {
                let i = self.intensity(w);
                let data = if i == 0.0 {
                    window.data.clone()
                } else {
                    let gain = 1.0 + self.scale * i;
                    let offset = self.level * i;
                    let values =
                        window.data.as_slice().iter().map(|&v| v * gain + offset).collect();
                    hec_tensor::Matrix::from_vec(window.data.rows(), window.data.cols(), values)
                };
                LabeledWindow::new(data, window.anomalous)
            })
            .collect();
        LabeledCorpus::new(windows, base.classes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_tensor::Matrix;

    fn base() -> LabeledCorpus {
        let mk =
            |v: f32, anomalous| LabeledWindow::new(Matrix::from_vec(3, 2, vec![v; 6]), anomalous);
        LabeledCorpus::new(
            vec![mk(1.0, false), mk(2.0, true), mk(3.0, false)],
            vec![None, Some(1), None],
        )
    }

    #[test]
    fn factor_one_is_the_identity() {
        let b = base();
        let a = amplify_corpus(&b, 1, &PerturbConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn repetition_zero_is_verbatim_and_later_reps_are_perturbed() {
        let b = base();
        let a = amplify_corpus(&b, 3, &PerturbConfig::default());
        assert_eq!(a.len(), 9);
        // Rep 0 verbatim.
        for (x, y) in a.windows[..3].iter().zip(&b.windows) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
        // Reps 1, 2 perturbed, each differently.
        assert_ne!(a.windows[3].data.as_slice(), b.windows[0].data.as_slice());
        assert_ne!(a.windows[6].data.as_slice(), a.windows[3].data.as_slice());
        // Labels and classes replicate in repetition-major order.
        assert_eq!(a.classes, [None, Some(1), None].repeat(3));
        assert!(a.windows[4].anomalous && a.windows[7].anomalous);
    }

    #[test]
    fn perturbation_is_constant_within_a_window_per_channel() {
        let b = base();
        let a = amplify_corpus(&b, 2, &PerturbConfig::default());
        let w = &a.windows[3].data; // rep 1, window 0 (constant base 1.0)
        for c in 0..2 {
            let first = w[(0, c)];
            for t in 1..3 {
                assert_eq!(w[(t, c)], first, "channel {c} must be uniformly perturbed");
            }
        }
        // ... but channels draw independent perturbations.
        assert_ne!(w[(0, 0)], w[(0, 1)]);
    }

    #[test]
    fn amplification_is_deterministic_and_gentle() {
        let b = base();
        let cfg = PerturbConfig::default();
        let a1 = amplify_corpus(&b, 4, &cfg);
        let a2 = amplify_corpus(&b, 4, &cfg);
        for (x, y) in a1.windows.iter().zip(&a2.windows) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
        // Bounded: |v' - v| <= |v| * scale + jitter (+ f32 slack).
        for (rep_w, base_w) in a1.windows.iter().zip(b.windows.iter().cycle()) {
            for (p, v) in rep_w.data.as_slice().iter().zip(base_w.data.as_slice()) {
                assert!((p - v).abs() <= v.abs() * cfg.scale + cfg.jitter + 1e-6);
            }
        }
        // Different seed, different stream.
        let a3 = amplify_corpus(&b, 4, &PerturbConfig { seed: 7, ..cfg });
        assert_ne!(a1.windows[3].data.as_slice(), a3.windows[3].data.as_slice());
    }

    #[test]
    fn perturb_config_validation_rejects_bad_half_widths() {
        let ok = PerturbConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        for (cfg, field, value) in [
            (PerturbConfig { scale: -0.1, ..ok }, "scale", -0.1f32),
            (PerturbConfig { scale: f32::NAN, ..ok }, "scale", f32::NAN),
            (PerturbConfig { scale: f32::INFINITY, ..ok }, "scale", f32::INFINITY),
            (PerturbConfig { jitter: -1e-9, ..ok }, "jitter", -1e-9),
            (PerturbConfig { jitter: f32::NEG_INFINITY, ..ok }, "jitter", f32::NEG_INFINITY),
        ] {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field);
            assert!(err.value == value || (err.value.is_nan() && value.is_nan()));
            assert!(err.to_string().contains(field), "message names the field: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "jitter must be finite")]
    fn amplify_corpus_rejects_invalid_configs() {
        let cfg = PerturbConfig { jitter: f32::NAN, ..PerturbConfig::default() };
        let _ = amplify_corpus(&base(), 2, &cfg);
    }

    fn sched(kind: DriftKind) -> DriftSchedule {
        DriftSchedule { kind, onset: 2, level: 10.0, scale: 0.5 }
    }

    #[test]
    fn drift_intensity_shapes() {
        let step = sched(DriftKind::Step);
        assert_eq!((step.intensity(0), step.intensity(1)), (0.0, 0.0));
        assert_eq!((step.intensity(2), step.intensity(100)), (1.0, 1.0));

        let ramp = sched(DriftKind::Ramp { ramp_windows: 4 });
        assert_eq!(ramp.intensity(1), 0.0);
        assert_eq!(ramp.intensity(2), 0.25);
        assert_eq!(ramp.intensity(4), 0.75);
        assert_eq!(ramp.intensity(5), 1.0);
        assert_eq!(ramp.intensity(50), 1.0);

        let rec = sched(DriftKind::Recurring { period: 3 });
        assert_eq!(rec.intensity(1), 0.0);
        // Windows 2..5 drifted, 5..8 base, 8..11 drifted again.
        assert_eq!((rec.intensity(2), rec.intensity(4)), (1.0, 1.0));
        assert_eq!((rec.intensity(5), rec.intensity(7)), (0.0, 0.0));
        assert_eq!(rec.intensity(8), 1.0);
    }

    #[test]
    fn drift_apply_shifts_values_and_keeps_labels_truthful() {
        let b = base(); // windows of constant 1.0 / 2.0 / 3.0, labels F/T/F
        let s = DriftSchedule { kind: DriftKind::Step, onset: 1, level: 10.0, scale: 0.5 };
        let d = s.apply(&b);
        assert_eq!(d.len(), b.len());
        // Pre-onset window verbatim.
        assert_eq!(d.windows[0].data.as_slice(), b.windows[0].data.as_slice());
        // Post-onset: v * 1.5 + 10.
        assert_eq!(d.windows[1].data.as_slice(), &[13.0f32; 6][..]);
        assert_eq!(d.windows[2].data.as_slice(), &[14.5f32; 6][..]);
        // Labels and classes untouched.
        let labels: Vec<bool> = d.windows.iter().map(|w| w.anomalous).collect();
        assert_eq!(labels, vec![false, true, false]);
        assert_eq!(d.classes, b.classes);
        // Pure function of the window index: reapplying is identical.
        let d2 = s.apply(&b);
        for (x, y) in d.windows.iter().zip(&d2.windows) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn drift_apply_rejects_non_finite_shift() {
        let s = DriftSchedule { kind: DriftKind::Step, onset: 0, level: f32::NAN, scale: 0.0 };
        let _ = s.apply(&base());
    }
}
