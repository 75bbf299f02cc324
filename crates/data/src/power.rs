//! Synthetic univariate power-demand dataset.
//!
//! Substitutes the Dutch power-demand dataset (UCR discords) used by the
//! paper (§III-A) and its references \[2\], \[3\], \[9\]. The real data is one year
//! of 15-minute electricity demand with a strong weekly rhythm; the
//! documented anomalies are **weekdays whose demand collapses to a
//! weekend/holiday profile**.
//!
//! This generator reproduces those properties:
//!
//! * each *sample* is one weekday of `samples_per_day` readings (default 96,
//!   i.e. 15-minute cadence) — the same day-granularity the paper's
//!   contextual features are computed at ("min, max, mean, and standard
//!   deviation of each day's sensor data", §III-B);
//! * normal weekdays follow a double-hump profile (morning and evening
//!   peaks over a base load) with subject-free multiplicative jitter;
//! * anomalous weekdays come in three hardness tiers, so that models of
//!   different capacity genuinely separate (the paper's core premise that
//!   "different data samples often have different levels of hardness"):
//!   - [`AnomalyKind::Holiday`] — full weekend-shaped collapse (easy),
//!   - [`AnomalyKind::Outage`] — normal morning then a collapsed afternoon
//!     (medium),
//!   - [`AnomalyKind::DampedPeaks`] — peaks attenuated by ~25–40 % (hard).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hec_tensor::{math, Matrix};

use crate::gaussian;
use crate::window::LabeledWindow;

/// Anomaly hardness tiers for the synthetic power data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Weekend-shaped collapse of the whole day (easy to detect).
    Holiday,
    /// Normal morning, collapsed afternoon (medium).
    Outage,
    /// Morning/evening peaks damped by ~25–40 % (hard).
    DampedPeaks,
}

impl AnomalyKind {
    /// All tiers in increasing detection difficulty.
    pub const ALL: [AnomalyKind; 3] =
        [AnomalyKind::Holiday, AnomalyKind::Outage, AnomalyKind::DampedPeaks];

    /// Index of the tier (0 = easiest).
    pub fn class_index(self) -> usize {
        match self {
            AnomalyKind::Holiday => 0,
            AnomalyKind::Outage => 1,
            AnomalyKind::DampedPeaks => 2,
        }
    }
}

/// Configuration for [`PowerGenerator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerConfig {
    /// Number of weekday samples to generate.
    pub days: usize,
    /// Readings per day (default 96 = 15-minute cadence).
    pub samples_per_day: usize,
    /// Fraction of days that are anomalous (default 0.12).
    pub anomaly_rate: f64,
    /// Additive Gaussian noise std, in normalised demand units.
    pub noise_std: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        Self { days: 600, samples_per_day: 96, anomaly_rate: 0.12, noise_std: 0.015, seed: 42 }
    }
}

/// Deterministic generator for the synthetic power-demand dataset.
///
/// # Example
///
/// ```rust
/// use hec_data::{PowerConfig, PowerGenerator};
///
/// let gen = PowerGenerator::new(PowerConfig { days: 20, ..Default::default() });
/// let days = gen.generate();
/// assert_eq!(days.len(), 20);
/// assert_eq!(days[0].0.data.shape(), (96, 1));
/// ```
#[derive(Debug, Clone)]
pub struct PowerGenerator {
    config: PowerConfig,
}

impl PowerGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`, `samples_per_day < 8`, or
    /// `anomaly_rate ∉ [0, 1]`.
    pub fn new(config: PowerConfig) -> Self {
        assert!(config.days > 0, "days must be non-zero");
        assert!(config.samples_per_day >= 8, "need at least 8 samples per day");
        assert!((0.0..=1.0).contains(&config.anomaly_rate), "anomaly_rate must be in [0, 1]");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PowerConfig {
        &self.config
    }

    /// Generates the dataset: one `(window, kind)` pair per day, where `kind`
    /// is `None` for normal days. Windows are `samples_per_day × 1`.
    pub fn generate(&self) -> Vec<(LabeledWindow, Option<AnomalyKind>)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        (0..self.config.days)
            .map(|_| {
                let kind = if rng.gen_bool(self.config.anomaly_rate) {
                    Some(match rng.gen_range(0..3) {
                        0 => AnomalyKind::Holiday,
                        1 => AnomalyKind::Outage,
                        _ => AnomalyKind::DampedPeaks,
                    })
                } else {
                    None
                };
                let day = self.day_profile(&mut rng, kind);
                (LabeledWindow::new(day, kind.is_some()), kind)
            })
            .collect()
    }

    /// Generates one day's demand curve.
    ///
    /// Normal days are drawn from an 8-factor latent model (base load,
    /// morning/evening peak amplitude-position-width, midday bump) so that
    /// autoencoders of different bottleneck widths genuinely differ in how
    /// well they can model *normal* variability — the mechanism behind the
    /// paper's capacity/accuracy ladder.
    fn day_profile(&self, rng: &mut StdRng, kind: Option<AnomalyKind>) -> Matrix {
        let n = self.config.samples_per_day;
        let mut p = DayParams::sample(rng);
        let sag: f32 = rng.gen_range(0.68..0.80); // Outage afternoon factor
        let damp: f32 = rng.gen_range(0.72..0.84); // DampedPeaks factor
        if let Some(AnomalyKind::DampedPeaks) = kind {
            // Hard anomaly: attenuate both peaks by 16-28% — well outside
            // the ±5% natural amplitude variation, but small compared to the
            // positional variability a narrow bottleneck cannot track.
            p.m_amp *= damp;
            p.e_amp *= damp;
        }
        let mut values = Vec::with_capacity(n);
        for s in 0..n {
            let t = s as f32 / n as f32;
            let base = match kind {
                None | Some(AnomalyKind::DampedPeaks) => p.shape(t),
                Some(AnomalyKind::Holiday) => weekend_shape(t),
                Some(AnomalyKind::Outage) => {
                    // Medium: sustained afternoon sag of 20-32%.
                    if t < 0.55 {
                        p.shape(t)
                    } else {
                        sag * p.shape(t)
                    }
                }
            };
            let noise = gaussian(rng) * self.config.noise_std;
            values.push((base + noise).max(0.0));
        }
        Matrix::from_vec(n, 1, values)
    }
}

/// The latent factors of one normal day.
#[derive(Debug, Clone, Copy)]
struct DayParams {
    base: f32,
    m_amp: f32,
    m_pos: f32,
    m_width: f32,
    e_amp: f32,
    e_pos: f32,
    e_width: f32,
    mid_amp: f32,
}

impl DayParams {
    /// Draws a normal day's factors. Peak *positions and widths* vary a lot
    /// (hard to encode through a narrow bottleneck); peak *amplitudes* vary
    /// little (±5%), so amplitude anomalies are separable in principle.
    fn sample(rng: &mut StdRng) -> Self {
        Self {
            base: rng.gen_range(0.33..0.37),
            m_amp: rng.gen_range(0.52..0.58),
            m_pos: rng.gen_range(0.32..0.39),
            m_width: rng.gen_range(0.055..0.095),
            e_amp: rng.gen_range(0.62..0.68),
            e_pos: rng.gen_range(0.78..0.85),
            e_width: rng.gen_range(0.075..0.115),
            mid_amp: rng.gen_range(0.18..0.30),
        }
    }

    /// Demand at day-fraction `t`.
    fn shape(&self, t: f32) -> f32 {
        self.base
            + self.m_amp * bump(t, self.m_pos, self.m_width)
            + self.e_amp * bump(t, self.e_pos, self.e_width)
            + self.mid_amp * bump(t, 0.55, 0.12)
    }
}

/// Normalised weekday demand at the template parameters (used by tests).
#[cfg(test)]
fn weekday_shape(t: f32) -> f32 {
    let base = 0.35;
    let morning = 0.55 * bump(t, 0.354, 0.07); // 08:30
    let evening = 0.65 * bump(t, 0.8125, 0.09); // 19:30
    let midday = 0.25 * bump(t, 0.55, 0.12);
    base + morning + evening + midday
}

/// Normalised weekend/holiday demand: low, flat, mild midday bump.
fn weekend_shape(t: f32) -> f32 {
    0.30 + 0.18 * bump(t, 0.58, 0.16)
}

/// Gaussian bump centred at `c` with width `w`.
fn bump(t: f32, c: f32, w: f32) -> f32 {
    let d = (t - c) / w;
    math::exp(-0.5 * d * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PowerGenerator {
        PowerGenerator::new(PowerConfig { days: 200, ..Default::default() })
    }

    #[test]
    fn generates_requested_days() {
        let days = small().generate();
        assert_eq!(days.len(), 200);
        for (w, kind) in &days {
            assert_eq!(w.data.shape(), (96, 1));
            assert_eq!(w.anomalous, kind.is_some());
        }
    }

    #[test]
    fn anomaly_rate_roughly_respected() {
        let days = small().generate();
        let anomalous = days.iter().filter(|(w, _)| w.anomalous).count();
        let rate = anomalous as f64 / days.len() as f64;
        assert!((rate - 0.12).abs() < 0.06, "rate {rate} far from 0.12");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a.len(), b.len());
        for ((wa, _), (wb, _)) in a.iter().zip(b.iter()) {
            assert_eq!(wa.data, wb.data);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().generate();
        let b = PowerGenerator::new(PowerConfig { days: 200, seed: 7, ..Default::default() })
            .generate();
        assert!(a.iter().zip(b.iter()).any(|((wa, _), (wb, _))| wa.data != wb.data));
    }

    #[test]
    fn holiday_has_lower_mean_than_normal() {
        let days = small().generate();
        let mean_of = |pred: &dyn Fn(&Option<AnomalyKind>) -> bool| {
            let sel: Vec<f32> =
                days.iter().filter(|(_, k)| pred(k)).map(|(w, _)| w.data.mean()).collect();
            sel.iter().sum::<f32>() / sel.len().max(1) as f32
        };
        let normal = mean_of(&|k| k.is_none());
        let holiday = mean_of(&|k| matches!(k, Some(AnomalyKind::Holiday)));
        assert!(holiday < normal * 0.8, "holiday mean {holiday} not clearly below normal {normal}");
    }

    #[test]
    fn damped_peaks_is_subtler_than_holiday() {
        // Hardness ordering: the damped-peaks deviation from the normal
        // profile is smaller than the holiday deviation.
        let gen =
            PowerGenerator::new(PowerConfig { days: 400, noise_std: 0.0, ..Default::default() });
        let days = gen.generate();
        let template: Vec<f32> = (0..96).map(|s| weekday_shape(s as f32 / 96.0)).collect();
        let avg_dev = |kind: AnomalyKind| {
            let devs: Vec<f32> = days
                .iter()
                .filter(|(_, k)| *k == Some(kind))
                .map(|(w, _)| {
                    w.data
                        .as_slice()
                        .iter()
                        .zip(template.iter())
                        .map(|(a, b)| (a - b).abs())
                        .sum::<f32>()
                        / 96.0
                })
                .collect();
            devs.iter().sum::<f32>() / devs.len().max(1) as f32
        };
        let holiday = avg_dev(AnomalyKind::Holiday);
        let damped = avg_dev(AnomalyKind::DampedPeaks);
        assert!(damped < holiday, "expected damped ({damped}) subtler than holiday ({holiday})");
    }

    #[test]
    fn values_are_non_negative() {
        let days = small().generate();
        for (w, _) in &days {
            assert!(w.data.min() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "anomaly_rate")]
    fn invalid_rate_rejected() {
        let _ = PowerGenerator::new(PowerConfig { anomaly_rate: 1.5, ..Default::default() });
    }
}
