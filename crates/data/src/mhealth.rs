//! Synthetic MHEALTH-like multivariate dataset.
//!
//! Substitutes the UCI MHEALTH dataset used by the paper (§III-A): 10
//! subjects, 12 activities, two body-worn motion sensors (left ankle and
//! right wrist), each with a 3-axis accelerometer, gyroscope and
//! magnetometer — 18 channels at 50 Hz. Windows are 128 timesteps
//! (~2.56 s) with stride 64, the dominant activity (walking) is *normal*
//! and all other activities are *anomalous*.
//!
//! Each `(activity, channel)` pair gets a stable pseudo-random harmonic
//! signature (fundamental frequency, two harmonics, DC offset) drawn from a
//! seed-derived bank, plus per-subject amplitude scaling and per-session
//! phase, plus white noise. Activities differ from walking by varying
//! amounts (standing is near-DC, jogging is walking-like at higher
//! frequency), which reproduces the hardness spectrum the adaptive scheme
//! exploits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hec_tensor::{math, Matrix};

use crate::gaussian;
use crate::window::{sliding_windows, LabeledWindow};

/// Number of sensor channels (2 sensors × 3 modalities × 3 axes).
pub const CHANNELS: usize = 18;

/// The 12 MHEALTH activities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// Standing still (near-DC signals).
    Standing,
    /// Sitting and relaxing.
    Sitting,
    /// Lying down.
    LyingDown,
    /// Walking — the dominant activity, treated as **normal**.
    Walking,
    /// Climbing stairs.
    ClimbingStairs,
    /// Waist bends forward.
    WaistBends,
    /// Frontal elevation of arms.
    ArmElevation,
    /// Knees bending (crouching).
    KneesBending,
    /// Cycling.
    Cycling,
    /// Jogging.
    Jogging,
    /// Running.
    Running,
    /// Jump front and back.
    Jumping,
}

impl Activity {
    /// All 12 activities in MHEALTH order.
    pub const ALL: [Activity; 12] = [
        Activity::Standing,
        Activity::Sitting,
        Activity::LyingDown,
        Activity::Walking,
        Activity::ClimbingStairs,
        Activity::WaistBends,
        Activity::ArmElevation,
        Activity::KneesBending,
        Activity::Cycling,
        Activity::Jogging,
        Activity::Running,
        Activity::Jumping,
    ];

    /// Stable index 0..12.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&a| a == self).expect("activity in ALL")
    }

    /// Whether this activity is the dataset's *normal* class.
    pub fn is_normal(self) -> bool {
        self == Activity::Walking
    }

    /// Fundamental movement frequency in Hz (drives the harmonic signature).
    fn fundamental_hz(self) -> f32 {
        match self {
            Activity::Standing => 0.15,
            Activity::Sitting => 0.10,
            Activity::LyingDown => 0.08,
            Activity::Walking => 1.8,
            Activity::ClimbingStairs => 1.4,
            Activity::WaistBends => 0.5,
            Activity::ArmElevation => 0.6,
            Activity::KneesBending => 0.7,
            Activity::Cycling => 1.5,
            Activity::Jogging => 2.6,
            Activity::Running => 3.2,
            Activity::Jumping => 2.2,
        }
    }

    /// Overall movement intensity (scales the oscillatory amplitude).
    fn intensity(self) -> f32 {
        match self {
            Activity::Standing => 0.08,
            Activity::Sitting => 0.05,
            Activity::LyingDown => 0.04,
            Activity::Walking => 1.0,
            Activity::ClimbingStairs => 1.15,
            Activity::WaistBends => 0.7,
            Activity::ArmElevation => 0.65,
            Activity::KneesBending => 0.8,
            Activity::Cycling => 0.9,
            Activity::Jogging => 1.6,
            Activity::Running => 2.1,
            Activity::Jumping => 1.9,
        }
    }

    /// How similar the activity's motion signature is to walking, in
    /// `[0, 1)`. The generator blends each activity's harmonic bank toward
    /// walking's by this factor, creating the hardness spectrum the paper's
    /// adaptive scheme exploits: near-walking gaits (stairs, jogging) are
    /// hard for small models; static postures are trivially easy.
    fn walking_similarity(self) -> f32 {
        match self {
            Activity::Standing => 0.0,
            Activity::Sitting => 0.0,
            Activity::LyingDown => 0.0,
            Activity::Walking => 1.0,
            Activity::ClimbingStairs => 0.93,
            Activity::WaistBends => 0.55,
            Activity::ArmElevation => 0.60,
            Activity::KneesBending => 0.85,
            Activity::Cycling => 0.88,
            Activity::Jogging => 0.90,
            Activity::Running => 0.82,
            Activity::Jumping => 0.75,
        }
    }
}

/// Configuration for [`MhealthGenerator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MhealthConfig {
    /// Number of subjects (default 10, as in MHEALTH).
    pub subjects: usize,
    /// Window length in timesteps (default 128 ≈ 2.56 s at 50 Hz).
    pub window: usize,
    /// Window stride (default 64).
    pub stride: usize,
    /// Session length in timesteps for each anomalous activity per subject.
    pub session_len: usize,
    /// Multiplier on session length for the normal activity, so normal
    /// windows dominate the corpus (walking is the dominant activity).
    pub normal_session_multiplier: usize,
    /// White-noise standard deviation.
    pub noise_std: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MhealthConfig {
    fn default() -> Self {
        Self {
            subjects: 10,
            window: 128,
            stride: 64,
            session_len: 1024,
            normal_session_multiplier: 8,
            noise_std: 0.20,
            seed: 42,
        }
    }
}

/// Per-(activity, channel) harmonic signature.
#[derive(Debug, Clone, Copy)]
struct Signature {
    dc: f32,
    amp1: f32,
    amp2: f32,
    amp3: f32,
    phase: f32,
}

/// Deterministic generator for the synthetic MHEALTH-like dataset.
///
/// # Example
///
/// ```rust
/// use hec_data::{Activity, MhealthConfig, MhealthGenerator};
///
/// let gen = MhealthGenerator::new(MhealthConfig {
///     subjects: 2, session_len: 256, ..Default::default()
/// });
/// let windows = gen.generate();
/// assert!(windows.iter().any(|(_, a)| a.is_normal()));
/// assert!(windows.iter().all(|(w, _)| w.channels() == 18));
/// ```
#[derive(Debug, Clone)]
pub struct MhealthGenerator {
    config: MhealthConfig,
    signatures: Vec<Signature>, // 12 × 18, indexed activity*CHANNELS + channel
}

/// Sampling rate of the simulated sensors, Hz.
pub(crate) const SAMPLE_RATE_HZ: f32 = 50.0;

impl MhealthGenerator {
    /// Creates a generator; the signature bank is derived from the seed.
    ///
    /// # Panics
    ///
    /// Panics if any of `subjects`, `window`, `stride`, `session_len` or
    /// `normal_session_multiplier` is zero, or `session_len < window`.
    pub fn new(config: MhealthConfig) -> Self {
        assert!(config.subjects > 0, "subjects must be non-zero");
        assert!(config.window > 0 && config.stride > 0, "window/stride must be non-zero");
        assert!(config.session_len >= config.window, "session shorter than a window");
        assert!(config.normal_session_multiplier > 0, "multiplier must be non-zero");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0FFEE);
        let signatures = (0..Activity::ALL.len() * CHANNELS)
            .map(|_| Signature {
                dc: rng.gen_range(-0.6..0.6),
                amp1: rng.gen_range(0.4..1.0),
                amp2: rng.gen_range(0.1..0.5),
                amp3: rng.gen_range(0.02..0.2),
                phase: rng.gen_range(0.0..std::f32::consts::TAU),
            })
            .collect();
        Self { config, signatures }
    }

    /// The configuration.
    pub fn config(&self) -> &MhealthConfig {
        &self.config
    }

    /// Synthesises one session (`steps × 18`) for a subject and activity,
    /// using the activity's built-in `Activity::walking_similarity`.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `subject >= subjects`.
    pub fn session(&self, subject: usize, activity: Activity, steps: usize) -> Matrix {
        self.session_with_similarity(subject, activity, steps, activity.walking_similarity())
    }

    /// Like [`MhealthGenerator::session`] but with an explicit
    /// walking-similarity blend in `[0, 1]` — the hardness dial used by the
    /// calibration probes and hardness ablations (1.0 = indistinguishable
    /// from walking, 0.0 = the activity's raw signature).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, `subject >= subjects`, or `blend ∉ [0, 1]`.
    pub(crate) fn session_with_similarity(
        &self,
        subject: usize,
        activity: Activity,
        steps: usize,
        blend: f32,
    ) -> Matrix {
        assert!(steps > 0, "steps must be non-zero");
        assert!(subject < self.config.subjects, "subject out of range");
        assert!((0.0..=1.0).contains(&blend), "blend must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((subject * 131 + activity.index()) as u64),
        );
        let subject_scale: f32 = 0.85 + 0.3 * (subject as f32 / self.config.subjects as f32);
        let session_phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        // Blend the activity toward walking by its similarity: near-walking
        // activities become subtle (hard) anomalies, static postures stay
        // blatantly different (easy).
        let walk = Activity::Walking;
        let f0 = blend * walk.fundamental_hz() + (1.0 - blend) * activity.fundamental_hz();
        let intensity = blend * walk.intensity() + (1.0 - blend) * activity.intensity();

        // Continuous latent dynamics: the gait frequency wanders slowly
        // (±12%) and every channel carries its own slow amplitude envelope
        // (independent phases/rates — limb-placement dynamics). This puts
        // the window's latent dimensionality at ≈ 2 + 18, so LSTM encoder
        // capacity genuinely binds: a small state cannot track the per-
        // channel envelopes and its reconstruction envelope on *normal*
        // data stays wide, hiding subtle activity deviations.
        let wander_phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let wander_rate: f32 = rng.gen_range(0.05..0.10); // Hz
        let mod_phases: Vec<f32> =
            (0..CHANNELS).map(|_| rng.gen_range(0.0..std::f32::consts::TAU)).collect();
        let mod_rates: Vec<f32> = (0..CHANNELS).map(|_| rng.gen_range(0.20..0.50)).collect();
        let dt = 1.0 / SAMPLE_RATE_HZ;

        let mut data = Vec::with_capacity(steps * CHANNELS);
        let mut theta = session_phase; // integrated gait phase
        for s in 0..steps {
            let t = s as f32 / SAMPLE_RATE_HZ;
            let wander =
                1.0 + 0.12 * math::sin(std::f32::consts::TAU * wander_rate * t + wander_phase);
            theta += std::f32::consts::TAU * f0 * wander * dt;
            for c in 0..CHANNELS {
                let amp_mod = 1.0
                    + 0.25 * math::sin(std::f32::consts::TAU * mod_rates[c] * t + mod_phases[c]);
                let own = self.signatures[activity.index() * CHANNELS + c];
                let base = self.signatures[walk.index() * CHANNELS + c];
                let sig = Signature {
                    dc: blend * base.dc + (1.0 - blend) * own.dc,
                    amp1: blend * base.amp1 + (1.0 - blend) * own.amp1,
                    amp2: blend * base.amp2 + (1.0 - blend) * own.amp2,
                    amp3: blend * base.amp3 + (1.0 - blend) * own.amp3,
                    phase: blend * base.phase + (1.0 - blend) * own.phase,
                };
                let w = theta + sig.phase;
                let value = sig.dc
                    + intensity
                        * subject_scale
                        * amp_mod
                        * (sig.amp1 * math::sin(w)
                            + sig.amp2 * math::sin(2.0 * w)
                            + sig.amp3 * math::sin(3.0 * w + 0.7));
                let noise = gaussian(&mut rng) * self.config.noise_std;
                data.push(value + noise);
            }
        }
        Matrix::from_vec(steps, CHANNELS, data)
    }

    /// Generates the full windowed corpus: every subject performs every
    /// activity; walking sessions are `normal_session_multiplier` times
    /// longer. Returns `(window, activity)` pairs; the window's label is
    /// `!activity.is_normal()`.
    pub fn generate(&self) -> Vec<(LabeledWindow, Activity)> {
        let mut out = Vec::new();
        for subject in 0..self.config.subjects {
            for &activity in &Activity::ALL {
                let steps = if activity.is_normal() {
                    self.config.session_len * self.config.normal_session_multiplier
                } else {
                    self.config.session_len
                };
                let session = self.session(subject, activity, steps);
                for w in sliding_windows(&session, self.config.window, self.config.stride) {
                    out.push((LabeledWindow::new(w, !activity.is_normal()), activity));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MhealthGenerator {
        MhealthGenerator::new(MhealthConfig {
            subjects: 3,
            session_len: 256,
            normal_session_multiplier: 4,
            ..Default::default()
        })
    }

    #[test]
    fn session_shape() {
        let gen = tiny();
        let s = gen.session(0, Activity::Walking, 300);
        assert_eq!(s.shape(), (300, 18));
    }

    #[test]
    fn sessions_are_deterministic() {
        let gen = tiny();
        let a = gen.session(1, Activity::Cycling, 200);
        let b = gen.session(1, Activity::Cycling, 200);
        assert_eq!(a, b);
    }

    #[test]
    fn subjects_differ() {
        let gen = tiny();
        let a = gen.session(0, Activity::Walking, 200);
        let b = gen.session(1, Activity::Walking, 200);
        assert!((&a - &b).frobenius_norm() > 1.0);
    }

    #[test]
    fn activities_differ() {
        let gen = tiny();
        let a = gen.session(0, Activity::Walking, 200);
        let b = gen.session(0, Activity::Running, 200);
        assert!((&a - &b).frobenius_norm() > 1.0);
    }

    #[test]
    fn walking_windows_dominate() {
        let windows = tiny().generate();
        let normal = windows.iter().filter(|(w, _)| !w.anomalous).count();
        let anomalous = windows.len() - normal;
        // multiplier 4 on 1 normal activity vs 11 anomalous activities of
        // equal length: normal should still be a sizeable fraction.
        assert!(normal > 0 && anomalous > 0);
        let windows_per_session = (256 - 128) / 64 + 1; // 3
        let expected_normal = 3 * ((256 * 4 - 128) / 64 + 1);
        assert_eq!(normal, expected_normal);
        assert_eq!(anomalous, 3 * 11 * windows_per_session);
    }

    #[test]
    fn labels_match_activity() {
        for (w, a) in tiny().generate() {
            assert_eq!(w.anomalous, !a.is_normal());
        }
    }

    #[test]
    fn window_dimensions() {
        for (w, _) in tiny().generate() {
            assert_eq!(w.len(), 128);
            assert_eq!(w.channels(), 18);
        }
    }

    #[test]
    fn standing_is_calmer_than_running() {
        let gen = tiny();
        let still = gen.session(0, Activity::Standing, 256);
        let run = gen.session(0, Activity::Running, 256);
        let energy = |m: &Matrix| {
            let mean = m.mean();
            m.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / m.len() as f32
        };
        // Running is blended 0.6 toward walking (hardness continuum), so the
        // contrast is intentionally moderate rather than extreme.
        assert!(energy(&run) > 2.5 * energy(&still));
    }

    #[test]
    fn activity_indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in Activity::ALL {
            assert!(seen.insert(a.index()));
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    #[should_panic(expected = "subject out of range")]
    fn bad_subject_panics() {
        let gen = tiny();
        let _ = gen.session(99, Activity::Walking, 10);
    }
}
