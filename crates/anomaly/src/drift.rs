//! Drift detection on the score stream.
//!
//! The detectors are fit offline and frozen; under a regime change their
//! score stream is the first place the shift becomes visible — a frozen
//! standardiser maps post-drift normals far from the training manifold,
//! reconstruction errors explode, and the per-window anomaly scores
//! saturate. [`PageHinkley`] watches any bounded per-window statistic
//! (the adaptation loop feeds it the layer-0 `anomalous_fraction` from
//! [`detect_batch`]) and raises a deterministic alarm when its running
//! mean shifts by more than a dead-band for long enough. O(1) state and
//! O(1) work per window, no RNG — the alarm index is a pure function of
//! the observed sequence, so the refresh schedule it drives is
//! byte-identical across reruns and thread counts.
//!
//! [`detect_batch`]: crate::AnomalyDetector::detect_batch

/// Dead-band half-width: deviations from the running mean smaller than
/// this never accumulate. It absorbs the normal-regime wobble of a bounded
/// `[0, 1]` statistic such as a flagged-window fraction.
const DELTA: f64 = 0.05;

/// Alarm threshold on the accumulated upward excursion. On a `[0, 1]`
/// statistic, 6 requires roughly eight consecutive fully-saturated windows
/// before alarming — long enough that a chance run of true anomalies (~15%
/// of windows in the paper protocol) will practically never trip it, short
/// enough that a real regime change is caught within a dozen windows.
const LAMBDA: f64 = 6.0;

/// Warm-up: no alarm before this many observations (the running mean
/// needs samples before deviations are meaningful).
const MIN_SAMPLES: u64 = 30;

/// The Page–Hinkley mean-shift test: O(1) per observation, exact-rerun
/// deterministic.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::PageHinkley;
///
/// let mut ph = PageHinkley::new();
/// for _ in 0..100 {
///     assert!(!ph.observe(0.1)); // stationary: no alarm
/// }
/// let fired = (0..20).any(|_| ph.observe(1.0)); // sustained shift
/// assert!(fired);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageHinkley {
    n: u64,
    mean: f64,
    cum_up: f64,
    min_up: f64,
}

impl PageHinkley {
    /// A fresh test.
    pub fn new() -> Self {
        Self::default()
    }

    /// The running mean of the observed stream.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The current upward excursion statistic (compared against the
    /// alarm threshold); useful for telemetry gauges. Drift pushes the
    /// flagged fraction up, so a sustained **rise** of the mean is what
    /// alarms.
    pub fn statistic(&self) -> f64 {
        self.cum_up - self.min_up
    }

    /// Absorbs one observation; returns `true` when the accumulated
    /// mean-shift excursion crosses the threshold (the caller decides whether
    /// to [`reset`](Self::reset) and refresh). The alarm keeps returning
    /// `true` until reset — it is a level, not an edge.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or ±∞: the score stream is produced by
    /// detectors that refuse non-finite input, so one arriving here is a
    /// pipeline bug, not data.
    pub fn observe(&mut self, x: f32) -> bool {
        assert!(x.is_finite(), "PageHinkley::observe: non-finite observation {x}");
        let x = x as f64;
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.cum_up += x - self.mean - DELTA;
        self.min_up = self.min_up.min(self.cum_up);
        self.n >= MIN_SAMPLES && self.statistic() > LAMBDA
    }

    /// Forgets all state (called after a refresh so the test re-learns
    /// the post-refresh regime from scratch).
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_stream_never_alarms() {
        let mut ph = PageHinkley::new();
        // A noisy but stationary 0/1 mix at ~15% positives (the paper's
        // anomaly rate), deterministic pattern.
        for i in 0..2000u32 {
            let x = if i % 7 == 0 { 1.0 } else { 0.05 };
            assert!(!ph.observe(x), "false alarm at {i}");
        }
        assert!(ph.mean() > 0.1 && ph.mean() < 0.3);
    }

    #[test]
    fn sustained_rise_alarms_and_reset_rearms() {
        let mut ph = PageHinkley::new();
        for _ in 0..100 {
            assert!(!ph.observe(0.1));
        }
        let mut fired_at = None;
        for i in 0..40 {
            if ph.observe(0.95) {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("a 0.1 → 0.95 shift must alarm");
        assert!(fired_at < 20, "alarm should fire within ~a dozen windows, got {fired_at}");
        // Level, not edge: stays up until reset.
        assert!(ph.observe(0.95));
        ph.reset();
        assert_eq!(ph.n, 0);
        for _ in 0..100 {
            assert!(!ph.observe(0.95), "after reset the new level is the new normal");
        }
    }

    #[test]
    fn min_samples_suppresses_early_alarms() {
        let mut ph = PageHinkley::new();
        // Wildly shifting from the start: the excursion is past the
        // threshold well before the warm-up ends, and only the warm-up
        // keeps the test quiet.
        let x = |i: u64| if i < 5 { 0.0 } else { 1.0 };
        for i in 0..MIN_SAMPLES - 1 {
            assert!(!ph.observe(x(i)), "alarm during warm-up at {i}");
        }
        assert!(ph.statistic() > LAMBDA);
        assert!(ph.observe(x(MIN_SAMPLES - 1)), "the first post-warm-up observation alarms");
    }

    #[test]
    fn alarm_index_is_deterministic() {
        let stream: Vec<f32> = (0..300).map(|i| if i < 150 { 0.1 } else { 0.8 }).collect();
        let run = || {
            let mut ph = PageHinkley::new();
            stream.iter().position(|&x| ph.observe(x))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    #[should_panic(expected = "non-finite observation")]
    fn non_finite_observations_panic() {
        let mut ph = PageHinkley::new();
        let _ = ph.observe(f32::NAN);
    }
}
