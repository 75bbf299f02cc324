//! Drift detection on the score stream, and the sliding reservoir that
//! feeds recalibration.
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
//! [`SlidingReservoir`] is the companion buffer: the last `capacity`
//! raw windows of the stream, pushed unconditionally (self-labelled
//! filtering would starve exactly when drift makes everything look
//! anomalous). On an alarm the adaptation loop refits the standardiser
//! from the reservoir and recalibrates the detector scorers on the
//! subset the refreshed pipeline judges normal.
//!
//! [`detect_batch`]: crate::AnomalyDetector::detect_batch

use std::collections::VecDeque;

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

/// Page–Hinkley test parameters: the dead band and the alarm threshold
/// are fixed, the warm-up is the caller's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageHinkleyConfig {
    /// Warm-up: no alarm before this many observations (the running
    /// mean needs samples before deviations are meaningful).
    pub min_samples: u64,
}

impl Default for PageHinkleyConfig {
    fn default() -> Self {
        Self { min_samples: 30 }
    }
}

/// The Page–Hinkley mean-shift test: O(1) per observation, exact-rerun
/// deterministic.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::{PageHinkley, PageHinkleyConfig};
///
/// let mut ph = PageHinkley::new(PageHinkleyConfig::default());
/// for _ in 0..100 {
///     assert!(!ph.observe(0.1)); // stationary: no alarm
/// }
/// let fired = (0..20).any(|_| ph.observe(1.0)); // sustained shift
/// assert!(fired);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageHinkley {
    config: PageHinkleyConfig,
    n: u64,
    mean: f64,
    cum_up: f64,
    min_up: f64,
}

impl PageHinkley {
    /// A fresh test with the given parameters.
    pub fn new(config: PageHinkleyConfig) -> Self {
        Self { config, n: 0, mean: 0.0, cum_up: 0.0, min_up: 0.0 }
    }

    /// Observations absorbed since the last reset.
    pub fn observations(&self) -> u64 {
        self.n
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
        self.n >= self.config.min_samples && self.statistic() > LAMBDA
    }

    /// Forgets all state (called after a refresh so the test re-learns
    /// the post-refresh regime from scratch).
    pub fn reset(&mut self) {
        *self = Self::new(self.config);
    }
}

/// A fixed-capacity sliding window over the most recent items: push
/// evicts the oldest once full. The adaptation loop keeps the last `R`
/// **raw** windows here so a refresh always has recent data to refit
/// from, whatever the frozen pipeline currently thinks of it.
#[derive(Debug, Clone)]
pub struct SlidingReservoir<T> {
    capacity: usize,
    buf: VecDeque<T>,
}

impl<T> SlidingReservoir<T> {
    /// An empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be at least 1");
        Self { capacity, buf: VecDeque::with_capacity(capacity) }
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends an item, evicting the oldest if at capacity.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_stream_never_alarms() {
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
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
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
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
        assert_eq!(ph.observations(), 0);
        for _ in 0..100 {
            assert!(!ph.observe(0.95), "after reset the new level is the new normal");
        }
    }

    #[test]
    fn min_samples_suppresses_early_alarms() {
        let cfg = PageHinkleyConfig { min_samples: 50 };
        let mut ph = PageHinkley::new(cfg);
        for i in 0..49 {
            // Wildly shifting from the start — still quiet during warm-up.
            assert!(!ph.observe(if i < 5 { 0.0 } else { 1.0 }) || i >= 49);
        }
    }

    #[test]
    fn alarm_index_is_deterministic() {
        let stream: Vec<f32> = (0..300).map(|i| if i < 150 { 0.1 } else { 0.8 }).collect();
        let run = |cfg: PageHinkleyConfig| {
            let mut ph = PageHinkley::new(cfg);
            stream.iter().position(|&x| ph.observe(x))
        };
        let cfg = PageHinkleyConfig::default();
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    #[should_panic(expected = "non-finite observation")]
    fn non_finite_observations_panic() {
        let mut ph = PageHinkley::new(PageHinkleyConfig::default());
        let _ = ph.observe(f32::NAN);
    }

    #[test]
    fn reservoir_is_a_sliding_window() {
        let mut r = SlidingReservoir::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        let held: Vec<i32> = r.iter().copied().collect();
        assert_eq!(held, vec![2, 3, 4], "oldest evicted first, iteration oldest → newest");
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_reservoir_panics() {
        let _ = SlidingReservoir::<i32>::new(0);
    }
}
