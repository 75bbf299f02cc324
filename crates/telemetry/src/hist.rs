//! Geometric-bin histogram — the fleet simulator's latency histogram,
//! kept here so every layer can record mergeable distributions
//! (latencies, queue residencies, batch sizes) through the metrics
//! registry.

/// Geometric-bin histogram over non-negative samples.
///
/// Bin `i` covers samples with `ln(1 + x) ∈ [i/R, (i+1)/R)` at resolution
/// `R =` [`GeomHist::BINS_PER_LN`], giving ~1.6 % relative quantile error
/// in O(1) memory however many samples stream in. The mean is exact
/// (tracked as a running sum); quantiles return the geometric midpoint of
/// the selected bin. Everything is deterministic: identical sample
/// sequences produce identical histograms and quantiles, and `merge` is
/// associative and commutative on the bin counts (the running `sum` is an
/// f64 addition, so bitwise associativity additionally requires samples
/// whose sums are exact — e.g. integer-valued samples — which the property
/// tests pin).
#[derive(Debug, Clone, PartialEq)]
pub struct GeomHist {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for GeomHist {
    fn default() -> Self {
        // A derived Default would start `min` at 0.0 instead of +∞ and
        // silently skew the quantile clamp — route through `new`.
        Self::new()
    }
}

impl GeomHist {
    /// Bins per natural-log unit (relative resolution `e^(1/R) − 1`).
    pub const BINS_PER_LN: f64 = 64.0;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { bins: Vec::new(), count: 0, sum: 0.0, min: f64::INFINITY, max: 0.0 }
    }

    fn bin_of(x: f64) -> usize {
        ((1.0 + x.max(0.0)).ln() * Self::BINS_PER_LN) as usize
    }

    /// Records one sample (negatives clamp to zero).
    pub fn record(&mut self, x: f64) {
        let idx = Self::bin_of(x);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += x.max(0.0);
        self.min = self.min.min(x.max(0.0));
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running sum of samples (exact for integer-valued inputs).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile `q ∈ [0, 1]` (geometric midpoint of the bin
    /// holding the q-th sample; 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= target {
                let lo = (idx as f64 / Self::BINS_PER_LN).exp() - 1.0;
                let hi = ((idx + 1) as f64 / Self::BINS_PER_LN).exp() - 1.0;
                // Geometric midpoint in (1+x) space, clamped to observed
                // extremes so p100 never exceeds the true max.
                let mid = ((1.0 + lo) * (1.0 + hi)).sqrt() - 1.0;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &GeomHist) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (b, &n) in self.bins.iter_mut().zip(&other.bins) {
            *b += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_mean_is_exact() {
        let mut h = GeomHist::new();
        for ms in [10.0, 20.0, 30.0] {
            h.record(ms);
        }
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 30.0);
        assert_eq!(h.min(), 10.0);
    }

    #[test]
    fn hist_quantiles_are_close() {
        let mut h = GeomHist::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 {p99}");
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn hist_empty_is_zero() {
        let h = GeomHist::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn hist_merge_matches_combined() {
        let mut a = GeomHist::new();
        let mut b = GeomHist::new();
        let mut all = GeomHist::new();
        for i in 0..100 {
            let ms = (i * 7 % 100) as f64 + 0.5;
            if i % 2 == 0 {
                a.record(ms);
            } else {
                b.record(ms);
            }
            all.record(ms);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
