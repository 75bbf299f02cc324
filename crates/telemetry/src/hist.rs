//! Log-linear-bin histogram — the fleet simulator's latency histogram,
//! kept here so every layer can record mergeable distributions
//! (latencies, queue residencies, batch sizes) through the metrics
//! registry.
//!
//! A sample `x` is binned by the bits of the `f64` sum `y = 1 + x`: its
//! exponent and the top six bits of its mantissa, the HdrHistogram /
//! DDSketch layout (Masson, Rim & Lee, VLDB 2019). Every power of two of
//! `y` is cut into 64 equal bins, so a bin is 1/127 to 1/64 (0.78–1.56 %)
//! of its lower edge wide. Binning is a shift and a subtract, bin edges
//! are exact `f64`s built from bits, and a quantile's midpoint is an IEEE
//! `sqrt` of two edges: nothing here calls libm, so a histogram's
//! quantiles are the same bits on every host.

/// `bits >> SHIFT` keeps an `f64`'s sign, exponent and top six mantissa
/// bits: what names its bin.
const SHIFT: u32 = 46;

/// `1.0_f64.to_bits() >> SHIFT`: the bin of `y = 1` (a sample of 0) is 0.
const FIRST: u64 = 1023 << 6;

/// The last bin: that of `y = f64::MAX`, where +∞ counts too.
const LAST: usize = ((f64::MAX.to_bits() >> SHIFT) - FIRST) as usize;

/// Bin of `y = 1 + x` (`y ≥ 1`, or +∞).
#[inline]
fn bin_of(y: f64) -> usize {
    ((y.to_bits() >> SHIFT) - FIRST).min(LAST as u64) as usize
}

/// Lower edge of bin `i` in `y = 1 + x`, exact; `edge(LAST + 1)` is +∞.
fn edge(i: usize) -> f64 {
    f64::from_bits((i as u64 + FIRST) << SHIFT)
}

/// Histogram over non-negative samples, in log-linear bins (module docs).
///
/// Bin `i` holds the samples whose `y = 1 + x` (one `f64` addition) lies
/// in `[edge(i), edge(i + 1))`, so a quantile's `1 + x` is within 0.78 %
/// of the exact order statistic's, in O(1) memory however many samples
/// stream in. The mean is exact
/// (tracked as a running sum); quantiles return the geometric midpoint, in
/// `y`, of the selected bin, clamped to the observed extremes. Negative and
/// NaN samples count as 0. +∞ counts in the last bin, that of `f64::MAX`
/// (65 536 bins, 512 KiB); it makes the sum, the mean, the max and any
/// quantile that reaches it +∞.
///
/// Everything is deterministic: identical sample sequences produce
/// identical histograms and quantiles, and `merge` is associative and
/// commutative on the bin counts (the running `sum` is an f64 addition, so
/// bitwise associativity additionally requires samples whose sums are
/// exact — e.g. integer-valued samples — which the property tests pin).
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
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { bins: Vec::new(), count: 0, sum: 0.0, min: f64::INFINITY, max: 0.0 }
    }

    /// Records one sample (negatives and NaN count as zero).
    pub fn record(&mut self, x: f64) {
        let x = x.max(0.0);
        let idx = bin_of(1.0 + x);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
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
                // Geometric midpoint in `y = 1 + x` (two edges of seven
                // significant bits: their product is exact unless it
                // overflows), clamped to the observed extremes so p100
                // never exceeds the true max.
                let mid = (edge(idx) * edge(idx + 1)).sqrt() - 1.0;
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

    /// Every bin's edges name it from both sides: the lower edge is in
    /// the bin, the `f64` just below the next edge is too.
    #[test]
    fn edges_bracket_their_bin() {
        for i in 0..=LAST {
            assert_eq!(bin_of(edge(i)), i, "lower edge of bin {i}");
            assert_eq!(bin_of(edge(i + 1).next_down()), i, "top of bin {i}");
        }
        assert_eq!(edge(0), 1.0);
        assert_eq!(edge(LAST + 1), f64::INFINITY);
        assert_eq!(bin_of(f64::MAX), LAST);
    }

    /// A bin is 2⁻⁷ … 2⁻⁶ of its lower edge wide (0.78–1.56 %).
    #[test]
    fn relative_bin_width_is_within_bounds() {
        for i in 0..LAST {
            let width = (edge(i + 1) - edge(i)) / edge(i);
            assert!((1.0 / 128.0..=1.0 / 64.0).contains(&width), "bin {i}: {width}");
        }
    }

    /// On `1..=1000` every quantile lands in the bin of the exact order
    /// statistic, or one beside it.
    #[test]
    fn quantiles_are_within_one_bin_of_exact() {
        let mut h = GeomHist::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for permille in 0..=1000 {
            let q = permille as f64 / 1000.0;
            let exact = ((q * 1000.0).ceil() as u64).max(1) as f64;
            let got = h.quantile(q);
            let bins = bin_of(1.0 + got).abs_diff(bin_of(1.0 + exact));
            assert!(bins <= 1, "q {q}: {got} is {bins} bins from {exact}");
        }
    }

    /// +∞ counts in the last bin instead of sizing the bins past it; NaN
    /// counts as 0, like a negative sample.
    #[test]
    fn non_finite_samples_are_pinned() {
        let mut h = GeomHist::new();
        h.record(1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.bins.len(), LAST + 1);
        assert_eq!((h.bins[bin_of(2.0)], h.bins[LAST]), (1, 1));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), f64::INFINITY);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert!((h.quantile(0.5) - 1.0).abs() < 0.02);

        let of = |x: f64| {
            let mut h = GeomHist::new();
            h.record(x);
            h.record(3.0);
            h
        };
        assert_eq!(of(f64::NAN), of(0.0));
        assert_eq!(of(-5.0), of(0.0));
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
