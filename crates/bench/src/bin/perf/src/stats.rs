//! Order statistics over the samples one run collects.

/// What a metric reports, with the quartiles and size of the sample it
/// was taken from. `value` is the sample's median unless the caller
/// replaces it (the run reports the fast end of its host-time samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A summary of one exact observation (no spread).
    pub fn single(value: f64) -> Self {
        Self { value, q1: value, q3: value, n: 1 }
    }

    /// Interquartile range as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

/// The `p`-quantile of `samples` (`0` the smallest, `1` the largest).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn quantile_of(samples: &[f64], p: f64) -> f64 {
    quantile(&ascending(samples), p)
}

/// Median and quartiles of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = ascending(samples);
    Summary {
        value: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_takes_the_middle_sample() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s, Summary { value: 5.0, q1: 3.0, q3: 7.0, n: 5 });
    }

    #[test]
    fn even_count_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { value: 2.5, q1: 1.75, q3: 3.25, n: 4 });
    }

    #[test]
    fn one_sample_has_no_spread() {
        let s = summarize(&[2.0]);
        assert_eq!(s, Summary::single(2.0));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [30.0, 10.0, 20.0, 50.0, 40.0];
        assert_eq!(quantile_of(&samples, 0.0), 10.0);
        assert_eq!(quantile_of(&samples, 1.0), 50.0);
        assert!((quantile_of(&samples, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_value() {
        let s = summarize(&[8.0, 10.0, 12.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }
}
