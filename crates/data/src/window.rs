//! Labelled windows and sliding-window extraction.

use hec_tensor::Matrix;

/// A fixed-length window of sensor data with a ground-truth anomaly label.
///
/// `data` is `time × channels` (univariate data uses a single column). This
/// is the unit of detection throughout the reproduction: one window = one
/// detection task = one bandit decision.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledWindow {
    /// Sensor values, rows = timesteps, cols = channels.
    pub data: Matrix,
    /// Ground truth: `true` = anomalous window.
    pub anomalous: bool,
}

impl LabeledWindow {
    /// Creates a labelled window.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds no samples (zero timesteps or zero
    /// channels). `Matrix` construction already rejects zero dimensions,
    /// so this guards against a future relaxation of that invariant ever
    /// producing an empty detection task silently.
    pub fn new(data: Matrix, anomalous: bool) -> Self {
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "a labelled window needs at least one timestep and one channel"
        );
        Self { data, anomalous }
    }

    /// Window length in timesteps.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// Whether the window holds no timesteps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.data.cols()
    }
}

/// Extracts sliding windows of `size` timesteps every `stride` steps from a
/// multichannel series (`time × channels`). Trailing samples that do not fill
/// a complete window are dropped, matching the paper's protocol (window 128,
/// step-size 64, §III-A).
///
/// # Panics
///
/// Panics if `size == 0` or `stride == 0`.
///
/// # Example
///
/// ```rust
/// use hec_data::window::sliding_windows;
/// use hec_tensor::Matrix;
///
/// let series = Matrix::from_vec(10, 1, (0..10).map(|i| i as f32).collect());
/// let ws = sliding_windows(&series, 4, 2);
/// assert_eq!(ws.len(), 4); // starts at 0, 2, 4, 6
/// assert_eq!(ws[1][(0, 0)], 2.0);
/// ```
pub fn sliding_windows(series: &Matrix, size: usize, stride: usize) -> Vec<Matrix> {
    assert!(size > 0, "window size must be non-zero");
    assert!(stride > 0, "stride must be non-zero");
    let mut out = Vec::new();
    let mut start = 0usize;
    while start + size <= series.rows() {
        out.push(series.slice_rows(start, start + size));
        start += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattened_length() {
        let w = LabeledWindow::new(Matrix::zeros(128, 18), false);
        assert_eq!(w.data.len(), 128 * 18);
        assert_eq!(w.len(), 128);
        assert_eq!(w.channels(), 18);
    }

    #[test]
    fn is_empty_reflects_contents() {
        // Every constructible window has data, so is_empty is false — but
        // it must be *computed* from the window's length, not hardcoded.
        let w = LabeledWindow::new(Matrix::zeros(1, 1), false);
        assert!(!w.is_empty());
        assert_eq!(w.len(), 1);
        let big = LabeledWindow::new(Matrix::ones(128, 18), true);
        assert!(!big.is_empty());
        assert_eq!(big.len(), 128);
    }

    #[test]
    fn sliding_window_counts() {
        let series = Matrix::zeros(128 + 64 * 3, 2);
        let ws = sliding_windows(&series, 128, 64);
        assert_eq!(ws.len(), 4);
    }

    #[test]
    fn sliding_window_drops_partial_tail() {
        let series = Matrix::zeros(10, 1);
        let ws = sliding_windows(&series, 4, 4);
        assert_eq!(ws.len(), 2); // 0..4, 4..8; 8..12 incomplete
    }

    #[test]
    fn sliding_window_contents() {
        let series = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let ws = sliding_windows(&series, 2, 3);
        assert_eq!(ws[0].as_slice(), &[0.0, 1.0]);
        assert_eq!(ws[1].as_slice(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        let _ = sliding_windows(&Matrix::zeros(4, 1), 2, 0);
    }
}
