//! Allocation accounting for the detector hot path:
//!
//! * a warmed `AutoencoderDetector::detect` performs **zero** heap
//!   allocations per window (counting global allocator) — the input copies
//!   into the thread's reused block, the layers run in its two activation
//!   buffers, and scoring overwrites the block in place;
//! * batched detection, below the fan-out grain, allocates the same few
//!   times whatever the batch size — the results vector, not the windows,
//!   and no block's matrix product (each routes through the `_into`
//!   kernels).
//!
//! Everything lives in one `#[test]` so no concurrent test can disturb the
//! global counters.

use hec_anomaly::{AeArchitecture, AnomalyDetector, AutoencoderDetector};
use hec_data::LabeledWindow;
use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::Matrix;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn ramp_window(jitter: f32, n: usize) -> LabeledWindow {
    let v: Vec<f32> = (0..n).map(|t| (t as f32 / n as f32) + jitter).collect();
    LabeledWindow::new(Matrix::from_vec(n, 1, v), false)
}

#[test]
fn detection_is_allocation_free_once_warm() {
    let train: Vec<LabeledWindow> =
        (0..40).map(|i| ramp_window(0.002 * (i % 7) as f32, 16)).collect();
    let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(16), 1);
    det.fit(&train, 30).unwrap();

    // --- Per-window detection: zero total allocations once warm. ---
    let window = ramp_window(0.001, 16);
    let _ = det.detect(&window); // warmup: buffers and kernel scratch grow
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..32 {
            let _ = det.detect(&window);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed detect performed {last_delta} heap allocations per window batch"
    );

    // --- Batched detection below the fan-out grain: heap allocations that
    // do not grow with the batch — one block or fifty, the results vector
    // is the only fresh memory. ---
    let windows: Vec<LabeledWindow> = (0..800).map(|i| ramp_window(0.001 * i as f32, 16)).collect();
    let _ = det.detect_batch(&windows); // warmup
    let mut deltas = [usize::MAX; 2];
    for _attempt in 0..5 {
        for (delta, batch) in deltas.iter_mut().zip([&windows[..8], &windows[..]]) {
            let before = allocations();
            let _ = det.detect_batch(batch);
            *delta = allocations() - before;
        }
        if deltas[0] == deltas[1] {
            break;
        }
    }
    assert_eq!(deltas[0], deltas[1], "detect_batch allocations grew from 8 to 800 windows");
}
