//! `detect_batch` walks its corpus in blocks and, from two work grains up,
//! on several workers. Whatever the corpus length or the worker count,
//! every `Detection` must equal the one per-window `detect` gives — all
//! four fields, bit for bit.

use hec_anomaly::{AeArchitecture, AnomalyDetector, AutoencoderDetector, Detection};
use hec_data::LabeledWindow;
use hec_tensor::parallel::with_thread_count;
use hec_tensor::Matrix;

/// Mirrors of the private consts in `hec_anomaly::ae` — the sweep sits on
/// both sides of each.
const BLOCK_ROWS: usize = 16;
const PAR_GRAIN_ROWS: usize = 1024;

const DIM: usize = 24;

/// A family of windows no two of which are alike: phase, amplitude and a
/// spike that moves with `i`.
fn window(i: usize) -> LabeledWindow {
    let mut v: Vec<f32> = (0..DIM)
        .map(|t| (0.3 + 0.05 * (i % 11) as f32) * (t as f32 * 0.4 + i as f32 * 0.37).sin())
        .collect();
    if i.is_multiple_of(5) {
        v[i % DIM] += 1.5;
    }
    LabeledWindow::new(Matrix::from_vec(DIM, 1, v), false)
}

fn bits(d: &Detection) -> (bool, bool, u32, u32) {
    (d.anomalous, d.confident, d.min_log_pd.to_bits(), d.anomalous_fraction.to_bits())
}

#[test]
fn detect_batch_equals_per_window_detect_at_every_size_and_worker_count() {
    let train: Vec<LabeledWindow> = (0..64).map(|i| window(i * 5 + 1)).collect();
    let corpus: Vec<LabeledWindow> = (0..4 * PAR_GRAIN_ROWS + 5).map(window).collect();
    let sizes = [
        0,
        1,
        BLOCK_ROWS - 1,
        BLOCK_ROWS,
        BLOCK_ROWS + 1,
        PAR_GRAIN_ROWS - 1,
        PAR_GRAIN_ROWS,
        2 * PAR_GRAIN_ROWS - 1,
        2 * PAR_GRAIN_ROWS + 7,
        4 * PAR_GRAIN_ROWS + 5,
    ];
    let mut det = AutoencoderDetector::new("ae", AeArchitecture::cloud(DIM), 3);
    det.fit(&train, 8).unwrap();
    let single: Vec<_> = corpus.iter().map(|w| bits(&det.detect(w))).collect();
    assert!(single.iter().any(|d| d.0) && single.iter().any(|d| !d.0), "one-sided");
    for size in sizes {
        for threads in [1, 2, 3, 4] {
            let batched = with_thread_count(threads, || det.detect_batch(&corpus[..size]));
            let batched: Vec<_> = batched.iter().map(bits).collect();
            // `assert_eq!` on the vectors would print thousands of rows.
            assert_eq!(batched.len(), size, "size={size} threads={threads}");
            if let Some(i) = (0..size).find(|&i| batched[i] != single[i]) {
                panic!(
                    "size={size} threads={threads}: window {i} batched {:?} vs single {:?}",
                    batched[i], single[i]
                );
            }
        }
    }
}
