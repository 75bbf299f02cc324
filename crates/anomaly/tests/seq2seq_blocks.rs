//! Block scoring of the seq2seq detectors equals per-window scoring, bit for
//! bit: `detect_batch` and `context_features_batch` push up to sixteen
//! equally long windows through the model's batch axis, `detect` and
//! `context_features` one — same detections, same contexts, at corpus sizes
//! around the block size, under every deployment setting the catalog uses
//! (input quantisation 3 / 4 bits / none, uni- and bidirectional encoders),
//! and when window lengths change mid-corpus.

use hec_anomaly::{AnomalyDetector, Detection, Seq2SeqDetector};
use hec_data::LabeledWindow;
use hec_nn::Seq2SeqConfig;
use hec_tensor::Matrix;

const CHANNELS: usize = 3;

/// Window `i` of a corpus: phase-shifted sines, every fifth one jagged.
fn window(i: usize, steps: usize) -> LabeledWindow {
    let jagged = i % 5 == 4;
    let data: Vec<f32> = (0..steps)
        .flat_map(|t| {
            let w = t as f32 * 0.4 + i as f32 * 0.13;
            let spike = if jagged && t % 2 == 0 { 1.5 } else { 0.0 };
            [w.sin() + spike, 0.5 * w.cos() - spike, (0.7 * w).sin()]
        })
        .collect();
    LabeledWindow::new(Matrix::from_vec(steps, CHANNELS, data), jagged)
}

fn fitted(bidirectional: bool, input_bits: Option<u8>) -> Seq2SeqDetector {
    let mut det = Seq2SeqDetector::new(
        "blocks",
        Seq2SeqConfig {
            input_dim: CHANNELS,
            encoder_hidden: 6,
            bidirectional,
            dropout: 0.3,
            seed: 11,
        },
    );
    det.set_input_bits(input_bits);
    let train: Vec<LabeledWindow> = (0..20).filter(|i| i % 5 != 4).map(|i| window(i, 12)).collect();
    det.fit(&train, 3).expect("fit on normal windows");
    det
}

fn bits(d: &Detection) -> (bool, bool, u32, u32) {
    (d.anomalous, d.confident, d.min_log_pd.to_bits(), d.anomalous_fraction.to_bits())
}

fn assert_blocks_equal_windows(det: &mut Seq2SeqDetector, corpus: &[LabeledWindow], case: &str) {
    let batched = det.detect_batch(corpus);
    let contexts = det.context_features_batch(corpus).expect("seq2seq models give contexts");
    assert_eq!(batched.len(), corpus.len(), "{case}: detection count");
    assert_eq!(contexts.rows(), corpus.len(), "{case}: context count");
    for (i, w) in corpus.iter().enumerate() {
        assert_eq!(bits(&batched[i]), bits(&det.detect(w)), "{case}: detection of window {i}");
        let alone = det.context_features(w).expect("seq2seq models give contexts");
        let same = alone.iter().zip(contexts.row(i)).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same && alone.len() == contexts.cols(), "{case}: context of window {i}");
    }
}

#[test]
fn detect_batch_equals_per_window_detect_around_the_block_size() {
    let settings =
        [(false, Some(3)), (false, Some(4)), (true, None), (false, None), (true, Some(3))];
    for (bidirectional, input_bits) in settings {
        let mut det = fitted(bidirectional, input_bits);
        for n in [1usize, 15, 16, 17, 33] {
            let corpus: Vec<LabeledWindow> = (0..n).map(|i| window(i, 12)).collect();
            let case = format!("bi {bidirectional}, bits {input_bits:?}, {n} windows");
            assert_blocks_equal_windows(&mut det, &corpus, &case);
            assert!(
                n < 5 || det.detect_batch(&corpus).iter().any(|d| d.anomalous),
                "{case}: the jagged windows must be flagged, or the comparison is vacuous"
            );
        }
    }
}

#[test]
fn windows_of_another_length_start_a_new_block() {
    // Lengths change inside what would be one sixteen-window block, and
    // back: runs of 3, 1, 2, 20 (= 16 + 4) and 1 windows.
    let lengths = [[12usize; 3].as_slice(), &[9], &[12; 2], &[10; 20], &[12]].concat();
    let corpus: Vec<LabeledWindow> =
        lengths.iter().enumerate().map(|(i, &steps)| window(i, steps)).collect();
    let mut det = fitted(false, Some(4));
    assert_blocks_equal_windows(&mut det, &corpus, "mixed lengths");
}

#[test]
fn empty_corpus_scores_to_nothing() {
    let mut det = fitted(false, None);
    assert!(det.detect_batch(&[]).is_empty());
    assert_eq!(det.context_features_batch(&[]), None);
}
