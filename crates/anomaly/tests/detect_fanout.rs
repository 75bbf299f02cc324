//! Which thread scores a window, seen from outside: a malformed window
//! makes `detect_batch` panic, and a panic hook runs on the thread that
//! panicked. Below two work grains every block must run on the caller's
//! thread, whatever the worker count; above, the corpus's last window
//! belongs to a spawned worker. Either way the message the caller catches
//! names the window by its index in the corpus, not in its block or span.
//!
//! One `#[test]`, in a file of its own: the panic hook is process-global.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use hec_anomaly::{AeArchitecture, AnomalyDetector, AutoencoderDetector};
use hec_data::LabeledWindow;
use hec_tensor::parallel::with_thread_count;
use hec_tensor::Matrix;

/// Mirror of the private const in `hec_anomaly::ae`.
const PAR_GRAIN_ROWS: usize = 1024;

const DIM: usize = 16;

fn window(i: usize, len: usize) -> LabeledWindow {
    let v = (0..len).map(|t| (t as f32 * 0.5 + i as f32 * 0.1).sin()).collect();
    LabeledWindow::new(Matrix::from_vec(len, 1, v), false)
}

#[test]
fn blocks_stay_on_the_caller_below_the_grain_and_spread_above_it() {
    let train: Vec<LabeledWindow> = (0..40).map(|i| window(i, DIM)).collect();
    let mut det = AutoencoderDetector::new("ae", AeArchitecture::iot(DIM), 1);
    det.fit(&train, 5).unwrap();

    let panics: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let previous = panic::take_hook();
    panic::set_hook({
        let panics = Arc::clone(&panics);
        Box::new(move |_| panics.lock().unwrap().push(thread::current().id()))
    });

    let caller = thread::current().id();
    let mut failures = Vec::new();
    for (len, spreads) in [(2 * PAR_GRAIN_ROWS - 1, false), (2 * PAR_GRAIN_ROWS + 7, true)] {
        let mut corpus: Vec<LabeledWindow> = (0..len).map(|i| window(i, DIM)).collect();
        corpus[len - 1] = window(len - 1, DIM / 2);
        for threads in [1, 2, 3, 4] {
            panics.lock().unwrap().clear();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                with_thread_count(threads, || det.detect_batch(&corpus))
            }));
            let message = match caught {
                Err(payload) => payload.downcast::<String>().map_or_else(|_| String::new(), |s| *s),
                Ok(_) => "no panic".to_owned(),
            };
            let expected = format!("window {} length {} does not match", len - 1, DIM / 2);
            if !message.contains(&expected) {
                failures.push(format!("len={len} threads={threads}: message {message:?}"));
            }
            let on_caller = panics.lock().unwrap().as_slice() == [caller];
            if on_caller == (spreads && threads > 1) {
                failures.push(format!("len={len} threads={threads}: ran on caller = {on_caller}"));
            }
        }
    }
    panic::set_hook(previous);
    assert!(failures.is_empty(), "{failures:#?}");
}
