//! Counting-allocator proof that the `_into` kernel family is
//! allocation-free once buffers are warm.
//!
//! The whole suite lives in one `#[test]` so no concurrent test can disturb
//! the global allocation counter.

use hec_telemetry::{allocations, CountingAlloc};
use hec_tensor::Matrix;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn ramp(rows: usize, cols: usize, scale: f32) -> Matrix {
    let data = (0..rows * cols).map(|x| ((x % 13) as f32 - 6.0) * scale).collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn into_kernels_are_allocation_free_after_warmup() {
    let a = ramp(33, 27, 0.1); // deliberately ragged (non-multiple of tiles)
    let b = ramp(27, 31, 0.2);
    let at = ramp(27, 33, 0.1);
    let bt = ramp(31, 27, 0.2);
    let peer = ramp(33, 27, 0.3);
    let bias = ramp(1, 27, 0.5);

    let mut out_nn = Matrix::zeros(1, 1);
    let mut out_tn = Matrix::zeros(1, 1);
    let mut out_nt = Matrix::zeros(1, 1);
    let mut out_elem = Matrix::zeros(1, 1);
    let mut out_sum = Matrix::zeros(1, 1);

    let run =
        |nn: &mut Matrix, tn: &mut Matrix, nt: &mut Matrix, el: &mut Matrix, su: &mut Matrix| {
            a.matmul_into(&b, nn);
            at.t_matmul_into(&b, tn);
            a.matmul_t_into(&bt, nt);
            a.hadamard_into(&peer, el);
            el.add_row_broadcast_assign(&bias);
            a.sum_rows_into(su);
        };

    // Warmup: buffers (and the thread-local transposed-B pack panel) grow to
    // their steady-state sizes here.
    run(&mut out_nn, &mut out_tn, &mut out_nt, &mut out_elem, &mut out_sum);

    // The counter is process-wide, and the test harness occasionally
    // allocates from another thread mid-window. A kernel that really
    // allocated would dirty every window (16 iterations each), so requiring
    // one clean window keeps the test sound while ignoring one-off noise.
    let mut last_delta = usize::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..16 {
            run(&mut out_nn, &mut out_tn, &mut out_nt, &mut out_elem, &mut out_sum);
        }
        last_delta = allocations() - before;
        if last_delta == 0 {
            break;
        }
    }
    assert_eq!(
        last_delta, 0,
        "warmed _into kernels performed {last_delta} heap allocations in every window"
    );

    // Sanity: the allocating wrappers do allocate.
    let alloc_before = allocations();
    let _ = a.matmul(&b);
    assert!(allocations() > alloc_before);
}
