//! Property-based equivalence suite for the blocked/packed matmul kernels:
//! every kernel (and its `_into` variant) must match a naive triple-loop
//! reference within 1e-5 across ragged shapes — 1×1, tall, wide, and sizes
//! that are not multiples of the register-tile dimensions.

use proptest::prelude::*;

use hec_tensor::Matrix;

/// Naive j-inner triple loop — the reference implementation.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn assert_close(actual: &Matrix, expect: &Matrix, what: &str) {
    assert_eq!(actual.shape(), expect.shape(), "{what}: shape");
    for (x, y) in actual.as_slice().iter().zip(expect.as_slice().iter()) {
        assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()), "{what}: {x} vs {y}");
    }
}

/// Largest data pool a single operand can need (`k`, `n` < 48; `m` < 24).
const POOL: usize = 48 * 48;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `A·B`, `Aᵀ·B` and packed `A·Bᵀ` (allocating and `_into`
    /// forms) all match the naive reference on random ragged shapes.
    #[test]
    fn kernels_match_naive_reference(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..48,
        pool in proptest::collection::vec(-3.0f32..3.0, 2 * POOL),
    ) {
        let a = Matrix::from_vec(m, k, pool[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, pool[POOL..POOL + k * n].to_vec());
        let expect = naive_matmul(&a, &b);

        assert_close(&a.matmul(&b), &expect, "matmul");

        // `_into` with a deliberately stale, wrong-shaped buffer.
        let mut out = Matrix::ones(3, 7);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &expect, "matmul_into");

        let at = a.transpose();
        assert_close(&at.t_matmul(&b), &expect, "t_matmul");
        at.t_matmul_into(&b, &mut out);
        assert_close(&out, &expect, "t_matmul_into");

        let bt = b.transpose();
        assert_close(&a.matmul_t(&bt), &expect, "matmul_t");
        a.matmul_t_into(&bt, &mut out);
        assert_close(&out, &expect, "matmul_t_into");
    }

    /// The elementwise `_into` ops match their allocating counterparts.
    #[test]
    fn elementwise_into_ops_match(
        rows in 1usize..12,
        cols in 1usize..12,
        pool in proptest::collection::vec(-5.0f32..5.0, 3 * 144),
    ) {
        let len = rows * cols;
        let a = Matrix::from_vec(rows, cols, pool[..len].to_vec());
        let b = Matrix::from_vec(rows, cols, pool[144..144 + len].to_vec());
        let bias = Matrix::from_vec(1, cols, pool[288..288 + cols].to_vec());

        let mut out = Matrix::ones(2, 5);
        a.hadamard_into(&b, &mut out);
        assert_close(&out, &a.hadamard(&b), "hadamard_into");

        a.add_row_broadcast_into(&bias, &mut out);
        assert_close(&out, &a.add_row_broadcast(&bias), "add_row_broadcast_into");

        a.sum_rows_into(&mut out);
        assert_close(&out, &a.sum_rows(), "sum_rows_into");
    }
}

/// Deterministic coverage of the shapes the proptest ranges only sample:
/// degenerate 1×1, tall/wide extremes, exact tile multiples and off-by-one
/// neighbours of the register-tile sizes (MR = 4, NR = 16).
#[test]
fn kernel_edge_shapes() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 1, 17),
        (64, 1, 1), // tall
        (1, 64, 1), // deep
        (1, 3, 64), // wide
        (4, 8, 16), // exact tiles
        (8, 8, 32),
        (3, 7, 15),   // one under the tiles
        (5, 9, 17),   // one over the tiles
        (96, 64, 96), // the benchmarked hot shape
    ] {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|x| ((x % 11) as f32 - 5.0) * 0.3).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|x| ((x % 7) as f32 - 3.0) * 0.5).collect());
        let expect = naive_matmul(&a, &b);
        assert_close(&a.matmul(&b), &expect, "matmul");
        assert_close(&a.transpose().t_matmul(&b), &expect, "t_matmul");
        assert_close(&a.matmul_t(&b.transpose()), &expect, "matmul_t");
    }
}
