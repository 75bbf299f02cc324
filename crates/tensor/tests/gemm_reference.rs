//! The f32 gemm kernels against naive triple loops, bit for bit.
//!
//! The kernel module's contract is that every output element is the same
//! terms, added one by one in ascending order of the summed index starting
//! from `0.0` — whatever path computes it: an `MR × NR` register tile, a
//! full-width row past the last tile of rows, the zero-padded ragged strip,
//! or the unpacked strip of a product with fewer than `MR` rows or a depth
//! past the packed panel's 128 (one-row register passes of up to four
//! columns). A row past the last tile of rows walks its full tiles in
//! passes of four, two and one (64, 32 and 16 columns). So
//! `gemm_nn`, `gemm_tn` and `gemm_nt` must equal the naive loops by
//! `to_bits` (NaN only as NaN: its payload is not part of the contract),
//! on every row count across the tile height, every strip width
//! `n % 16`, stale output buffers, and non-finite entries of `A` — whose
//! products with the strip's zero padding must stay in the dropped lanes.

use hec_tensor::kernel::{gemm_nn, gemm_nt, gemm_tn};

/// Ascending-order `A·B` for row-major `A` (`m×k`) and `B` (`k×n`).
fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The `cols × rows` transpose of a row-major `rows × cols` matrix.
fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// Deterministic operands with varied magnitudes, signs, exact zeros and
/// values whose products round, so a reordered sum would show.
fn operand(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(7) {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.7
            }
        })
        .collect()
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    for (idx, (&x, &y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {idx} is {x:e} ({:#010x}), the naive loop gives {y:e} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Every kernel on one `m × k × n` product, once with finite operands and
/// once with `NaN`/`±∞` planted in `A`, into buffers full of stale values.
fn check_shape(m: usize, k: usize, n: usize) {
    let b = operand(k * n, (m * 131 + k * 17 + n) as u64);
    let mut a = operand(m * k, (m * 7 + k * 3 + n * 101) as u64);
    for poisoned in [false, true] {
        if poisoned {
            for (idx, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].into_iter().enumerate() {
                if idx < m {
                    a[idx * k + (idx * 5) % k] = bad;
                }
            }
        }
        let what = |kernel: &str| format!("{kernel} {m}x{k}x{n} (non-finite A: {poisoned})");
        let want = naive_nn(m, k, n, &a, &b);

        let mut out = vec![f32::MAX; m * n];
        gemm_nn(m, k, n, &a, &b, &mut out);
        assert_same_bits(&out, &want, &what("gemm_nn"));

        // gemm_tn reads A through its transpose, gemm_nt reads B through its.
        let mut out = vec![-1.5e30f32; m * n];
        gemm_tn(k, m, n, &transpose(m, k, &a), &b, &mut out);
        assert_same_bits(&out, &want, &what("gemm_tn"));

        let mut out = vec![f32::NAN; m * n];
        gemm_nt(m, k, n, &a, &transpose(k, n, &b), &mut out);
        assert_same_bits(&out, &want, &what("gemm_nt"));
    }
}

#[test]
fn kernels_equal_the_naive_loops_on_every_strip_width() {
    for m in 1..=9 {
        for k in [1, 2, 3, 8, 17, 96] {
            for n in 1..=40 {
                check_shape(m, k, n);
            }
        }
    }
}

/// The one-row products — below the tile height, every strip width runs
/// unpacked (register passes of up to four columns): one to three rows
/// at the policy's depth, the deepest packed strip and the first unpacked
/// one; and `tn` with one summed row (an outer product) at 100 rows, the
/// policy's weight gradient, through every narrow store width.
#[test]
fn one_to_three_rows_and_one_row_outer_products() {
    for m in 1..=3 {
        for k in [100, 128, 129] {
            for n in 1..=40 {
                check_shape(m, k, n);
            }
        }
    }
    for n in 1..=40 {
        check_shape(100, 1, n);
    }
}

/// The in-fleet policy step's products by name (`4`/`10 → 100 → 3`): the
/// head `1×100×3`, the hidden layer `1×4×100`/`1×10×100`, the hidden
/// gradient (`nt 1×3×100`) and the weight gradients (`tn` with `r = 1`).
#[test]
fn the_policy_step_shapes() {
    let head = (1, 100, 3);
    for (m, k, n) in
        [head, (1, 4, 100), (1, 10, 100), (1, 3, 100), (100, 1, 3), (4, 1, 100), (10, 1, 100)]
    {
        check_shape(m, k, n);
    }
}

/// The rows past the last tile of rows over many full tiles: widths that
/// end the walk on a pass of four tiles, two or one (and a ragged strip
/// after them), at one to three rows and past one and two tiles of rows,
/// at the LSTM's depths (18 and 32 inputs, 32 to 256 units, 129 past the
/// packed panel).
#[test]
fn rows_past_the_tiles_over_many_full_tiles() {
    for m in [1, 2, 3, 5, 6, 7] {
        for k in [18, 32, 64, 128, 129, 256] {
            for n in [32, 48, 64, 80, 96, 112, 128, 144, 150, 256] {
                check_shape(m, k, n);
            }
        }
    }
}

/// The LSTM's batch-1 step products by name: `h·Wh` and the hoisted
/// `x·Wx` forward (`1×32×128`, `1×64×256`, `1×18×128`, `1×18×256`) and the
/// recurrent gradient `dz·Whᵀ` (`1×128×32`, `1×256×64`).
#[test]
fn the_lstm_step_shapes() {
    for (m, k, n) in
        [(1, 32, 128), (1, 64, 256), (1, 128, 32), (1, 256, 64), (1, 18, 128), (1, 18, 256)]
    {
        check_shape(m, k, n);
    }
}

/// Shapes the grids here do not reach: one exact `MR × NR` tile four deep,
/// a 96-square product, a strip past the panel's depth under a full tile
/// of rows (`7×129×3`), 33 rows two deep, and three small odd shapes
/// (`5×6×19` is `6×5×19` with `m` and `k` swapped, as `tn` sees it).
#[test]
fn shapes_outside_the_grids() {
    for (m, k, n) in
        [(4, 4, 16), (96, 64, 96), (7, 129, 3), (33, 2, 31), (6, 5, 19), (5, 6, 19), (5, 23, 7)]
    {
        check_shape(m, k, n);
    }
}

/// The first grid, wider: eight tile heights, every depth around the
/// tile width, the deepest packed strip (128) and the first unpacked one,
/// and widths through four strips.
#[test]
#[ignore = "wider grid; CI runs it with --include-ignored"]
fn kernels_equal_the_naive_loops_on_a_wider_grid() {
    for m in 1..=33 {
        for k in (1..=20).chain([31, 32, 33, 64, 100, 128, 129]) {
            for n in 1..=72 {
                check_shape(m, k, n);
            }
        }
    }
}
