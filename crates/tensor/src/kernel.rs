//! Shared cache-blocked matmul kernels.
//!
//! Every matrix product in the workspace — `matmul`, `t_matmul`, `matmul_t`
//! and their `_into` variants on [`crate::Matrix`] — bottoms out in the three
//! kernels here, replacing the three hand-rolled triple loops the substrate
//! started with:
//!
//! * [`gemm_nn`] — `out = A·B`, a register-tiled i-k-j loop: the output is
//!   processed in `MR × NR` tiles whose accumulators live in registers for
//!   the whole `k` loop, so output-row traffic drops by a factor of `NR`
//!   versus the naive loop and the inner body vectorises over `NR` lanes.
//!   The ragged strip — the `n % NR` columns past the last full tile, which
//!   is every column of the narrow products (an autoencoder's 96 → 3
//!   bottleneck, the policy's 100 → 3 head) — runs the same tiles over its
//!   columns of `B` copied once per call into a zero-padded `k × NR` panel
//!   (the packed-panel micro-kernel of Goto & van de Geijn, "Anatomy of
//!   High-Performance Matrix Multiplication", ACM TOMS 2008): the padded
//!   lanes are computed and dropped. Rows past the last tile of rows —
//!   every row below `MR` rows, as in the batch-1 LSTM steps
//!   (`1×H·H×4H` forward, `1×4H·4H×H` BPTT) and the policy's forward —
//!   run one at a time, their full tiles four at a time (64 columns,
//!   eight vector accumulator chains), then two, then one: with one tile
//!   a pass, each of its two chains waits on its own previous add, so the
//!   pass ran at add latency rather than throughput. Below `MR` rows the
//!   strip is not packed, since the pack would cost more moves than the
//!   multiply-adds it saves, and neither is a strip deeper than the fixed
//!   per-thread panel (`k > 128`, e.g. a weight gradient summed over a
//!   long batch): such a strip runs the same one-row function four columns
//!   per register pass (the policy's 100 → 3 head is one pass of three).
//!   The panel is packed with fixed-width moves, not a `memcpy` and a
//!   `memset` call per row of `B`.
//! * [`gemm_tn`] — `out = Aᵀ·B` without materialising the transpose; the
//!   summed dimension walks *rows* of both operands, so all loads are
//!   contiguous.
//! * [`gemm_nt`] — `out = A·Bᵀ` via the **packed transposed-B path**: `B` is
//!   repacked into a transposed buffer (reused across calls, thread-local)
//!   and the product runs through [`gemm_nn`]. Packing costs `k·n` moves but
//!   turns an unvectorisable per-element dot-product reduction into the tiled
//!   kernel above.
//!
//! # Determinism
//!
//! All three kernels accumulate each output element strictly in ascending
//! order of the summed index, from `0.0`, as separate multiplies and adds
//! (no fused multiply-add, no intrinsics, no runtime dispatch) — the same
//! order as the naive loops they replaced, whichever tile, row or strip
//! path computes the element — so for finite operands results are
//! bit-identical to the pre-kernel substrate on every target and seeded
//! experiments reproduce exactly; `tests/gemm_reference.rs` holds all
//! three to naive loops by `to_bits` over every strip width. (The old
//! loops skipped terms whose `A` element was exactly `0.0`; the kernels
//! accumulate every term, which only differs for non-finite operands, where
//! `0.0 × ∞`/`0.0 × NaN` now propagate NaN per IEEE-754.)

use std::cell::RefCell;

use hec_telemetry::FastCounter;

/// Rows of `A` per register tile.
const MR: usize = 4;
/// Columns of `B` per register tile (two 8-lane f32 vectors on AVX2).
const NR: usize = 16;
/// Deepest product (`k`) whose ragged strip is packed into the per-thread
/// `STRIP_K × NR` panel (8 KB); deeper strips run unpacked.
const STRIP_K: usize = 128;

/// f32 gemm kernel invocations (`gemm_nn` + `gemm_tn`; `gemm_nt` routes
/// through `gemm_nn` and is counted there). Relaxed statics, not registry
/// entries: these sites sit inside parallel training loops where a mutex
/// per call would serialise the workers. [`publish_telemetry`] copies them
/// into the registry at snapshot time.
static GEMM_F32_CALLS: FastCounter = FastCounter::new("tensor.gemm.f32_calls");

/// Publishes the kernel fast counters into the global telemetry registry
/// (as unlabelled counters, set-semantics — safe to call repeatedly). A
/// no-op when the `telemetry` feature is off.
pub fn publish_telemetry() {
    GEMM_F32_CALLS.publish();
}

thread_local! {
    /// Reusable packing buffer for [`gemm_nt`]'s transposed-B path. Grows to
    /// the largest `k × n` panel seen on this thread and is then reused, so
    /// steady-state calls allocate nothing.
    static PACK_BT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The f32 kernels' ragged-strip panel (see `tiles`). A fixed array,
    /// not a grow-only `Vec`: it lives in the thread's static TLS, so the
    /// detectors' freshly spawned row-split workers pack without a heap
    /// allocation.
    static PACK_STRIP: RefCell<[f32; STRIP_K * NR]> = const { RefCell::new([0.0; STRIP_K * NR]) };
}

/// `out = A·B` where `A` is `m×k`, `B` is `k×n` and `out` is `m×n`, all
/// row-major. Overwrites `out` completely.
///
/// # Panics
///
/// Debug builds panic if a slice length disagrees with its dimensions;
/// release builds only on a slice too short for them (an index out of
/// bounds). No input reaches the kernels' `expect`s: each converts a range
/// of constant length.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    GEMM_F32_CALLS.add(1);
    tiles(m, k, n, b, out, |row, kk| a[row * k + kk], |i, b, ldb, j| micro_nn(i, j, k, ldb, a, b));
}

/// `out = Aᵀ·B` where `A` is `r×m` (so `Aᵀ` is `m×r`), `B` is `r×n` and
/// `out` is `m×n`. Overwrites `out` completely.
///
/// # Panics
///
/// As [`gemm_nn`].
pub fn gemm_tn(r: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), m * n);
    GEMM_F32_CALLS.add(1);
    tiles(m, r, n, b, out, |col, kk| a[kk * m + col], |i, b, ldb, j| micro_tn(i, j, m, ldb, a, b));
}

/// The tile walk both f32 kernels share: `out = op(A)·B` for an `m×k`
/// `op(A)` read through `a_at(row, kk)` and a `k×n` `B`. Rows go `MR` at a
/// time through `micro(i, b, ldb, j)` — the `MR × NR` tile of rows
/// `i..i + MR` over columns `j..j + NR` of a `b` with row stride `ldb` —
/// and the last `m % MR` one at a time through [`row_tiles`]. The ragged
/// strip, the `n % NR` columns past the last full tile, runs through
/// `micro` and [`one_row`] over a copy of its columns of `B`, zero-padded
/// to `NR` and packed once per call: the padded lanes are computed and
/// dropped, only the strip's real columns are stored. With fewer than
/// `MR` rows (the one-row forwards and updates) the strip is left
/// unpacked instead, since the pack would cost `k × NR` moves to save
/// `k × (n % NR)` multiply-adds, and so is a strip deeper than the panel
/// (`k > STRIP_K`): each row's strip then runs in [`one_row`] passes of at
/// most four columns ([`strip_unpacked`]).
#[inline(always)]
fn tiles(
    m: usize,
    k: usize,
    n: usize,
    b: &[f32],
    out: &mut [f32],
    a_at: impl Fn(usize, usize) -> f32,
    micro: impl Fn(usize, &[f32], usize, usize) -> [[f32; NR]; MR],
) {
    let (full, body) = (n - n % NR, m - m % MR);
    let walk = |out: &mut [f32], panel: Option<&[f32]>| {
        for i in (0..body).step_by(MR) {
            for j in (0..full).step_by(NR) {
                store(out, n, i, j, NR, &micro(i, b, n, j));
            }
            if let Some(p) = panel {
                store(out, n, i, full, n - full, &micro(i, p, NR, 0));
            }
        }
        // Rows past the tiles, and every row's strip when it was not packed.
        let first = if panel.is_none() && full < n { 0 } else { body };
        for (row, out_row) in out.chunks_exact_mut(n).enumerate().skip(first) {
            let a_row = |kk| a_at(row, kk);
            let (tiled, strip) = out_row.split_at_mut(full);
            if row >= body {
                row_tiles(b, n, a_row, tiled);
            }
            match panel {
                Some(p) if row >= body => {
                    strip.copy_from_slice(&one_row::<NR>(p, NR, 0, a_row)[..n - full]);
                }
                None if full < n => strip_unpacked(b, n, full, a_row, strip),
                _ => {}
            }
        }
    };
    if full == n || m < MR || k > STRIP_K {
        return walk(out, None);
    }
    PACK_STRIP.with(|cell| {
        let mut panel = cell.borrow_mut();
        let panel = &mut panel[..k * NR];
        for (p, b_row) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            p.copy_from_slice(&[0.0; NR]);
            put_lanes(&mut p[..n - full], &b_row[full..]);
        }
        walk(out, Some(panel));
    });
}

/// Writes the first `width` lanes of each row of `tile` into the `n`-column
/// `out`, from row `i`, column `j`.
#[inline(always)]
fn store(out: &mut [f32], n: usize, i: usize, j: usize, width: usize, tile: &[[f32; NR]; MR]) {
    for (r, acc) in tile.iter().enumerate() {
        out[(i + r) * n + j..][..width].copy_from_slice(&acc[..width]);
    }
}

/// `dst = src[..dst.len()]` for `dst.len() ≤ NR` in at most five fixed-width
/// moves: a runtime-length copy and `fill` per packed row of `B` were a
/// `memcpy` and a `memset` call, dearer than the narrow products' work (a
/// stored row's `memcpy` measured no slower, so `store` keeps it).
#[inline(always)]
fn put_lanes(dst: &mut [f32], src: &[f32]) {
    let mut done = 0;
    for width in [NR, 8, 4, 2, 1] {
        if dst.len() - done >= width {
            dst[done..][..width].copy_from_slice(&src[done..][..width]);
            done += width;
        }
    }
}

/// `out = A·Bᵀ` where `A` is `m×k`, `B` is `nr×k` (so `Bᵀ` is `k×nr`) and
/// `out` is `m×nr`. Overwrites `out` completely.
///
/// Packs `Bᵀ` into a thread-local buffer first (allocation-free once the
/// buffer has grown to the workload's panel size), then multiplies through
/// [`gemm_nn`] — see the module docs for why.
///
/// # Panics
///
/// As [`gemm_nn`].
pub fn gemm_nt(m: usize, k: usize, nr: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), nr * k);
    debug_assert_eq!(out.len(), m * nr);
    PACK_BT.with(|cell| {
        let mut bt = cell.borrow_mut();
        // Grow-only: the pack loop below overwrites every element of the
        // k×nr panel, so no zero-fill of the slice is needed.
        if bt.len() < k * nr {
            bt.resize(k * nr, 0.0);
        }
        let panel = &mut bt[..k * nr];
        // Row by row: packed column by column, the last stores are the
        // ragged strip's columns, which the one-row product then loads a
        // vector at a time before those stores retire (≈ +25 % on 1×3×100).
        for (kk, p_row) in panel.chunks_exact_mut(nr).enumerate() {
            for (j, p) in p_row.iter_mut().enumerate() {
                *p = b[j * k + kk];
            }
        }
        gemm_nn(m, k, nr, a, panel, out);
    });
}

/// Full `MR × NR` register tile of `A·B` over columns `j..j + NR` of a `b`
/// with row stride `ldb`: accumulators stay live across the whole summed
/// dimension and are returned once.
#[inline(always)]
fn micro_nn(i: usize, j: usize, k: usize, ldb: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let (mut c0, mut c1, mut c2, mut c3) = ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
        // Cannot fail: the range is NR long (a short `b` fails the index).
        let b_row: &[f32; NR] = b_full[j..j + NR].try_into().expect("NR-wide tile slice");
        let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
        for c in 0..NR {
            c0[c] += v0 * b_row[c];
            c1[c] += v1 * b_row[c];
            c2[c] += v2 * b_row[c];
            c3[c] += v3 * b_row[c];
        }
    }
    [c0, c1, c2, c3]
}

/// Full `MR × NR` register tile of `Aᵀ·B` (`A` has `m` columns): the `MR`
/// values of `A` per summed step are contiguous (`A` is walked row-wise),
/// so all loads stream.
#[inline(always)]
fn micro_tn(i: usize, j: usize, m: usize, ldb: usize, a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    let (mut c0, mut c1, mut c2, mut c3) = ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
        // Cannot fail: the range is MR long (a short `a` fails the index).
        let a4: &[f32; MR] = a[kk * m + i..kk * m + i + MR].try_into().expect("MR-wide tile slice");
        // Cannot fail: the range is NR long (a short `b` fails the index).
        let b_row: &[f32; NR] = b_full[j..j + NR].try_into().expect("NR-wide slice");
        for c in 0..NR {
            c0[c] += a4[0] * b_row[c];
            c1[c] += a4[1] * b_row[c];
            c2[c] += a4[2] * b_row[c];
            c3[c] += a4[3] * b_row[c];
        }
    }
    [c0, c1, c2, c3]
}

/// One output row over `W` columns `j..j + W` of a `b` with row stride
/// `ldb`, the chains held in a fixed-width local: `W` = 64, 32 or 16 for
/// the full tiles of a row past the last `MR` block ([`row_tiles`]),
/// `W = NR` for the strip's zero-padded panel when it was packed (the
/// padded lanes are dropped), and `W ≤ 4` for the passes of a strip left
/// unpacked ([`strip_unpacked`]). Summation order matches the tile path.
#[inline(always)]
fn one_row<const W: usize>(
    b: &[f32],
    ldb: usize,
    j: usize,
    a_row: impl Fn(usize) -> f32,
) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
        // Cannot fail: the range is W long (a short `b` fails the index).
        let b_row: &[f32; W] = b_full[j..j + W].try_into().expect("W-wide slice");
        let av = a_row(kk);
        for c in 0..W {
            acc[c] += av * b_row[c];
        }
    }
    acc
}

/// The full tiles of one row past the last `MR` block: columns
/// `0..o.len()` (a multiple of `NR`) of `b` (row stride `ldb`) into `o`,
/// in [`one_row`] passes four tiles wide (64 columns, eight vector
/// chains), then two, then one. One tile per pass leaves two chains, each
/// of whose adds waits on the one before it; four give the adds of
/// independent chains to overlap (Goto & van de Geijn, ACM TOMS 2008).
/// Every element is still summed in ascending `k` from `0.0`.
#[inline(always)]
fn row_tiles(b: &[f32], ldb: usize, a_row: impl Fn(usize) -> f32, o: &mut [f32]) {
    let (quads, rest) = o.split_at_mut(o.len() / (4 * NR) * (4 * NR));
    for (q, out) in quads.chunks_exact_mut(4 * NR).enumerate() {
        out.copy_from_slice(&one_row::<{ 4 * NR }>(b, ldb, q * 4 * NR, &a_row));
    }
    let (pair, single) = rest.split_at_mut(rest.len() / (2 * NR) * (2 * NR));
    let j = quads.len();
    if !pair.is_empty() {
        pair.copy_from_slice(&one_row::<{ 2 * NR }>(b, ldb, j, &a_row));
    }
    if !single.is_empty() {
        single.copy_from_slice(&one_row::<NR>(b, ldb, j + pair.len(), &a_row));
    }
}

/// The ragged strip of one row left unpacked: columns `j..j + o.len()` of
/// `b` (row stride `ldb`) into `o`, in register passes of [`one_row`]:
/// four columns at a time, then one last pass of one to four. A strip of
/// up to four columns (the one-row policy head's 3) is that last pass
/// alone, with no loop around it: one chunk loop over the whole strip read
/// a few per cent slower on the one-row products of depth 3 and 4. Out of
/// line: inlined into the tile walk it reads the same on the one-row
/// shapes.
#[inline(never)]
fn strip_unpacked(b: &[f32], ldb: usize, j: usize, a_row: impl Fn(usize) -> f32, o: &mut [f32]) {
    let (head, last) = o.split_at_mut((o.len() - 1) / 4 * 4);
    for (c, h) in head.chunks_exact_mut(4).enumerate() {
        h.copy_from_slice(&one_row::<4>(b, ldb, j + 4 * c, &a_row));
    }
    let j = j + head.len();
    match last.len() {
        1 => last.copy_from_slice(&one_row::<1>(b, ldb, j, &a_row)),
        2 => last.copy_from_slice(&one_row::<2>(b, ldb, j, &a_row)),
        3 => last.copy_from_slice(&one_row::<3>(b, ldb, j, &a_row)),
        _ => last.copy_from_slice(&one_row::<4>(b, ldb, j, &a_row)),
    }
}
