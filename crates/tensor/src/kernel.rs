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
//!   lanes are computed and dropped. Below `MR` rows (one-row forwards and
//!   updates) the strip stays scalar, since the pack would cost more moves
//!   than the multiply-adds it saves, and so does a strip deeper than the
//!   fixed per-thread panel (`k > 128`, e.g. a weight gradient summed over
//!   a long batch); up to four columns wide (the policy's 100 → 3 head) its
//!   chains stay in registers. The panel is packed with fixed-width moves,
//!   not a `memcpy` and a `memset` call per row of `B`.
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
//!
//! # Integer kernels
//!
//! [`gemm_nn_i8`] and [`gemm_nt_i8`] are the i8×i8→i32 siblings used by the
//! quantised inference path ([`crate::QuantizedMatrix`]). They route each
//! shape to one of two bodies:
//!
//! * **Dot path** (narrow outputs, `n < NR` with `k ≥ NR`): each output
//!   element is a single-accumulator dot product over contiguous rows —
//!   the one reduction shape LLVM lowers to `vpmaddwd` (16 widening
//!   multiply-adds per AVX2 instruction, twice the f32 FMA lane count).
//!   This is the AE *encoder* shape (`k = input_dim`, `n = bottleneck`),
//!   where a tile would spend most of its lanes on padding or run scalar
//!   ragged columns (the integer tile path keeps the scalar strip).
//! * **Tiled path** (everything else): the same `MR × NR` register tiling
//!   as the f32 kernels, vectorising over the `n` output columns with
//!   widened i32 multiplies. Wide outputs with tiny `k` (the AE *decoder*
//!   shape) land here, where per-element dot reductions would drown in
//!   horizontal-sum tails.
//!
//! Each route wants `B` in a different layout, so which kernel packs
//! depends on the route: dots read `Bᵀ` rows ([`gemm_nt_i8`] is pack-free,
//! [`gemm_nn_i8`] repacks), tiles read `B` rows ([`gemm_nn_i8`] is
//! pack-free, [`gemm_nt_i8`] repacks) — the thread-local panel is shared.
//! Integer addition is associative, so the routing is semantically
//! invisible and the determinism guarantee is stronger than the f32 one:
//! the integer output is *exactly* determined by the operands —
//! bit-identical across reruns, thread counts, and any reordering of the
//! accumulation.

use std::cell::RefCell;

use hec_telemetry::FastCounter;

/// Rows of `A` per register tile.
const MR: usize = 4;
/// Columns of `B` per register tile (two 8-lane f32 vectors on AVX2).
const NR: usize = 16;
/// Deepest product (`k`) whose ragged strip is packed into the per-thread
/// `STRIP_K × NR` panel (8 KB); deeper strips run scalar.
const STRIP_K: usize = 128;

/// f32 gemm kernel invocations (`gemm_nn` + `gemm_tn`; `gemm_nt` routes
/// through `gemm_nn` and is counted there). Relaxed statics, not registry
/// entries: these sites sit inside parallel training loops where a mutex
/// per call would serialise the workers. [`publish_telemetry`] copies them
/// into the registry at snapshot time.
static GEMM_F32_CALLS: FastCounter = FastCounter::new("tensor.gemm.f32_calls");
/// i8×i8→i32 gemm kernel invocations (`gemm_nn_i8` + `gemm_nt_i8`).
static GEMM_I8_CALLS: FastCounter = FastCounter::new("tensor.gemm.i8_calls");

/// Publishes the kernel fast counters into the global telemetry registry
/// (as unlabelled counters, set-semantics — safe to call repeatedly). A
/// no-op when the `telemetry` feature is off.
pub fn publish_telemetry() {
    GEMM_F32_CALLS.publish();
    GEMM_I8_CALLS.publish();
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
    /// Same as `PACK_BT`, for the integer kernels' repack panel — `Bᵀ` rows when
    /// [`gemm_nn_i8`] takes the dot route, `B` rows when [`gemm_nt_i8`]
    /// takes the tile route.
    static PACK_BT_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
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
/// and the last `m % MR` one at a time through [`edge_any`]. The ragged
/// strip, the `n % NR` columns past the last full tile, runs through the
/// same two over a copy of its columns of `B`, zero-padded to `NR` and
/// packed once per call: the padded lanes are computed and dropped, only
/// the strip's real columns are stored. With fewer than `MR` rows (the
/// one-row forwards and updates) the strip stays scalar instead
/// ([`strip_scalar`]), since the pack would cost `k × NR` moves to save
/// `k × (n % NR)` multiply-adds; so does a strip deeper than the panel
/// (`k > STRIP_K`).
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
                for (j, o) in tiled.chunks_exact_mut(NR).enumerate() {
                    o.copy_from_slice(&edge_any(b, n, j * NR, a_row));
                }
            }
            match panel {
                Some(p) if row >= body => {
                    strip.copy_from_slice(&edge_any(p, NR, 0, a_row)[..n - full]);
                }
                None if full < n => strip_scalar(b, n, full, a_row, strip),
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

/// `out = A·B` over i8 operands with i32 accumulation: `A` is `m×k`, `B` is
/// `k×n`, `out` is `m×n`, all row-major. Overwrites `out` completely.
///
/// Accumulation never overflows for `k ≤ 2^16`: each term is at most
/// `128 × 128` in magnitude, so the running sum stays below `2^14 · k`.
/// Debug builds assert this bound.
///
/// # Panics
///
/// As [`gemm_nn`]; debug builds also on `k > 2¹⁶`.
pub fn gemm_nn_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(k <= 1 << 16, "i32 accumulator bound: k = {k} > 65536");
    GEMM_I8_CALLS.add(1);
    if dot_route(k, n) {
        // Narrow output: repack B into Bᵀ rows and take the dot path.
        PACK_BT_I8.with(|cell| {
            let mut bt = cell.borrow_mut();
            if bt.len() < k * n {
                bt.resize(k * n, 0);
            }
            let panel = &mut bt[..k * n];
            for (kk, b_row) in b.chunks_exact(n).enumerate() {
                for (j, &v) in b_row.iter().enumerate() {
                    panel[j * k + kk] = v;
                }
            }
            dots_nt_i8(k, n, a, panel, out);
        });
    } else {
        tiled_nn_i8(m, k, n, a, b, out);
    }
}

/// `out = A·Bᵀ` over i8 operands: `A` is `m×k`, `B` is `nr×k` (so `Bᵀ` is
/// `k×nr`) and `out` is `m×nr`. Overwrites `out` completely.
///
/// Narrow outputs run pack-free — every output element is a dot product of
/// a row of `A` and a row of `B`, both already contiguous. Wide outputs
/// repack `B` into `Bᵀ` (the f32 [`gemm_nt`] move) for the tiled path.
///
/// # Panics
///
/// As [`gemm_nn`]; debug builds also on `k > 2¹⁶`.
pub fn gemm_nt_i8(m: usize, k: usize, nr: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), nr * k);
    debug_assert_eq!(out.len(), m * nr);
    debug_assert!(k <= 1 << 16, "i32 accumulator bound: k = {k} > 65536");
    GEMM_I8_CALLS.add(1);
    if dot_route(k, nr) {
        dots_nt_i8(k, nr, a, b, out);
    } else {
        PACK_BT_I8.with(|cell| {
            let mut bt = cell.borrow_mut();
            if bt.len() < k * nr {
                bt.resize(k * nr, 0);
            }
            let panel = &mut bt[..k * nr];
            for (j, b_row) in b.chunks_exact(k).enumerate() {
                for (kk, &v) in b_row.iter().enumerate() {
                    panel[kk * nr + j] = v;
                }
            }
            tiled_nn_i8(m, k, nr, a, panel, out);
        });
    }
}

/// Route selector for the integer kernels: dots pay one horizontal-sum
/// tail per output element, so they only win when there are few columns
/// (`n < NR` — where the tile kernel would run scalar ragged columns) and
/// enough depth to amortise the tail (`k ≥ NR`). Measured on the AE
/// shapes: dots are ~1.3× faster than f32 at `k=96, n=3` and ~10× slower
/// than the tile at `k=3, n=96`.
#[inline(always)]
pub(crate) fn dot_route(k: usize, n: usize) -> bool {
    n < NR && k >= NR
}

/// Dot-path core: `out[i][j] = a_row(i) · bt_row(j)` with `bt` holding
/// `Bᵀ` contiguously (`n × k`, row-major).
fn dots_nt_i8(k: usize, n: usize, a: &[i8], bt: &[i8], out: &mut [i32]) {
    for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (b_row, o) in bt.chunks_exact(k).zip(o_row.iter_mut()) {
            *o = dot_i8(a_row, b_row);
        }
    }
}

/// i8·i8 → i32 dot product. The single-accumulator integer reduction is
/// the shape LLVM's vectoriser lowers to `vpmaddwd` (16 widening multiply-
/// adds per instruction on AVX2); any parallel-reduction or elementwise
/// restructuring of this loop falls back to the 2-µop `vpmulld`. Integer
/// addition is associative, so any accumulation order the compiler picks
/// yields the same bits.
#[inline(always)]
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Tile-path core: the f32 [`gemm_nn`] structure over i8 operands with
/// widened i32 multiplies, vectorising over the `n` output columns.
fn tiled_nn_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    zero_ragged_tail_i32(n, out);
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            if ib == MR && jb == NR {
                micro_nn_i8(i, j, k, n, a, b, out);
            } else {
                edge_any_i8(i, ib, j, jb, k, n, a, b, out);
            }
            j += jb;
        }
        i += ib;
    }
}

/// Zeroes the trailing `n % NR` column strip of the integer tile path's
/// output: only its scalar ragged-corner path accumulates into `out`.
fn zero_ragged_tail_i32(n: usize, out: &mut [i32]) {
    let tail = n % NR;
    if tail == 0 {
        return;
    }
    if tail == n {
        out.fill(0);
        return;
    }
    for row in out.chunks_exact_mut(n) {
        row[n - tail..].fill(0);
    }
}

/// Full `MR × NR` register tile of integer `A·B` — the f32 [`micro_nn`]
/// with i32 accumulators and widened multiplies.
#[inline(always)]
fn micro_nn_i8(i: usize, j: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let (mut c0, mut c1, mut c2, mut c3) = ([0i32; NR], [0i32; NR], [0i32; NR], [0i32; NR]);
    for (kk, b_full) in b.chunks_exact(n).enumerate() {
        // Cannot fail: the range is NR long (a short `b` fails the index).
        let b_row: &[i8; NR] = b_full[j..j + NR].try_into().expect("NR-wide tile slice");
        let (v0, v1, v2, v3) = (a0[kk] as i32, a1[kk] as i32, a2[kk] as i32, a3[kk] as i32);
        for c in 0..NR {
            let bv = b_row[c] as i32;
            c0[c] += v0 * bv;
            c1[c] += v1 * bv;
            c2[c] += v2 * bv;
            c3[c] += v3 * bv;
        }
    }
    for (r, acc) in [c0, c1, c2, c3].iter().enumerate() {
        out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc);
    }
}

/// Ragged edge tile of the integer tile path: full-width `NR` column
/// strips keep a register accumulator per row, the final corner runs
/// scalar at any row count (unlike the f32 [`edge_any`], the strip is not
/// padded: narrow deep products take the dot route instead).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn edge_any_i8(
    i: usize,
    ib: usize,
    j: usize,
    jb: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
) {
    for row in i..i + ib {
        if jb == NR {
            let mut acc = [0i32; NR];
            for (kk, b_full) in b.chunks_exact(n).enumerate() {
                // Cannot fail: the range is NR long (a short `b` fails the index).
                let b_row: &[i8; NR] = b_full[j..j + NR].try_into().expect("NR-wide slice");
                let av = a[row * k + kk] as i32;
                for c in 0..NR {
                    acc[c] += av * b_row[c] as i32;
                }
            }
            out[row * n + j..row * n + j + NR].copy_from_slice(&acc);
        } else {
            let (o_start, o_end) = (row * n + j, row * n + j + jb);
            for kk in 0..k {
                let av = a[row * k + kk] as i32;
                let b_row = &b[kk * n + j..kk * n + j + jb];
                let o_row = &mut out[o_start..o_end];
                for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv as i32;
                }
            }
        }
    }
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

/// One output row of the tile walk, for the rows past the last `MR` block
/// — all of them when `m < MR`, as in batch-1 model steps: columns
/// `j..j + NR` of a `b` with row stride `ldb` in one register accumulator.
/// That covers every full tile and, when the ragged strip was packed
/// (`m ≥ MR`, `k ≤ STRIP_K`), the strip's zero-padded panel, whose padded
/// lanes are dropped; only a strip left unpacked (`m < MR`, where the pack
/// would cost more moves than it saves, or `k > STRIP_K`) runs scalar,
/// in [`tiles`]. Summation order matches the tile path.
#[inline(always)]
fn edge_any(b: &[f32], ldb: usize, j: usize, a_row: impl Fn(usize) -> f32) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
        // Cannot fail: the range is NR long (a short `b` fails the index).
        let b_row: &[f32; NR] = b_full[j..j + NR].try_into().expect("NR-wide slice");
        let av = a_row(kk);
        for c in 0..NR {
            acc[c] += av * b_row[c];
        }
    }
    acc
}

/// The ragged strip of one row left unpacked: columns `j..j + o.len()` of
/// `b` (row stride `ldb`) into `o`, each output's chain from `0.0`. Up to
/// four columns (the one-row policy head's 3, the 4 past a 96-wide tile)
/// the chains live in registers ([`strip_regs`]); wider strips accumulate
/// in `o`, where every step is a load, an add and a store. Out of line:
/// inlined into the tile walk it reads the same on the one-row shapes.
#[inline(never)]
fn strip_scalar(b: &[f32], ldb: usize, j: usize, a_row: impl Fn(usize) -> f32, o: &mut [f32]) {
    match o.len() {
        1 => strip_regs::<1>(b, ldb, j, a_row, o),
        2 => strip_regs::<2>(b, ldb, j, a_row, o),
        3 => strip_regs::<3>(b, ldb, j, a_row, o),
        4 => strip_regs::<4>(b, ldb, j, a_row, o),
        _ => {
            o.fill(0.0);
            for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
                let av = a_row(kk);
                for (x, &bv) in o.iter_mut().zip(&b_full[j..]) {
                    *x += av * bv;
                }
            }
        }
    }
}

/// [`strip_scalar`] for a strip of `W` columns (`o.len() == W`), with the
/// accumulators in a fixed-width local.
#[inline(always)]
fn strip_regs<const W: usize>(
    b: &[f32],
    ldb: usize,
    j: usize,
    a_row: impl Fn(usize) -> f32,
    o: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (kk, b_full) in b.chunks_exact(ldb).enumerate() {
        let av = a_row(kk);
        for (x, &bv) in acc.iter_mut().zip(&b_full[j..j + W]) {
            *x += av * bv;
        }
    }
    o.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|x| ((x % 17) as f32 - 8.0) * scale).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gemm_nn_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (4, 4, 16), (5, 3, 17), (96, 64, 96), (7, 129, 3), (33, 2, 31)]
        {
            let a = ramp(m * k, 0.25);
            let b = ramp(k * n, 0.5);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_nn(m, k, n, &a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_tn_matches_transposed_naive() {
        let (r, m, n) = (6, 5, 19);
        let a = ramp(r * m, 0.1);
        let b = ramp(r * n, 0.3);
        let mut at = vec![0.0f32; m * r];
        for row in 0..r {
            for col in 0..m {
                at[col * r + row] = a[row * m + col];
            }
        }
        let mut out = vec![0.0f32; m * n];
        gemm_tn(r, m, n, &a, &b, &mut out);
        assert_eq!(bits(&out), bits(&naive_nn(m, r, n, &at, &b)));
    }

    #[test]
    fn gemm_nt_matches_dot_products() {
        let (m, k, nr) = (5, 23, 7);
        let a = ramp(m * k, 0.2);
        let b = ramp(nr * k, 0.4);
        let mut out = vec![0.0f32; m * nr];
        gemm_nt(m, k, nr, &a, &b, &mut out);
        for i in 0..m {
            for j in 0..nr {
                let dot: f32 =
                    (0..k).map(|kk| a[i * k + kk] * b[j * k + kk]).fold(0.0, |s, x| s + x);
                assert_eq!(out[i * nr + j].to_bits(), dot.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = [99.0f32];
        gemm_nn(1, 2, 1, &a, &b, &mut out);
        assert_eq!(out[0], 11.0);
    }

    #[test]
    fn gemm_overwrites_stale_output_on_every_tile_path() {
        // Shapes chosen to hit each write path: exact MR×NR tiles (4,3,16),
        // partial rows at full NR width (5,3,16), ragged tail columns
        // (5,3,17), and tail-only narrow outputs (3,2,5). Stale garbage in
        // `out` must never leak into any region.
        for &(m, k, n) in &[(4usize, 3usize, 16usize), (5, 3, 16), (5, 3, 17), (3, 2, 5)] {
            let a = ramp(m * k, 0.25);
            let b = ramp(k * n, 0.5);
            let mut out = vec![99.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_nn(m, k, n, &a, &b), "gemm_nn stale {m}x{k}x{n}");

            // Same stale-buffer guarantee for the transposed-A kernel.
            let at = ramp(k * m, 0.2); // k×m operand read as Aᵀ
            let mut out_t = vec![-7.0f32; m * n];
            gemm_tn(k, m, n, &at, &b, &mut out_t);
            let mut a_mat = vec![0.0f32; m * k];
            for row in 0..k {
                for col in 0..m {
                    a_mat[col * k + row] = at[row * m + col];
                }
            }
            let expect = naive_nn(m, k, n, &a_mat, &b);
            assert_eq!(bits(&out_t), bits(&expect), "gemm_tn stale {m}x{k}x{n}");
        }
    }

    fn naive_nn_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
            }
        }
        out
    }

    fn ramp_i8(len: usize, step: usize) -> Vec<i8> {
        (0..len).map(|x| ((x * step % 255) as i32 - 127) as i8).collect()
    }

    #[test]
    fn gemm_nn_i8_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in
            &[(1, 1, 1), (4, 4, 16), (5, 3, 17), (96, 64, 96), (7, 129, 3), (33, 2, 31)]
        {
            let a = ramp_i8(m * k, 7);
            let b = ramp_i8(k * n, 11);
            let mut out = vec![99i32; m * n]; // stale garbage must be overwritten
            gemm_nn_i8(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_nn_i8(m, k, n, &a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_nt_i8_matches_dot_products() {
        for &(m, k, nr) in &[(1, 96, 3), (5, 23, 7), (96, 64, 96)] {
            let a = ramp_i8(m * k, 13);
            let b = ramp_i8(nr * k, 5);
            let mut out = vec![-3i32; m * nr];
            gemm_nt_i8(m, k, nr, &a, &b, &mut out);
            for i in 0..m {
                for j in 0..nr {
                    let dot: i32 =
                        (0..k).map(|kk| a[i * k + kk] as i32 * b[j * k + kk] as i32).sum();
                    assert_eq!(out[i * nr + j], dot, "({i},{j}) of {m}x{k}x{nr}");
                }
            }
        }
    }

    #[test]
    fn gemm_i8_saturating_extremes_do_not_overflow() {
        // Worst-case magnitude: every product is (-128)·(-128); k = 256 keeps
        // the i32 accumulator far below its bound but exercises carry chains.
        let (m, k, n) = (4, 256, 16);
        let a = vec![-128i8; m * k];
        let b = vec![-128i8; k * n];
        let mut out = vec![0i32; m * n];
        gemm_nn_i8(m, k, n, &a, &b, &mut out);
        assert!(out.iter().all(|&x| x == 128 * 128 * 256));
    }
}
