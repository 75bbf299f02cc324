//! Int8 affine quantisation for the layer-0 inference path.
//!
//! The paper compresses the models deployed on the IoT device and edge
//! server (§III-B: trainable nodes removed, parameters quantized). This
//! module provides the *real* quantised representation behind that story:
//! [`QuantizedMatrix`] stores saturating i8 values plus affine
//! `(scale, zero_point)` parameters — per-tensor or per-row
//! ([`QuantScheme`]) — and multiplies through the integer kernels in
//! [`crate::kernel`] (`gemm_nn_i8`/`gemm_nt_i8`), dequantising through an
//! `_into` API that allocates nothing per call.
//!
//! # Scheme
//!
//! Real values map as `x ≈ scale · (q − zero_point)` with `q ∈ [−128, 127]`.
//! The calibration range is nudged to include zero (so exact zeros stay
//! exact) and `scale = (hi − lo) / 254`, which guarantees every in-range
//! value quantises with error at most `scale / 2` *without* engaging the
//! saturating clamp — the property the round-trip proptests pin down.
//! Constant and all-zero matrices fall back to `scale = 1, zero_point = 0`
//! so no NaN or zero scale is ever produced.
//!
//! # Determinism
//!
//! Quantisation is element-wise and the matmul accumulates i8×i8 products
//! in i32 — integer addition is associative, so quantised products are
//! bit-identical across reruns, `HEC_THREADS` settings, and accumulation
//! order changes. CI byte-diffs the quantised repro output on exactly this
//! guarantee.

use std::cell::RefCell;

use crate::kernel;
use crate::Matrix;

thread_local! {
    /// Reusable i32 accumulator panel for [`QuantizedMatrix::matmul_t_into`].
    /// Grows to the largest `m × n` output seen on this thread, then reused.
    static ACC_I32: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// Granularity of the affine quantisation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// One `(scale, zero_point)` pair for the whole matrix.
    PerTensor,
    /// One `(scale, zero_point)` pair per row. Weights are stored transposed
    /// (`out_dim × in_dim`), so this is per-output-channel quantisation.
    PerRow,
}

impl QuantScheme {
    /// Stable lower-case label used in repro-bin tables and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            QuantScheme::PerTensor => "per-tensor",
            QuantScheme::PerRow => "per-row",
        }
    }
}

/// One affine parameter pair: `real ≈ scale · (q − zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step between adjacent quantisation levels; always finite and > 0.
    pub scale: f32,
    /// The integer code that represents real zero; always in `[−128, 127]`.
    pub zero_point: i32,
}

impl QuantParams {
    /// Affine parameters covering `[lo, hi]`, nudged to include zero.
    ///
    /// Uses 255 of the 256 codes (`scale = span/254`) so that every value in
    /// the calibration range provably quantises within `scale/2` without
    /// saturating — see the module docs. Degenerate ranges (constant, zero,
    /// or non-finite input) fall back to `scale = 1, zero_point = 0`.
    fn from_range(lo: f32, hi: f32) -> Self {
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let scale = (hi - lo) / 254.0;
        if !(scale.is_finite() && scale > 0.0) {
            return QuantParams { scale: 1.0, zero_point: 0 };
        }
        // Integer zero-point keeps `round(x/scale) + zp` in [−128, 127] for
        // every x ∈ [lo, hi]: round(lo/scale)+zp = −128 exactly, and the
        // rounded span is at most 255 codes.
        let zero_point = -128 - (lo / scale).round() as i32;
        QuantParams { scale, zero_point }
    }

    /// Quantises one value (saturating).
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() + self.zero_point as f32;
        q.clamp(-128.0, 127.0) as i8
    }

    /// Reconstructs the real value of one code.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }
}

/// A row-major i8 matrix with affine quantisation parameters and cached
/// per-row code sums (needed for the zero-point correction terms of the
/// integer matmul).
///
/// Products run through [`kernel::gemm_nt_i8`] with i32 accumulation and
/// dequantise via [`QuantizedMatrix::matmul_t_into`], which reuses a
/// thread-local accumulator panel and resizes `out` in place — zero heap
/// allocations per call once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// One entry (per-tensor) or `rows` entries (per-row).
    params: Vec<QuantParams>,
    /// Per-row sums of the i8 codes, widened to i32.
    row_sums: Vec<i32>,
    scheme: QuantScheme,
    /// When set, `data` holds the codes transposed (`cols × rows`,
    /// row-major) — the layout [`kernel::gemm_nn_i8`]'s tile route reads
    /// directly. See [`Self::pack_for_inference`]. Parameters and row sums
    /// stay indexed by *logical* row.
    packed_nn: bool,
    /// Folded right-hand-side dequantisation constants, three `rows`-long
    /// segments (`s_b`, `s_b·z_b`, `s_b·(Σq_b − k·z_b)`), computed once at
    /// quantisation time so [`Self::matmul_t_into`]'s correction loop is
    /// pure multiply-add work.
    rhs_consts: Vec<f32>,
}

impl QuantizedMatrix {
    /// An empty 0×0 per-tensor matrix — a seed for [`Self::quantize_from`]
    /// buffer reuse.
    pub fn empty() -> Self {
        QuantizedMatrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
            params: Vec::new(),
            row_sums: Vec::new(),
            scheme: QuantScheme::PerTensor,
            packed_nn: false,
            rhs_consts: Vec::new(),
        }
    }

    /// Quantises `m` with affine parameters at the given granularity.
    pub fn quantize(m: &Matrix, scheme: QuantScheme) -> Self {
        let mut q = Self::empty();
        q.quantize_from(m, scheme);
        q
    }

    /// Re-quantises `m` into this matrix, reusing its buffers (grow-only) —
    /// the per-batch activation path. Allocation-free once the buffers have
    /// grown to the workload's shape.
    pub fn quantize_from(&mut self, m: &Matrix, scheme: QuantScheme) {
        let param_for = |xs: &[f32]| {
            let (lo, hi) = min_max(xs);
            QuantParams::from_range(lo, hi)
        };
        let (rows, cols) = m.shape();
        self.rows = rows;
        self.cols = cols;
        self.scheme = scheme;
        self.packed_nn = false;
        self.data.resize(rows * cols, 0);
        self.row_sums.resize(rows, 0);
        let n_params = match scheme {
            QuantScheme::PerTensor => 1,
            QuantScheme::PerRow => rows,
        };
        self.params.resize(n_params, QuantParams { scale: 1.0, zero_point: 0 });
        if matches!(scheme, QuantScheme::PerTensor) {
            self.params[0] = param_for(m.as_slice());
        }
        for (r, row) in m.iter_rows().enumerate() {
            let p = match scheme {
                QuantScheme::PerTensor => self.params[0],
                QuantScheme::PerRow => {
                    self.params[r] = param_for(row);
                    self.params[r]
                }
            };
            let mut sum = 0i32;
            let qrow = &mut self.data[r * cols..(r + 1) * cols];
            for (q, &x) in qrow.iter_mut().zip(row.iter()) {
                let code = p.quantize(x);
                *q = code;
                sum += code as i32;
            }
            self.row_sums[r] = sum;
        }
        self.fold_rhs_consts();
    }

    /// Rebuilds [`Self::rhs_consts`] from the current params and row sums.
    fn fold_rhs_consts(&mut self) {
        let n = self.rows;
        self.rhs_consts.resize(3 * n, 0.0);
        let k = self.cols as i32;
        for r in 0..n {
            let p = if self.params.len() == 1 { self.params[0] } else { self.params[r] };
            self.rhs_consts[r] = p.scale;
            self.rhs_consts[n + r] = p.scale * p.zero_point as f32;
            self.rhs_consts[2 * n + r] = p.scale * (self.row_sums[r] - k * p.zero_point) as f32;
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The quantisation granularity this matrix was built with.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// The affine parameters: one entry for per-tensor, `rows` for per-row.
    pub fn params(&self) -> &[QuantParams] {
        &self.params
    }

    /// The raw i8 codes — row-major over the logical shape, or transposed
    /// (`cols × rows`) when [`Self::is_packed_nn`] is set.
    pub fn codes(&self) -> &[i8] {
        &self.data
    }

    /// Whether the codes are stored in the transposed inference layout.
    pub fn is_packed_nn(&self) -> bool {
        self.packed_nn
    }

    /// Re-lays the codes in the orientation the integer matmul reads them,
    /// chosen by the kernel's route for this shape — a weights-only,
    /// quantise-once optimisation.
    ///
    /// As the right-hand side of [`Self::matmul_t_into`] this matrix's
    /// rows are *output columns*: the kernel's dot route reads them as
    /// stored (row-major), but the tile route — wide outputs, the AE
    /// decoder shape — wants the transpose and would otherwise repack
    /// `cols × rows` bytes on **every** call. Packing once here makes the
    /// tile route pack-free, exactly like the f32 `gemm_nn` path. The
    /// product is bit-identical either way (same codes, same integer
    /// arithmetic); only per-call packing work is removed.
    pub fn pack_for_inference(&mut self) {
        if self.packed_nn || kernel::dot_route(self.cols, self.rows) {
            return;
        }
        let (n, k) = (self.rows, self.cols);
        let mut packed = vec![0i8; self.data.len()];
        for j in 0..n {
            for kk in 0..k {
                packed[kk * n + j] = self.data[j * k + kk];
            }
        }
        self.data = packed;
        self.packed_nn = true;
    }

    #[inline]
    fn param_for_row(&self, r: usize) -> QuantParams {
        if self.params.len() == 1 {
            self.params[0]
        } else {
            self.params[r]
        }
    }

    /// Reconstructs the real-valued matrix (allocating).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.dequantize_into(&mut out);
        out
    }

    /// Reconstructs the real-valued matrix into `out` (resized in place —
    /// allocation-free once `out` has the capacity).
    pub fn dequantize_into(&self, out: &mut Matrix) {
        out.resize(self.rows, self.cols);
        let o = out.as_mut_slice();
        for r in 0..self.rows {
            let p = self.param_for_row(r);
            let orow = &mut o[r * self.cols..(r + 1) * self.cols];
            if self.packed_nn {
                for (c, dst) in orow.iter_mut().enumerate() {
                    *dst = p.dequantize(self.data[c * self.rows + r]);
                }
            } else {
                let qrow = &self.data[r * self.cols..(r + 1) * self.cols];
                for (dst, &q) in orow.iter_mut().zip(qrow.iter()) {
                    *dst = p.dequantize(q);
                }
            }
        }
    }

    /// `out = self · rhsᵀ` dequantised to f32: `self` is `m×k`, `rhs` is
    /// `n×k`, `out` becomes `m×n`. The integer product runs through
    /// [`kernel::gemm_nt_i8`]; the affine correction applies the cached
    /// per-row code sums:
    ///
    /// `y[i][j] = s_a s_b · (Σ q_a q_b − z_b Σq_a − z_a Σq_b + k·z_a z_b)`
    ///
    /// The `rhs`-side factors are folded into three per-column f32
    /// constants once per call, so the per-element correction is three
    /// multiply-adds that vectorise — the scalar per-element form costs
    /// more than the integer kernel itself on wide outputs. The folded
    /// expression is fixed, so results stay bit-identical across reruns
    /// and thread counts.
    ///
    /// Allocation-free per call once the thread-local buffers and `out`
    /// have grown to the workload's shape.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_t_into(&self, rhs: &QuantizedMatrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "quantised matmul_t: inner dims {} vs {}",
            self.cols, rhs.cols
        );
        assert!(!self.packed_nn, "quantised matmul_t: lhs must be row-major (activations)");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize(m, n);
        ACC_I32.with(|cell| {
            let mut acc = cell.borrow_mut();
            if acc.len() < m * n {
                acc.resize(m * n, 0);
            }
            let acc = &mut acc[..m * n];
            if rhs.packed_nn {
                // Codes already in the tile route's layout: pack-free.
                kernel::gemm_nn_i8(m, k, n, &self.data, &rhs.data, acc);
            } else {
                kernel::gemm_nt_i8(m, k, n, &self.data, &rhs.data, acc);
            }
            // y[i][j] = s_a·(s_b·acc − (s_b z_b)·Σq_a − z_a·s_b(Σq_b − k z_b)),
            // with the three rhs factors pre-folded at quantisation time.
            let (sb, rest) = rhs.rhs_consts.split_at(n);
            let (sbz, swk) = rest.split_at(n);
            let o = out.as_mut_slice();
            for i in 0..m {
                let pa = self.param_for_row(i);
                let (sa, za) = (pa.scale, pa.zero_point as f32);
                let xa = self.row_sums[i] as f32;
                let orow = &mut o[i * n..(i + 1) * n];
                let arow = &acc[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] = sa * (sb[j] * arow[j] as f32 - sbz[j] * xa - za * swk[j]);
                }
            }
        });
    }

    /// Allocating wrapper over [`Self::matmul_t_into`]; hot paths must use
    /// the `_into` variant.
    pub fn matmul_t(&self, rhs: &QuantizedMatrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_into(rhs, &mut out);
        out
    }
}

fn min_max(xs: &[f32]) -> (f32, f32) {
    xs.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_roundtrip_error_within_half_scale() {
        let data: Vec<f32> = (0..60).map(|i| ((i as f32) * 0.913).cos() * 3.0 - 0.7).collect();
        let m = Matrix::from_vec(6, 10, data);
        for scheme in [QuantScheme::PerTensor, QuantScheme::PerRow] {
            let q = QuantizedMatrix::quantize(&m, scheme);
            let back = q.dequantize();
            for r in 0..m.rows() {
                let bound = q.param_for_row(r).scale * 0.5 * 1.0001 + 1e-6;
                for c in 0..m.cols() {
                    let err = (m[(r, c)] - back[(r, c)]).abs();
                    assert!(err <= bound, "({r},{c}): err {err} > {bound} [{scheme:?}]");
                }
            }
        }
    }

    #[test]
    fn constant_and_zero_matrices_produce_finite_params() {
        for value in [0.0f32, 3.25, -1.5] {
            let m = Matrix::filled(3, 4, value);
            for scheme in [QuantScheme::PerTensor, QuantScheme::PerRow] {
                let q = QuantizedMatrix::quantize(&m, scheme);
                for p in q.params() {
                    assert!(p.scale.is_finite() && p.scale > 0.0, "scale {} for {value}", p.scale);
                }
                let back = q.dequantize();
                let bound = q.params()[0].scale * 0.5 + 1e-6;
                for (&x, &y) in m.as_slice().iter().zip(back.as_slice()) {
                    assert!((x - y).abs() <= bound, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn per_row_is_no_worse_than_per_tensor_on_skewed_rows() {
        // Row 0 spans ±10, row 1 spans ±0.01: per-tensor forces row 1 onto
        // a coarse grid, per-row gives it its own fine one.
        let m = Matrix::from_rows(&[&[10.0, -10.0, 5.0, -2.0], &[0.01, -0.01, 0.005, -0.002]]);
        let rmse = |q: &QuantizedMatrix| {
            let diff = &m - &q.dequantize();
            (diff.frobenius_norm_sq() / m.len() as f32).sqrt()
        };
        let per_tensor = rmse(&QuantizedMatrix::quantize(&m, QuantScheme::PerTensor));
        let per_row = rmse(&QuantizedMatrix::quantize(&m, QuantScheme::PerRow));
        assert!(per_row < per_tensor, "per-row {per_row} vs per-tensor {per_tensor}");
    }

    #[test]
    fn quantised_matmul_t_tracks_f32_product() {
        let (m, k, n) = (5, 64, 7);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| ((i as f32) * 0.17).sin()).collect());
        let b = Matrix::from_vec(n, k, (0..n * k).map(|i| ((i as f32) * 0.23).cos()).collect());
        let exact = a.matmul_t(&b);
        for scheme in [QuantScheme::PerTensor, QuantScheme::PerRow] {
            let qa = QuantizedMatrix::quantize(&a, scheme);
            let qb = QuantizedMatrix::quantize(&b, scheme);
            let mut out = Matrix::zeros(1, 1);
            qa.matmul_t_into(&qb, &mut out);
            assert_eq!(out.shape(), (m, n));
            let err = (&out - &exact).frobenius_norm() / exact.frobenius_norm().max(1e-12);
            assert!(err < 0.02, "relative error {err} too large [{scheme:?}]");
        }
    }

    #[test]
    fn quantised_matmul_is_deterministic_across_reruns() {
        let a = Matrix::from_vec(4, 32, (0..128).map(|i| ((i as f32) * 0.31).sin()).collect());
        let b = Matrix::from_vec(6, 32, (0..192).map(|i| ((i as f32) * 0.41).cos()).collect());
        let qa = QuantizedMatrix::quantize(&a, QuantScheme::PerRow);
        let qb = QuantizedMatrix::quantize(&b, QuantScheme::PerRow);
        let first = qa.matmul_t(&qb);
        for _ in 0..3 {
            let again = qa.matmul_t(&qb);
            assert_eq!(first.as_slice(), again.as_slice());
        }
    }

    #[test]
    fn packed_inference_layout_is_bit_identical() {
        // Wide-output (decoder) shape: packing re-lays the codes for the
        // tile route. Same codes, same integer arithmetic — the product
        // and the dequantised matrix must not change by a single bit.
        let x = Matrix::from_vec(5, 3, (0..15).map(|i| ((i as f32) * 0.7).sin()).collect());
        let w = Matrix::from_vec(24, 3, (0..72).map(|i| ((i as f32) * 0.3).cos()).collect());
        let xq = QuantizedMatrix::quantize(&x, QuantScheme::PerRow);
        let wq = QuantizedMatrix::quantize(&w, QuantScheme::PerRow);
        let mut packed = wq.clone();
        packed.pack_for_inference();
        assert!(packed.is_packed_nn());
        assert_eq!(packed.dequantize().as_slice(), wq.dequantize().as_slice());
        let (mut a, mut b) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        xq.matmul_t_into(&wq, &mut a);
        xq.matmul_t_into(&packed, &mut b);
        assert_eq!(a.as_slice(), b.as_slice());

        // Narrow-output (encoder) shape: the dot route already reads the
        // stored layout, so packing must be a no-op.
        let enc = QuantizedMatrix::quantize(&w.transpose(), QuantScheme::PerRow);
        let mut enc_packed = enc.clone();
        enc_packed.pack_for_inference();
        assert!(!enc_packed.is_packed_nn());
        assert_eq!(enc_packed, enc);
    }

    #[test]
    fn quantize_from_reuses_buffers() {
        let m1 = Matrix::from_vec(4, 8, (0..32).map(|i| i as f32 * 0.1).collect());
        let mut q = QuantizedMatrix::quantize(&m1, QuantScheme::PerRow);
        let m2 = Matrix::from_vec(2, 8, (0..16).map(|i| -(i as f32) * 0.2).collect());
        q.quantize_from(&m2, QuantScheme::PerTensor);
        assert_eq!(q.shape(), (2, 8));
        assert_eq!(q.scheme(), QuantScheme::PerTensor);
        assert_eq!(q.params().len(), 1);
        let back = q.dequantize();
        let bound = q.params()[0].scale * 0.5 + 1e-6;
        for (&x, &y) in m2.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= bound);
        }
    }
}
