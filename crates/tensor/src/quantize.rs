//! Int8 affine quantisation for the layer-0 inference path.
//!
//! The paper compresses the models deployed on the IoT device and edge
//! server (§III-B: trainable nodes removed, parameters quantized). This
//! module provides the *real* quantised representation behind that story:
//! [`QuantizedMatrix`] stores integer codes in `[−128, 127]` plus affine
//! `(scale, zero_point)` parameters — per-tensor or per-row
//! ([`QuantScheme`]) — and multiplies by running the f32 gemm
//! ([`crate::kernel::gemm_nn`], through [`Matrix::matmul_into`]) over the
//! codes held as `f32`, dequantising in place through an `_into` API that
//! allocates nothing per call.
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
//! # Exactness
//!
//! The code product of an affine scheme is an integer by construction
//! (Jacob et al., "Quantization and Training of Neural Networks for
//! Efficient Integer-Arithmetic-Only Inference", CVPR 2018). Codes lie in
//! `[−128, 127]`, so each product of two codes is at most `2¹⁴` in
//! magnitude and every partial sum of a depth-`k` product at most
//! `k · 2¹⁴`; binary32 holds every integer up to `2²⁴` exactly. For
//! `k ≤ 1024` every multiply and add of the f32 gemm is therefore exact,
//! and the product equals the i32 accumulation bit for bit — whichever
//! tile, strip or panel path computes an element, in any order. Quantised
//! products are bit-identical across reruns, `HEC_THREADS` settings and
//! kernel paths; CI byte-diffs the quantised repro output on exactly this
//! guarantee. `hec_nn::QuantizedDense` checks the bound, in release builds
//! too, where it builds a layer that quantises its activations.

use crate::Matrix;

/// Deepest product whose f32 code accumulation is exact (module docs).
const EXACT_K: usize = 1 << 10;

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

/// A matrix of int8 codes with affine quantisation parameters and cached
/// per-row code sums (needed for the zero-point correction terms of the
/// product).
///
/// The codes are held as `f32`, row-major. A matrix built by
/// [`QuantizedMatrix::quantize`] — the quantise-once weights — also holds
/// them transposed, laid out once: the right-hand side of
/// [`QuantizedMatrix::matmul_t_into`] is then an operand the f32 gemm reads
/// as stored. That product resizes `out` in place and allocates nothing
/// per call once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// The codes, integers in `[−128, 127]` held exactly as `f32`
    /// (`rows × cols`).
    codes: Matrix,
    /// The same codes transposed (`cols × rows`), the `k × n` operand of
    /// the gemm when this matrix is the right-hand side of
    /// [`Self::matmul_t_into`]. Laid out by [`Self::quantize`] only: the
    /// per-batch activations, re-quantised in place, never need it.
    codes_t: Option<Matrix>,
    /// One entry (per-tensor) or `rows` entries (per-row).
    params: Vec<QuantParams>,
    /// Per-row sums of the codes, widened to i32.
    row_sums: Vec<i32>,
    /// Folded right-hand-side dequantisation constants, three `rows`-long
    /// segments (`s_b`, `s_b·z_b`, `s_b·(Σq_b − k·z_b)`), computed once at
    /// quantisation time so [`Self::matmul_t_into`]'s correction loop is
    /// pure multiply-add work.
    rhs_consts: Vec<f32>,
}

impl QuantizedMatrix {
    /// A placeholder — one zero code, no parameters — that seeds
    /// [`Self::quantize_from`] buffer reuse.
    pub fn empty() -> Self {
        QuantizedMatrix {
            codes: Matrix::zeros(1, 1),
            codes_t: None,
            params: Vec::new(),
            row_sums: Vec::new(),
            rhs_consts: Vec::new(),
        }
    }

    /// Quantises `m` with affine parameters at the given granularity, and
    /// lays its codes out transposed too, so the result can be the
    /// right-hand side of [`Self::matmul_t_into`].
    pub fn quantize(m: &Matrix, scheme: QuantScheme) -> Self {
        let mut q = Self::empty();
        q.quantize_from(m, scheme);
        q.codes_t = Some(q.codes.transpose());
        q
    }

    /// Re-quantises `m` into this matrix, reusing its buffers (grow-only) —
    /// the per-batch activation path, the left-hand side of
    /// [`Self::matmul_t_into`]. Allocation-free once the buffers have grown
    /// to the workload's shape.
    pub fn quantize_from(&mut self, m: &Matrix, scheme: QuantScheme) {
        let param_for = |xs: &[f32]| {
            let (lo, hi) = min_max(xs);
            QuantParams::from_range(lo, hi)
        };
        let (rows, cols) = m.shape();
        self.codes.resize(rows, cols);
        self.codes_t = None;
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
            for (q, &x) in self.codes.row_mut(r).iter_mut().zip(row) {
                let code = p.quantize(x);
                *q = code as f32;
                sum += code as i32;
            }
            self.row_sums[r] = sum;
        }
        self.fold_rhs_consts();
    }

    /// Rebuilds [`Self::rhs_consts`] from the current params and row sums.
    fn fold_rhs_consts(&mut self) {
        let n = self.rows();
        self.rhs_consts.resize(3 * n, 0.0);
        let k = self.cols() as i32;
        for r in 0..n {
            let p = self.param_for_row(r);
            self.rhs_consts[r] = p.scale;
            self.rhs_consts[n + r] = p.scale * p.zero_point as f32;
            self.rhs_consts[2 * n + r] = p.scale * (self.row_sums[r] - k * p.zero_point) as f32;
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.codes.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.codes.cols()
    }

    /// The affine parameters: one entry for per-tensor, `rows` for per-row.
    pub fn params(&self) -> &[QuantParams] {
        &self.params
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
        let mut out = self.codes.clone();
        for (r, row) in out.as_mut_slice().chunks_exact_mut(self.cols()).enumerate() {
            let p = self.param_for_row(r);
            for x in row {
                *x = p.dequantize(*x as i8);
            }
        }
        out
    }

    /// `out = self · rhsᵀ` dequantised to f32: `self` is `m×k`, `rhs` is
    /// `n×k`, `out` becomes `m×n`. The code product runs through the f32
    /// gemm — `self`'s codes times `rhs`'s transposed codes, exact for
    /// `k ≤ 1024` (module docs) — and the affine correction then rewrites
    /// each output in place from the cached per-row code sums:
    ///
    /// `y[i][j] = s_a s_b · (Σ q_a q_b − z_b Σq_a − z_a Σq_b + k·z_a z_b)`
    ///
    /// The `rhs`-side factors are folded into three per-column f32
    /// constants at quantisation time, so the per-element correction is
    /// three multiply-adds that vectorise. The folded expression is fixed,
    /// so results stay bit-identical across reruns and thread counts.
    ///
    /// Allocation-free per call once `out` has grown to the workload's
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree, or if `rhs` was last
    /// quantised by [`Self::quantize_from`] rather than built by
    /// [`Self::quantize`] (it has no transposed codes); debug builds also on
    /// `k > 1024`, where the code product may round.
    pub fn matmul_t_into(&self, rhs: &QuantizedMatrix, out: &mut Matrix) {
        let n = rhs.rows();
        debug_assert!(self.cols() <= EXACT_K, "inexact code product: k = {}", self.cols());
        let rhs_codes = rhs.codes_t.as_ref().expect("right-hand side built by quantize");
        self.codes.matmul_into(rhs_codes, out);
        // y[i][j] = s_a·(s_b·acc − (s_b z_b)·Σq_a − z_a·s_b(Σq_b − k z_b)),
        // with the three rhs factors pre-folded at quantisation time.
        let (sb, rest) = rhs.rhs_consts.split_at(n);
        let (sbz, swk) = rest.split_at(n);
        for (i, orow) in out.as_mut_slice().chunks_exact_mut(n).enumerate() {
            let pa = self.param_for_row(i);
            let (sa, za) = (pa.scale, pa.zero_point as f32);
            let xa = self.row_sums[i] as f32;
            for j in 0..n {
                orow[j] = sa * (sb[j] * orow[j] - sbz[j] * xa - za * swk[j]);
            }
        }
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
        let (mut first, mut again) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        qa.matmul_t_into(&qb, &mut first);
        for _ in 0..3 {
            qa.matmul_t_into(&qb, &mut again);
            assert_eq!(first.as_slice(), again.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "right-hand side built by quantize")]
    fn right_hand_side_needs_the_transposed_codes() {
        let a = Matrix::from_vec(2, 3, (0..6).map(|i| i as f32).collect());
        let mut rhs = QuantizedMatrix::quantize(&a, QuantScheme::PerRow);
        rhs.quantize_from(&a, QuantScheme::PerRow);
        QuantizedMatrix::quantize(&a, QuantScheme::PerRow).matmul_t_into(&rhs, &mut a.clone());
    }

    #[test]
    fn quantize_from_reuses_buffers() {
        let m1 = Matrix::from_vec(4, 8, (0..32).map(|i| i as f32 * 0.1).collect());
        let mut q = QuantizedMatrix::quantize(&m1, QuantScheme::PerRow);
        let m2 = Matrix::from_vec(2, 8, (0..16).map(|i| -(i as f32) * 0.2).collect());
        q.quantize_from(&m2, QuantScheme::PerTensor);
        assert_eq!((q.rows(), q.cols()), (2, 8));
        assert_eq!(q.params().len(), 1);
        let back = q.dequantize();
        let bound = q.params()[0].scale * 0.5 + 1e-6;
        for (&x, &y) in m2.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= bound);
        }
    }
}
