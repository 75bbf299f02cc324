//! Quantised dense layer — the int8 inference sibling of [`crate::Dense`].
//!
//! Weights are quantised **once** post-training (stored transposed,
//! `out_dim × in_dim`, so per-row parameters are per-output-channel);
//! activations are optionally quantised **per batch** into the caller's
//! code buffer. The layer itself is immutable at inference (`&self`): the
//! weights are shared and every caller brings its own scratch, so blocks of
//! rows can run on several workers at once. Both paths route through
//! `_into` kernels and allocate nothing per call once warm, matching the
//! f32 hot-path guarantee.
//!
//! Two execution modes per [`QuantMode`]:
//!
//! * **weight-only** (`quantize_activations = false`): the fake-quantised
//!   f32 weights multiply through the f32 gemm — models int8 *storage* with
//!   f32 arithmetic.
//! * **full int8** (`quantize_activations = true`): inputs quantise
//!   per-row (= per-sample, so batching never changes a row's result) and
//!   the product runs i8×i8→i32 through
//!   [`hec_tensor::kernel::gemm_nt_i8`], dequantised with the affine
//!   correction — bit-identical across reruns and thread counts.

pub use hec_tensor::QuantScheme;
use hec_tensor::{Matrix, QuantizedMatrix};

use crate::activation::Activation;

/// How a quantised layer stores its weights and runs its matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantMode {
    /// Granularity of the weight quantisation parameters.
    pub scheme: QuantScheme,
    /// When `true`, activations quantise per batch and the product runs on
    /// the integer kernels; when `false`, only weights are quantised and the
    /// product stays in f32.
    pub quantize_activations: bool,
}

impl QuantMode {
    /// Int8 weight storage, f32 arithmetic.
    pub fn weight_only(scheme: QuantScheme) -> Self {
        QuantMode { scheme, quantize_activations: false }
    }

    /// Int8 weights *and* activations on the integer kernels.
    pub fn int8(scheme: QuantScheme) -> Self {
        QuantMode { scheme, quantize_activations: true }
    }

    /// Stable label used in repro-bin tables and CSVs, e.g. `int8-per-row`.
    pub fn label(&self) -> String {
        let kind = if self.quantize_activations { "int8" } else { "w8" };
        format!("{}-{}", kind, self.scheme.label())
    }
}

/// A dense layer `y = f(x·W + b)` whose kernel is stored quantised.
///
/// Built from a trained f32 layer's parameters via
/// [`QuantizedDense::from_weights`]; the original network is left untouched,
/// so the same training run can be re-quantised under different schemes
/// (what `repro_quant` sweeps).
pub struct QuantizedDense {
    /// Quantised kernel, stored transposed (`out_dim × in_dim`).
    wq: QuantizedMatrix,
    /// Fake-quantised f32 kernel (`in_dim × out_dim`) for the weight-only
    /// path — carries exactly the int8 weight error.
    w_deq: Matrix,
    bias: Matrix,
    activation: Activation,
    mode: QuantMode,
}

impl QuantizedDense {
    /// Quantises a trained layer's parameters. `weight` is `in_dim × out_dim`
    /// (the [`crate::Dense`] layout), `bias` is `1 × out_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` does not match the weight's output dimension.
    pub fn from_weights(
        weight: &Matrix,
        bias: &Matrix,
        activation: Activation,
        mode: QuantMode,
    ) -> Self {
        assert_eq!(bias.cols(), weight.cols(), "bias/weight out_dim mismatch");
        let wt = weight.transpose();
        let mut wq = QuantizedMatrix::quantize(&wt, mode.scheme);
        let w_deq = wq.dequantize().transpose();
        // Weights are quantised once: re-lay the codes in the orientation
        // the integer kernel reads for this shape, so wide-output layers
        // (the AE decoder) skip the per-call repack. Bit-identical result.
        wq.pack_for_inference();
        QuantizedDense { wq, w_deq, bias: bias.clone(), activation, mode }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.wq.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.wq.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The quantisation mode this layer was built with.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// Pre-activation `x·W̃ + b` into a caller-owned buffer (resized in
    /// place). `codes` is the caller's per-batch activation-code scratch
    /// (untouched in weight-only mode). Allocation-free once `out`, `codes`
    /// and the kernel scratch have grown to the workload's shape.
    pub fn affine_into(&self, input: &Matrix, codes: &mut QuantizedMatrix, out: &mut Matrix) {
        if self.mode.quantize_activations {
            // Per-row (= per-sample) activation parameters keep each batch
            // row's result independent of the other rows, so a batched
            // forward is bit-identical to the same windows run one at a
            // time — the invariant `detect_batch` promises.
            codes.quantize_from(input, QuantScheme::PerRow);
            codes.matmul_t_into(&self.wq, out);
        } else {
            input.matmul_into(&self.w_deq, out);
        }
        out.add_row_broadcast_assign(&self.bias);
    }

    /// Full layer forward `f(x·W̃ + b)` into `out` (activation applied in
    /// place — no allocation).
    pub fn forward_into(&self, input: &Matrix, codes: &mut QuantizedMatrix, out: &mut Matrix) {
        self.affine_into(input, codes, out);
        self.activation.apply_inplace(out);
    }
}

impl std::fmt::Debug for QuantizedDense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuantizedDense({}→{}, {:?}, {})",
            self.in_dim(),
            self.out_dim(),
            self.activation,
            self.mode.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_like(in_dim: usize, out_dim: usize) -> (Matrix, Matrix) {
        let w = Matrix::from_vec(
            in_dim,
            out_dim,
            (0..in_dim * out_dim).map(|i| ((i as f32) * 0.37).sin() * 0.8).collect(),
        );
        let b =
            Matrix::from_vec(1, out_dim, (0..out_dim).map(|i| (i as f32) * 0.05 - 0.1).collect());
        (w, b)
    }

    #[test]
    fn weight_only_equals_f32_gemm_on_fake_quantised_weights() {
        let (w, b) = trained_like(16, 8);
        let q = QuantizedDense::from_weights(
            &w,
            &b,
            Activation::Linear,
            QuantMode::weight_only(QuantScheme::PerRow),
        );
        let x = Matrix::from_vec(3, 16, (0..48).map(|i| ((i as f32) * 0.19).cos()).collect());
        let mut got = Matrix::zeros(1, 1);
        q.affine_into(&x, &mut QuantizedMatrix::empty(), &mut got);
        // Reference: f32 affine against the dequantised kernel.
        let mut expect = x.matmul(&q.w_deq);
        expect.add_row_broadcast_assign(&b);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn int8_affine_tracks_f32_affine() {
        let (w, b) = trained_like(32, 12);
        let x = Matrix::from_vec(5, 32, (0..160).map(|i| ((i as f32) * 0.11).sin()).collect());
        let mut exact = x.matmul(&w);
        exact.add_row_broadcast_assign(&b);
        for scheme in [QuantScheme::PerTensor, QuantScheme::PerRow] {
            let q =
                QuantizedDense::from_weights(&w, &b, Activation::Linear, QuantMode::int8(scheme));
            let mut got = Matrix::zeros(1, 1);
            q.affine_into(&x, &mut QuantizedMatrix::empty(), &mut got);
            let err = (&got - &exact).frobenius_norm() / exact.frobenius_norm().max(1e-12);
            assert!(err < 0.03, "relative error {err} [{scheme:?}]");
        }
    }

    #[test]
    fn int8_forward_is_deterministic_across_calls() {
        let (w, b) = trained_like(24, 6);
        let q = QuantizedDense::from_weights(
            &w,
            &b,
            Activation::Tanh,
            QuantMode::int8(QuantScheme::PerRow),
        );
        let x = Matrix::from_vec(2, 24, (0..48).map(|i| ((i as f32) * 0.29).sin()).collect());
        let mut codes = QuantizedMatrix::empty();
        let mut first = Matrix::zeros(1, 1);
        q.forward_into(&x, &mut codes, &mut first);
        for _ in 0..3 {
            let mut again = Matrix::zeros(1, 1);
            q.forward_into(&x, &mut codes, &mut again);
            assert_eq!(first.as_slice(), again.as_slice());
        }
    }

    #[test]
    fn activation_applies_in_place() {
        let (w, b) = trained_like(4, 4);
        let q = QuantizedDense::from_weights(
            &w,
            &b,
            Activation::Relu,
            QuantMode::weight_only(QuantScheme::PerTensor),
        );
        let x = Matrix::from_vec(1, 4, vec![-5.0, -5.0, -5.0, -5.0]);
        let mut out = Matrix::zeros(1, 1);
        q.forward_into(&x, &mut QuantizedMatrix::empty(), &mut out);
        assert!(out.as_slice().iter().all(|&v| v >= 0.0), "ReLU must clamp: {:?}", out.as_slice());
    }

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(QuantMode::weight_only(QuantScheme::PerTensor).label(), "w8-per-tensor");
        assert_eq!(QuantMode::int8(QuantScheme::PerRow).label(), "int8-per-row");
    }
}
