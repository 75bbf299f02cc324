//! Reusable scratch workspaces for allocation-free hot paths.
//!
//! Every model in this crate owns a small scratch struct built from [`Buf`]s
//! and routes its matrix products through the `_into` kernel family of
//! `hec-tensor`, so a steady-state forward or training step allocates **no
//! matmul temporaries**: each buffer is allocated once at its workload's
//! peak shape and reused for every subsequent call, and the only matmul
//! results that still allocate are caller-visible outputs (the LSTMs'
//! returned state gradients). [`crate::Sequential`] holds the dense stacks'
//! training activations and gradients the same way, so its layers hold
//! none. The LSTMs add two things of their own on top (see
//! [`crate::lstm`]): flat time-major arenas for what a sequence leaves
//! behind, and one per-thread set of BPTT buffers shared by every layer,
//! since a backward pass needs them only while it runs.
//!
//! The convention is deliberately minimal — a `Buf` is just a lazily-created
//! [`Matrix`] that [`Buf::shaped`] reshapes in place, reusing the existing
//! allocation whenever its capacity allows.

use hec_tensor::Matrix;

/// A lazily-allocated, reusable matrix buffer.
///
/// # Example
///
/// ```rust
/// use hec_nn::Buf;
/// use hec_tensor::Matrix;
///
/// let mut buf = Buf::new();
/// let a = Matrix::ones(2, 3);
/// let b = Matrix::ones(3, 4);
/// a.matmul_into(&b, buf.shaped(2, 4));
/// assert_eq!(buf.get()[(0, 0)], 3.0);
/// // Later calls with compatible shapes reuse the same allocation.
/// a.matmul_into(&b, buf.shaped(2, 4));
/// ```
#[derive(Default)]
pub struct Buf(Option<Matrix>);

impl Buf {
    /// An empty buffer; the backing matrix is created on first use.
    pub const fn new() -> Self {
        Self(None)
    }

    /// The buffer reshaped to `rows × cols`, reusing its allocation when
    /// capacity allows. Contents are **unspecified** — callers overwrite
    /// (e.g. via a `_into` kernel).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn shaped(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        match &mut self.0 {
            Some(m) => m.resize(rows, cols),
            None => self.0 = Some(Matrix::zeros(rows, cols)),
        }
        self.0.as_mut().expect("buffer just initialised")
    }

    /// Read access to the buffer's current contents.
    ///
    /// # Panics
    ///
    /// Panics if the buffer was never shaped.
    pub fn get(&self) -> &Matrix {
        self.0.as_ref().expect("Buf::get before first shaped()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shaped_reuses_allocation() {
        let mut buf = Buf::new();
        buf.shaped(4, 4).fill(1.0);
        let ptr = buf.get().as_slice().as_ptr();
        // Smaller reshape must not reallocate.
        buf.shaped(2, 3);
        assert_eq!(buf.get().shape(), (2, 3));
        assert_eq!(buf.get().as_slice().as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "before first shaped")]
    fn get_before_shape_panics() {
        let buf = Buf::new();
        let _ = buf.get();
    }
}
