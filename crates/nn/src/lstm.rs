//! LSTM layer run one **sequence** at a time, with truncation-free
//! backpropagation through time, plus a bidirectional wrapper.
//!
//! Gate layout follows the classic formulation (and Keras' kernel packing):
//! for input `x_t` (batch × input_dim) and previous state `(h, c)`:
//!
//! ```text
//! z  = x_t·Wx + h_{t-1}·Wh + b          (batch × 4H, split [i | f | g | o])
//! i  = σ(z_i)    f = σ(z_f)    g = tanh(z_g)    o = σ(z_o)
//! c_t = f ⊙ c_{t-1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```
//!
//! # Sequences and arenas
//!
//! A sequence is one **time-major** matrix: `T·B` rows, row `t·B + b` is
//! step `t` of batch member `b`. A window's `T × channels` data matrix is
//! therefore already a batch-1 sequence. [`Lstm::begin_seq`] starts one,
//! [`Lstm::step_seq`] advances it by a step (the decoder's way in: its
//! next input is only known once the previous step is out), and
//! [`Lstm::forward_seq`] runs a whole given sequence.
//!
//! The layer owns what a sequence leaves behind, in flat time-major arenas
//! that grow once to the longest sequence seen and are then reused:
//!
//! * **training** keeps every step — inputs `x` (`T·B × in`), states `h`
//!   and `c` (`(T+1)·B × H`, block 0 is the initial state, so block `t` is
//!   the state *entering* step `t`), gates (`T·B × 4H`, packed
//!   `[i | f | g | o]`) and `tanh(c)` (`T·B × H`). A step's `x_t·Wx` is
//!   written into its gates block and the activated gates replace it
//!   there; with the input known up front, `forward_seq` forms every
//!   step's in one `T·B × in · in × 4H` product before the loop;
//! * **inference** keeps two state blocks it alternates between and one
//!   block of gates, whatever `T` is — a 16-window block through the
//!   widest model holds kilobytes, not the megabytes `T` blocks would. The
//!   first inference sequence after training hands the training arenas
//!   back: a fitted model goes on to calibrate and detect, and three
//!   fitted models' dead arenas were 1.4 MB of the `offline_train`
//!   benchmark's 9.6 MB peak.
//!
//! Rows of a product are independent and the kernels sum each output
//! element in ascending order of the summed index from zero, so a row's
//! values do not depend on how many rows ride along: step-at-a-time,
//! hoisted and batched forward passes agree to the bit.
//!
//! # BPTT at the sequence level
//!
//! [`Lstm::backward_seq`] walks the steps backwards once. Per step it
//! forms the gate pre-activation gradient `dz_t` and the recurrent
//! `dh = dz_t·Whᵀ` — against a `Whᵀ` transposed **once per call**, the
//! weights cannot change inside a window — and files `dz_t`, `x_t` and the
//! entering `h` as the next row block of three matrices stacked in
//! **reverse time order**. After the loop one product each gives
//! `∂Wx = X_revᵀ·dZ_rev`, `∂Wh = H_revᵀ·dZ_rev`, and a row sum `∂b`.
//! Those stacks, `Whᵀ` and the gradient staging live only inside the call,
//! so they are one per-thread set every layer shares, not a set per layer.
//!
//! At batch 1 that is bit for bit what the per-step form computed
//! (`grad += x_tᵀ·dz_t` for `t = T−1 … 0`, from zeroed gradients): each
//! gradient element is the same products, added in the same order — the
//! kernel's ascending summed index *is* descending time on reverse-stacked
//! rows — and multiply and add are never fused. `tests/bptt_reference.rs`
//! holds the crate to that against the per-step implementation it keeps.
//! At batch > 1 the per-step form added whole per-step sums, the stacked
//! form adds row by row: the same gradient up to rounding, checked by the
//! finite-difference tests below. Nothing in this repository trains at
//! batch > 1, so each training step's two recurrent products are one-row
//! products — `h·Wh` (`1×H · H×4H`) forward and `dz_t·Whᵀ`
//! (`1×4H · 4H×H`) backward — and they are most of a full-profile
//! multivariate fit. The kernel walks such a row 64 columns a register
//! pass, eight independent accumulator chains (`hec_tensor::kernel`), at
//! the same summation order as every other path.
//!
//! `dx = dz·Wxᵀ` is only computed for a caller that passes a buffer for it
//! (one product over the stacked rows): the seq2seq models stop the
//! gradient at their inputs and never ask.

use std::cell::RefCell;

use rand::Rng;

use hec_tensor::kernel::gemm_nn;
use hec_tensor::{init, math, Matrix};

use crate::workspace::Buf;

/// The recurrent state `(h, c)` of an [`Lstm`].
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state (batch × hidden).
    pub h: Matrix,
    /// Cell state (batch × hidden).
    pub c: Matrix,
}

impl LstmState {
    /// All-zero state for a batch of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `hidden` is zero.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        Self { h: Matrix::zeros(batch, hidden), c: Matrix::zeros(batch, hidden) }
    }
}

/// The first `len` elements of `v`, grown (never shrunk) to hold them.
fn grown(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Blocks `read` and `write` (`len` elements each, distinct) of one arena.
fn two_blocks(v: &mut [f32], read: usize, write: usize, len: usize) -> (&[f32], &mut [f32]) {
    if read < write {
        let (lo, hi) = v.split_at_mut(write * len);
        (&lo[read * len..][..len], &mut hi[..len])
    } else {
        let (lo, hi) = v.split_at_mut(read * len);
        (&hi[..len], &mut lo[write * len..][..len])
    }
}

/// What the running (or last) sequence left behind — see the module docs
/// for the layout in each mode.
#[derive(Default)]
struct SeqArena {
    batch: usize,
    /// Steps taken since [`Lstm::begin_seq`].
    steps: usize,
    training: bool,
    x: Vec<f32>,
    h: Vec<f32>,
    c: Vec<f32>,
    gates: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl SeqArena {
    /// Index of the state block entering step `t` (leaving step `t − 1`).
    fn state_block(&self, t: usize) -> usize {
        if self.training {
            t
        } else {
            t % 2
        }
    }

    /// Index of the gates and `tanh(c)` block the next step fills.
    fn kept_block(&self) -> usize {
        if self.training {
            self.steps
        } else {
            0
        }
    }
}

/// BPTT's working set. It lives only inside one [`Lstm::backward_seq`]
/// call, so every layer on a thread shares one, grown to the largest
/// model's — a catalog of seven LSTMs holds one set, not seven.
#[derive(Default)]
struct BpttScratch {
    /// `Whᵀ` (`4H × H`), transposed once per `backward_seq`.
    wh_t: Vec<f32>,
    /// Hidden gradient flowing to step `t − 1`.
    dh_next: Vec<f32>,
    /// Cell gradient flowing to step `t − 1`.
    dc_next: Vec<f32>,
    /// Gate pre-activation gradients, stacked in reverse time order.
    dz_rev: Buf,
    /// Step inputs, stacked in reverse time order.
    x_rev: Buf,
    /// Hidden states entering each step, in reverse time order.
    h_rev: Buf,
    /// `dZ_rev·Wxᵀ`, when the caller asks for `dx`.
    dx_rev: Buf,
    /// Staging for the `Wx` gradient product before accumulation.
    gwx: Buf,
    /// Staging for the `Wh` gradient product before accumulation.
    gwh: Buf,
    /// Staging for the bias gradient row before accumulation.
    gb: Buf,
}

thread_local! {
    static BPTT: RefCell<BpttScratch> = RefCell::new(BpttScratch::default());
}

/// A single-layer LSTM.
///
/// # Example
///
/// ```rust
/// use hec_nn::Lstm;
/// use hec_tensor::Matrix;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut lstm = Lstm::new(&mut rng, 3, 8);
/// // 5 timesteps of a batch of 2, time-major: 10 rows.
/// let xs = Matrix::ones(10, 3);
/// lstm.forward_seq(&xs, 2, None, true);
/// assert_eq!(lstm.hidden_states().len(), 5 * 2 * 8);
/// ```
pub struct Lstm {
    wx: Matrix, // input_dim × 4H
    wh: Matrix, // H × 4H
    b: Matrix,  // 1 × 4H
    grad_wx: Matrix,
    grad_wh: Matrix,
    grad_b: Matrix,
    input_dim: usize,
    hidden: usize,
    seq: SeqArena,
    /// Recurrent pre-activation `h·Wh` of the current step.
    zh: Vec<f32>,
}

impl Lstm {
    /// Creates an LSTM with Glorot-uniform kernels and zero bias, except the
    /// forget-gate bias which is initialised to 1 (the standard trick to ease
    /// early gradient flow).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden: usize) -> Self {
        assert!(input_dim > 0 && hidden > 0, "lstm dimensions must be non-zero");
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b[(0, j)] = 1.0; // forget gate bias
        }
        Self {
            wx: init::glorot_uniform(rng, input_dim, 4 * hidden),
            wh: init::glorot_uniform(rng, hidden, 4 * hidden),
            b,
            grad_wx: Matrix::zeros(input_dim, 4 * hidden),
            grad_wh: Matrix::zeros(hidden, 4 * hidden),
            grad_b: Matrix::zeros(1, 4 * hidden),
            input_dim,
            hidden,
            seq: SeqArena::default(),
            zh: Vec::new(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of trainable scalars: `4H·(input_dim + H + 1)`.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// Starts a sequence of `batch` members from `state0` (zeros when
    /// `None`), dropping whatever the previous sequence left. A `training`
    /// sequence keeps every step for [`Lstm::backward_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `state0` is not `batch × hidden`.
    pub fn begin_seq(&mut self, batch: usize, state0: Option<&LstmState>, training: bool) {
        assert!(batch > 0, "lstm batch must be non-zero");
        let bh = batch * self.hidden;
        let seq = &mut self.seq;
        if seq.training && !training {
            // Leaving training (a fitted model goes on to calibrate and
            // detect): hand back the per-step arenas, inference needs one
            // block of each.
            *seq = SeqArena::default();
        }
        seq.batch = batch;
        seq.steps = 0;
        seq.training = training;
        seq.x.clear();
        for (arena, init) in
            [(&mut seq.h, state0.map(|s| &s.h)), (&mut seq.c, state0.map(|s| &s.c))]
        {
            let block = grown(arena, bh);
            match init {
                Some(m) => {
                    assert_eq!(m.shape(), (batch, self.hidden), "lstm initial state shape");
                    block.copy_from_slice(m.as_slice());
                }
                None => block.fill(0.0),
            }
        }
    }

    /// One timestep on `x` (`batch × input_dim`, row-major); returns the new
    /// hidden state `h_t` (`batch × hidden`).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `batch × input_dim` values, or no
    /// sequence was begun.
    pub fn step_seq(&mut self, x: &[f32]) -> &[f32] {
        let batch = self.seq.batch;
        assert!(batch > 0, "step_seq before begin_seq");
        assert_eq!(x.len(), batch * self.input_dim, "lstm input width mismatch");
        if self.seq.training {
            self.seq.x.extend_from_slice(x);
        }
        let (len, kept) = (batch * 4 * self.hidden, self.seq.kept_block());
        let z = &mut grown(&mut self.seq.gates, (kept + 1) * len)[kept * len..];
        gemm_nn(batch, self.input_dim, 4 * self.hidden, x, self.wx.as_slice(), z);
        self.advance()
    }

    /// Takes the step whose `x·Wx` waits in its gates block: adds `h·Wh`
    /// and the bias, applies the gates in place, files the results.
    fn advance(&mut self) -> &[f32] {
        let (hd, h4) = (self.hidden, 4 * self.hidden);
        let seq = &mut self.seq;
        let (b, t) = (seq.batch, seq.steps);
        let bh = b * hd;
        let (prev, next) = (seq.state_block(t), seq.state_block(t + 1));
        let kept = seq.kept_block();
        grown(&mut seq.h, (prev.max(next) + 1) * bh);
        grown(&mut seq.c, (prev.max(next) + 1) * bh);
        let tanh_c = &mut grown(&mut seq.tanh_c, (kept + 1) * bh)[kept * bh..];
        let gates = &mut seq.gates[kept * b * h4..][..b * h4];

        let zh = grown(&mut self.zh, b * h4);
        gemm_nn(b, hd, h4, &seq.h[prev * bh..][..bh], self.wh.as_slice(), zh);

        // z = (x·Wx + h·Wh) + b, then each row's contiguous [i f | g | o]
        // blocks activated in place — element-wise passes that vectorise.
        for (z_r, zh_r) in gates.chunks_exact_mut(h4).zip(zh.chunks_exact(h4)) {
            for ((z, &zh), &bias) in z_r.iter_mut().zip(zh_r).zip(self.b.as_slice()) {
                *z = (*z + zh) + bias;
            }
            let (i_f, g_o) = z_r.split_at_mut(2 * hd);
            let (g, o) = g_o.split_at_mut(hd);
            math::sigmoid_slice(i_f);
            math::tanh_slice(g);
            math::sigmoid_slice(o);
        }

        let (c_prev, c_next) = two_blocks(&mut seq.c, prev, next, bh);
        for ((c, c_prev), z_r) in
            c_next.chunks_exact_mut(hd).zip(c_prev.chunks_exact(hd)).zip(gates.chunks_exact(h4))
        {
            let (i, f, g) = (&z_r[..hd], &z_r[hd..2 * hd], &z_r[2 * hd..3 * hd]);
            for (((c, &c_prev), (&i, &f)), &g) in
                c.iter_mut().zip(c_prev).zip(i.iter().zip(f)).zip(g)
            {
                *c = f * c_prev + i * g;
            }
        }
        tanh_c.copy_from_slice(c_next);
        math::tanh_slice(tanh_c);
        let h_next = &mut seq.h[next * bh..][..bh];
        for ((h, tanh_c), z_r) in
            h_next.chunks_exact_mut(hd).zip(tanh_c.chunks_exact(hd)).zip(gates.chunks_exact(h4))
        {
            for ((h, &tc), &o) in h.iter_mut().zip(tanh_c).zip(&z_r[3 * hd..]) {
                *h = o * tc;
            }
        }
        seq.steps += 1;
        h_next
    }

    /// Runs the whole time-major sequence `xs` (`T·batch × input_dim`)
    /// from `state0` (zeros when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a whole number of `batch`-row steps of
    /// `input_dim` columns, or `state0` has the wrong shape.
    pub fn forward_seq(
        &mut self,
        xs: &Matrix,
        batch: usize,
        state0: Option<&LstmState>,
        training: bool,
    ) {
        self.run_seq(xs, batch, state0, training, false);
    }

    /// [`Lstm::forward_seq`], taking the steps of `xs` last to first when
    /// `reversed` (the backward half of a [`BiLstm`]) — by index, no
    /// reversed copy of `xs` beyond the input arena training keeps anyway.
    fn run_seq(
        &mut self,
        xs: &Matrix,
        batch: usize,
        state0: Option<&LstmState>,
        training: bool,
        reversed: bool,
    ) {
        assert_eq!(xs.cols(), self.input_dim, "lstm input width mismatch");
        assert!(
            batch > 0 && xs.rows().is_multiple_of(batch),
            "sequence is not whole steps of the batch"
        );
        let t_len = xs.rows() / batch;
        let step_len = batch * self.input_dim;
        let step = |k: usize| {
            let t = if reversed { t_len - 1 - k } else { k };
            &xs.as_slice()[t * step_len..][..step_len]
        };
        self.begin_seq(batch, state0, training);
        if training {
            // The input is known up front: every step's x·Wx in one
            // product, straight into the blocks the steps activate in place.
            for k in 0..t_len {
                self.seq.x.extend_from_slice(step(k));
            }
            let h4 = 4 * self.hidden;
            let z = grown(&mut self.seq.gates, xs.rows() * h4);
            gemm_nn(xs.rows(), self.input_dim, h4, &self.seq.x, self.wx.as_slice(), z);
            for _ in 0..t_len {
                self.advance();
            }
        } else {
            for k in 0..t_len {
                self.step_seq(step(k));
            }
        }
    }

    /// Hidden states `h_1 … h_T` of the training-mode sequence so far,
    /// time-major (`steps·batch × hidden`).
    ///
    /// # Panics
    ///
    /// Panics on an inference-mode sequence, which keeps only its latest
    /// state.
    pub fn hidden_states(&self) -> &[f32] {
        assert!(self.seq.training, "an inference sequence keeps only its latest state");
        let bh = self.seq.batch * self.hidden;
        &self.seq.h[bh..(self.seq.steps + 1) * bh]
    }

    /// The state `(h, c)` after the latest step, as `batch × hidden` slices.
    fn state(&self) -> (&[f32], &[f32]) {
        let bh = self.seq.batch * self.hidden;
        let at = self.seq.state_block(self.seq.steps) * bh;
        (&self.seq.h[at..][..bh], &self.seq.c[at..][..bh])
    }

    /// Copies the state after the latest step into `out` (resized in place).
    pub(crate) fn state_into(&self, out: &mut LstmState) {
        let (h, c) = self.state();
        for (m, src) in [(&mut out.h, h), (&mut out.c, c)] {
            m.resize(self.seq.batch, self.hidden);
            m.as_mut_slice().copy_from_slice(src);
        }
    }

    /// BPTT over the training-mode sequence just run.
    ///
    /// * `dh_each` — gradient w.r.t. every `h_t`, time-major like
    ///   [`Lstm::hidden_states`] (`None` where none arrives, e.g. an
    ///   encoder that only hands on its final state);
    /// * `d_final` — extra gradient on the *last* state `(h_T, c_T)`, e.g.
    ///   flowing back from a decoder initialised with the encoder state;
    /// * `dx` — when given, receives the gradient w.r.t. the inputs,
    ///   time-major in the order the steps were taken; not computed
    ///   otherwise.
    ///
    /// Returns the gradient w.r.t. the initial state. Parameter gradients
    /// are **accumulated** internally (see the module docs for how).
    ///
    /// # Panics
    ///
    /// Panics if the last sequence was not a training one with at least
    /// one step, or a gradient's shape disagrees with it.
    pub fn backward_seq(
        &mut self,
        dh_each: Option<&Matrix>,
        d_final: Option<&LstmState>,
        dx: Option<&mut Matrix>,
    ) -> LstmState {
        let seq = &self.seq;
        assert!(
            seq.training && seq.steps > 0,
            "backward_seq needs a training-mode sequence with at least one step"
        );
        let (t_len, b, hd, h4, in_dim) =
            (seq.steps, seq.batch, self.hidden, 4 * self.hidden, self.input_dim);
        let bh = b * hd;
        if let Some(d) = dh_each {
            assert_eq!(d.shape(), (t_len * b, hd), "dh_each: wrong gradient shape");
        }

        BPTT.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let dh_next = grown(&mut scratch.dh_next, bh);
            let dc_next = grown(&mut scratch.dc_next, bh);
            dh_next.fill(0.0);
            dc_next.fill(0.0);
            if let Some(df) = d_final {
                assert_eq!(df.h.shape(), (b, hd), "d_final: wrong gradient shape");
                assert_eq!(df.c.shape(), (b, hd), "d_final: wrong gradient shape");
                for (acc, src) in [(&mut *dh_next, &df.h), (&mut *dc_next, &df.c)] {
                    for (a, &v) in acc.iter_mut().zip(src.as_slice()) {
                        *a += v;
                    }
                }
            }

            // The same panel `gemm_nt` would pack from `Wh` at every step.
            let wh_t = grown(&mut scratch.wh_t, h4 * hd);
            for (j, w_row) in self.wh.as_slice().chunks_exact(h4).enumerate() {
                for (k, &v) in w_row.iter().enumerate() {
                    wh_t[k * hd + j] = v;
                }
            }

            let dz_rev = scratch.dz_rev.shaped(t_len * b, h4);
            let x_rev = scratch.x_rev.shaped(t_len * b, in_dim);
            let h_rev = scratch.h_rev.shaped(t_len * b, hd);
            for t in (0..t_len).rev() {
                let k = t_len - 1 - t; // row block in the reverse-time stacks
                x_rev.as_mut_slice()[k * b * in_dim..][..b * in_dim]
                    .copy_from_slice(&seq.x[t * b * in_dim..][..b * in_dim]);
                h_rev.as_mut_slice()[k * bh..][..bh].copy_from_slice(&seq.h[t * bh..][..bh]);

                // dh = dh_each[t] + dh_next; dc = dc_next + dh ⊙ o ⊙ (1 − tanh²c)
                // — the contribution flowing through h_t = o ⊙ tanh(c_t) —
                // then the gate pre-activation gradients, straight into the
                // packed layout, and dc ⊙ f for step t − 1.
                let dz = &mut dz_rev.as_mut_slice()[k * b * h4..][..b * h4];
                let injected = dh_each.map(|d| &d.as_slice()[t * bh..][..bh]);
                let gates = &seq.gates[t * b * h4..][..b * h4];
                let (c_prev, tanh_c) = (&seq.c[t * bh..][..bh], &seq.tanh_c[t * bh..][..bh]);
                for r in 0..b {
                    let g_r = &gates[r * h4..][..h4];
                    let (dzi, rest) = dz[r * h4..][..h4].split_at_mut(hd);
                    let (dzf, rest) = rest.split_at_mut(hd);
                    let (dzg, dzo) = rest.split_at_mut(hd);
                    for idx in 0..hd {
                        let at = r * hd + idx;
                        let (iv, fv, gv, ov) =
                            (g_r[idx], g_r[hd + idx], g_r[2 * hd + idx], g_r[3 * hd + idx]);
                        let tc = tanh_c[at];
                        let dhv = injected.map_or(0.0, |d| d[at]) + dh_next[at];
                        let dcv = dc_next[at] + (dhv * ov) * (1.0 - tc * tc);
                        dzi[idx] = (dcv * gv) * (iv * (1.0 - iv));
                        dzf[idx] = (dcv * c_prev[at]) * (fv * (1.0 - fv));
                        dzg[idx] = (dcv * iv) * (1.0 - gv * gv);
                        dzo[idx] = (dhv * tc) * (ov * (1.0 - ov));
                        dc_next[at] = dcv * fv;
                    }
                }
                gemm_nn(b, h4, hd, dz, wh_t, dh_next);
            }

            // One product per weight gradient over the whole window, staged
            // through scratch and added, so gradients still accumulate.
            x_rev.t_matmul_into(dz_rev, scratch.gwx.shaped(in_dim, h4));
            self.grad_wx += scratch.gwx.get();
            h_rev.t_matmul_into(dz_rev, scratch.gwh.shaped(hd, h4));
            self.grad_wh += scratch.gwh.get();
            dz_rev.sum_rows_into(scratch.gb.shaped(1, h4));
            self.grad_b += scratch.gb.get();

            if let Some(dx) = dx {
                let dx_rev = scratch.dx_rev.shaped(t_len * b, in_dim);
                dz_rev.matmul_t_into(&self.wx, dx_rev);
                dx.resize(t_len * b, in_dim);
                for (k, block) in dx_rev.as_slice().chunks_exact(b * in_dim).enumerate() {
                    dx.as_mut_slice()[(t_len - 1 - k) * b * in_dim..][..b * in_dim]
                        .copy_from_slice(block);
                }
            }

            LstmState {
                h: Matrix::from_vec(b, hd, dh_next.to_vec()),
                c: Matrix::from_vec(b, hd, dc_next.to_vec()),
            }
        })
    }

    /// Visits `(parameter, gradient)` pairs: `Wx`, `Wh`, `b`.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.wx, &mut self.grad_wx);
        f(&mut self.wh, &mut self.grad_wh);
        f(&mut self.b, &mut self.grad_b);
    }

    /// Adds `2·λ·W` to the kernel gradients (gradient of `λ‖W‖²`).
    pub fn apply_l2(&mut self, lambda: f32) {
        self.grad_wx.add_scaled(&self.wx, 2.0 * lambda);
        self.grad_wh.add_scaled(&self.wh, 2.0 * lambda);
    }
}

impl std::fmt::Debug for Lstm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Lstm(in={}, hidden={}, params={})",
            self.input_dim,
            self.hidden,
            self.param_count()
        )
    }
}

/// A bidirectional LSTM encoder: a forward and a backward [`Lstm`] whose
/// final states are concatenated — the encoder of BiLSTM-seq2seq-Cloud
/// (§II-A2: "learn both backward and forward directions of the input
/// sequence to encode information into encoded states").
pub struct BiLstm {
    forward: Lstm,
    backward: Lstm,
}

impl BiLstm {
    /// Creates a bidirectional LSTM; each direction has `hidden` units, so the
    /// concatenated summary has width `2·hidden`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden: usize) -> Self {
        Self {
            forward: Lstm::new(rng, input_dim, hidden),
            backward: Lstm::new(rng, input_dim, hidden),
        }
    }

    /// Per-direction hidden size.
    pub fn hidden(&self) -> usize {
        self.forward.hidden()
    }

    /// Total parameter count of both directions.
    pub fn param_count(&self) -> usize {
        self.forward.param_count() + self.backward.param_count()
    }

    /// Encodes the time-major sequence `xs` (`T·batch × input_dim`) into
    /// `out`: the concatenated final state `[h_fwd_T | h_bwd_T]`,
    /// `[c_fwd_T | c_bwd_T]` (batch × 2H each). The backward direction
    /// reads `xs` last step first.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a whole number of `batch`-row steps.
    pub fn encode(&mut self, xs: &Matrix, batch: usize, training: bool, out: &mut LstmState) {
        self.forward.run_seq(xs, batch, None, training, false);
        self.backward.run_seq(xs, batch, None, training, true);
        let h = self.hidden();
        let (fwd, bwd) = (self.forward.state(), self.backward.state());
        for (m, f, b) in [(&mut out.h, fwd.0, bwd.0), (&mut out.c, fwd.1, bwd.1)] {
            m.resize(batch, 2 * h);
            for ((row, f_row), b_row) in m
                .as_mut_slice()
                .chunks_exact_mut(2 * h)
                .zip(f.chunks_exact(h))
                .zip(b.chunks_exact(h))
            {
                row[..h].copy_from_slice(f_row);
                row[h..].copy_from_slice(b_row);
            }
        }
    }

    /// BPTT given the gradient on the concatenated final state. `dx`, when
    /// given, receives the time-major input gradients (sum of both
    /// directions' contributions); they are not computed otherwise.
    pub fn backward_from_state(&mut self, d_state: &LstmState, dx: Option<&mut Matrix>) {
        let h = self.hidden();
        let df = LstmState { h: d_state.h.slice_cols(0, h), c: d_state.c.slice_cols(0, h) };
        let db = LstmState { h: d_state.h.slice_cols(h, 2 * h), c: d_state.c.slice_cols(h, 2 * h) };
        let Some(dx) = dx else {
            self.forward.backward_seq(None, Some(&df), None);
            self.backward.backward_seq(None, Some(&db), None);
            return;
        };
        // The backward direction's input gradients come in its own step
        // order: step k read time T − 1 − k.
        let mut dx_bwd = Matrix::zeros(1, 1);
        self.forward.backward_seq(None, Some(&df), Some(dx));
        self.backward.backward_seq(None, Some(&db), Some(&mut dx_bwd));
        let step_len = d_state.h.rows() * self.forward.input_dim();
        for (sum, rev) in dx
            .as_mut_slice()
            .chunks_exact_mut(step_len)
            .zip(dx_bwd.as_slice().chunks_exact(step_len).rev())
        {
            for (a, &b) in sum.iter_mut().zip(rev) {
                *a += b;
            }
        }
    }

    /// Visits both directions' parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.forward.visit_params(f);
        self.backward.visit_params(f);
    }

    /// L2 gradient contribution for both directions.
    pub fn apply_l2(&mut self, lambda: f32) {
        self.forward.apply_l2(lambda);
        self.backward.apply_l2(lambda);
    }
}

impl std::fmt::Debug for BiLstm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BiLstm(in={}, hidden={}×2)", self.forward.input_dim(), self.hidden())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A time-major sequence of `t` steps.
    fn seq(rng: &mut StdRng, t: usize, batch: usize, dim: usize) -> Matrix {
        hec_tensor::init::uniform(rng, t * batch, dim, -1.0, 1.0)
    }

    /// Loss = sum over all timesteps of sum(h_t).
    fn loss_of(lstm: &mut Lstm, xs: &Matrix, batch: usize) -> f32 {
        lstm.forward_seq(xs, batch, None, true);
        lstm.hidden_states().iter().sum()
    }

    /// Picks one of an LSTM's parameter matrices.
    type Param = fn(&mut Lstm) -> &mut Matrix;

    /// Central finite difference of `loss_of` in one parameter element.
    fn numeric(lstm: &mut Lstm, xs: &Matrix, batch: usize, param: Param, idx: usize) -> f32 {
        let eps = 1e-2f32;
        param(lstm).as_mut_slice()[idx] += eps;
        let lp = loss_of(lstm, xs, batch);
        param(lstm).as_mut_slice()[idx] -= 2.0 * eps;
        let lm = loss_of(lstm, xs, batch);
        param(lstm).as_mut_slice()[idx] += eps;
        (lp - lm) / (2.0 * eps)
    }

    fn assert_close(what: &str, idx: usize, analytic: f32, numeric: f32) {
        assert!(
            (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
            "{what}[{idx}]: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn shapes_are_correct() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(&mut rng, 3, 5);
        let xs = seq(&mut rng, 4, 2, 3);
        lstm.forward_seq(&xs, 2, None, true);
        assert_eq!(lstm.hidden_states().len(), 4 * 2 * 5);
        let mut last = LstmState::zeros(1, 1);
        lstm.state_into(&mut last);
        assert_eq!(last.h.shape(), (2, 5));
        assert_eq!(last.c.shape(), (2, 5));
        assert_eq!(last.h.as_slice(), &lstm.hidden_states()[3 * 2 * 5..]);
    }

    #[test]
    fn param_count_formula() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(&mut rng, 18, 48);
        assert_eq!(lstm.param_count(), 4 * 48 * (18 + 48 + 1));
    }

    /// All parameter gradients against finite differences, at batch 1 and —
    /// where the stacked gradient products sum in a different association
    /// than per-step accumulation did — at batch > 1.
    #[test]
    fn gradient_check_parameters() {
        for (seed, t_len, batch) in [(21u64, 3usize, 2usize), (33, 4, 1), (34, 4, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lstm = Lstm::new(&mut rng, 2, 3);
            let xs = seq(&mut rng, t_len, batch, 2);

            lstm.forward_seq(&xs, batch, None, true);
            let ones = Matrix::ones(t_len * batch, 3);
            lstm.backward_seq(Some(&ones), None, None);
            let analytic = [lstm.grad_wx.clone(), lstm.grad_wh.clone(), lstm.grad_b.clone()];

            let params: [(&str, Param); 3] =
                [("wx", |l| &mut l.wx), ("wh", |l| &mut l.wh), ("b", |l| &mut l.b)];
            for ((what, param), analytic) in params.into_iter().zip(&analytic) {
                for idx in 0..analytic.len() {
                    let n = numeric(&mut lstm, &xs, batch, param, idx);
                    assert_close(what, idx, analytic.as_slice()[idx], n);
                }
            }
        }
    }

    #[test]
    fn gradient_check_inputs() {
        for batch in [1usize, 2] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut lstm = Lstm::new(&mut rng, 2, 3);
            let xs = seq(&mut rng, 3, batch, 2);

            lstm.forward_seq(&xs, batch, None, true);
            let ones = Matrix::ones(3 * batch, 3);
            let mut dx = Matrix::zeros(1, 1);
            lstm.backward_seq(Some(&ones), None, Some(&mut dx));
            assert_eq!(dx.shape(), xs.shape());

            let eps = 1e-2f32;
            for idx in 0..xs.len() {
                let mut xp = xs.clone();
                xp.as_mut_slice()[idx] += eps;
                let mut xm = xs.clone();
                xm.as_mut_slice()[idx] -= eps;
                let numeric =
                    (loss_of(&mut lstm, &xp, batch) - loss_of(&mut lstm, &xm, batch)) / (2.0 * eps);
                assert_close("x", idx, dx.as_slice()[idx], numeric);
            }
        }
    }

    /// One sequence four ways — stepped, run whole in training mode (hoisted
    /// `x·Wx`), run whole in inference mode (two alternating state blocks),
    /// and as member 1 of a batch of three — ends in the same state, bit
    /// for bit.
    #[test]
    fn stepped_hoisted_inference_and_batched_passes_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lstm = Lstm::new(&mut rng, 3, 5);
        let xs = seq(&mut rng, 6, 1, 3);
        let state0 = LstmState {
            h: hec_tensor::init::uniform(&mut rng, 1, 5, -1.0, 1.0),
            c: hec_tensor::init::uniform(&mut rng, 1, 5, -1.0, 1.0),
        };
        let mut finals = Vec::new();
        let mut end = LstmState::zeros(1, 1);

        for training in [false, true] {
            lstm.begin_seq(1, Some(&state0), training);
            for x in xs.iter_rows() {
                lstm.step_seq(x);
            }
            lstm.state_into(&mut end);
            finals.push(end.clone());
            lstm.forward_seq(&xs, 1, Some(&state0), training);
            lstm.state_into(&mut end);
            finals.push(end.clone());
        }

        let others = seq(&mut rng, 6, 2, 3);
        let mut batched = Matrix::zeros(18, 3);
        for t in 0..6 {
            batched.row_mut(3 * t).copy_from_slice(others.row(2 * t));
            batched.row_mut(3 * t + 1).copy_from_slice(xs.row(t));
            batched.row_mut(3 * t + 2).copy_from_slice(others.row(2 * t + 1));
        }
        let tiled = |m: &Matrix| Matrix::from_rows(&[m.row(0), m.row(0), m.row(0)]);
        let state0_x3 = LstmState { h: tiled(&state0.h), c: tiled(&state0.c) };
        lstm.forward_seq(&batched, 3, Some(&state0_x3), false);
        lstm.state_into(&mut end);
        finals.push(LstmState {
            h: Matrix::row_vector(end.h.row(1)),
            c: Matrix::row_vector(end.c.row(1)),
        });

        for other in &finals[1..] {
            assert_eq!(other, &finals[0]);
        }
    }

    #[test]
    fn final_state_gradient_flows_to_initial_state() {
        // Encoder-style: gradient only on the last state.
        let mut rng = StdRng::seed_from_u64(8);
        let mut lstm = Lstm::new(&mut rng, 2, 3);
        let xs = seq(&mut rng, 3, 1, 2);
        lstm.forward_seq(&xs, 1, None, true);
        let d_final = LstmState { h: Matrix::ones(1, 3), c: Matrix::ones(1, 3) };
        let mut dx = Matrix::zeros(1, 1);
        let d0 = lstm.backward_seq(None, Some(&d_final), Some(&mut dx));
        assert!(dx.frobenius_norm() > 0.0);
        assert!(d0.h.frobenius_norm() > 0.0 || d0.c.frobenius_norm() > 0.0);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut lstm = Lstm::new(&mut rng, 2, 3);
        let xs = seq(&mut rng, 3, 1, 2);
        let ones = Matrix::ones(3, 3);
        lstm.forward_seq(&xs, 1, None, true);
        lstm.backward_seq(Some(&ones), None, None);
        let once = lstm.grad_wh.clone();
        lstm.forward_seq(&xs, 1, None, true);
        lstm.backward_seq(Some(&ones), None, None);
        assert_eq!(lstm.grad_wh, &once + &once);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(&mut rng, 2, 4);
        for j in 0..4 {
            assert_eq!(lstm.b[(0, j)], 0.0); // input gate
            assert_eq!(lstm.b[(0, 4 + j)], 1.0); // forget gate
        }
    }

    #[test]
    fn bilstm_state_width_is_double() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bi = BiLstm::new(&mut rng, 3, 5);
        let xs = seq(&mut rng, 4, 2, 3);
        let mut s = LstmState::zeros(1, 1);
        bi.encode(&xs, 2, false, &mut s);
        assert_eq!(s.h.shape(), (2, 10));
        assert_eq!(s.c.shape(), (2, 10));
    }

    #[test]
    fn bilstm_backward_half_reads_the_sequence_reversed() {
        // Encoding the reversed sequence swaps the two halves' roles: what
        // the forward direction saw, the backward one now sees.
        let mut rng = StdRng::seed_from_u64(0);
        let mut bi = BiLstm::new(&mut rng, 2, 4);
        let xs = seq(&mut rng, 5, 1, 2);
        let rows: Vec<&[f32]> = (0..5).rev().map(|t| xs.row(t)).collect();
        let rev = Matrix::from_rows(&rows);
        let (mut a, mut b) = (LstmState::zeros(1, 1), LstmState::zeros(1, 1));
        bi.encode(&xs, 1, false, &mut a);
        bi.encode(&rev, 1, false, &mut b);
        assert!((&a.h - &b.h).frobenius_norm() > 1e-6);

        let mut plain = LstmState::zeros(1, 1);
        bi.backward.forward_seq(&rev, 1, None, false);
        bi.backward.state_into(&mut plain);
        assert_eq!(plain.h.as_slice(), &a.h.as_slice()[4..]);
    }

    #[test]
    fn bilstm_gradient_check_inputs() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut bi = BiLstm::new(&mut rng, 2, 3);
        let xs = seq(&mut rng, 3, 1, 2);

        let mut s = LstmState::zeros(1, 1);
        bi.encode(&xs, 1, true, &mut s);
        let d = LstmState { h: Matrix::ones(1, s.h.cols()), c: Matrix::zeros(1, s.c.cols()) };
        let mut dx = Matrix::zeros(1, 1);
        bi.backward_from_state(&d, Some(&mut dx));

        let mut loss = |xs: &Matrix| {
            bi.encode(xs, 1, false, &mut s);
            s.h.sum()
        };
        let eps = 1e-2f32;
        for idx in 0..xs.len() {
            let mut xp = xs.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = xs.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert_close("x", idx, dx.as_slice()[idx], numeric);
        }
    }

    #[test]
    #[should_panic(expected = "not whole steps")]
    fn ragged_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(&mut rng, 2, 2);
        lstm.forward_seq(&Matrix::zeros(5, 2), 2, None, false);
    }

    #[test]
    #[should_panic(expected = "training-mode sequence")]
    fn backward_after_inference_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(&mut rng, 2, 2);
        lstm.forward_seq(&Matrix::zeros(4, 2), 1, None, false);
        lstm.backward_seq(None, None, None);
    }
}
