//! The per-step LSTM / seq2seq training path this crate shipped before the
//! sequence-level rebuild, kept as the reference `bptt_reference.rs` holds
//! the library to **bit for bit**: one `StepCache` of owned matrices per
//! timestep, two rank-1 weight-gradient products staged and added per BPTT
//! step, `dx` computed at every step, `vconcat` chains around the output
//! layer. Built on `hec-tensor` and the old dense layers in [`dense`], so
//! the comparison shares the kernels and nothing above them. Not a model to
//! copy from.

// Each test binary uses its own half of the reference.
#![allow(dead_code)]

pub mod dense;
pub mod optim;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hec_nn::{Activation, LstmState, Optimizer, Seq2SeqConfig};
use hec_tensor::math::{sigmoid, tanh};
use hec_tensor::{init, Matrix};

use dense::{mse_gradient, mse_value, RefDense, RefDropout, RefLayer};

/// A matrix's elements as bit patterns: what "bit for bit" compares.
pub fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn gate_block(z: &Matrix, start: usize, width: usize, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = Matrix::zeros(z.rows(), width);
    for r in 0..z.rows() {
        let src = &z.row(r)[start..start + width];
        for (d, &s) in out.row_mut(r).iter_mut().zip(src.iter()) {
            *d = f(s);
        }
    }
    out
}

struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
}

pub struct RefLstm {
    pub wx: Matrix,
    pub wh: Matrix,
    pub b: Matrix,
    pub grad_wx: Matrix,
    pub grad_wh: Matrix,
    pub grad_b: Matrix,
    input_dim: usize,
    hidden: usize,
    caches: Vec<StepCache>,
}

impl RefLstm {
    /// Draws from `rng` exactly as `Lstm::new` does, so equal seeds give
    /// equal weights.
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden: usize) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b[(0, j)] = 1.0;
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
            caches: Vec::new(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    pub fn clear_cache(&mut self) {
        self.caches.clear();
    }

    pub fn step(&mut self, x: &Matrix, state: &LstmState, training: bool) -> LstmState {
        let batch = x.rows();
        let h = self.hidden;
        let mut z = Matrix::zeros(batch, 4 * h);
        x.matmul_into(&self.wx, &mut z);
        let mut zh = Matrix::zeros(batch, 4 * h);
        state.h.matmul_into(&self.wh, &mut zh);
        z += &zh;
        z.add_row_broadcast_assign(&self.b);

        let i = gate_block(&z, 0, h, sigmoid);
        let f = gate_block(&z, h, h, sigmoid);
        let g = gate_block(&z, 2 * h, h, tanh);
        let o = gate_block(&z, 3 * h, h, sigmoid);

        let mut c = Matrix::zeros(batch, h);
        for (((cv, &fv), (&cp, &iv)), &gv) in c
            .as_mut_slice()
            .iter_mut()
            .zip(f.as_slice())
            .zip(state.c.as_slice().iter().zip(i.as_slice()))
            .zip(g.as_slice())
        {
            *cv = fv * cp + iv * gv;
        }
        let tanh_c = c.map(tanh);
        let h_new = o.hadamard(&tanh_c);

        if training {
            self.caches.push(StepCache {
                x: x.clone(),
                h_prev: state.h.clone(),
                c_prev: state.c.clone(),
                i,
                f,
                g,
                o,
                tanh_c,
            });
        }
        LstmState { h: h_new, c }
    }

    pub fn forward_seq(&mut self, xs: &[Matrix], training: bool) -> Vec<LstmState> {
        let state0 = LstmState::zeros(xs[0].rows(), self.hidden);
        self.forward_seq_from(xs, &state0, training)
    }

    pub fn forward_seq_from(
        &mut self,
        xs: &[Matrix],
        state0: &LstmState,
        training: bool,
    ) -> Vec<LstmState> {
        if training {
            self.caches.clear();
        }
        let mut states = Vec::with_capacity(xs.len());
        let mut state = state0.clone();
        for x in xs {
            state = self.step(x, &state, training);
            states.push(state.clone());
        }
        states
    }

    pub fn backward_seq(
        &mut self,
        dh_each: &[Matrix],
        d_final: Option<&LstmState>,
    ) -> (Vec<Matrix>, LstmState) {
        assert_eq!(dh_each.len(), self.caches.len());
        let t_len = self.caches.len();
        let batch = self.caches[0].x.rows();
        let h = self.hidden;

        let mut dh_next = Matrix::zeros(batch, h);
        let mut dc_next = Matrix::zeros(batch, h);
        if let Some(df) = d_final {
            dh_next += &df.h;
            dc_next += &df.c;
        }

        let mut dxs = vec![Matrix::zeros(batch, self.input_dim); t_len];
        let caches: Vec<StepCache> = self.caches.drain(..).collect();
        let mut dh = Matrix::zeros(batch, h);
        let mut dc = Matrix::zeros(batch, h);
        let mut dz = Matrix::zeros(batch, 4 * h);
        let mut gwx = Matrix::zeros(self.input_dim, 4 * h);
        let mut gwh = Matrix::zeros(h, 4 * h);
        let mut gb = Matrix::zeros(1, 4 * h);

        for (t, cache) in caches.iter().enumerate().rev() {
            for idx in 0..batch * h {
                let dh_v = dh_each[t].as_slice()[idx] + dh_next.as_slice()[idx];
                let tc = cache.tanh_c.as_slice()[idx];
                let o_v = cache.o.as_slice()[idx];
                dh.as_mut_slice()[idx] = dh_v;
                dc.as_mut_slice()[idx] = dc_next.as_slice()[idx] + (dh_v * o_v) * (1.0 - tc * tc);
            }

            for r in 0..batch {
                let dz_row = dz.row_mut(r);
                let (dzi, rest) = dz_row.split_at_mut(h);
                let (dzf, rest) = rest.split_at_mut(h);
                let (dzg, dzo) = rest.split_at_mut(h);
                let (i_r, f_r) = (cache.i.row(r), cache.f.row(r));
                let (g_r, o_r) = (cache.g.row(r), cache.o.row(r));
                let (cp_r, tc_r) = (cache.c_prev.row(r), cache.tanh_c.row(r));
                let (dh_r, dc_r) = (dh.row(r), dc.row(r));
                for idx in 0..h {
                    let (dcv, dhv) = (dc_r[idx], dh_r[idx]);
                    let (iv, fv, gv, ov) = (i_r[idx], f_r[idx], g_r[idx], o_r[idx]);
                    dzi[idx] = (dcv * gv) * (iv * (1.0 - iv));
                    dzf[idx] = (dcv * cp_r[idx]) * (fv * (1.0 - fv));
                    dzg[idx] = (dcv * iv) * (1.0 - gv * gv);
                    dzo[idx] = (dhv * tc_r[idx]) * (ov * (1.0 - ov));
                }
            }

            cache.x.t_matmul_into(&dz, &mut gwx);
            self.grad_wx += &gwx;
            cache.h_prev.t_matmul_into(&dz, &mut gwh);
            self.grad_wh += &gwh;
            dz.sum_rows_into(&mut gb);
            self.grad_b += &gb;

            dz.matmul_t_into(&self.wx, &mut dxs[t]);
            dz.matmul_t_into(&self.wh, &mut dh_next);
            for ((o, &d), &fv) in
                dc_next.as_mut_slice().iter_mut().zip(dc.as_slice()).zip(cache.f.as_slice())
            {
                *o = d * fv;
            }
        }

        (dxs, LstmState { h: dh_next, c: dc_next })
    }

    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.wx, &mut self.grad_wx);
        f(&mut self.wh, &mut self.grad_wh);
        f(&mut self.b, &mut self.grad_b);
    }

    pub fn apply_l2(&mut self, lambda: f32) {
        self.grad_wx.add_scaled(&self.wx, 2.0 * lambda);
        self.grad_wh.add_scaled(&self.wh, 2.0 * lambda);
    }
}

pub struct RefBiLstm {
    pub forward: RefLstm,
    pub backward: RefLstm,
}

impl RefBiLstm {
    pub fn new(rng: &mut impl Rng, input_dim: usize, hidden: usize) -> Self {
        Self {
            forward: RefLstm::new(rng, input_dim, hidden),
            backward: RefLstm::new(rng, input_dim, hidden),
        }
    }

    pub fn encode(&mut self, xs: &[Matrix], training: bool) -> LstmState {
        let fwd_states = self.forward.forward_seq(xs, training);
        let reversed: Vec<Matrix> = xs.iter().rev().cloned().collect();
        let bwd_states = self.backward.forward_seq(&reversed, training);
        let f_last = fwd_states.last().expect("non-empty");
        let b_last = bwd_states.last().expect("non-empty");
        LstmState { h: f_last.h.hconcat(&b_last.h), c: f_last.c.hconcat(&b_last.c) }
    }

    pub fn backward_from_state(&mut self, d_state: &LstmState) -> Vec<Matrix> {
        let h = self.forward.hidden();
        let t_len = self.forward.caches.len();
        let batch = d_state.h.rows();
        let zeros: Vec<Matrix> = vec![Matrix::zeros(batch, h); t_len];

        let df = LstmState { h: d_state.h.slice_cols(0, h), c: d_state.c.slice_cols(0, h) };
        let db = LstmState { h: d_state.h.slice_cols(h, 2 * h), c: d_state.c.slice_cols(h, 2 * h) };
        let (dx_fwd, _) = self.forward.backward_seq(&zeros, Some(&df));
        let (dx_bwd_rev, _) = self.backward.backward_seq(&zeros, Some(&db));

        dx_fwd.into_iter().zip(dx_bwd_rev.into_iter().rev()).map(|(a, b)| &a + &b).collect()
    }

    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.forward.visit_params(f);
        self.backward.visit_params(f);
    }

    pub fn apply_l2(&mut self, lambda: f32) {
        self.forward.apply_l2(lambda);
        self.backward.apply_l2(lambda);
    }
}

enum Encoder {
    Uni(Box<RefLstm>),
    Bi(Box<RefBiLstm>),
}

pub struct RefSeq2Seq {
    encoder: Encoder,
    decoder: RefLstm,
    dropout: RefDropout,
    output: RefDense,
    config: Seq2SeqConfig,
}

impl RefSeq2Seq {
    /// Same construction order and seeds as `Seq2Seq::new`.
    pub fn new(config: Seq2SeqConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dec_hidden =
            if config.bidirectional { 2 * config.encoder_hidden } else { config.encoder_hidden };
        let encoder = if config.bidirectional {
            Encoder::Bi(Box::new(RefBiLstm::new(&mut rng, config.input_dim, config.encoder_hidden)))
        } else {
            Encoder::Uni(Box::new(RefLstm::new(&mut rng, config.input_dim, config.encoder_hidden)))
        };
        let decoder = RefLstm::new(&mut rng, config.input_dim, dec_hidden);
        let output = RefDense::new(&mut rng, dec_hidden, config.input_dim, Activation::Linear);
        let dropout = RefDropout::new(config.dropout, config.seed.wrapping_add(0x9E37));
        Self { encoder, decoder, dropout, output, config }
    }

    fn encode_mode(&mut self, xs: &[Matrix], training: bool) -> LstmState {
        match &mut self.encoder {
            Encoder::Uni(l) => {
                let states = l.forward_seq(xs, training);
                states.last().expect("non-empty").clone()
            }
            Encoder::Bi(b) => b.encode(xs, training),
        }
    }

    pub fn encode(&mut self, xs: &[Matrix]) -> LstmState {
        self.encode_mode(xs, false)
    }

    pub fn reconstruct(&mut self, xs: &[Matrix]) -> Vec<Matrix> {
        self.decode_sequence(xs, false)
    }

    fn decode_sequence(&mut self, xs: &[Matrix], training: bool) -> Vec<Matrix> {
        let enc_state = self.encode_mode(xs, training);
        let batch = xs[0].rows();
        let t_len = xs.len();

        if training {
            self.decoder.clear_cache();
        }
        let mut state = enc_state;
        let mut y_prev = Matrix::zeros(batch, self.config.input_dim);
        let mut hs: Vec<Matrix> = Vec::with_capacity(t_len);
        for _ in 0..t_len {
            state = self.decoder.step(&y_prev, &state, training);
            hs.push(state.h.clone());
            self.output.affine_into(&state.h, &mut y_prev);
        }
        let mut stacked = hs[0].clone();
        for h in &hs[1..] {
            stacked = stacked.vconcat(h);
        }
        let dropped = self.dropout.forward(&stacked, training);
        let ys_stacked = self.output.forward(&dropped, training);
        (0..t_len).map(|t| ys_stacked.slice_rows(t * batch, (t + 1) * batch)).collect()
    }

    pub fn train_batch(&mut self, xs: &[Matrix], optimizer: &mut dyn Optimizer) -> f32 {
        let batch = xs[0].rows();
        let t_len = xs.len();
        let ys = self.decode_sequence(xs, true);

        let mut target = xs[0].clone();
        for x in &xs[1..] {
            target = target.vconcat(x);
        }
        let mut prediction = ys[0].clone();
        for y in &ys[1..] {
            prediction = prediction.vconcat(y);
        }

        let loss = mse_value(&prediction, &target);
        let d_ys = mse_gradient(&prediction, &target);
        let d_dropped = self.output.backward(&d_ys);
        let d_stacked_h = self.dropout.backward(&d_dropped);

        let dhs: Vec<Matrix> =
            (0..t_len).map(|t| d_stacked_h.slice_rows(t * batch, (t + 1) * batch)).collect();
        let (_dxs, d_state0) = self.decoder.backward_seq(&dhs, None);

        match &mut self.encoder {
            Encoder::Uni(l) => {
                let zeros: Vec<Matrix> =
                    (0..t_len).map(|_| Matrix::zeros(batch, l.hidden())).collect();
                let _ = l.backward_seq(&zeros, Some(&d_state0));
            }
            Encoder::Bi(b) => {
                let _ = b.backward_from_state(&d_state0);
            }
        }

        if self.config.l2_lambda > 0.0 {
            let lambda = self.config.l2_lambda;
            match &mut self.encoder {
                Encoder::Uni(l) => l.apply_l2(lambda),
                Encoder::Bi(b) => b.apply_l2(lambda),
            }
            self.decoder.apply_l2(lambda);
            self.output.apply_l2(lambda);
        }

        let mut slot = 0usize;
        self.visit_params(&mut |param, grad| {
            optimizer.step(slot, param, grad);
            grad.map_inplace(|_| 0.0);
            slot += 1;
        });
        loss
    }

    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        match &mut self.encoder {
            Encoder::Uni(l) => l.visit_params(f),
            Encoder::Bi(b) => b.visit_params(f),
        }
        self.decoder.visit_params(f);
        self.output.visit_params(f);
    }
}
