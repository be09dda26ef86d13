//! Grouped-query attention (GQA) for single-token decoding.

use crate::error::Result;
use crate::kv_paged::PagedKv;
use crate::rope;
use crate::scratch::AttnScratch;
use serde::{Deserialize, Serialize};
use tensor::{Matrix, Vector};

/// A grouped-query attention block operating on one token at a time.
///
/// Projections:
/// * `w_q`: `(n_heads * head_dim) x d_model`
/// * `w_k`, `w_v`: `(n_kv_heads * head_dim) x d_model`
/// * `w_o`: `d_model x (n_heads * head_dim)`
///
/// Query heads are mapped onto key/value heads in contiguous groups of
/// `n_heads / n_kv_heads`, as in Llama-3 / Mistral / Phi-3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attention {
    /// Query projection.
    pub w_q: Matrix,
    /// Key projection.
    pub w_k: Matrix,
    /// Value projection.
    pub w_v: Matrix,
    /// Output projection.
    pub w_o: Matrix,
    n_heads: usize,
    n_kv_heads: usize,
    head_dim: usize,
    rope_theta: f32,
}

impl Attention {
    /// Creates an attention block from its projection matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes are inconsistent with the head layout.
    pub fn new(
        w_q: Matrix,
        w_k: Matrix,
        w_v: Matrix,
        w_o: Matrix,
        n_heads: usize,
        n_kv_heads: usize,
        rope_theta: f32,
    ) -> Self {
        let d_model = w_q.cols();
        let head_dim = w_q.rows() / n_heads;
        assert_eq!(w_q.rows(), n_heads * head_dim, "w_q rows mismatch");
        assert_eq!(w_k.rows(), n_kv_heads * head_dim, "w_k rows mismatch");
        assert_eq!(w_v.rows(), n_kv_heads * head_dim, "w_v rows mismatch");
        assert_eq!(w_o.cols(), n_heads * head_dim, "w_o cols mismatch");
        assert_eq!(w_o.rows(), d_model, "w_o rows mismatch");
        assert!(
            n_heads.is_multiple_of(n_kv_heads),
            "n_kv_heads must divide n_heads"
        );
        Attention {
            w_q,
            w_k,
            w_v,
            w_o,
            n_heads,
            n_kv_heads,
            head_dim,
            rope_theta,
        }
    }

    /// Number of parameters in this block.
    pub fn num_params(&self) -> usize {
        self.w_q.len() + self.w_k.len() + self.w_v.len() + self.w_o.len()
    }

    /// Processes a single token at position `pos`, appending its key/value to
    /// `cache` and attending over everything stored so far.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying projections and cache.
    pub fn forward_token(&self, x: &[f32], pos: usize, cache: &mut PagedKv) -> Result<Vec<f32>> {
        let mut scratch = AttnScratch::default();
        let mut out = vec![0.0f32; self.w_o.rows()];
        self.forward_token_into(x, pos, cache, &mut scratch, &mut out, None)?;
        Ok(out)
    }

    /// Allocation-free [`Attention::forward_token`]: projections, per-head
    /// scores/weights and the attended vector live in `scratch`, the output
    /// (`d_model` values) is written into `out`. `mirrors`, when given, are
    /// this block's packed projections (see
    /// [`crate::scratch::ModelMirrors`]). Bitwise identical to the
    /// allocating variant either way.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying projections and cache.
    pub fn forward_token_into(
        &self,
        x: &[f32],
        pos: usize,
        cache: &mut PagedKv,
        scratch: &mut AttnScratch,
        out: &mut [f32],
        mirrors: Option<&crate::scratch::AttnMirrors>,
    ) -> Result<()> {
        scratch.q.resize(self.n_heads * self.head_dim, 0.0);
        scratch.k.resize(self.n_kv_heads * self.head_dim, 0.0);
        scratch.v.resize(self.n_kv_heads * self.head_dim, 0.0);
        scratch.attended.resize(self.n_heads * self.head_dim, 0.0);

        match mirrors {
            Some(m) => {
                self.w_q.matvec_packed(&m.q, x, &mut scratch.q)?;
                self.w_k.matvec_packed(&m.k, x, &mut scratch.k)?;
                self.w_v.matvec_packed(&m.v, x, &mut scratch.v)?;
            }
            None => {
                self.w_q.matvec_into(x, &mut scratch.q)?;
                self.w_k.matvec_into(x, &mut scratch.k)?;
                self.w_v.matvec_into(x, &mut scratch.v)?;
            }
        }

        let AttnScratch {
            q,
            k,
            v,
            attended,
            scores,
            weights,
        } = scratch;
        self.attend_row(pos, cache, q, k, v, scores, weights, attended)?;

        match mirrors {
            Some(m) => Ok(self.w_o.matvec_packed(&m.o, &scratch.attended, out)?),
            None => Ok(self.w_o.matvec_into(&scratch.attended, out)?),
        }
    }

    /// Width of the query projection (`n_heads * head_dim`).
    pub fn q_dim(&self) -> usize {
        self.n_heads * self.head_dim
    }

    /// Width of the key/value projections (`n_kv_heads * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }

    /// Fused QKV projections of `rows` stacked pre-norm inputs (`rows ×
    /// d_model`, row-major) into stacked projection buffers. One weight pass
    /// serves every row; each row's projections are bitwise identical to the
    /// single-token kernels (see [`tensor::Matrix::matvec_batch_into`]).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the batched kernels.
    pub fn project_qkv_batch(
        &self,
        xs: &[f32],
        rows: usize,
        q: &mut [f32],
        k: &mut [f32],
        v: &mut [f32],
        mirrors: Option<&crate::scratch::AttnMirrors>,
    ) -> Result<()> {
        match mirrors {
            Some(m) => {
                self.w_q.matvec_batch_packed(&m.q, xs, rows, q)?;
                self.w_k.matvec_batch_packed(&m.k, xs, rows, k)?;
                self.w_v.matvec_batch_packed(&m.v, xs, rows, v)?;
            }
            None => {
                self.w_q.matvec_batch_into(xs, rows, q)?;
                self.w_k.matvec_batch_into(xs, rows, k)?;
                self.w_v.matvec_batch_into(xs, rows, v)?;
            }
        }
        Ok(())
    }

    /// Fused output projection of `rows` stacked attended vectors.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the batched kernels.
    pub fn project_out_batch(
        &self,
        attended: &[f32],
        rows: usize,
        out: &mut [f32],
        mirrors: Option<&crate::scratch::AttnMirrors>,
    ) -> Result<()> {
        match mirrors {
            Some(m) => Ok(self.w_o.matvec_batch_packed(&m.o, attended, rows, out)?),
            None => Ok(self.w_o.matvec_batch_into(attended, rows, out)?),
        }
    }

    /// The per-token attention core: applies RoPE to the projected `q`/`k`,
    /// appends `k`/`v` to the cache, and attends over everything stored so
    /// far into `attended`. Both engine execution modes (and the chunked
    /// prefill driver) run every token through this one kernel, in token
    /// order, so their attention outputs are identical by construction.
    ///
    /// # Kernel shape
    ///
    /// The reductions run over each page's *transposed* component rows
    /// ([`crate::KvPagePool::keys_t_row`]): each score accumulates its
    /// `q_d · k_d` products with `d` ascending (a component-outer axpy over
    /// contiguous positions), and each attended component accumulates its
    /// position contributions in ascending order. That is exactly the
    /// per-output operation sequence of the naive position-outer loops —
    /// same multiplies, same addition order — so results are **bitwise
    /// identical** to them while the inner loops run at SIMD width over
    /// positions instead of `head_dim`-length strips.
    ///
    /// A page's transposed rows cannot span pages, so the score pass walks
    /// positions page segment by page segment; the segmentation changes
    /// which slice is indexed, never the per-output operation order, so
    /// outputs are bitwise independent of the page size.
    ///
    /// # Errors
    ///
    /// Propagates cache and softmax shape errors.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_row(
        &self,
        pos: usize,
        cache: &mut PagedKv,
        q: &mut [f32],
        k: &mut [f32],
        v: &[f32],
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        attended: &mut [f32],
    ) -> Result<()> {
        rope::apply_rope_multihead(q, self.head_dim, pos, self.rope_theta);
        rope::apply_rope_multihead(k, self.head_dim, pos, self.rope_theta);

        cache.push_slices(k, v)?;
        self.attend(cache, q, scores, weights, attended)
    }

    /// Attention over a [`PagedKv`] page table: both passes walk the table
    /// page segment by page segment, the score pass over each page's
    /// transposed key rows, the value pass over its position-major values.
    fn attend(
        &self,
        cache: &PagedKv,
        q: &[f32],
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        attended: &mut [f32],
    ) -> Result<()> {
        let pool = cache.pool_handle().borrow();
        let pages = cache.pages();
        let ps = cache.page_size();
        let group = self.n_heads / self.n_kv_heads;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let seq_len = cache.len();
        scores.resize(self.n_heads * seq_len, 0.0);
        weights.resize(self.n_heads * seq_len, 0.0);

        for h in 0..self.n_heads {
            let kv_head = h / group;
            let score_row = &mut scores[h * seq_len..(h + 1) * seq_len];
            score_row.fill(0.0);
            // four components in flight, page segment by page segment: each
            // score adds q0·k0 … q3·k3 in ascending-`d` order between one
            // accumulator load and store
            let mut i = 0usize;
            while i + 4 <= self.head_dim {
                let d = kv_head * self.head_dim + i;
                let qb = &q[h * self.head_dim + i..h * self.head_dim + i + 4];
                let (q0, q1, q2, q3) = (qb[0], qb[1], qb[2], qb[3]);
                let mut t0 = 0usize;
                for &page in pages {
                    if t0 >= seq_len {
                        break;
                    }
                    let seg = (seq_len - t0).min(ps);
                    let k0 = &pool.keys_t_row(page, d)[..seg];
                    let k1 = &pool.keys_t_row(page, d + 1)[..seg];
                    let k2 = &pool.keys_t_row(page, d + 2)[..seg];
                    let k3 = &pool.keys_t_row(page, d + 3)[..seg];
                    for (t, s) in score_row[t0..t0 + seg].iter_mut().enumerate() {
                        let mut acc = *s;
                        acc += q0 * k0[t];
                        acc += q1 * k1[t];
                        acc += q2 * k2[t];
                        acc += q3 * k3[t];
                        *s = acc;
                    }
                    t0 += seg;
                }
                i += 4;
            }
            while i < self.head_dim {
                let qv = q[h * self.head_dim + i];
                let d = kv_head * self.head_dim + i;
                let mut t0 = 0usize;
                for &page in pages {
                    if t0 >= seq_len {
                        break;
                    }
                    let seg = (seq_len - t0).min(ps);
                    let k_row = &pool.keys_t_row(page, d)[..seg];
                    for (s, &kv) in score_row[t0..t0 + seg].iter_mut().zip(k_row.iter()) {
                        *s += qv * kv;
                    }
                    t0 += seg;
                }
                i += 1;
            }
            for s in score_row.iter_mut() {
                *s *= scale;
            }
        }
        for h in 0..self.n_heads {
            Vector::softmax_into(
                &scores[h * seq_len..(h + 1) * seq_len],
                &mut weights[h * seq_len..(h + 1) * seq_len],
            )?;
        }
        // the value pass walks each page's position-major value rows: eight
        // (then four, then one) positions in flight, each output component
        // keeping its own accumulator and adding position contributions in
        // ascending order (storing and reloading an accumulator between
        // blocks or pages is exact, so the grouping never changes a bit)
        let dim = pool.dim();
        for h in 0..self.n_heads {
            let kv_head = h / group;
            let w_row = &weights[h * seq_len..(h + 1) * seq_len];
            let head_out = &mut attended[h * self.head_dim..(h + 1) * self.head_dim];
            head_out.fill(0.0);
            let lo = kv_head * self.head_dim;
            let hi = lo + self.head_dim;
            let mut t0 = 0usize;
            for &page in pages {
                if t0 >= seq_len {
                    break;
                }
                let seg = (seq_len - t0).min(ps);
                let rows = pool.value_rows(page, seg);
                let val = |t: usize| &rows[t * dim + lo..t * dim + hi];
                let w_seg = &w_row[t0..t0 + seg];
                let mut t = 0usize;
                while t + 8 <= seg {
                    let (v0, v1, v2, v3) = (val(t), val(t + 1), val(t + 2), val(t + 3));
                    let (v4, v5, v6, v7) = (val(t + 4), val(t + 5), val(t + 6), val(t + 7));
                    let w = &w_seg[t..t + 8];
                    for (i, o) in head_out.iter_mut().enumerate() {
                        let mut acc = *o;
                        acc += w[0] * v0[i];
                        acc += w[1] * v1[i];
                        acc += w[2] * v2[i];
                        acc += w[3] * v3[i];
                        acc += w[4] * v4[i];
                        acc += w[5] * v5[i];
                        acc += w[6] * v6[i];
                        acc += w[7] * v7[i];
                        *o = acc;
                    }
                    t += 8;
                }
                while t + 4 <= seg {
                    let (v0, v1, v2, v3) = (val(t), val(t + 1), val(t + 2), val(t + 3));
                    let w = &w_seg[t..t + 4];
                    for (i, o) in head_out.iter_mut().enumerate() {
                        let mut acc = *o;
                        acc += w[0] * v0[i];
                        acc += w[1] * v1[i];
                        acc += w[2] * v2[i];
                        acc += w[3] * v3[i];
                        *o = acc;
                    }
                    t += 4;
                }
                while t < seg {
                    let w = w_seg[t];
                    for (o, &vv) in head_out.iter_mut().zip(val(t).iter()) {
                        *o += w * vv;
                    }
                    t += 1;
                }
                t0 += seg;
            }
        }
        Ok(())
    }
}

/// Test-only bitwise oracle: keys and values kept as plain per-position
/// vectors and attended in naive position order (each score sums its
/// `q_d · k_d` with `d` ascending, each output component sums its position
/// contributions with positions ascending).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Per-position keys (after RoPE) and values of one layer.
    #[derive(Debug, Default, Clone)]
    pub(crate) struct NaiveKv {
        keys: Vec<Vec<f32>>,
        values: Vec<Vec<f32>>,
    }

    /// [`Attention::forward_token`] with naive loops over [`NaiveKv`].
    pub(crate) fn forward_token(
        attn: &Attention,
        x: &[f32],
        pos: usize,
        kv: &mut NaiveKv,
    ) -> Vec<f32> {
        let hd = attn.head_dim;
        let mut q = attn.w_q.matvec(x).unwrap();
        let mut k = attn.w_k.matvec(x).unwrap();
        rope::apply_rope_multihead(&mut q, hd, pos, attn.rope_theta);
        rope::apply_rope_multihead(&mut k, hd, pos, attn.rope_theta);
        kv.keys.push(k);
        kv.values.push(attn.w_v.matvec(x).unwrap());
        let group = attn.n_heads / attn.n_kv_heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut attended = vec![0.0f32; attn.q_dim()];
        for h in 0..attn.n_heads {
            let lo = (h / group) * hd;
            let scores: Vec<f32> = kv
                .keys
                .iter()
                .map(|key| {
                    let mut s = 0.0f32;
                    for d in 0..hd {
                        s += q[h * hd + d] * key[lo + d];
                    }
                    s * scale
                })
                .collect();
            let weights = Vector::softmax(&scores).unwrap();
            for i in 0..hd {
                let mut acc = 0.0f32;
                for (w, value) in weights.iter().zip(&kv.values) {
                    acc += w * value[lo + i];
                }
                attended[h * hd + i] = acc;
            }
        }
        attn.w_o.matvec(&attended).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, NaiveKv};
    use super::*;
    use crate::kv_paged::KvPagePool;
    use tensor::init;

    fn small_attention(n_heads: usize, n_kv_heads: usize) -> Attention {
        let d_model = 16;
        let head_dim = d_model / n_heads;
        let mut rng = init::rng(11);
        Attention::new(
            init::xavier_matrix(&mut rng, n_heads * head_dim, d_model),
            init::xavier_matrix(&mut rng, n_kv_heads * head_dim, d_model),
            init::xavier_matrix(&mut rng, n_kv_heads * head_dim, d_model),
            init::xavier_matrix(&mut rng, d_model, n_heads * head_dim),
            n_heads,
            n_kv_heads,
            10_000.0,
        )
    }

    /// A cache over a private pool of one `capacity`-long page (the layout
    /// of a standalone decode state).
    fn one_page_cache(capacity: usize) -> PagedKv {
        PagedKv::new(&KvPagePool::new_handle(1, capacity), capacity)
    }

    #[test]
    fn forward_token_produces_d_model_output() {
        let attn = small_attention(4, 2);
        let mut cache = one_page_cache(8);
        let x = vec![0.1; 16];
        let y = attn.forward_token(&x, 0, &mut cache).unwrap();
        assert_eq!(y.len(), 16);
        assert_eq!(cache.len(), 1);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_position_attention_is_value_projection() {
        // With only one cached position the softmax weight is 1, so the output
        // equals W_o applied to the (grouped) value projection.
        let attn = small_attention(4, 4);
        let mut cache = one_page_cache(4);
        let x: Vec<f32> = (0..16).map(|i| (i as f32) / 16.0).collect();
        let y = attn.forward_token(&x, 0, &mut cache).unwrap();
        let v = attn.w_v.matvec(&x).unwrap();
        let expected = attn.w_o.matvec(&v).unwrap();
        for (a, b) in y.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn output_depends_on_history() {
        let attn = small_attention(4, 2);
        let x0 = vec![0.2; 16];
        let x1 = vec![-0.1; 16];

        let mut cache_a = one_page_cache(8);
        attn.forward_token(&x0, 0, &mut cache_a).unwrap();
        let with_history = attn.forward_token(&x1, 1, &mut cache_a).unwrap();

        let mut cache_b = one_page_cache(8);
        let without_history = attn.forward_token(&x1, 0, &mut cache_b).unwrap();

        let diff: f32 = with_history
            .iter()
            .zip(without_history.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "attention output should depend on KV history");
    }

    fn input(pos: usize) -> Vec<f32> {
        (0..16)
            .map(|i| ((pos * 17 + i * 3) % 13) as f32 / 13.0 - 0.4)
            .collect()
    }

    /// Checks positions `from..to` of `cache` against the naive oracle
    /// continuing from `naive`, bitwise.
    fn assert_matches_oracle(
        attn: &Attention,
        cache: &mut PagedKv,
        naive: &mut NaiveKv,
        from: usize,
        to: usize,
        what: &str,
    ) {
        for pos in from..to {
            let x = input(pos);
            let want = oracle::forward_token(attn, &x, pos, naive);
            let got = attn.forward_token(&x, pos, cache).unwrap();
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: token {pos} output {i}");
            }
        }
    }

    #[test]
    fn attention_is_bitwise_identical_to_the_naive_oracle() {
        // one page spanning the context (a standalone state), and 3-slot
        // pages that force partial segments inside the quad score pass; 21
        // tokens exercise the 8-, 4- and 1-wide value unrolls across page
        // boundaries
        for (attn, what) in [
            (small_attention(4, 2), "gqa"),
            (small_attention(4, 4), "mha"),
        ] {
            let mut naive = NaiveKv::default();
            assert_matches_oracle(&attn, &mut one_page_cache(32), &mut naive, 0, 21, what);
            let pool = KvPagePool::new_handle(16, 3);
            let mut naive = NaiveKv::default();
            let mut paged = PagedKv::new(&pool, 32);
            assert_matches_oracle(&attn, &mut paged, &mut naive, 0, 21, what);
        }
    }

    #[test]
    fn cow_forked_session_matches_the_oracle() {
        let attn = small_attention(4, 2);
        let pool = KvPagePool::new_handle(32, 4);
        let mut paged = PagedKv::new(&pool, 32);
        let mut naive = NaiveKv::default();
        assert_matches_oracle(&attn, &mut paged, &mut naive, 0, 6, "shared prefix");

        // fork the paged session mid-page; both the original and the clone
        // must keep matching the oracle exactly
        let mut forked = paged.clone();
        let mut naive_forked = naive.clone();
        assert_matches_oracle(
            &attn,
            &mut paged,
            &mut naive,
            6,
            14,
            "original after the fork",
        );
        assert_matches_oracle(
            &attn,
            &mut forked,
            &mut naive_forked,
            6,
            14,
            "forked session",
        );
        assert!(pool.borrow().fork_count() > 0);
    }

    #[test]
    fn spilled_and_reloaded_session_matches_the_oracle() {
        let attn = small_attention(4, 2);
        let pool = KvPagePool::new_handle(16, 4);
        let mut paged = PagedKv::new(&pool, 32);
        let mut naive = NaiveKv::default();
        assert_matches_oracle(&attn, &mut paged, &mut naive, 0, 7, "before the spill");
        paged.spill();
        paged.reload().unwrap();
        assert_matches_oracle(&attn, &mut paged, &mut naive, 7, 12, "after spill/reload");
    }

    #[test]
    fn gqa_matches_mha_when_groups_are_one() {
        // sanity: construction works for both and parameter counts differ
        let mha = small_attention(4, 4);
        let gqa = small_attention(4, 2);
        assert!(gqa.num_params() < mha.num_params());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_grouping_panics() {
        let d_model = 16;
        let mut rng = init::rng(1);
        let _ = Attention::new(
            init::xavier_matrix(&mut rng, 16, d_model),
            init::xavier_matrix(&mut rng, 12, d_model),
            init::xavier_matrix(&mut rng, 12, d_model),
            init::xavier_matrix(&mut rng, d_model, 16),
            4,
            3,
            10_000.0,
        );
    }
}
