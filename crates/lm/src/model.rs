//! The decoder-only transformer model and its single-token decoding loop.

use crate::attention::Attention;
use crate::config::ModelConfig;
use crate::error::{LmError, Result};
use crate::kv_paged::{KvPagePool, PagePoolHandle, PagedKv};
use crate::mlp::{DenseMlp, GluMlp, MlpAccessRecord, MlpForward};
use crate::norm::RmsNorm;
use crate::scratch::{BatchScratch, DecodeScratch};
use rand::Rng;
use std::rc::Rc;
use tensor::{Matrix, Vector, WorkerPool};

/// How a batched forward pass drives the MLP strategies of its rows.
pub enum BatchStrategies<'a> {
    /// One strategy instance serves every row: a prefill chunk (all rows are
    /// one session), or a serving lane whose strategy is
    /// [`MlpForward::batch_fusable`] (stateless, or state shared by every
    /// lane member).
    Fused(&'a mut dyn MlpForward),
    /// One strategy per row, invoked row by row in batch order — correct
    /// for any mix of per-session state; only the attention projections and
    /// the LM head are fused.
    PerRow(&'a mut [Box<dyn MlpForward>]),
}

/// One transformer block: pre-norm attention followed by a pre-norm GLU MLP,
/// both with residual connections.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    /// RMSNorm applied before attention.
    pub attn_norm: RmsNorm,
    /// Grouped-query attention block.
    pub attn: Attention,
    /// RMSNorm applied before the MLP.
    pub mlp_norm: RmsNorm,
    /// Gated MLP block.
    pub mlp: GluMlp,
}

/// Mutable decoding state: one KV page table per layer plus the current
/// position.
///
/// The page tables map either a pool of the state's own
/// ([`TransformerModel::new_decode_state`]: one page per layer, each
/// `max_seq_len` positions long, so attention never crosses a page
/// boundary) or a pool shared by an engine's sessions
/// ([`TransformerModel::new_decode_state_paged`]). Both decode bitwise
/// identically. A state is deliberately not `Clone`: a clone would map the
/// same pages copy-on-write, and a private pool has no spare page to fork
/// into.
#[derive(Debug)]
pub struct DecodeState {
    /// Per-layer KV page tables.
    pub kv: Vec<PagedKv>,
    /// Next position index to be decoded.
    pub pos: usize,
}

impl DecodeState {
    /// Clears the caches (releasing their pool pages) and resets the
    /// position to zero.
    pub fn reset(&mut self) {
        for c in &mut self.kv {
            c.clear();
        }
        self.pos = 0;
    }

    /// Whether no one but this state's layers holds its page pool (a state
    /// from [`TransformerModel::new_decode_state`]): its pages serve no
    /// other session, so spilling them would free nothing.
    pub fn owns_pool(&self) -> bool {
        self.kv
            .first()
            .is_some_and(|c| Rc::strong_count(c.pool_handle()) == self.kv.len())
    }

    /// Spills every layer to its session-owned buffer, releasing all pool
    /// pages. A parked session then holds zero pool memory until
    /// [`DecodeState::reload_kv`].
    pub fn spill_kv(&mut self) {
        for c in &mut self.kv {
            c.spill();
        }
    }

    /// Whether any layer is currently spilled.
    pub fn is_spilled(&self) -> bool {
        self.kv.iter().any(PagedKv::is_spilled)
    }

    /// Total pool pages a [`DecodeState::reload_kv`] would need right now.
    pub fn kv_pages_to_reload(&self) -> usize {
        self.kv.iter().map(PagedKv::pages_to_reload).sum()
    }

    /// Reloads every spilled layer back into pool pages, bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] when the pool cannot supply enough
    /// pages for *all* layers (checked up front, so no layer is partially
    /// reloaded); the state stays spilled and can be retried later.
    pub fn reload_kv(&mut self) -> Result<()> {
        let needed = self.kv_pages_to_reload();
        if !self.is_spilled() {
            return Ok(());
        }
        let free = self.kv[0].pool_handle().borrow().free_pages();
        if free < needed {
            return Err(LmError::BadSequence {
                reason: format!("KV page pool has {free} free pages but reloading needs {needed}"),
            });
        }
        for c in &mut self.kv {
            c.reload()?;
        }
        Ok(())
    }
}

/// A pool of [`DecodeState`]s for session-scoped reuse.
///
/// A serving engine creates and retires one decode state per user session;
/// building `n_layers` fresh page tables (and, for private-pool states, a
/// fresh pool) for every arrival churns the allocator. The pool recycles
/// released states whose shape (layer count and per-layer capacity) and
/// page pool match the request: `acquire` returns a cleared recycled state
/// when one fits and builds a fresh one otherwise.
///
/// Preemptive schedulers additionally **park** a live session's state
/// ([`DecodeStatePool::park`]) when the session is descheduled at a token
/// boundary: the state keeps its KV entries and position, and
/// [`DecodeStatePool::resume`] hands back *exactly* the parked state, so a
/// resumed session continues its generation without output divergence. A
/// parked state that is never resumed can be reclaimed into the free list
/// with [`DecodeStatePool::reclaim_parked`].
///
/// For states over a shared page pool the pool keeps page residency
/// bounded by *active* sessions: parking spills the state's pages into its
/// session-owned buffer (the caller reloads after
/// [`DecodeStatePool::resume`], see [`DecodeState::reload_kv`]), and
/// releasing clears its pages before it idles in the free list — so
/// neither parked nor idle states hold shared pages. A state that owns its
/// pool ([`DecodeState::owns_pool`]) is parked as it is and comes back from
/// `resume` ready to decode.
#[derive(Debug, Default)]
pub struct DecodeStatePool {
    free: Vec<DecodeState>,
    parked: Vec<(u64, DecodeState)>,
    reused: u64,
    built: u64,
    parks: u64,
    resumes: u64,
}

impl DecodeStatePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        DecodeStatePool::default()
    }

    /// Number of idle states currently pooled.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// How many acquisitions were served by recycling a released state.
    pub fn reuse_count(&self) -> u64 {
        self.reused
    }

    /// How many acquisitions had to build a fresh state.
    pub fn build_count(&self) -> u64 {
        self.built
    }

    fn fits(state: &DecodeState, model: &TransformerModel, pool: Option<&PagePoolHandle>) -> bool {
        let Some(first) = state.kv.first() else {
            return false;
        };
        let dim = first.pool_handle().borrow().dim();
        state.kv.len() == model.n_layers()
            && first.capacity() == model.config.max_seq_len
            && (dim == 0 || dim == model.layers[0].attn.kv_dim())
            && match pool {
                Some(h) => Rc::ptr_eq(first.pool_handle(), h),
                None => state.owns_pool(),
            }
    }

    /// Returns a reset decode state for `model` over a pool of its own,
    /// recycling a pooled one when its shape matches.
    pub fn acquire(&mut self, model: &TransformerModel) -> DecodeState {
        self.acquire_backed(model, None)
    }

    /// Returns a reset decode state for `model`: over a pool of its own
    /// when `pool` is `None`, over the shared `pool` otherwise. A recycled
    /// state must match the pool as well as the shape.
    pub fn acquire_backed(
        &mut self,
        model: &TransformerModel,
        pool: Option<&PagePoolHandle>,
    ) -> DecodeState {
        if let Some(pos) = self.free.iter().position(|s| Self::fits(s, model, pool)) {
            let mut state = self.free.swap_remove(pos);
            state.reset();
            self.reused += 1;
            state
        } else {
            self.built += 1;
            match pool {
                Some(h) => model.new_decode_state_paged(h),
                None => model.new_decode_state(),
            }
        }
    }

    /// Returns a finished session's state to the pool for later reuse. Its
    /// pages are released immediately — an idle pooled state must not hold
    /// shared pool memory.
    pub fn release(&mut self, mut state: DecodeState) {
        state.reset();
        self.free.push(state);
    }

    /// Parks a preempted session's state under `key` **without resetting
    /// it**: KV entries and position survive until [`DecodeStatePool::resume`].
    /// A state over a shared pool is spilled ([`DecodeState::spill_kv`]), so
    /// a parked session holds zero shared pages; the caller reloads after
    /// resuming.
    ///
    /// Parking a key that is already parked replaces the previous state
    /// (the old one is reclaimed into the free list — a session has exactly
    /// one live state).
    pub fn park(&mut self, key: u64, mut state: DecodeState) {
        if !state.owns_pool() {
            state.spill_kv();
        }
        if let Some(pos) = self.parked.iter().position(|(k, _)| *k == key) {
            let (_, old) = self.parked.swap_remove(pos);
            self.free.push(old);
        }
        self.parked.push((key, state));
        self.parks += 1;
    }

    /// Takes the state parked under `key` back out, contents intact, or
    /// `None` when nothing is parked under that key.
    pub fn resume(&mut self, key: u64) -> Option<DecodeState> {
        let pos = self.parked.iter().position(|(k, _)| *k == key)?;
        let (_, state) = self.parked.swap_remove(pos);
        self.resumes += 1;
        Some(state)
    }

    /// Number of states currently parked.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// How many park operations happened over the pool's lifetime.
    pub fn park_count(&self) -> u64 {
        self.parks
    }

    /// How many parked states were resumed over the pool's lifetime.
    pub fn resume_count(&self) -> u64 {
        self.resumes
    }

    /// Moves every parked state into the free list (states of sessions that
    /// will never resume — e.g. an engine run that was abandoned). Returns
    /// how many states were reclaimed.
    pub fn reclaim_parked(&mut self) -> usize {
        let n = self.parked.len();
        for (_, state) in self.parked.drain(..) {
            self.free.push(state);
        }
        n
    }
}

/// Output of decoding a single token.
#[derive(Debug, Clone)]
pub struct TokenOutput {
    /// Raw logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Per-layer MLP weight-access records (one per transformer layer).
    pub mlp_accesses: Vec<MlpAccessRecord>,
}

impl TokenOutput {
    /// Log-probabilities (log-softmax of the logits).
    ///
    /// # Errors
    ///
    /// Returns an error if the logits are empty.
    pub fn log_probs(&self) -> Result<Vec<f32>> {
        Ok(Vector::log_softmax(&self.logits)?)
    }
}

/// A decoder-only transformer with untied embedding and LM head.
#[derive(Debug, Clone)]
pub struct TransformerModel {
    /// The configuration the model was built from.
    pub config: ModelConfig,
    /// Token embedding table (`vocab_size x d_model`).
    pub embedding: Matrix,
    /// Transformer blocks.
    pub layers: Vec<TransformerLayer>,
    /// Final RMSNorm before the LM head.
    pub final_norm: RmsNorm,
    /// LM head (`vocab_size x d_model`).
    pub lm_head: Matrix,
}

impl TransformerModel {
    /// Creates a model from already-built components.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::InvalidConfig`] if the component shapes do not
    /// match the configuration.
    pub fn from_parts(
        config: ModelConfig,
        embedding: Matrix,
        layers: Vec<TransformerLayer>,
        final_norm: RmsNorm,
        lm_head: Matrix,
    ) -> Result<Self> {
        config.validate()?;
        if embedding.shape() != (config.vocab_size, config.d_model) {
            return Err(LmError::InvalidConfig {
                field: "embedding",
                reason: format!("expected {}x{}", config.vocab_size, config.d_model),
            });
        }
        if lm_head.shape() != (config.vocab_size, config.d_model) {
            return Err(LmError::InvalidConfig {
                field: "lm_head",
                reason: format!("expected {}x{}", config.vocab_size, config.d_model),
            });
        }
        if layers.len() != config.n_layers {
            return Err(LmError::InvalidConfig {
                field: "layers",
                reason: format!("expected {} layers, got {}", config.n_layers, layers.len()),
            });
        }
        Ok(TransformerModel {
            config,
            embedding,
            layers,
            final_norm,
            lm_head,
        })
    }

    /// Number of transformer layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter count of the instantiated weights.
    pub fn num_params(&self) -> usize {
        let mut n = self.embedding.len() + self.lm_head.len();
        for l in &self.layers {
            n += l.attn.num_params() + l.mlp.num_params();
            n += l.attn_norm.dim() + l.mlp_norm.dim();
        }
        n + self.final_norm.dim()
    }

    /// Creates a fresh decoding state sized for `max_seq_len`, over a page
    /// pool of its own: one page per layer, each `max_seq_len` positions
    /// long (a single page keeps attention's position runs unbroken).
    pub fn new_decode_state(&self) -> DecodeState {
        let pool = KvPagePool::new_handle(self.config.n_layers, self.config.max_seq_len);
        self.new_decode_state_paged(&pool)
    }

    /// Creates a fresh decoding state whose layers are page tables over the
    /// shared `pool`, with memory allocated page by page on demand.
    pub fn new_decode_state_paged(&self, pool: &PagePoolHandle) -> DecodeState {
        DecodeState {
            kv: (0..self.config.n_layers)
                .map(|_| PagedKv::new(pool, self.config.max_seq_len))
                .collect(),
            pos: 0,
        }
    }

    /// Decodes a single token through every layer, using `mlp_fw` for the MLP
    /// blocks, and returns the next-token logits plus the MLP access records.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TokenOutOfRange`] for an invalid token and
    /// propagates shape errors from the blocks.
    pub fn forward_token(
        &self,
        token: u32,
        state: &mut DecodeState,
        mlp_fw: &mut dyn MlpForward,
    ) -> Result<TokenOutput> {
        let mut scratch = DecodeScratch::for_model(self);
        // a one-shot scratch must not pay the per-model mirror transpose
        scratch.use_mirrors = false;
        self.forward_token_into(token, state, mlp_fw, &mut scratch)?;
        Ok(TokenOutput {
            logits: scratch.logits,
            mlp_accesses: scratch.accesses.iter().map(|a| a.to_record()).collect(),
        })
    }

    /// Allocation-free [`TransformerModel::forward_token`]: the logits land
    /// in [`DecodeScratch::logits`] and the per-layer access records in
    /// [`DecodeScratch::accesses`], all buffers reused across tokens.
    ///
    /// This is the decode hot path: once the scratch is warm, a dense or
    /// DIP token performs zero heap allocations. Results are bitwise
    /// identical to the allocating wrapper (which delegates here).
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TokenOutOfRange`] for an invalid token and
    /// propagates shape errors from the blocks.
    pub fn forward_token_into(
        &self,
        token: u32,
        state: &mut DecodeState,
        mlp_fw: &mut dyn MlpForward,
        scratch: &mut DecodeScratch,
    ) -> Result<()> {
        if (token as usize) >= self.config.vocab_size {
            return Err(LmError::TokenOutOfRange {
                token,
                vocab: self.config.vocab_size,
            });
        }
        let pos = state.pos;
        scratch.x.clear();
        scratch
            .x
            .extend_from_slice(self.embedding.row(token as usize)?);
        scratch.normed.resize(self.config.d_model, 0.0);
        scratch.attn_out.resize(self.config.d_model, 0.0);
        scratch.final_normed.resize(self.config.d_model, 0.0);
        scratch.logits.resize(self.config.vocab_size, 0.0);
        if scratch.accesses.len() != self.layers.len() {
            scratch
                .accesses
                .resize_with(self.layers.len(), Default::default);
        }

        // Mirror management: build the pre-transposed + packed-panel weight
        // mirrors on the first token of a (scratch, model) pairing,
        // revalidate (cheap pointer + sampled-bits check) every token.
        // Reference mode runs without mirrors so before/after measurements
        // are honest.
        let use_mirrors = scratch.use_mirrors && !tensor::kernels::reference_mode();
        if use_mirrors
            && scratch
                .mirrors
                .as_ref()
                .map(|m| !m.matches(self))
                .unwrap_or(true)
        {
            let t0 = std::time::Instant::now();
            scratch.mirrors = Some(crate::scratch::ModelMirrors::build(self));
            scratch.pack_nanos += t0.elapsed().as_nanos() as u64;
            scratch.pack_builds += 1;
        }
        let mirrors = if use_mirrors {
            scratch.mirrors.as_ref()
        } else {
            None
        };

        for (li, layer) in self.layers.iter().enumerate() {
            let layer_mirrors = mirrors.map(|m| &m.layers[li]);
            layer
                .attn_norm
                .forward_into(&scratch.x, &mut scratch.normed);
            layer.attn.forward_token_into(
                &scratch.normed,
                pos,
                &mut state.kv[li],
                &mut scratch.attn,
                &mut scratch.attn_out,
                layer_mirrors.map(|m| &m.attn),
            )?;
            Vector::axpy(1.0, &scratch.attn_out, &mut scratch.x)?;

            layer.mlp_norm.forward_into(&scratch.x, &mut scratch.normed);
            mlp_fw.forward_scratch(
                li,
                &layer.mlp,
                &scratch.normed,
                &mut scratch.mlp,
                &mut scratch.accesses[li],
                layer_mirrors.map(|m| &m.mlp),
            )?;
            Vector::axpy(1.0, &scratch.mlp.y, &mut scratch.x)?;
        }

        self.final_norm
            .forward_into(&scratch.x, &mut scratch.final_normed);
        // the LM head is the single largest matvec: mirrored when mirrors
        // exist, row-partitioned across the pool otherwise (all variants
        // bitwise identical)
        match mirrors {
            Some(m) => self.lm_head.matvec_packed(
                &m.lm_head,
                &scratch.final_normed,
                &mut scratch.logits,
            )?,
            None => self.lm_head.matvec_into_threaded(
                &scratch.final_normed,
                &mut scratch.logits,
                WorkerPool::global(),
            )?,
        }
        state.pos += 1;
        Ok(())
    }

    /// Convenience wrapper: decodes a token with the dense MLP.
    ///
    /// # Errors
    ///
    /// See [`TransformerModel::forward_token`].
    pub fn forward_token_dense(&self, token: u32, state: &mut DecodeState) -> Result<TokenOutput> {
        self.forward_token(token, state, &mut DenseMlp)
    }

    /// Validates one batch row's token id.
    fn check_token(&self, token: u32) -> Result<()> {
        if (token as usize) >= self.config.vocab_size {
            return Err(LmError::TokenOutOfRange {
                token,
                vocab: self.config.vocab_size,
            });
        }
        Ok(())
    }

    /// Builds (or revalidates) the batch scratch's weight mirrors, mirroring
    /// the per-token management of [`TransformerModel::forward_token_into`].
    fn ensure_batch_mirrors(&self, scratch: &mut BatchScratch) -> bool {
        let use_mirrors = scratch.use_mirrors && !tensor::kernels::reference_mode();
        if use_mirrors
            && scratch
                .mirrors
                .as_ref()
                .map(|m| !m.matches(self))
                .unwrap_or(true)
        {
            let t0 = std::time::Instant::now();
            scratch.mirrors = Some(crate::scratch::ModelMirrors::build(self));
            scratch.pack_nanos += t0.elapsed().as_nanos() as u64;
            scratch.pack_builds += 1;
        }
        use_mirrors
    }

    /// Fused cross-session decode step: serves **one token each** of `rows`
    /// distinct sessions through the whole stack in a single pass over the
    /// weights.
    ///
    /// Row `r` feeds `tokens[r]` to `states[r]` exactly as
    /// [`TransformerModel::forward_token_into`] would: per-row outputs,
    /// logits (stacked in [`BatchScratch::logits`]) and access records
    /// ([`BatchScratch::accesses`], indexed `[layer][row]`) are **bitwise
    /// identical** to serving the rows one at a time in batch order. The
    /// batched kernels fuse the QKV/output projections, the MLP weight
    /// passes (per [`BatchStrategies`]) and the LM head across the batch —
    /// one weight pass per matrix per *batch* instead of per token — while
    /// the per-session parts (norms, RoPE, KV append, attention, residuals)
    /// run row by row in batch order through the very same code the
    /// sequential path uses.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] for an empty batch or mismatched
    /// `tokens`/`states`/`strategies` lengths, [`LmError::TokenOutOfRange`]
    /// for an invalid token, and propagates shape errors from the blocks.
    pub fn forward_tokens_batch_into(
        &self,
        tokens: &[u32],
        states: &mut [DecodeState],
        strategies: &mut BatchStrategies<'_>,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        let rows = tokens.len();
        if rows == 0 || states.len() != rows {
            return Err(LmError::BadSequence {
                reason: format!(
                    "batch of {rows} tokens does not match {} states",
                    states.len()
                ),
            });
        }
        if let BatchStrategies::PerRow(boxes) = strategies {
            if boxes.len() != rows {
                return Err(LmError::BadSequence {
                    reason: format!("batch of {rows} tokens but {} strategies", boxes.len()),
                });
            }
        }
        for &t in tokens {
            self.check_token(t)?;
        }
        scratch.ensure(rows, &self.config);
        scratch.fused_passes += 1;
        scratch.rows_computed += rows as u64;
        let d = self.config.d_model;
        for (r, &t) in tokens.iter().enumerate() {
            scratch.x[r * d..(r + 1) * d].copy_from_slice(self.embedding.row(t as usize)?);
        }

        let use_mirrors = self.ensure_batch_mirrors(scratch);
        let mirrors = if use_mirrors {
            scratch.mirrors.as_ref()
        } else {
            None
        };
        let q_dim = self.layers[0].attn.q_dim();
        let kv_dim = self.layers[0].attn.kv_dim();

        for (li, layer) in self.layers.iter().enumerate() {
            let layer_mirrors = mirrors.map(|m| &m.layers[li]);
            for r in 0..rows {
                layer.attn_norm.forward_into(
                    &scratch.x[r * d..(r + 1) * d],
                    &mut scratch.normed[r * d..(r + 1) * d],
                );
            }
            layer.attn.project_qkv_batch(
                &scratch.normed,
                rows,
                &mut scratch.q,
                &mut scratch.k,
                &mut scratch.v,
                layer_mirrors.map(|m| &m.attn),
            )?;
            for (r, state) in states.iter_mut().enumerate() {
                let pos = state.pos;
                layer.attn.attend_row(
                    pos,
                    &mut state.kv[li],
                    &mut scratch.q[r * q_dim..(r + 1) * q_dim],
                    &mut scratch.k[r * kv_dim..(r + 1) * kv_dim],
                    &scratch.v[r * kv_dim..(r + 1) * kv_dim],
                    &mut scratch.attn.scores,
                    &mut scratch.attn.weights,
                    &mut scratch.attended[r * q_dim..(r + 1) * q_dim],
                )?;
            }
            layer.attn.project_out_batch(
                &scratch.attended,
                rows,
                &mut scratch.attn_out,
                layer_mirrors.map(|m| &m.attn),
            )?;
            for r in 0..rows {
                Vector::axpy(
                    1.0,
                    &scratch.attn_out[r * d..(r + 1) * d],
                    &mut scratch.x[r * d..(r + 1) * d],
                )?;
                layer.mlp_norm.forward_into(
                    &scratch.x[r * d..(r + 1) * d],
                    &mut scratch.normed[r * d..(r + 1) * d],
                );
            }
            let layer_accesses = &mut scratch.accesses[li][..rows];
            match strategies {
                BatchStrategies::Fused(strategy) => strategy.forward_batch_scratch(
                    li,
                    &layer.mlp,
                    &scratch.normed,
                    rows,
                    &mut scratch.mlp,
                    layer_accesses,
                    layer_mirrors.map(|m| &m.mlp),
                )?,
                BatchStrategies::PerRow(boxes) => {
                    for (r, strategy) in boxes.iter_mut().enumerate() {
                        let crate::scratch::MlpBatchWorkspace { y, row_ws, .. } = &mut scratch.mlp;
                        strategy.forward_scratch(
                            li,
                            &layer.mlp,
                            &scratch.normed[r * d..(r + 1) * d],
                            row_ws,
                            &mut layer_accesses[r],
                            layer_mirrors.map(|m| &m.mlp),
                        )?;
                        y[r * d..(r + 1) * d].copy_from_slice(&row_ws.y);
                    }
                }
            }
            for r in 0..rows {
                Vector::axpy(
                    1.0,
                    &scratch.mlp.y[r * d..(r + 1) * d],
                    &mut scratch.x[r * d..(r + 1) * d],
                )?;
            }
        }

        for r in 0..rows {
            self.final_norm.forward_into(
                &scratch.x[r * d..(r + 1) * d],
                &mut scratch.final_normed[r * d..(r + 1) * d],
            );
        }
        match mirrors {
            Some(m) => self.lm_head.matvec_batch_packed(
                &m.lm_head,
                &scratch.final_normed,
                rows,
                &mut scratch.logits,
            )?,
            None => self.lm_head.matvec_batch_into_threaded(
                &scratch.final_normed,
                rows,
                &mut scratch.logits,
                WorkerPool::global(),
            )?,
        }
        for state in states.iter_mut() {
            state.pos += 1;
        }
        Ok(())
    }

    /// Chunked prefill: pushes a whole prompt chunk of **one** session
    /// through each layer as a stacked matrix.
    ///
    /// Row `t` is position `state.pos + t`; within a layer, row `t`'s
    /// attention runs after rows `0..t` appended their KV entries, so it
    /// sees exactly the causal context the token-at-a-time loop would —
    /// KV contents, access records and the *last* row's logits (written to
    /// the last row of [`BatchScratch::logits`]) are bitwise identical to
    /// feeding the chunk through
    /// [`TransformerModel::forward_token_into`] token by token. Earlier
    /// rows' logits are **not** computed: the sequential path computes and
    /// immediately overwrites them, so skipping the LM head there changes
    /// no observable value while removing `chunk - 1` head passes.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] for an empty chunk,
    /// [`LmError::TokenOutOfRange`] for an invalid token, and propagates
    /// KV-capacity and shape errors from the blocks.
    pub fn forward_prompt_into(
        &self,
        chunk: &[u32],
        state: &mut DecodeState,
        mlp_fw: &mut dyn MlpForward,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        let rows = chunk.len();
        if rows == 0 {
            return Err(LmError::BadSequence {
                reason: "prompt chunk must contain at least one token".to_string(),
            });
        }
        for &t in chunk {
            self.check_token(t)?;
        }
        scratch.ensure(rows, &self.config);
        scratch.fused_passes += 1;
        scratch.rows_computed += rows as u64;
        let d = self.config.d_model;
        for (r, &t) in chunk.iter().enumerate() {
            scratch.x[r * d..(r + 1) * d].copy_from_slice(self.embedding.row(t as usize)?);
        }

        let use_mirrors = self.ensure_batch_mirrors(scratch);
        let mirrors = if use_mirrors {
            scratch.mirrors.as_ref()
        } else {
            None
        };
        let q_dim = self.layers[0].attn.q_dim();
        let kv_dim = self.layers[0].attn.kv_dim();
        let base = state.pos;

        for (li, layer) in self.layers.iter().enumerate() {
            let layer_mirrors = mirrors.map(|m| &m.layers[li]);
            for r in 0..rows {
                layer.attn_norm.forward_into(
                    &scratch.x[r * d..(r + 1) * d],
                    &mut scratch.normed[r * d..(r + 1) * d],
                );
            }
            layer.attn.project_qkv_batch(
                &scratch.normed,
                rows,
                &mut scratch.q,
                &mut scratch.k,
                &mut scratch.v,
                layer_mirrors.map(|m| &m.attn),
            )?;
            // row t attends after rows 0..t pushed their KV — causal by
            // construction, identical to the token-at-a-time order
            for r in 0..rows {
                layer.attn.attend_row(
                    base + r,
                    &mut state.kv[li],
                    &mut scratch.q[r * q_dim..(r + 1) * q_dim],
                    &mut scratch.k[r * kv_dim..(r + 1) * kv_dim],
                    &scratch.v[r * kv_dim..(r + 1) * kv_dim],
                    &mut scratch.attn.scores,
                    &mut scratch.attn.weights,
                    &mut scratch.attended[r * q_dim..(r + 1) * q_dim],
                )?;
            }
            layer.attn.project_out_batch(
                &scratch.attended,
                rows,
                &mut scratch.attn_out,
                layer_mirrors.map(|m| &m.attn),
            )?;
            for r in 0..rows {
                Vector::axpy(
                    1.0,
                    &scratch.attn_out[r * d..(r + 1) * d],
                    &mut scratch.x[r * d..(r + 1) * d],
                )?;
                layer.mlp_norm.forward_into(
                    &scratch.x[r * d..(r + 1) * d],
                    &mut scratch.normed[r * d..(r + 1) * d],
                );
            }
            mlp_fw.forward_batch_scratch(
                li,
                &layer.mlp,
                &scratch.normed,
                rows,
                &mut scratch.mlp,
                &mut scratch.accesses[li][..rows],
                layer_mirrors.map(|m| &m.mlp),
            )?;
            for r in 0..rows {
                Vector::axpy(
                    1.0,
                    &scratch.mlp.y[r * d..(r + 1) * d],
                    &mut scratch.x[r * d..(r + 1) * d],
                )?;
            }
        }

        // only the last row's logits are observable (the sequential loop
        // overwrites every earlier row's)
        let last = rows - 1;
        self.final_norm.forward_into(
            &scratch.x[last * d..(last + 1) * d],
            &mut scratch.final_normed[last * d..(last + 1) * d],
        );
        let vocab = self.config.vocab_size;
        let logits_row = &mut scratch.logits[last * vocab..(last + 1) * vocab];
        let final_row = &scratch.final_normed[last * d..(last + 1) * d];
        match mirrors {
            Some(m) => self
                .lm_head
                .matvec_packed(&m.lm_head, final_row, logits_row)?,
            None => {
                self.lm_head
                    .matvec_into_threaded(final_row, logits_row, WorkerPool::global())?
            }
        }
        state.pos += rows;
        Ok(())
    }

    /// Samples `n_tokens` continuations of `prompt` at the given temperature.
    ///
    /// With `temperature == 0.0` sampling degenerates to greedy argmax.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::BadSequence`] for an empty prompt or when the
    /// requested length exceeds the KV-cache capacity, and propagates forward
    /// errors.
    pub fn generate<R: Rng>(
        &self,
        prompt: &[u32],
        n_tokens: usize,
        temperature: f32,
        rng: &mut R,
        mlp_fw: &mut dyn MlpForward,
    ) -> Result<Vec<u32>> {
        if prompt.is_empty() {
            return Err(LmError::BadSequence {
                reason: "prompt must contain at least one token".to_string(),
            });
        }
        if prompt.len() + n_tokens > self.config.max_seq_len {
            return Err(LmError::BadSequence {
                reason: format!(
                    "prompt ({}) + generation ({}) exceeds max_seq_len ({})",
                    prompt.len(),
                    n_tokens,
                    self.config.max_seq_len
                ),
            });
        }
        let mut state = self.new_decode_state();
        let mut scratch = DecodeScratch::for_model(self);
        for &t in prompt {
            self.forward_token_into(t, &mut state, mlp_fw, &mut scratch)?;
        }
        let mut out = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            let next = sample_from_logits(&scratch.logits, temperature, rng)?;
            out.push(next);
            if out.len() == n_tokens {
                break;
            }
            self.forward_token_into(next, &mut state, mlp_fw, &mut scratch)?;
        }
        Ok(out)
    }
}

/// Samples a token id from logits at the given temperature (0 = greedy).
///
/// # Errors
///
/// Returns an error if `logits` is empty.
pub fn sample_from_logits<R: Rng>(logits: &[f32], temperature: f32, rng: &mut R) -> Result<u32> {
    if temperature <= 0.0 {
        return Ok(Vector::argmax(logits)? as u32);
    }
    let scaled: Vec<f32> = logits.iter().map(|l| l / temperature).collect();
    let probs = Vector::softmax(&scaled)?;
    let r: f32 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return Ok(i as u32);
        }
    }
    Ok((probs.len() - 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_synthetic;
    use tensor::init;

    fn tiny_model() -> TransformerModel {
        build_synthetic(&ModelConfig::tiny(), 42).unwrap()
    }

    #[test]
    fn forward_token_produces_vocab_logits() {
        let model = tiny_model();
        let mut state = model.new_decode_state();
        let out = model.forward_token_dense(3, &mut state).unwrap();
        assert_eq!(out.logits.len(), model.config.vocab_size);
        assert_eq!(out.mlp_accesses.len(), model.config.n_layers);
        assert!(out.logits.iter().all(|v| v.is_finite()));
        assert_eq!(state.pos, 1);
    }

    #[test]
    fn forward_rejects_out_of_range_token() {
        let model = tiny_model();
        let mut state = model.new_decode_state();
        assert!(model.forward_token_dense(64, &mut state).is_err());
    }

    #[test]
    fn decoding_is_deterministic() {
        let model = tiny_model();
        let mut s1 = model.new_decode_state();
        let mut s2 = model.new_decode_state();
        for t in [1u32, 5, 9] {
            let a = model.forward_token_dense(t, &mut s1).unwrap();
            let b = model.forward_token_dense(t, &mut s2).unwrap();
            assert_eq!(a.logits, b.logits);
        }
    }

    #[test]
    fn logits_depend_on_context() {
        let model = tiny_model();
        let mut with_ctx = model.new_decode_state();
        model.forward_token_dense(2, &mut with_ctx).unwrap();
        let a = model.forward_token_dense(7, &mut with_ctx).unwrap();

        let mut without_ctx = model.new_decode_state();
        let b = model.forward_token_dense(7, &mut without_ctx).unwrap();

        let diff: f32 = a
            .logits
            .iter()
            .zip(b.logits.iter())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let model = tiny_model();
        let mut rng_a = init::rng(0);
        let mut rng_b = init::rng(1);
        let a = model
            .generate(&[1, 2, 3], 8, 0.0, &mut rng_a, &mut DenseMlp)
            .unwrap();
        let b = model
            .generate(&[1, 2, 3], 8, 0.0, &mut rng_b, &mut DenseMlp)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|t| (*t as usize) < model.config.vocab_size));
    }

    #[test]
    fn generation_validates_inputs() {
        let model = tiny_model();
        let mut rng = init::rng(0);
        assert!(model
            .generate(&[], 4, 1.0, &mut rng, &mut DenseMlp)
            .is_err());
        assert!(model
            .generate(&[1], 1000, 1.0, &mut rng, &mut DenseMlp)
            .is_err());
    }

    #[test]
    fn sampling_respects_temperature_zero() {
        let mut rng = init::rng(0);
        let logits = vec![0.0, 5.0, 1.0];
        for _ in 0..10 {
            assert_eq!(sample_from_logits(&logits, 0.0, &mut rng).unwrap(), 1);
        }
    }

    #[test]
    fn sampling_covers_support_at_high_temperature() {
        let mut rng = init::rng(0);
        let logits = vec![0.0, 0.0, 0.0, 0.0];
        let mut seen = [false; 4];
        for _ in 0..200 {
            let t = sample_from_logits(&logits, 1.0, &mut rng).unwrap();
            seen[t as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn log_probs_normalise() {
        let model = tiny_model();
        let mut state = model.new_decode_state();
        let out = model.forward_token_dense(0, &mut state).unwrap();
        let lp = out.log_probs().unwrap();
        let sum: f32 = lp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn chunked_prefill_is_bitwise_identical_to_token_at_a_time() {
        let model = tiny_model();
        let prompt: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];

        let mut seq_state = model.new_decode_state();
        let mut seq_scratch = DecodeScratch::for_model(&model);
        for &t in &prompt {
            model
                .forward_token_into(t, &mut seq_state, &mut DenseMlp, &mut seq_scratch)
                .unwrap();
        }

        // two chunks of different sizes, through the batched path
        let mut chunk_state = model.new_decode_state();
        let mut batch = crate::scratch::BatchScratch::for_model(&model);
        model
            .forward_prompt_into(&prompt[..5], &mut chunk_state, &mut DenseMlp, &mut batch)
            .unwrap();
        model
            .forward_prompt_into(&prompt[5..], &mut chunk_state, &mut DenseMlp, &mut batch)
            .unwrap();

        assert_eq!(chunk_state.pos, seq_state.pos);
        for (a, b) in chunk_state.kv.iter().zip(seq_state.kv.iter()) {
            assert_eq!(a.len(), b.len());
            for t in 0..a.len() {
                assert_eq!(a.key_at(t), b.key_at(t), "KV keys diverged");
                assert_eq!(a.value_at(t), b.value_at(t));
            }
        }
        let vocab = model.config.vocab_size;
        let last = prompt[5..].len() - 1;
        let chunk_logits = &batch.logits[last * vocab..(last + 1) * vocab];
        for (i, (a, b)) in chunk_logits
            .iter()
            .zip(seq_scratch.logits.iter())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "logit {i} diverged");
        }
    }

    #[test]
    fn batched_decode_is_bitwise_identical_to_sequential_rows() {
        let model = tiny_model();
        let tokens = [5u32, 9, 13, 2];
        let rows = tokens.len();

        // sequential: each "session" decodes its token on its own state
        let mut seq_logits = Vec::new();
        let mut seq_states: Vec<DecodeState> =
            (0..rows).map(|_| model.new_decode_state()).collect();
        let mut seq_scratch = DecodeScratch::for_model(&model);
        for (r, &t) in tokens.iter().enumerate() {
            // give each session distinct context first
            model
                .forward_token_into(
                    (r as u32) + 1,
                    &mut seq_states[r],
                    &mut DenseMlp,
                    &mut seq_scratch,
                )
                .unwrap();
            model
                .forward_token_into(t, &mut seq_states[r], &mut DenseMlp, &mut seq_scratch)
                .unwrap();
            seq_logits.push(seq_scratch.logits.clone());
        }

        let mut batch_states: Vec<DecodeState> =
            (0..rows).map(|_| model.new_decode_state()).collect();
        let mut batch = crate::scratch::BatchScratch::for_model(&model);
        let context: Vec<u32> = (0..rows as u32).map(|r| r + 1).collect();
        let mut fused = BatchStrategies::Fused(&mut DenseMlp);
        model
            .forward_tokens_batch_into(&context, &mut batch_states, &mut fused, &mut batch)
            .unwrap();
        model
            .forward_tokens_batch_into(&tokens, &mut batch_states, &mut fused, &mut batch)
            .unwrap();

        let vocab = model.config.vocab_size;
        for r in 0..rows {
            assert_eq!(batch_states[r].pos, seq_states[r].pos);
            let row = &batch.logits[r * vocab..(r + 1) * vocab];
            for (i, (a, b)) in row.iter().zip(seq_logits[r].iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} logit {i} diverged");
            }
        }
    }

    #[test]
    fn batch_entry_points_validate_inputs() {
        let model = tiny_model();
        let mut batch = crate::scratch::BatchScratch::for_model(&model);
        let mut state = model.new_decode_state();
        assert!(model
            .forward_prompt_into(&[], &mut state, &mut DenseMlp, &mut batch)
            .is_err());
        assert!(model
            .forward_prompt_into(&[999], &mut state, &mut DenseMlp, &mut batch)
            .is_err());
        let mut fused = BatchStrategies::Fused(&mut DenseMlp);
        assert!(model
            .forward_tokens_batch_into(&[], &mut [], &mut fused, &mut batch)
            .is_err());
        let mut states = vec![model.new_decode_state()];
        assert!(model
            .forward_tokens_batch_into(&[1, 2], &mut states, &mut fused, &mut batch)
            .is_err());
        let mut empty: Vec<Box<dyn MlpForward>> = Vec::new();
        let mut per_row = BatchStrategies::PerRow(&mut empty);
        assert!(model
            .forward_tokens_batch_into(&[1], &mut states, &mut per_row, &mut batch)
            .is_err());
    }

    /// Next-token logits of `tokens` through the naive attention oracle,
    /// dense MLPs and row-major kernels.
    fn naive_logits(model: &TransformerModel, tokens: &[u32]) -> Vec<f32> {
        use crate::attention::oracle;
        let mut kvs = vec![oracle::NaiveKv::default(); model.n_layers()];
        let mut logits = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            let mut x = model.embedding.row(t as usize).unwrap().to_vec();
            for (layer, kv) in model.layers.iter().zip(kvs.iter_mut()) {
                let normed = layer.attn_norm.forward(&x);
                let a = oracle::forward_token(&layer.attn, &normed, pos, kv);
                Vector::axpy(1.0, &a, &mut x).unwrap();
                let y = layer
                    .mlp
                    .forward_dense(&layer.mlp_norm.forward(&x))
                    .unwrap();
                Vector::axpy(1.0, &y, &mut x).unwrap();
            }
            logits = model.lm_head.matvec(&model.final_norm.forward(&x)).unwrap();
        }
        logits
    }

    fn assert_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: logit {i} diverged");
        }
    }

    #[test]
    fn decode_is_bitwise_identical_to_the_naive_oracle() {
        // the private one-page pool of `new_decode_state`, a shared pool of
        // 3-position pages, and the packed-mirror scratch path
        let model = tiny_model();
        let tokens = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let shared = KvPagePool::new_handle(64, 3);
        let mut private = model.new_decode_state();
        let mut paged = model.new_decode_state_paged(&shared);
        let mut mirrored = model.new_decode_state();
        let mut scratch = DecodeScratch::for_model(&model);
        for n in 1..=tokens.len() {
            let want = naive_logits(&model, &tokens[..n]);
            let t = tokens[n - 1];
            let a = model.forward_token_dense(t, &mut private).unwrap();
            assert_bits(&a.logits, &want, "private pool");
            let b = model.forward_token_dense(t, &mut paged).unwrap();
            assert_bits(&b.logits, &want, "shared pool");
            model
                .forward_token_into(t, &mut mirrored, &mut DenseMlp, &mut scratch)
                .unwrap();
            assert_bits(&scratch.logits, &want, "packed mirrors");
        }
        assert_eq!(scratch.pack_builds, 1);
    }

    #[test]
    fn parked_private_state_resumes_bitwise() {
        let model = tiny_model();
        let tokens = [7u32, 2, 9, 4, 4, 1, 8, 3];
        let mut pool = DecodeStatePool::new();
        let mut scratch = DecodeScratch::for_model(&model);

        let mut straight = pool.acquire(&model);
        let mut want = Vec::new();
        for &t in &tokens {
            model
                .forward_token_into(t, &mut straight, &mut DenseMlp, &mut scratch)
                .unwrap();
            want.push(scratch.logits.clone());
        }

        let mut state = pool.acquire(&model);
        for (i, &t) in tokens.iter().enumerate() {
            if i == 3 || i == 6 {
                pool.park(11, state);
                // a co-tenant churns through the pool while parked
                let mut other = pool.acquire(&model);
                model.forward_token_dense(5, &mut other).unwrap();
                pool.release(other);
                state = pool.resume(11).expect("parked under 11");
                assert!(!state.is_spilled(), "a private state resumes ready");
            }
            model
                .forward_token_into(t, &mut state, &mut DenseMlp, &mut scratch)
                .unwrap();
            assert_bits(&scratch.logits, &want[i], &format!("token {i}"));
        }
    }

    #[test]
    fn pool_recycles_matching_states() {
        let model = build_synthetic(&ModelConfig::tiny(), 2).unwrap();
        let mut pool = DecodeStatePool::new();
        let mut state = pool.acquire(&model);
        assert!(state.owns_pool());
        assert_eq!(pool.build_count(), 1);

        // dirty the state, release it, and acquire again: same shape comes back reset
        model.forward_token_dense(1, &mut state).unwrap();
        assert_eq!(state.pos, 1);
        pool.release(state);
        assert_eq!(pool.idle(), 1);
        let state = pool.acquire(&model);
        assert_eq!(state.pos, 0);
        assert!(state.kv.iter().all(|c| c.is_empty()));
        assert_eq!(pool.reuse_count(), 1);
        assert_eq!(pool.idle(), 0);

        // a model with a different shape does not reuse the pooled state
        pool.release(state);
        let mut other_config = ModelConfig::tiny();
        other_config.max_seq_len = 128;
        let other = build_synthetic(&other_config, 2).unwrap();
        let _ = pool.acquire(&other);
        assert_eq!(pool.build_count(), 2);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn park_and_resume_preserve_state_contents() {
        let model = build_synthetic(&ModelConfig::tiny(), 2).unwrap();
        let mut pool = DecodeStatePool::new();
        let mut state = pool.acquire(&model);
        model.forward_token_dense(1, &mut state).unwrap();
        model.forward_token_dense(2, &mut state).unwrap();
        let pos = state.pos;
        let kv_len = state.kv[0].len();
        assert_eq!(pos, 2);

        pool.park(7, state);
        assert_eq!(pool.parked_count(), 1);
        assert_eq!(pool.park_count(), 1);
        assert!(pool.resume(9).is_none());

        // a co-tenant churns through acquire/release in between; the parked
        // state must not be handed out
        let other = pool.acquire(&model);
        pool.release(other);

        let resumed = pool.resume(7).expect("state parked under key 7");
        assert_eq!(pool.parked_count(), 0);
        assert_eq!(pool.resume_count(), 1);
        assert_eq!(resumed.pos, pos, "position survives the park");
        assert_eq!(resumed.kv[0].len(), kv_len, "KV entries survive the park");

        // double-park under one key keeps exactly one live state
        pool.park(3, resumed);
        let fresh = pool.acquire(&model);
        pool.park(3, fresh);
        assert_eq!(pool.parked_count(), 1);
        assert_eq!(pool.reclaim_parked(), 1);
        assert_eq!(pool.parked_count(), 0);
        // reclaimed + replaced states are recyclable, not leaked
        let _ = pool.acquire(&model);
        assert!(pool.reuse_count() >= 2);
    }

    #[test]
    fn pool_recycles_shared_pool_states_and_never_leaks_pages() {
        let model = build_synthetic(&ModelConfig::tiny(), 2).unwrap();
        let pages = KvPagePool::new_handle(64, 8);
        let mut pool = DecodeStatePool::new();

        let mut state = pool.acquire_backed(&model, Some(&pages));
        assert!(!state.owns_pool());
        model.forward_token_dense(1, &mut state).unwrap();
        model.forward_token_dense(2, &mut state).unwrap();
        assert!(pages.borrow().pages_in_use() > 0);

        // parking spills: a parked session holds zero pool pages
        pool.park(7, state);
        assert_eq!(pages.borrow().pages_in_use(), 0);
        let mut state = pool.resume(7).unwrap();
        assert!(state.is_spilled());
        state.reload_kv().unwrap();
        model.forward_token_dense(3, &mut state).unwrap();
        assert_eq!(state.pos, 3);

        // releasing clears: an idle pooled state holds zero pool pages
        pool.release(state);
        assert_eq!(pages.borrow().pages_in_use(), 0);

        // a shared-pool acquire recycles the shared-pool state; a private
        // acquire must not
        let recycled = pool.acquire_backed(&model, Some(&pages));
        assert_eq!(pool.reuse_count(), 1);
        pool.release(recycled);
        let private = pool.acquire(&model);
        assert!(private.owns_pool());
        assert_eq!(pool.build_count(), 2);
    }

    #[test]
    fn num_params_close_to_config_estimate() {
        let model = tiny_model();
        let estimated = model.config.total_params();
        let actual = model.num_params();
        let rel = (estimated as f64 - actual as f64).abs() / actual as f64;
        assert!(rel < 0.05, "estimate {estimated} vs actual {actual}");
    }
}
