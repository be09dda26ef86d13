//! Reusable decode workspaces — the zero-allocation hot path.
//!
//! Every buffer the single-token decode path needs lives in a
//! [`DecodeScratch`] owned by the caller (one per decode loop / serving
//! engine, *not* per session — it is pure workspace, all state lives in
//! [`crate::DecodeState`] and the strategy). After a warm-up token sizes the
//! buffers, steady-state decode through
//! [`crate::TransformerModel::forward_token_into`] performs **zero heap
//! allocations per token** on the dense and DIP paths: activations, top-k
//! selections and the per-layer access records all reuse their capacity.
//!
//! Ownership rules (see DESIGN.md §"Performance architecture"):
//!
//! * scratch buffers carry no state across tokens — any token may clobber
//!   any buffer, and nothing reads a buffer it did not write this token;
//! * [`MlpWorkspace`] belongs to the *strategy invocation*: a strategy may
//!   use every field freely but must leave its output in
//!   [`MlpWorkspace::y`] and its access report in the [`MlpAccessScratch`]
//!   it was handed;
//! * access-index buffers ([`AccessBuf`]) are cleared and refilled in
//!   place; converting to an owned [`crate::MlpAccessRecord`] (for traces
//!   or reports) is explicit and allocating.

use crate::config::ModelConfig;
use crate::mlp::{ColumnAccess, MatrixAccess, MlpAccessRecord, SliceAxis};
use crate::model::TransformerModel;
use tensor::{Matrix, PackedMatrix};

/// Identity fingerprint of one weight matrix: buffer address, shape and a
/// small sample of element bits. Used to detect that a scratch's mirrors
/// belong to the model currently being decoded (see [`ModelMirrors`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MatrixTag {
    ptr: usize,
    shape: (usize, usize),
    sample: u64,
}

fn matrix_tag(m: &Matrix) -> MatrixTag {
    let s = m.as_slice();
    let mut sample = 0u64;
    if !s.is_empty() {
        for i in 0..8usize {
            let idx = i * (s.len() - 1) / 7;
            sample = sample.rotate_left(8) ^ u64::from(s[idx].to_bits());
        }
    }
    MatrixTag {
        ptr: s.as_ptr() as usize,
        shape: m.shape(),
        sample,
    }
}

/// Packed panels of one attention block's projections.
#[derive(Debug, Clone)]
pub struct AttnMirrors {
    /// `W_q` panels.
    pub q: PackedMatrix,
    /// `W_k` panels.
    pub k: PackedMatrix,
    /// `W_v` panels.
    pub v: PackedMatrix,
    /// `W_o` panels.
    pub o: PackedMatrix,
}

/// Packed panels of one GLU MLP block's matrices.
#[derive(Debug, Clone)]
pub struct MlpMirrors {
    /// `W_u` panels.
    pub up: PackedMatrix,
    /// `W_g` panels.
    pub gate: PackedMatrix,
    /// `W_d` panels.
    pub down: PackedMatrix,
}

/// Mirrors of one transformer layer.
#[derive(Debug, Clone)]
pub struct LayerMirrors {
    /// Attention projection mirrors.
    pub attn: AttnMirrors,
    /// MLP matrix mirrors.
    pub mlp: MlpMirrors,
}

/// Mirrors of every hot-path weight matrix of one model: the packed
/// `MR`-row panels the register-blocked microkernels
/// ([`Matrix::matvec_packed`] family) run on. The packed kernels stay
/// bitwise identical to the row-major kernels — the mirrors cost memory
/// and build time, never bits.
///
/// The decode loop builds mirrors lazily into its [`DecodeScratch`] and
/// validates them each token against the model's fingerprints (buffer
/// pointers, shapes and sampled element bits), so a scratch reused with a
/// *different* model — or a model whose weights were swapped out mid-run —
/// rebuilds every mirror instead of computing
/// garbage. Mutating a model's weights in place while reusing a warm
/// scratch with it is not supported (transforms happen before decode loops
/// everywhere in this workspace).
#[derive(Debug, Clone)]
pub struct ModelMirrors {
    /// Per-layer mirrors.
    pub layers: Vec<LayerMirrors>,
    /// LM head panels.
    pub lm_head: PackedMatrix,
    tags: Vec<MatrixTag>,
}

impl ModelMirrors {
    /// Iterates a model's mirrored matrices in the canonical tag order.
    fn model_matrices(model: &TransformerModel) -> impl Iterator<Item = &Matrix> {
        model
            .layers
            .iter()
            .flat_map(|l| {
                [
                    &l.attn.w_q,
                    &l.attn.w_k,
                    &l.attn.w_v,
                    &l.attn.w_o,
                    &l.mlp.w_up,
                    &l.mlp.w_gate,
                    &l.mlp.w_down,
                ]
            })
            .chain(std::iter::once(&model.lm_head))
    }

    /// Packs every hot-path matrix of `model` (the one expensive step; done
    /// once per (scratch, model) pairing).
    pub fn build(model: &TransformerModel) -> Self {
        let layers = model
            .layers
            .iter()
            .map(|l| LayerMirrors {
                attn: AttnMirrors {
                    q: PackedMatrix::pack(&l.attn.w_q),
                    k: PackedMatrix::pack(&l.attn.w_k),
                    v: PackedMatrix::pack(&l.attn.w_v),
                    o: PackedMatrix::pack(&l.attn.w_o),
                },
                mlp: MlpMirrors {
                    up: PackedMatrix::pack(&l.mlp.w_up),
                    gate: PackedMatrix::pack(&l.mlp.w_gate),
                    down: PackedMatrix::pack(&l.mlp.w_down),
                },
            })
            .collect();
        ModelMirrors {
            layers,
            lm_head: PackedMatrix::pack(&model.lm_head),
            tags: Self::model_matrices(model).map(matrix_tag).collect(),
        }
    }

    /// Whether these mirrors were built from (exactly) this model's current
    /// weight buffers. Allocation-free.
    pub fn matches(&self, model: &TransformerModel) -> bool {
        if self.layers.len() != model.layers.len() {
            return false;
        }
        let mut tags = self.tags.iter();
        for m in Self::model_matrices(model) {
            match tags.next() {
                Some(t) if *t == matrix_tag(m) => {}
                _ => return false,
            }
        }
        tags.next().is_none()
    }
}

/// A reusable, non-allocating stand-in for [`MatrixAccess`]: which slices
/// of one weight matrix were touched, with the index storage recycled
/// across tokens.
#[derive(Debug, Clone)]
pub struct AccessBuf {
    axis: SliceAxis,
    all: bool,
    indices: Vec<usize>,
}

impl AccessBuf {
    /// A dense (all slices, input axis) buffer.
    pub fn new() -> Self {
        AccessBuf {
            axis: SliceAxis::Input,
            all: true,
            indices: Vec::new(),
        }
    }

    /// Marks every slice as accessed along `axis`.
    pub fn set_all(&mut self, axis: SliceAxis) {
        self.axis = axis;
        self.all = true;
        self.indices.clear();
    }

    /// Records a subset of slices along `axis` (copied into the reused
    /// buffer).
    pub fn set_subset(&mut self, axis: SliceAxis, indices: &[usize]) {
        self.axis = axis;
        self.all = false;
        self.indices.clear();
        self.indices.extend_from_slice(indices);
    }

    /// Copies an owned access record into this buffer.
    pub fn set_from(&mut self, access: &MatrixAccess) {
        match &access.slices {
            ColumnAccess::All => self.set_all(access.axis),
            ColumnAccess::Subset(v) => self.set_subset(access.axis, v),
        }
    }

    /// The slicing axis.
    pub fn axis(&self) -> SliceAxis {
        self.axis
    }

    /// Whether every slice was accessed.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// The recorded subset (`None` when the access was dense).
    pub fn subset(&self) -> Option<&[usize]> {
        if self.all {
            None
        } else {
            Some(&self.indices)
        }
    }

    /// Number of slices accessed, given the axis's total slice count.
    pub fn count(&self, total: usize) -> usize {
        if self.all {
            total
        } else {
            self.indices.len()
        }
    }

    /// Fraction of the matrix's weights loaded (identical arithmetic to
    /// [`MatrixAccess::weight_density`]).
    pub fn weight_density(&self, in_dim: usize, out_dim: usize) -> f32 {
        let total = match self.axis {
            SliceAxis::Input => in_dim,
            SliceAxis::Output => out_dim,
        };
        if total == 0 {
            return 1.0;
        }
        self.count(total) as f32 / total as f32
    }

    /// Materialises an owned [`MatrixAccess`] (allocates).
    pub fn to_access(&self) -> MatrixAccess {
        MatrixAccess {
            axis: self.axis,
            slices: if self.all {
                ColumnAccess::All
            } else {
                ColumnAccess::Subset(self.indices.clone())
            },
        }
    }
}

impl Default for AccessBuf {
    fn default() -> Self {
        AccessBuf::new()
    }
}

/// Reusable per-layer access record: one [`AccessBuf`] per MLP matrix.
#[derive(Debug, Clone, Default)]
pub struct MlpAccessScratch {
    /// Access to `W_u`.
    pub up: AccessBuf,
    /// Access to `W_g`.
    pub gate: AccessBuf,
    /// Access to `W_d`.
    pub down: AccessBuf,
}

impl MlpAccessScratch {
    /// Marks the whole block as densely accessed.
    pub fn set_dense(&mut self) {
        self.up.set_all(SliceAxis::Input);
        self.gate.set_all(SliceAxis::Input);
        self.down.set_all(SliceAxis::Input);
    }

    /// Copies an owned record into the reused buffers.
    pub fn set_from(&mut self, record: &MlpAccessRecord) {
        self.up.set_from(&record.up);
        self.gate.set_from(&record.gate);
        self.down.set_from(&record.down);
    }

    /// Materialises an owned [`MlpAccessRecord`] (allocates).
    pub fn to_record(&self) -> MlpAccessRecord {
        MlpAccessRecord {
            up: self.up.to_access(),
            gate: self.gate.to_access(),
            down: self.down.to_access(),
        }
    }

    /// Overall MLP weight density (identical arithmetic to
    /// [`MlpAccessRecord::mlp_density`]).
    pub fn mlp_density(&self, d_model: usize, d_ff: usize) -> f32 {
        let up = self.up.weight_density(d_model, d_ff);
        let gate = self.gate.weight_density(d_model, d_ff);
        let down = self.down.weight_density(d_ff, d_model);
        (up + gate + down) / 3.0
    }
}

/// Workspace handed to one [`crate::MlpForward::forward_scratch`] call.
///
/// Buffer roles are conventional, not enforced: `up`/`gate`/`glu` are
/// `d_ff`-sized activation buffers, `y` (`d_model`-sized) receives the block
/// output, `active_a`/`active_b` hold index selections, `keys` holds the
/// packed top-k keys (`tensor::topk`) and `mask` is boolean scratch
/// (cache-state masks).
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    /// Up-projection activations (`d_ff`).
    pub up: Vec<f32>,
    /// Gate activations or pre-activations (`d_ff`).
    pub gate: Vec<f32>,
    /// GLU activations (`d_ff`).
    pub glu: Vec<f32>,
    /// The MLP block output (`d_model`) — the strategy's result.
    pub y: Vec<f32>,
    /// First index-selection buffer (e.g. DIP's active inputs).
    pub active_a: Vec<usize>,
    /// Second index-selection buffer (e.g. DIP's active GLU columns).
    pub active_b: Vec<usize>,
    /// Packed top-k selection keys (`tensor::topk::packed_key`).
    pub keys: Vec<u64>,
    /// Boolean scratch (cache-state masks).
    pub mask: Vec<bool>,
}

impl MlpWorkspace {
    /// Creates a workspace pre-sized for a block shape.
    pub fn new(d_model: usize, d_ff: usize) -> Self {
        let mut ws = MlpWorkspace::default();
        ws.ensure(d_model, d_ff);
        ws.active_a.reserve(d_ff.max(d_model));
        ws.active_b.reserve(d_ff.max(d_model));
        ws.keys.reserve(d_ff.max(d_model));
        ws
    }

    /// Resizes the activation buffers for a block shape (no-op when already
    /// sized, so it is safe to call per token).
    pub fn ensure(&mut self, d_model: usize, d_ff: usize) {
        self.up.resize(d_ff, 0.0);
        self.gate.resize(d_ff, 0.0);
        self.glu.resize(d_ff, 0.0);
        self.y.resize(d_model, 0.0);
    }
}

/// Workspace of one batched [`crate::MlpForward::forward_batch_scratch`]
/// call: `rows` stacked activation vectors flow through the block together.
///
/// Activation buffers are row-major stacks (`rows × d_ff` / `rows ×
/// d_model`); the per-row active-column selections of sparse strategies are
/// CSR-packed (`active_in[active_in_offsets[r]..active_in_offsets[r + 1]]`
/// is row `r`'s list) so the batched gathered kernels can share one weight
/// pass across the whole batch. `row_ws` is a single-row workspace for the
/// default (row-by-row) implementation and for strategies without a fused
/// kernel.
#[derive(Debug, Clone, Default)]
pub struct MlpBatchWorkspace {
    /// Up-projection activations (`rows × d_ff`).
    pub up: Vec<f32>,
    /// Gate activations or pre-activations (`rows × d_ff`).
    pub gate: Vec<f32>,
    /// GLU activations (`rows × d_ff`).
    pub glu: Vec<f32>,
    /// The stacked block outputs (`rows × d_model`) — the strategy's result.
    pub y: Vec<f32>,
    /// CSR indices of the per-row input-column selections.
    pub active_in: Vec<usize>,
    /// CSR offsets of `active_in` (`rows + 1` entries).
    pub active_in_offsets: Vec<usize>,
    /// CSR indices of the per-row GLU-column selections.
    pub active_glu: Vec<usize>,
    /// CSR offsets of `active_glu` (`rows + 1` entries).
    pub active_glu_offsets: Vec<usize>,
    /// Per-row index scratch (one row's selection before CSR packing).
    pub row_active: Vec<usize>,
    /// Per-row packed top-k selection keys (`tensor::topk::packed_key`).
    pub keys: Vec<u64>,
    /// Per-row boolean scratch (cache-state masks).
    pub mask: Vec<bool>,
    /// Single-row workspace for strategies without a fused batch kernel.
    pub row_ws: MlpWorkspace,
}

impl MlpBatchWorkspace {
    /// Resizes the stacked activation buffers for `rows` vectors of a block
    /// shape (no-op when already sized) and resets the CSR selections.
    pub fn ensure(&mut self, rows: usize, d_model: usize, d_ff: usize) {
        self.up.resize(rows * d_ff, 0.0);
        self.gate.resize(rows * d_ff, 0.0);
        self.glu.resize(rows * d_ff, 0.0);
        self.y.resize(rows * d_model, 0.0);
        self.active_in.clear();
        self.active_in_offsets.clear();
        self.active_glu.clear();
        self.active_glu_offsets.clear();
        self.row_ws.ensure(d_model, d_ff);
    }
}

/// Every buffer a fused multi-row forward pass needs: `rows` stacked tokens
/// — the sessions of one serving batch lane, or one session's prompt chunk
/// — flow through each layer together so every weight matrix is passed over
/// once per *batch* instead of once per token.
///
/// Owned by the decode loop / serving engine like [`DecodeScratch`]; the
/// same ownership rules apply (pure workspace, no cross-step state, buffers
/// resized lazily and reused). Access records are stored `[layer][row]` so
/// each layer's batched MLP call sees a contiguous per-row slice.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Stacked residual streams (`rows × d_model`).
    pub x: Vec<f32>,
    /// Stacked pre-norm outputs (`rows × d_model`).
    pub normed: Vec<f32>,
    /// Stacked attention block outputs (`rows × d_model`).
    pub attn_out: Vec<f32>,
    /// Stacked query projections (`rows × n_heads·head_dim`).
    pub q: Vec<f32>,
    /// Stacked key projections (`rows × n_kv_heads·head_dim`).
    pub k: Vec<f32>,
    /// Stacked value projections (`rows × n_kv_heads·head_dim`).
    pub v: Vec<f32>,
    /// Stacked per-head attention outputs (`rows × n_heads·head_dim`).
    pub attended: Vec<f32>,
    /// Per-row score/weight scratch (rows run through attention one at a
    /// time — attention state is per-session — so one buffer is reused).
    pub attn: AttnScratch,
    /// Batched MLP workspace.
    pub mlp: MlpBatchWorkspace,
    /// Access records of the current batch, indexed `[layer][row]`.
    pub accesses: Vec<Vec<MlpAccessScratch>>,
    /// Stacked final-norm outputs (`rows × d_model`).
    pub final_normed: Vec<f32>,
    /// Stacked next-token logits (`rows × vocab_size`). Chunked prefill
    /// fills only the last row (earlier rows' logits are dead values the
    /// sequential path computed and overwrote).
    pub logits: Vec<f32>,
    /// Lazily-built weight mirrors (see [`ModelMirrors`]), revalidated per
    /// batch exactly like [`DecodeScratch::mirrors`].
    pub mirrors: Option<ModelMirrors>,
    /// Whether the batched path may build and use weight mirrors.
    pub use_mirrors: bool,
    /// Lifetime count of rows computed by fused passes through this scratch
    /// (telemetry only — read by the serving engine's metrics export, never
    /// by any computation).
    pub rows_computed: u64,
    /// Lifetime count of fused forward passes through this scratch
    /// (telemetry only; `rows_computed / fused_passes` is the realised mean
    /// batch width).
    pub fused_passes: u64,
    /// Lifetime nanoseconds spent packing weight mirrors into this scratch
    /// (telemetry only).
    pub pack_nanos: u64,
    /// Lifetime count of mirror (re)builds into this scratch (telemetry
    /// only — a rebuild after warm-up means weights were swapped mid-run).
    pub pack_builds: u64,
}

impl BatchScratch {
    /// Creates an (empty) batch scratch; buffers are sized by the first
    /// batch through [`BatchScratch::ensure`].
    pub fn new(config: &ModelConfig) -> Self {
        let mut s = BatchScratch {
            use_mirrors: true,
            ..BatchScratch::default()
        };
        s.accesses = (0..config.n_layers).map(|_| Vec::new()).collect();
        // score/weight buffers grow with the attended context; reserving the
        // maximum up front keeps steady-state batches allocation-free
        s.attn.scores.reserve(config.n_heads * config.max_seq_len);
        s.attn.weights.reserve(config.n_heads * config.max_seq_len);
        s
    }

    /// Creates a batch scratch for a model.
    pub fn for_model(model: &TransformerModel) -> Self {
        BatchScratch::new(&model.config)
    }

    /// Sizes every stacked buffer for a batch of `rows` tokens (no-op when
    /// already large enough; buffers keep their capacity across batches).
    pub fn ensure(&mut self, rows: usize, config: &ModelConfig) {
        let head_dim = config.d_model / config.n_heads;
        self.x.resize(rows * config.d_model, 0.0);
        self.normed.resize(rows * config.d_model, 0.0);
        self.attn_out.resize(rows * config.d_model, 0.0);
        self.q.resize(rows * config.n_heads * head_dim, 0.0);
        self.k.resize(rows * config.n_kv_heads * head_dim, 0.0);
        self.v.resize(rows * config.n_kv_heads * head_dim, 0.0);
        self.attended.resize(rows * config.n_heads * head_dim, 0.0);
        self.mlp.ensure(rows, config.d_model, config.d_ff);
        if self.accesses.len() != config.n_layers {
            self.accesses.resize_with(config.n_layers, Vec::new);
        }
        for layer in &mut self.accesses {
            if layer.len() < rows {
                layer.resize_with(rows, Default::default);
            }
        }
        self.final_normed.resize(rows * config.d_model, 0.0);
        self.logits.resize(rows * config.vocab_size, 0.0);
    }
}

/// Attention workspace: projections, per-head scores and weights.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    /// Query projection (`n_heads * head_dim`).
    pub q: Vec<f32>,
    /// Key projection (`n_kv_heads * head_dim`).
    pub k: Vec<f32>,
    /// Value projection (`n_kv_heads * head_dim`).
    pub v: Vec<f32>,
    /// Concatenated per-head attention outputs (`n_heads * head_dim`).
    pub attended: Vec<f32>,
    /// Raw attention scores, `[head][position]` (`n_heads * seq_len`).
    pub scores: Vec<f32>,
    /// Softmaxed attention weights, `[head][position]`.
    pub weights: Vec<f32>,
}

/// Every buffer one decode step needs. Owned by the decode *loop* (or the
/// serving engine), not the session; see the module docs for the ownership
/// rules.
#[derive(Debug, Clone)]
pub struct DecodeScratch {
    /// Residual stream (`d_model`).
    pub x: Vec<f32>,
    /// Pre-norm output feeding attention / MLP (`d_model`).
    pub normed: Vec<f32>,
    /// Attention block output (`d_model`).
    pub attn_out: Vec<f32>,
    /// Attention workspace.
    pub attn: AttnScratch,
    /// MLP strategy workspace.
    pub mlp: MlpWorkspace,
    /// Per-layer access records of the current token.
    pub accesses: Vec<MlpAccessScratch>,
    /// Final-norm output (`d_model`).
    pub final_normed: Vec<f32>,
    /// Next-token logits (`vocab_size`).
    pub logits: Vec<f32>,
    /// Log-probability scratch (`vocab_size`), for evaluation loops.
    pub log_probs: Vec<f32>,
    /// Lazily-built weight mirrors (see [`ModelMirrors`]); populated by the
    /// first decoded token and revalidated per token.
    pub mirrors: Option<ModelMirrors>,
    /// Whether the decode loop may build and use weight mirrors. Defaults
    /// to `true`; one-shot callers (the allocating `forward_token` wrapper)
    /// turn it off, since an O(model-weights) pack per token would dwarf the
    /// token itself.
    pub use_mirrors: bool,
    /// Lifetime nanoseconds spent packing weight mirrors into this scratch
    /// (telemetry only).
    pub pack_nanos: u64,
    /// Lifetime count of mirror (re)builds into this scratch (telemetry
    /// only — a rebuild after warm-up means weights were swapped mid-run).
    pub pack_builds: u64,
}

impl DecodeScratch {
    /// Creates a scratch pre-sized for a model configuration.
    pub fn new(config: &ModelConfig) -> Self {
        let head_dim = config.d_model / config.n_heads;
        let mut attn = AttnScratch::default();
        attn.q.resize(config.n_heads * head_dim, 0.0);
        attn.k.resize(config.n_kv_heads * head_dim, 0.0);
        attn.v.resize(config.n_kv_heads * head_dim, 0.0);
        attn.attended.resize(config.n_heads * head_dim, 0.0);
        attn.scores.reserve(config.n_heads * config.max_seq_len);
        attn.weights.reserve(config.n_heads * config.max_seq_len);
        DecodeScratch {
            x: Vec::with_capacity(config.d_model),
            normed: vec![0.0; config.d_model],
            attn_out: vec![0.0; config.d_model],
            attn,
            mlp: MlpWorkspace::new(config.d_model, config.d_ff),
            accesses: (0..config.n_layers)
                .map(|_| MlpAccessScratch::default())
                .collect(),
            final_normed: vec![0.0; config.d_model],
            logits: vec![0.0; config.vocab_size],
            log_probs: vec![0.0; config.vocab_size],
            mirrors: None,
            use_mirrors: true,
            pack_nanos: 0,
            pack_builds: 0,
        }
    }

    /// Creates a scratch pre-sized for a model.
    pub fn for_model(model: &TransformerModel) -> Self {
        DecodeScratch::new(&model.config)
    }

    /// Materialises the per-layer access records (allocates; hot paths read
    /// [`DecodeScratch::accesses`] directly instead).
    pub fn access_records(&self) -> Vec<MlpAccessRecord> {
        self.accesses
            .iter()
            .map(MlpAccessScratch::to_record)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_buf_round_trips_records() {
        let mut buf = AccessBuf::new();
        assert!(buf.is_all());
        buf.set_subset(SliceAxis::Output, &[1, 3, 5]);
        assert_eq!(buf.subset(), Some(&[1usize, 3, 5][..]));
        assert_eq!(buf.count(10), 3);
        let access = buf.to_access();
        assert_eq!(access, MatrixAccess::output(vec![1, 3, 5]));
        let mut back = AccessBuf::new();
        back.set_from(&access);
        assert_eq!(back.subset(), Some(&[1usize, 3, 5][..]));
        back.set_all(SliceAxis::Input);
        assert!(back.subset().is_none());
        assert_eq!(back.count(7), 7);
    }

    #[test]
    fn densities_match_owned_records() {
        let mut scratch = MlpAccessScratch::default();
        scratch.up.set_subset(SliceAxis::Input, &[0, 1, 2, 3]);
        scratch.gate.set_subset(SliceAxis::Input, &[0, 1, 2, 3]);
        scratch
            .down
            .set_subset(SliceAxis::Input, &[0, 1, 2, 3, 4, 5]);
        let record = scratch.to_record();
        let (d_model, d_ff) = (8, 12);
        assert_eq!(
            scratch.mlp_density(d_model, d_ff).to_bits(),
            record.mlp_density(d_model, d_ff).to_bits()
        );
        scratch.set_dense();
        assert_eq!(scratch.to_record(), MlpAccessRecord::dense());
        assert_eq!(scratch.mlp_density(d_model, d_ff), 1.0);
    }

    #[test]
    fn workspace_sizing_is_idempotent() {
        let mut ws = MlpWorkspace::new(8, 24);
        assert_eq!(ws.up.len(), 24);
        assert_eq!(ws.y.len(), 8);
        let up_ptr = ws.up.as_ptr();
        ws.ensure(8, 24);
        assert_eq!(ws.up.as_ptr(), up_ptr, "re-ensuring must not reallocate");
    }
}
