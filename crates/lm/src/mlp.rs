//! The gated (GLU) MLP block and the sparsification hook used to plug in
//! dynamic pruning strategies.
//!
//! The block computes `MLP(x) = W_d (W_u x ⊙ σ(W_g x))` (Eqs. 1–2 of the
//! paper). Dynamic sparsity methods replace the dense forward pass with a
//! pruned one; they are plugged into the model through the [`MlpForward`]
//! trait and report which weight *slices* of each matrix they actually
//! touched via [`MlpAccessRecord`], which the hardware simulator consumes to
//! estimate DRAM/Flash traffic.
//!
//! Two slicing axes exist because different methods prune along different
//! dimensions (Fig. 5 of the paper):
//!
//! * [`SliceAxis::Input`] — slices are weight *columns*, indexed by the input
//!   dimension of the matrix. DIP prunes the up/gate matrices this way
//!   (input pruning) and every method prunes `W_d` this way.
//! * [`SliceAxis::Output`] — slices are weight *rows*, indexed by the output
//!   (neuron) dimension. Gate/Up/DejaVu/CATS pruning skip whole neurons, i.e.
//!   rows of `W_u`/`W_g`.

use crate::error::Result;
use crate::scratch::{MlpAccessScratch, MlpBatchWorkspace, MlpWorkspace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tensor::{Activation, Matrix, PackedMatrix, QuantMatvec};

/// Identifies one of the three weight matrices of a GLU MLP block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MlpMatrix {
    /// The up projection `W_u` (`d_ff x d_model`).
    Up,
    /// The gate projection `W_g` (`d_ff x d_model`).
    Gate,
    /// The down projection `W_d` (`d_model x d_ff`).
    Down,
}

impl MlpMatrix {
    /// All three matrices, in a fixed order.
    pub const ALL: [MlpMatrix; 3] = [MlpMatrix::Up, MlpMatrix::Gate, MlpMatrix::Down];
}

impl std::fmt::Display for MlpMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MlpMatrix::Up => "up",
            MlpMatrix::Gate => "gate",
            MlpMatrix::Down => "down",
        };
        f.write_str(s)
    }
}

/// The dimension along which a matrix was sliced for loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SliceAxis {
    /// Slices are columns, indexed by the matrix's input dimension.
    Input,
    /// Slices are rows, indexed by the matrix's output dimension.
    Output,
}

/// The set of weight slices of one linear layer accessed for one token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ColumnAccess {
    /// Every slice was needed (dense computation).
    #[default]
    All,
    /// Only the listed slices were needed.
    Subset(Vec<usize>),
}

impl ColumnAccess {
    /// Number of slices accessed, given the total slice count of the axis.
    pub fn count(&self, total: usize) -> usize {
        match self {
            ColumnAccess::All => total,
            ColumnAccess::Subset(v) => v.len(),
        }
    }

    /// Fraction of slices accessed.
    pub fn density(&self, total: usize) -> f32 {
        if total == 0 {
            return 1.0;
        }
        self.count(total) as f32 / total as f32
    }

    /// The accessed slice indices (materialised — allocates; prefer
    /// [`ColumnAccess::for_each_index`] / [`ColumnAccess::extend_indices`]
    /// on hot paths).
    pub fn indices(&self, total: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.extend_indices(total, &mut out);
        out
    }

    /// Visits every accessed slice index in order without materialising.
    pub fn for_each_index(&self, total: usize, mut f: impl FnMut(usize)) {
        match self {
            ColumnAccess::All => (0..total).for_each(&mut f),
            ColumnAccess::Subset(v) => v.iter().copied().for_each(&mut f),
        }
    }

    /// Appends the accessed slice indices to a reused buffer (not cleared).
    pub fn extend_indices(&self, total: usize, out: &mut Vec<usize>) {
        match self {
            ColumnAccess::All => out.extend(0..total),
            ColumnAccess::Subset(v) => out.extend_from_slice(v),
        }
    }

    /// Borrows the subset indices (`None` for a dense access).
    pub fn as_subset(&self) -> Option<&[usize]> {
        match self {
            ColumnAccess::All => None,
            ColumnAccess::Subset(v) => Some(v),
        }
    }
}

/// Access record for a single weight matrix: which slices, along which axis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixAccess {
    /// The slicing axis.
    pub axis: SliceAxis,
    /// The slices that were accessed.
    pub slices: ColumnAccess,
}

impl MatrixAccess {
    /// Dense access (every slice, input axis by convention).
    pub fn dense() -> Self {
        MatrixAccess {
            axis: SliceAxis::Input,
            slices: ColumnAccess::All,
        }
    }

    /// Sparse access along the input (column) axis.
    pub fn input(indices: Vec<usize>) -> Self {
        MatrixAccess {
            axis: SliceAxis::Input,
            slices: ColumnAccess::Subset(indices),
        }
    }

    /// Sparse access along the output (row / neuron) axis.
    pub fn output(indices: Vec<usize>) -> Self {
        MatrixAccess {
            axis: SliceAxis::Output,
            slices: ColumnAccess::Subset(indices),
        }
    }

    /// Number of slices along this access's axis for a matrix with the given
    /// input and output dimensions.
    pub fn axis_len(&self, in_dim: usize, out_dim: usize) -> usize {
        match self.axis {
            SliceAxis::Input => in_dim,
            SliceAxis::Output => out_dim,
        }
    }

    /// Fraction of the matrix's weights that had to be loaded.
    pub fn weight_density(&self, in_dim: usize, out_dim: usize) -> f32 {
        self.slices.density(self.axis_len(in_dim, out_dim))
    }
}

impl Default for MatrixAccess {
    fn default() -> Self {
        MatrixAccess::dense()
    }
}

/// Per-token, per-layer record of the weight slices touched in each MLP matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpAccessRecord {
    /// Access to `W_u`.
    pub up: MatrixAccess,
    /// Access to `W_g`.
    pub gate: MatrixAccess,
    /// Access to `W_d`.
    pub down: MatrixAccess,
}

impl MlpAccessRecord {
    /// A fully dense access record.
    pub fn dense() -> Self {
        MlpAccessRecord::default()
    }

    /// Access record for a specific matrix.
    pub fn access(&self, m: MlpMatrix) -> &MatrixAccess {
        match m {
            MlpMatrix::Up => &self.up,
            MlpMatrix::Gate => &self.gate,
            MlpMatrix::Down => &self.down,
        }
    }

    /// Overall MLP weight density implied by this record for the given block
    /// shape (all three matrices have `d_model * d_ff` parameters, so the
    /// density is the unweighted mean of the per-matrix weight densities).
    pub fn mlp_density(&self, d_model: usize, d_ff: usize) -> f32 {
        let up = self.up.weight_density(d_model, d_ff);
        let gate = self.gate.weight_density(d_model, d_ff);
        let down = self.down.weight_density(d_ff, d_model);
        (up + gate + down) / 3.0
    }
}

/// Output of one MLP forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpForwardOutput {
    /// The MLP output vector added to the residual stream.
    pub y: Vec<f32>,
    /// Which weight slices were needed to produce it.
    pub access: MlpAccessRecord,
}

/// The hook through which dynamic sparsity strategies replace the dense MLP
/// forward pass.
///
/// Implementations live in the `dip-core` crate (DIP, DIP-CA, Gate/Up/GLU
/// pruning, CATS, DejaVu-style predictive pruning, …); the dense baseline
/// [`DenseMlp`] lives here. Implementations may be stateful (e.g. DIP-CA
/// keeps a model of the DRAM cache).
pub trait MlpForward {
    /// Computes the MLP output for one token at the given layer index.
    ///
    /// # Errors
    ///
    /// Implementations propagate shape errors from the underlying kernels.
    fn forward(&mut self, layer: usize, mlp: &GluMlp, x: &[f32]) -> Result<MlpForwardOutput>;

    /// Allocation-free forward pass: leaves the block output in
    /// [`MlpWorkspace::y`] and the access report in `access`, reusing every
    /// buffer across tokens. `mirrors`, when present, are this layer's
    /// packed weight panels (see [`crate::scratch::ModelMirrors`]) for the
    /// register-blocked packed kernels.
    ///
    /// The default falls back to [`MlpForward::forward`] and copies; the
    /// strategies on the decode hot path override it with zero-allocation
    /// implementations that are bitwise identical to their allocating
    /// counterparts.
    ///
    /// # Errors
    ///
    /// Same as [`MlpForward::forward`].
    fn forward_scratch(
        &mut self,
        layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        let _ = mirrors;
        let out = self.forward(layer, mlp, x)?;
        ws.y.clear();
        ws.y.extend_from_slice(&out.y);
        access.set_from(&out.access);
        Ok(())
    }

    /// Whether one instance of this strategy may drive a whole batch lane of
    /// sessions through [`MlpForward::forward_batch_scratch`].
    ///
    /// `true` is a **semantic contract**: calling one lane member's
    /// `forward_batch_scratch` over the stacked rows must be bitwise
    /// identical to calling each member's own `forward_scratch` row by row
    /// in the same order. That holds for stateless strategies and for
    /// strategies whose state is *shared* by every lane member (DIP-CA's
    /// shared cache cell). Strategies with private per-session state must
    /// leave this `false` (the default) — the engine then runs each row
    /// through its own instance, still inside the fused attention/LM-head
    /// batch.
    fn batch_fusable(&self) -> bool {
        false
    }

    /// Batched forward: `xs` holds `rows` stacked activation vectors
    /// (`rows × d_model`, row-major); the block outputs land stacked in
    /// [`MlpBatchWorkspace::y`] and row `r`'s access report in
    /// `accesses[r]`.
    ///
    /// The default processes rows one at a time through
    /// [`MlpForward::forward_scratch`] — correct for any strategy when the
    /// rows belong to *one* session (a prefill chunk), and for lanes of
    /// sessions when [`MlpForward::batch_fusable`] holds. Strategies on the
    /// serving hot path override it with fused multi-RHS kernels that pass
    /// over each weight matrix once per batch.
    ///
    /// # Errors
    ///
    /// Same as [`MlpForward::forward_scratch`].
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_scratch(
        &mut self,
        layer: usize,
        mlp: &GluMlp,
        xs: &[f32],
        rows: usize,
        ws: &mut MlpBatchWorkspace,
        accesses: &mut [MlpAccessScratch],
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        let (d_model, d_ff) = (mlp.d_model(), mlp.d_ff());
        ws.ensure(rows, d_model, d_ff);
        for r in 0..rows {
            let x = &xs[r * d_model..(r + 1) * d_model];
            // split borrow: the row workspace is disjoint from the stacked
            // output buffer
            let MlpBatchWorkspace { y, row_ws, .. } = ws;
            self.forward_scratch(layer, mlp, x, row_ws, &mut accesses[r], mirrors)?;
            y[r * d_model..(r + 1) * d_model].copy_from_slice(&row_ws.y);
        }
        Ok(())
    }

    /// Human-readable strategy name used in reports.
    fn name(&self) -> String {
        "custom".to_string()
    }

    /// Resets any per-session state (e.g. simulated caches). Called between
    /// independent evaluation runs; the default is a no-op.
    fn reset(&mut self) {}
}

/// The dense (unpruned) MLP forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseMlp;

impl MlpForward for DenseMlp {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> Result<MlpForwardOutput> {
        Ok(MlpForwardOutput {
            y: mlp.forward_dense(x)?,
            access: MlpAccessRecord::dense(),
        })
    }

    fn forward_scratch(
        &mut self,
        _layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        mlp.forward_dense_into(x, ws, mirrors)?;
        access.set_dense();
        Ok(())
    }

    fn batch_fusable(&self) -> bool {
        true
    }

    fn forward_batch_scratch(
        &mut self,
        _layer: usize,
        mlp: &GluMlp,
        xs: &[f32],
        rows: usize,
        ws: &mut MlpBatchWorkspace,
        accesses: &mut [MlpAccessScratch],
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        mlp.forward_dense_batch_into(xs, rows, ws, mirrors)?;
        for access in accesses.iter_mut().take(rows) {
            access.set_dense();
        }
        Ok(())
    }

    fn name(&self) -> String {
        "dense".to_string()
    }
}

/// Packed-quantized views of a GLU block's three matrices, attached by the
/// `quant` crate (see `quant::model_ops::quantize_mlp_fused`).
///
/// When present, every kernel helper of [`GluMlp`] routes through the fused
/// dequant-matvec implementations **first** — before the packed and
/// row-major f32 paths — so each sparsity strategy's column selections ride
/// the fused panels with zero strategy changes. The attach step also replaces
/// `w_up`/`w_gate`/`w_down` with the dequantized reconstruction, so paths
/// that don't consult `quant` (reference mode, allocating helpers, hwsim
/// accounting) compute bitwise-identical results.
#[derive(Debug, Clone)]
pub struct QuantizedGluWeights {
    /// Fused view of `W_u`.
    pub up: Arc<dyn QuantMatvec>,
    /// Fused view of `W_g`.
    pub gate: Arc<dyn QuantMatvec>,
    /// Fused view of `W_d`.
    pub down: Arc<dyn QuantMatvec>,
}

/// A gated MLP block (`SwiGLU` when the activation is SiLU).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GluMlp {
    /// Up projection `W_u` (`d_ff x d_model`).
    pub w_up: Matrix,
    /// Gate projection `W_g` (`d_ff x d_model`).
    pub w_gate: Matrix,
    /// Down projection `W_d` (`d_model x d_ff`).
    pub w_down: Matrix,
    /// Gate non-linearity.
    pub activation: Activation,
    /// Optional per-neuron bias added to the gate pre-activation.
    ///
    /// The synthetic "ReLU-fied" models use a negative bias here so that the
    /// gate produces the high natural sparsity (80–90 % zeros) that real
    /// ReLU-fied LLMs exhibit; SwiGLU models leave it `None`.
    pub gate_bias: Option<Vec<f32>>,
    /// Optional packed-quantized weights; when set, the `_into` kernel
    /// helpers run fused dequant-matvec instead of the f32 kernels (see
    /// [`QuantizedGluWeights`]).
    pub quant: Option<QuantizedGluWeights>,
}

impl GluMlp {
    /// Creates a GLU MLP from its three weight matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes are inconsistent.
    pub fn new(w_up: Matrix, w_gate: Matrix, w_down: Matrix, activation: Activation) -> Self {
        assert_eq!(
            w_up.shape(),
            w_gate.shape(),
            "W_u and W_g must have equal shapes"
        );
        assert_eq!(w_down.cols(), w_up.rows(), "W_d cols must equal d_ff");
        assert_eq!(w_down.rows(), w_up.cols(), "W_d rows must equal d_model");
        GluMlp {
            w_up,
            w_gate,
            w_down,
            activation,
            gate_bias: None,
            quant: None,
        }
    }

    /// Residual-stream width.
    pub fn d_model(&self) -> usize {
        self.w_up.cols()
    }

    /// Hidden (intermediate) width.
    pub fn d_ff(&self) -> usize {
        self.w_up.rows()
    }

    /// Total number of parameters in the block.
    pub fn num_params(&self) -> usize {
        self.w_up.len() + self.w_gate.len() + self.w_down.len()
    }

    /// Gate pre-activations `W_g x (+ bias)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn gate_preactivations(&self, x: &[f32]) -> Result<Vec<f32>> {
        let mut g = self.w_gate.matvec(x)?;
        if let Some(bias) = &self.gate_bias {
            for (gi, bi) in g.iter_mut().zip(bias.iter()) {
                *gi += bi;
            }
        }
        Ok(g)
    }

    /// Gate activations `σ(W_g x)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn gate_activations(&self, x: &[f32]) -> Result<Vec<f32>> {
        let mut g = self.gate_preactivations(x)?;
        self.activation.apply(&mut g);
        Ok(g)
    }

    /// Up projections `W_u x`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn up_activations(&self, x: &[f32]) -> Result<Vec<f32>> {
        Ok(self.w_up.matvec(x)?)
    }

    /// Gate activations computed only on a subset of the input columns
    /// (input pruning of `W_g`): `σ(W_g[:, S] x_S + bias)`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the sparse kernel.
    pub fn gate_activations_input_pruned(
        &self,
        x: &[f32],
        active_inputs: &[usize],
    ) -> Result<Vec<f32>> {
        let mut g = self.w_gate.matvec_cols(x, active_inputs)?;
        if let Some(bias) = &self.gate_bias {
            for (gi, bi) in g.iter_mut().zip(bias.iter()) {
                *gi += bi;
            }
        }
        self.activation.apply(&mut g);
        Ok(g)
    }

    /// Up projections computed only on a subset of the input columns
    /// (input pruning of `W_u`): `W_u[:, S] x_S`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the sparse kernel.
    pub fn up_activations_input_pruned(
        &self,
        x: &[f32],
        active_inputs: &[usize],
    ) -> Result<Vec<f32>> {
        Ok(self.w_up.matvec_cols(x, active_inputs)?)
    }

    /// Full GLU activations `W_u x ⊙ σ(W_g x)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn glu_activations(&self, x: &[f32]) -> Result<Vec<f32>> {
        let up = self.up_activations(x)?;
        let gate = self.gate_activations(x)?;
        Ok(up.iter().zip(gate.iter()).map(|(u, g)| u * g).collect())
    }

    /// Dense forward pass `W_d GLU(x)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn forward_dense(&self, x: &[f32]) -> Result<Vec<f32>> {
        let glu = self.glu_activations(x)?;
        Ok(self.w_down.matvec(&glu)?)
    }

    /// Down projection applied to an (already pruned) GLU activation vector,
    /// touching only the listed columns of `W_d`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the underlying sparse kernel.
    pub fn down_from_glu(&self, glu: &[f32], active: &[usize]) -> Result<Vec<f32>> {
        Ok(self.w_down.matvec_cols(glu, active)?)
    }

    // ----- allocation-free variants (see `crate::scratch`) -----
    //
    // Each `_into` method is bitwise identical to its allocating
    // counterpart; it differs only in writing into a caller-owned buffer.
    // Kernel routing, in priority order:
    //
    // 1. fused dequant-matvec when packed-quantized weights are attached
    //    ([`GluMlp::quant`]) — the f32 matrices then hold the dequantized
    //    reconstruction, so every route still computes the same bits;
    // 2. the packed register-blocked microkernels when a [`PackedMatrix`]
    //    is supplied (`Matrix::matvec_packed` family, arch-dispatched);
    // 3. the row-major kernels otherwise.
    //
    // All three are bitwise identical (see `tensor::packed`).

    /// Allocation-free [`GluMlp::gate_preactivations`]; `mirror`, when
    /// given, must be built from `w_gate`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model` or `out.len() != d_ff`.
    pub fn gate_preactivations_into(
        &self,
        x: &[f32],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => q.gate.matvec_into(x, out)?,
            (None, Some(m)) => self.w_gate.matvec_packed(m, x, out)?,
            (None, None) => self.w_gate.matvec_into(x, out)?,
        }
        if let Some(bias) = &self.gate_bias {
            for (gi, bi) in out.iter_mut().zip(bias.iter()) {
                *gi += bi;
            }
        }
        Ok(())
    }

    /// Allocation-free [`GluMlp::gate_activations`]; `mirror`, when given,
    /// must be built from `w_gate`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model` or `out.len() != d_ff`.
    pub fn gate_activations_into(
        &self,
        x: &[f32],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        self.gate_preactivations_into(x, out, mirror)?;
        self.activation.apply(out);
        Ok(())
    }

    /// Allocation-free [`GluMlp::up_activations`]; `mirror`, when given,
    /// must be built from `w_up`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model` or `out.len() != d_ff`.
    pub fn up_activations_into(
        &self,
        x: &[f32],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => Ok(q.up.matvec_into(x, out)?),
            (None, Some(m)) => Ok(self.w_up.matvec_packed(m, x, out)?),
            (None, None) => Ok(self.w_up.matvec_into(x, out)?),
        }
    }

    /// Allocation-free [`GluMlp::gate_activations_input_pruned`]; `mirror`,
    /// when given, must be built from `w_gate`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the sparse kernel.
    pub fn gate_activations_input_pruned_into(
        &self,
        x: &[f32],
        active_inputs: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => q.gate.matvec_cols_into(x, active_inputs, out)?,
            (None, Some(m)) => self.w_gate.matvec_cols_packed(m, x, active_inputs, out)?,
            (None, None) => self.w_gate.matvec_cols_into(x, active_inputs, out)?,
        }
        if let Some(bias) = &self.gate_bias {
            for (gi, bi) in out.iter_mut().zip(bias.iter()) {
                *gi += bi;
            }
        }
        self.activation.apply(out);
        Ok(())
    }

    /// Allocation-free [`GluMlp::up_activations_input_pruned`]; `mirror`,
    /// when given, must be built from `w_up`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the sparse kernel.
    pub fn up_activations_input_pruned_into(
        &self,
        x: &[f32],
        active_inputs: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => Ok(q.up.matvec_cols_into(x, active_inputs, out)?),
            (None, Some(m)) => Ok(self.w_up.matvec_cols_packed(m, x, active_inputs, out)?),
            (None, None) => Ok(self.w_up.matvec_cols_into(x, active_inputs, out)?),
        }
    }

    /// Allocation-free [`GluMlp::down_from_glu`]; `mirror`, when given,
    /// must be built from `w_down`.
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the sparse kernel.
    pub fn down_from_glu_into(
        &self,
        glu: &[f32],
        active: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => Ok(q.down.matvec_cols_into(glu, active, out)?),
            (None, Some(m)) => Ok(self.w_down.matvec_cols_packed(m, glu, active, out)?),
            (None, None) => Ok(self.w_down.matvec_cols_into(glu, active, out)?),
        }
    }

    // ----- batched (multi-row) variants -----
    //
    // `xs` stacks `rows` activation vectors row-major; every helper is
    // bitwise identical to calling its single-row counterpart once per row
    // (the batched kernels never reorder a reduction), while passing over
    // each weight matrix once per batch.

    /// Adds the gate bias to every stacked row (no-op without a bias).
    fn add_gate_bias_rows(&self, out: &mut [f32], rows: usize) {
        if let Some(bias) = &self.gate_bias {
            let d_ff = self.d_ff();
            for r in 0..rows {
                for (gi, bi) in out[r * d_ff..(r + 1) * d_ff].iter_mut().zip(bias.iter()) {
                    *gi += bi;
                }
            }
        }
    }

    /// Batched [`GluMlp::up_activations_into`] over `rows` stacked inputs.
    ///
    /// # Errors
    ///
    /// Returns a shape error from the batched kernel.
    pub fn up_activations_batch_into(
        &self,
        xs: &[f32],
        rows: usize,
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => Ok(q.up.matvec_batch_into(xs, rows, out)?),
            (None, Some(m)) => Ok(self.w_up.matvec_batch_packed(m, xs, rows, out)?),
            (None, None) => Ok(self.w_up.matvec_batch_into(xs, rows, out)?),
        }
    }

    /// Batched [`GluMlp::gate_activations_into`] over `rows` stacked inputs.
    ///
    /// # Errors
    ///
    /// Returns a shape error from the batched kernel.
    pub fn gate_activations_batch_into(
        &self,
        xs: &[f32],
        rows: usize,
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        match (&self.quant, mirror) {
            (Some(q), _) => q.gate.matvec_batch_into(xs, rows, out)?,
            (None, Some(m)) => self.w_gate.matvec_batch_packed(m, xs, rows, out)?,
            (None, None) => self.w_gate.matvec_batch_into(xs, rows, out)?,
        }
        self.add_gate_bias_rows(out, rows);
        // element-wise non-linearity: applying it to the stacked buffer is
        // identical to applying it per row
        self.activation.apply(&mut out[..rows * self.d_ff()]);
        Ok(())
    }

    /// One column-sparse weight pass over a CSR batch: fused dequant when
    /// quantized weights are attached, the packed column-sparse microkernel
    /// per row when a mirror exists (the panel buffer stays cache-resident
    /// across the batch), the fused gathered row-outer kernel otherwise.
    /// All are bitwise identical to per-row [`Matrix::matvec_cols_into`].
    #[allow(clippy::too_many_arguments)]
    fn cols_batch(
        matrix: &Matrix,
        quant: Option<&dyn QuantMatvec>,
        mirror: Option<&PackedMatrix>,
        xs: &[f32],
        rows: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        match (quant, mirror) {
            (Some(q), _) => Ok(q.matvec_cols_batch_into(xs, rows, indices, offsets, out)?),
            (None, Some(m)) => {
                Ok(matrix.matvec_cols_batch_packed(m, xs, rows, indices, offsets, out)?)
            }
            (None, None) => Ok(matrix.matvec_cols_batch_into(xs, rows, indices, offsets, out)?),
        }
    }

    /// Batched [`GluMlp::up_activations_input_pruned_into`]: each row has
    /// its own active-input list (CSR over `indices`/`offsets`).
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the underlying sparse kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn up_activations_input_pruned_batch_into(
        &self,
        xs: &[f32],
        rows: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        let quant = self.quant.as_ref().map(|q| q.up.as_ref());
        Self::cols_batch(&self.w_up, quant, mirror, xs, rows, indices, offsets, out)
    }

    /// Batched [`GluMlp::gate_activations_input_pruned_into`]: each row has
    /// its own active-input list (CSR over `indices`/`offsets`).
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the underlying sparse kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn gate_activations_input_pruned_batch_into(
        &self,
        xs: &[f32],
        rows: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        let quant = self.quant.as_ref().map(|q| q.gate.as_ref());
        Self::cols_batch(&self.w_gate, quant, mirror, xs, rows, indices, offsets, out)?;
        self.add_gate_bias_rows(out, rows);
        self.activation.apply(&mut out[..rows * self.d_ff()]);
        Ok(())
    }

    /// Batched [`GluMlp::down_from_glu_into`]: each row has its own active
    /// GLU-column list (CSR over `indices`/`offsets`).
    ///
    /// # Errors
    ///
    /// Returns a shape or index error from the underlying sparse kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn down_from_glu_batch_into(
        &self,
        glus: &[f32],
        rows: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
        mirror: Option<&PackedMatrix>,
    ) -> Result<()> {
        let quant = self.quant.as_ref().map(|q| q.down.as_ref());
        Self::cols_batch(
            &self.w_down,
            quant,
            mirror,
            glus,
            rows,
            indices,
            offsets,
            out,
        )
    }

    /// Batched dense forward pass: one weight pass per matrix for the whole
    /// batch, outputs stacked in [`MlpBatchWorkspace::y`].
    ///
    /// # Errors
    ///
    /// Returns a shape error from the batched kernels.
    pub fn forward_dense_batch_into(
        &self,
        xs: &[f32],
        rows: usize,
        ws: &mut MlpBatchWorkspace,
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        ws.ensure(rows, self.d_model(), self.d_ff());
        self.up_activations_batch_into(xs, rows, &mut ws.up, mirrors.map(|m| &m.up))?;
        self.gate_activations_batch_into(xs, rows, &mut ws.gate, mirrors.map(|m| &m.gate))?;
        let n = rows * self.d_ff();
        for ((g, u), gate) in ws.glu[..n]
            .iter_mut()
            .zip(ws.up[..n].iter())
            .zip(ws.gate[..n].iter())
        {
            *g = u * gate;
        }
        match (&self.quant, mirrors) {
            (Some(q), _) => Ok(q.down.matvec_batch_into(&ws.glu[..n], rows, &mut ws.y)?),
            (None, Some(m)) => {
                Ok(self
                    .w_down
                    .matvec_batch_packed(&m.down, &ws.glu[..n], rows, &mut ws.y)?)
            }
            (None, None) => Ok(self
                .w_down
                .matvec_batch_into(&ws.glu[..n], rows, &mut ws.y)?),
        }
    }

    /// Allocation-free dense forward pass: computes up/gate/GLU activations
    /// in the workspace and leaves `W_d GLU(x)` in [`MlpWorkspace::y`].
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.len() != d_model`.
    pub fn forward_dense_into(
        &self,
        x: &[f32],
        ws: &mut MlpWorkspace,
        mirrors: Option<&crate::scratch::MlpMirrors>,
    ) -> Result<()> {
        ws.ensure(self.d_model(), self.d_ff());
        self.up_activations_into(x, &mut ws.up, mirrors.map(|m| &m.up))?;
        self.gate_activations_into(x, &mut ws.gate, mirrors.map(|m| &m.gate))?;
        for ((g, u), gate) in ws.glu.iter_mut().zip(ws.up.iter()).zip(ws.gate.iter()) {
            *g = u * gate;
        }
        match (&self.quant, mirrors) {
            (Some(q), _) => Ok(q.down.matvec_into(&ws.glu, &mut ws.y)?),
            (None, Some(m)) => Ok(self.w_down.matvec_packed(&m.down, &ws.glu, &mut ws.y)?),
            (None, None) => Ok(self.w_down.matvec_into(&ws.glu, &mut ws.y)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::init;

    fn small_mlp(activation: Activation) -> GluMlp {
        let mut rng = init::rng(9);
        GluMlp::new(
            init::xavier_matrix(&mut rng, 12, 8),
            init::xavier_matrix(&mut rng, 12, 8),
            init::xavier_matrix(&mut rng, 8, 12),
            activation,
        )
    }

    #[test]
    fn shapes_and_params() {
        let mlp = small_mlp(Activation::Silu);
        assert_eq!(mlp.d_model(), 8);
        assert_eq!(mlp.d_ff(), 12);
        assert_eq!(mlp.num_params(), 3 * 8 * 12);
    }

    #[test]
    fn dense_forward_matches_manual_composition() {
        let mlp = small_mlp(Activation::Silu);
        let x = vec![0.3; 8];
        let up = mlp.up_activations(&x).unwrap();
        let gate = mlp.gate_activations(&x).unwrap();
        let glu: Vec<f32> = up.iter().zip(gate.iter()).map(|(u, g)| u * g).collect();
        let manual = mlp.w_down.matvec(&glu).unwrap();
        let fwd = mlp.forward_dense(&x).unwrap();
        for (a, b) in manual.iter().zip(fwd.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn input_pruned_projections_match_masked_inputs() {
        let mlp = small_mlp(Activation::Silu);
        let x = vec![0.5, -0.2, 0.1, 0.3, -0.4, 0.2, 0.0, 0.6];
        let active = vec![0usize, 2, 3, 7];
        let mut masked = vec![0.0f32; 8];
        for &i in &active {
            masked[i] = x[i];
        }
        let up_pruned = mlp.up_activations_input_pruned(&x, &active).unwrap();
        let up_masked = mlp.up_activations(&masked).unwrap();
        for (a, b) in up_pruned.iter().zip(up_masked.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
        let gate_pruned = mlp.gate_activations_input_pruned(&x, &active).unwrap();
        let gate_masked = mlp.gate_activations(&masked).unwrap();
        for (a, b) in gate_pruned.iter().zip(gate_masked.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn negative_gate_bias_induces_natural_sparsity_under_relu() {
        let mut mlp = small_mlp(Activation::Relu);
        mlp.gate_bias = Some(vec![-10.0; 12]);
        let x = vec![0.1; 8];
        let gate = mlp.gate_activations(&x).unwrap();
        assert!(gate.iter().all(|g| *g == 0.0));
        let glu = mlp.glu_activations(&x).unwrap();
        assert!(glu.iter().all(|g| *g == 0.0));
    }

    #[test]
    fn down_from_glu_matches_masked_dense() {
        let mlp = small_mlp(Activation::Silu);
        let x = vec![0.5, -0.2, 0.1, 0.3, -0.4, 0.2, 0.0, 0.6];
        let glu = mlp.glu_activations(&x).unwrap();
        let active: Vec<usize> = (0..6).collect();
        let sparse = mlp.down_from_glu(&glu, &active).unwrap();
        let mut masked = glu.clone();
        for v in masked.iter_mut().skip(6) {
            *v = 0.0;
        }
        let dense = mlp.w_down.matvec(&masked).unwrap();
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dense_mlp_hook_reports_dense_access() {
        let mlp = small_mlp(Activation::Silu);
        let mut hook = DenseMlp;
        let out = hook.forward(0, &mlp, &[0.1; 8]).unwrap();
        assert_eq!(out.access, MlpAccessRecord::dense());
        assert_eq!(out.y.len(), 8);
        assert_eq!(hook.name(), "dense");
        assert!((out.access.mlp_density(8, 12) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn column_access_counts() {
        let a = ColumnAccess::All;
        assert_eq!(a.count(10), 10);
        assert!((a.density(10) - 1.0).abs() < 1e-6);
        let s = ColumnAccess::Subset(vec![1, 3, 5]);
        assert_eq!(s.count(10), 3);
        assert!((s.density(10) - 0.3).abs() < 1e-6);
        assert_eq!(s.indices(10), vec![1, 3, 5]);
        assert_eq!(a.indices(3), vec![0, 1, 2]);
        assert!((ColumnAccess::All.density(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn matrix_access_densities_respect_axis() {
        // input axis over d_model = 8
        let input = MatrixAccess::input((0..4).collect());
        assert!((input.weight_density(8, 12) - 0.5).abs() < 1e-6);
        // output axis over d_ff = 12
        let output = MatrixAccess::output((0..3).collect());
        assert!((output.weight_density(8, 12) - 0.25).abs() < 1e-6);
        assert_eq!(MatrixAccess::dense().weight_density(8, 12), 1.0);
        assert_eq!(input.axis_len(8, 12), 8);
        assert_eq!(output.axis_len(8, 12), 12);
    }

    #[test]
    fn access_record_density_mixes_matrices() {
        // DIP-style record: up/gate input-pruned to 50%, down pruned to 50%
        let rec = MlpAccessRecord {
            up: MatrixAccess::input((0..4).collect()),
            gate: MatrixAccess::input((0..4).collect()),
            down: MatrixAccess::input((0..6).collect()),
        };
        assert!((rec.mlp_density(8, 12) - 0.5).abs() < 1e-6);
        assert_eq!(rec.access(MlpMatrix::Down).slices.count(12), 6);

        // DejaVu-style record: all three pruned to the same neuron set
        let neurons: Vec<usize> = (0..6).collect();
        let rec = MlpAccessRecord {
            up: MatrixAccess::output(neurons.clone()),
            gate: MatrixAccess::output(neurons.clone()),
            down: MatrixAccess::input(neurons),
        };
        assert!((rec.mlp_density(8, 12) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn matrix_display() {
        assert_eq!(MlpMatrix::Up.to_string(), "up");
        assert_eq!(MlpMatrix::ALL.len(), 3);
    }
}
