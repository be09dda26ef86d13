//! Dynamic Input Pruning (DIP) — the paper's primary contribution
//! (Section 4, Eqs. 7–8, Fig. 5d).
//!
//! DIP needs no predictor: it prunes the *input* of the MLP block by
//! per-token top-k magnitude (which sparsifies the columns of `W_u` and
//! `W_g`), computes the approximate GLU activations from the surviving
//! inputs, and prunes those by per-token top-k magnitude again (which
//! sparsifies the columns of `W_d`). All three matrices become sparse, and
//! the only error source is the approximation introduced by the pruned gating
//! — the predictor error of DejaVu-style methods is traded for approximation
//! error.

use crate::allocation::DensityAllocation;
use crate::error::to_lm_error;
use lm::{
    GluMlp, MatrixAccess, MlpAccessRecord, MlpAccessScratch, MlpBatchWorkspace, MlpForward,
    MlpForwardOutput, MlpWorkspace, SliceAxis,
};
use serde::{Deserialize, Serialize};
use tensor::topk;

/// The Dynamic Input Pruning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dip {
    input_density: f32,
    glu_density: f32,
}

impl Dip {
    /// Creates DIP with explicit input (`W_u`/`W_g` column) and GLU
    /// (`W_d` column) densities.
    ///
    /// # Errors
    ///
    /// Returns an error if either density is outside `(0, 1]`.
    pub fn new(input_density: f32, glu_density: f32) -> crate::Result<Self> {
        super::validate_density("input_density", input_density)?;
        super::validate_density("glu_density", glu_density)?;
        Ok(Dip {
            input_density,
            glu_density,
        })
    }

    /// Creates DIP for a target overall MLP density using a density
    /// allocation model (Appendix B.1).
    ///
    /// # Errors
    ///
    /// Propagates allocation and validation errors.
    pub fn for_target_density(
        target_mlp_density: f32,
        allocation: &DensityAllocation,
    ) -> crate::Result<Self> {
        let (input_density, glu_density) = allocation.split(target_mlp_density)?;
        Dip::new(input_density, glu_density)
    }

    /// The input (up/gate column) density.
    pub fn input_density(&self) -> f32 {
        self.input_density
    }

    /// The GLU (down column) density.
    pub fn glu_density(&self) -> f32 {
        self.glu_density
    }

    /// The overall MLP weight density implied by the two knobs.
    pub fn mlp_density(&self) -> f32 {
        (2.0 * self.input_density + self.glu_density) / 3.0
    }
}

impl MlpForward for Dip {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        // Step 1: per-token top-k on |x| -> which columns of W_u / W_g to load.
        let k_in = topk::count_for_density(x.len(), self.input_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active_in = topk::top_k_by_magnitude(x, k_in);

        // Step 2: approximate GLU activations from the pruned input.
        let up = mlp.up_activations_input_pruned(x, &active_in)?;
        let gate = mlp.gate_activations_input_pruned(x, &active_in)?;
        let glu: Vec<f32> = up.iter().zip(gate.iter()).map(|(u, g)| u * g).collect();

        // Step 3: per-token top-k on |G̃LU(x)| -> which columns of W_d to load.
        let k_glu = topk::count_for_density(glu.len(), self.glu_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active_glu = topk::top_k_by_magnitude(&glu, k_glu);
        let y = mlp.down_from_glu(&glu, &active_glu)?;

        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::input(active_in.clone()),
                gate: MatrixAccess::input(active_in),
                down: MatrixAccess::input(active_glu),
            },
        })
    }

    fn forward_scratch(
        &mut self,
        _layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        ws.ensure(mlp.d_model(), mlp.d_ff());

        let k_in = topk::count_for_density(x.len(), self.input_density)
            .map_err(|e| to_lm_error(e.into()))?;
        topk::top_k_by_magnitude_into(x, k_in, &mut ws.keys, &mut ws.active_a);

        mlp.up_activations_input_pruned_into(x, &ws.active_a, &mut ws.up, mirrors.map(|m| &m.up))?;
        mlp.gate_activations_input_pruned_into(
            x,
            &ws.active_a,
            &mut ws.gate,
            mirrors.map(|m| &m.gate),
        )?;
        for ((g, u), gate) in ws.glu.iter_mut().zip(ws.up.iter()).zip(ws.gate.iter()) {
            *g = u * gate;
        }

        let k_glu = topk::count_for_density(ws.glu.len(), self.glu_density)
            .map_err(|e| to_lm_error(e.into()))?;
        topk::top_k_by_magnitude_into(&ws.glu, k_glu, &mut ws.keys, &mut ws.active_b);
        mlp.down_from_glu_into(&ws.glu, &ws.active_b, &mut ws.y, mirrors.map(|m| &m.down))?;

        access.up.set_subset(SliceAxis::Input, &ws.active_a);
        access.gate.set_subset(SliceAxis::Input, &ws.active_a);
        access.down.set_subset(SliceAxis::Input, &ws.active_b);
        Ok(())
    }

    /// DIP is stateless, so one instance may drive a whole batch lane.
    fn batch_fusable(&self) -> bool {
        true
    }

    /// Fused batched DIP: per-row top-k selections run row by row (cheap,
    /// O(d) each), then **one** gathered weight pass per matrix serves the
    /// whole batch through the CSR-batched kernels — each row's reduction
    /// stays in its own active-list order, so every row is bitwise
    /// identical to [`Dip::forward_scratch`] on that row.
    fn forward_batch_scratch(
        &mut self,
        layer: usize,
        mlp: &GluMlp,
        xs: &[f32],
        rows: usize,
        ws: &mut MlpBatchWorkspace,
        accesses: &mut [MlpAccessScratch],
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        let (d_model, d_ff) = (mlp.d_model(), mlp.d_ff());
        if rows == 1 {
            // a single row gains nothing from the CSR kernels; take the
            // (mirror-capable) single-token path
            self.forward_scratch(layer, mlp, xs, &mut ws.row_ws, &mut accesses[0], mirrors)?;
            ws.ensure(1, d_model, d_ff);
            ws.y.copy_from_slice(&ws.row_ws.y);
            return Ok(());
        }
        ws.ensure(rows, d_model, d_ff);

        let k_in = topk::count_for_density(d_model, self.input_density)
            .map_err(|e| to_lm_error(e.into()))?;
        ws.active_in_offsets.push(0);
        for r in 0..rows {
            let x = &xs[r * d_model..(r + 1) * d_model];
            topk::top_k_by_magnitude_into(x, k_in, &mut ws.keys, &mut ws.row_active);
            ws.active_in.extend_from_slice(&ws.row_active);
            ws.active_in_offsets.push(ws.active_in.len());
        }
        mlp.up_activations_input_pruned_batch_into(
            xs,
            rows,
            &ws.active_in,
            &ws.active_in_offsets,
            &mut ws.up,
            mirrors.map(|m| &m.up),
        )?;
        mlp.gate_activations_input_pruned_batch_into(
            xs,
            rows,
            &ws.active_in,
            &ws.active_in_offsets,
            &mut ws.gate,
            mirrors.map(|m| &m.gate),
        )?;
        for ((g, u), gate) in ws.glu.iter_mut().zip(ws.up.iter()).zip(ws.gate.iter()) {
            *g = u * gate;
        }

        let k_glu =
            topk::count_for_density(d_ff, self.glu_density).map_err(|e| to_lm_error(e.into()))?;
        ws.active_glu_offsets.push(0);
        for r in 0..rows {
            let glu = &ws.glu[r * d_ff..(r + 1) * d_ff];
            topk::top_k_by_magnitude_into(glu, k_glu, &mut ws.keys, &mut ws.row_active);
            ws.active_glu.extend_from_slice(&ws.row_active);
            ws.active_glu_offsets.push(ws.active_glu.len());
        }
        mlp.down_from_glu_batch_into(
            &ws.glu,
            rows,
            &ws.active_glu,
            &ws.active_glu_offsets,
            &mut ws.y,
            mirrors.map(|m| &m.down),
        )?;

        for (r, access) in accesses.iter_mut().enumerate().take(rows) {
            let in_row = &ws.active_in[ws.active_in_offsets[r]..ws.active_in_offsets[r + 1]];
            let glu_row = &ws.active_glu[ws.active_glu_offsets[r]..ws.active_glu_offsets[r + 1]];
            access.up.set_subset(SliceAxis::Input, in_row);
            access.gate.set_subset(SliceAxis::Input, in_row);
            access.down.set_subset(SliceAxis::Input, glu_row);
        }
        Ok(())
    }

    fn name(&self) -> String {
        format!("dip@{:.2}/{:.2}", self.input_density, self.glu_density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, eval, mlp::DenseMlp, ModelConfig};

    fn model() -> lm::TransformerModel {
        build_synthetic(&ModelConfig::tiny(), 23).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let dip = Dip::new(0.6, 0.4).unwrap();
        assert!((dip.input_density() - 0.6).abs() < 1e-6);
        assert!((dip.glu_density() - 0.4).abs() < 1e-6);
        assert!((dip.mlp_density() - (2.0 * 0.6 + 0.4) / 3.0).abs() < 1e-6);
        assert!(Dip::new(0.0, 0.5).is_err());
        assert!(Dip::new(0.5, 1.5).is_err());
        assert!(dip.name().contains("dip@"));
    }

    #[test]
    fn target_density_constructor_respects_budget() {
        let dip = Dip::for_target_density(0.5, &DensityAllocation::balanced()).unwrap();
        assert!((dip.mlp_density() - 0.5).abs() < 0.02);
    }

    #[test]
    fn full_density_matches_dense_forward() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x: Vec<f32> = (0..mlp.d_model())
            .map(|i| (i as f32 - 15.0) / 30.0)
            .collect();
        let dense = mlp.forward_dense(&x).unwrap();
        let mut dip = Dip::new(1.0, 1.0).unwrap();
        let out = dip.forward(0, mlp, &x).unwrap();
        for (a, b) in out.y.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn access_record_reports_input_axis_for_up_and_gate() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x = vec![0.3; mlp.d_model()];
        let mut dip = Dip::new(0.5, 0.5).unwrap();
        let out = dip.forward(0, mlp, &x).unwrap();
        assert_eq!(out.access.up.axis, lm::SliceAxis::Input);
        assert_eq!(out.access.gate.axis, lm::SliceAxis::Input);
        assert_eq!(out.access.down.axis, lm::SliceAxis::Input);
        let d = out.access.mlp_density(mlp.d_model(), mlp.d_ff());
        assert!((d - 0.5).abs() < 0.03, "density {d}");
    }

    #[test]
    fn dip_beats_gate_pruning_at_equal_mlp_density() {
        // Table 1's headline comparison at 50% MLP density: DIP (all-three
        // sparsification guided by magnitudes) should be at least as good as
        // Gate pruning (selection from the partial gate signal only).
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 6, 32, 40).unwrap();

        let mut dip = Dip::for_target_density(0.5, &DensityAllocation::balanced()).unwrap();
        let ppl_dip = eval::perplexity(&model, &mut dip, &seqs).unwrap();

        let gate_density = crate::threshold::SparsityScheme::TwoOfThree
            .activation_density_for_target(0.5)
            .unwrap();
        let mut gate = crate::strategies::GatePruning::new(gate_density).unwrap();
        let ppl_gate = eval::perplexity(&model, &mut gate, &seqs).unwrap();

        assert!((ppl_dip.mean_mlp_density - 0.5).abs() < 0.03);
        assert!((ppl_gate.mean_mlp_density - 0.5).abs() < 0.03);
        assert!(
            ppl_dip.perplexity <= ppl_gate.perplexity,
            "DIP ({}) should not lose to Gate pruning ({}) at equal density",
            ppl_dip.perplexity,
            ppl_gate.perplexity
        );
    }

    #[test]
    fn perplexity_degrades_monotonically_with_density() {
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 5, 32, 41).unwrap();
        let dense = eval::perplexity(&model, &mut DenseMlp, &seqs)
            .unwrap()
            .perplexity;
        let mut previous = dense;
        for density in [0.8f32, 0.6, 0.4] {
            let mut dip = Dip::for_target_density(density, &DensityAllocation::balanced()).unwrap();
            let ppl = eval::perplexity(&model, &mut dip, &seqs)
                .unwrap()
                .perplexity;
            // small slack: on a short synthetic corpus mild pruning can land a
            // hair below the dense perplexity
            assert!(
                ppl >= dense * 0.97,
                "density {density}: ppl {ppl} vs dense {dense}"
            );
            assert!(
                ppl >= previous * 0.97,
                "ppl should not improve as density falls: {ppl} vs {previous}"
            );
            previous = ppl;
        }
        assert!(
            previous > dense * 1.02,
            "aggressive pruning (40% density) should measurably hurt: {previous} vs {dense}"
        );
    }
}
