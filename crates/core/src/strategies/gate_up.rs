//! Gate pruning and Up pruning (Fig. 5b and its mirror image).
//!
//! Both compute one of the two projections densely, select neurons from that
//! *partial* signal, and then compute the other projection plus the down
//! projection only for the selected neurons. They can reach 66 % MLP
//! sparsity, but the selection is based on incomplete information, which is
//! why they trail DIP in the paper's tables.

use crate::error::to_lm_error;
use lm::{
    GluMlp, MatrixAccess, MlpAccessRecord, MlpAccessScratch, MlpForward, MlpForwardOutput,
    MlpWorkspace, SliceAxis,
};
use tensor::topk;

/// Gate pruning: select neurons by `|σ(W_g x)|` (gate computed densely), then
/// load only the selected rows of `W_u` and columns of `W_d` (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatePruning {
    neuron_density: f32,
}

impl GatePruning {
    /// Creates gate pruning at the given neuron density.
    ///
    /// # Errors
    ///
    /// Returns an error if the density is outside `(0, 1]`.
    pub fn new(neuron_density: f32) -> crate::Result<Self> {
        super::validate_density("neuron_density", neuron_density)?;
        Ok(GatePruning { neuron_density })
    }

    /// The configured neuron density.
    pub fn neuron_density(&self) -> f32 {
        self.neuron_density
    }
}

impl MlpForward for GatePruning {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let gate = mlp.gate_activations(x)?;
        let k = topk::count_for_density(gate.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active = topk::top_k_by_magnitude(&gate, k);

        let up = mlp.w_up.matvec_rows(x, &active)?;
        let mut glu = vec![0.0f32; mlp.d_ff()];
        for &i in &active {
            glu[i] = up[i] * gate[i];
        }
        let y = mlp.down_from_glu(&glu, &active)?;
        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::output(active.clone()),
                gate: MatrixAccess::dense(),
                down: MatrixAccess::input(active),
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
        mlp.gate_activations_into(x, &mut ws.gate, mirrors.map(|m| &m.gate))?;
        let k = topk::count_for_density(ws.gate.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        topk::top_k_by_magnitude_into(&ws.gate, k, &mut ws.keys, &mut ws.active_a);

        mlp.w_up.matvec_rows_into(x, &ws.active_a, &mut ws.up)?;
        ws.glu.fill(0.0);
        for &i in &ws.active_a {
            ws.glu[i] = ws.up[i] * ws.gate[i];
        }
        mlp.down_from_glu_into(&ws.glu, &ws.active_a, &mut ws.y, mirrors.map(|m| &m.down))?;

        access.up.set_subset(SliceAxis::Output, &ws.active_a);
        access.gate.set_all(SliceAxis::Input);
        access.down.set_subset(SliceAxis::Input, &ws.active_a);
        Ok(())
    }

    fn name(&self) -> String {
        format!("gate-pruning@{:.2}", self.neuron_density)
    }
}

/// Up pruning: select neurons by `|W_u x|` (up computed densely), then load
/// only the selected rows of `W_g` and columns of `W_d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpPruning {
    neuron_density: f32,
}

impl UpPruning {
    /// Creates up pruning at the given neuron density.
    ///
    /// # Errors
    ///
    /// Returns an error if the density is outside `(0, 1]`.
    pub fn new(neuron_density: f32) -> crate::Result<Self> {
        super::validate_density("neuron_density", neuron_density)?;
        Ok(UpPruning { neuron_density })
    }

    /// The configured neuron density.
    pub fn neuron_density(&self) -> f32 {
        self.neuron_density
    }
}

impl MlpForward for UpPruning {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let up = mlp.up_activations(x)?;
        let k = topk::count_for_density(up.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active = topk::top_k_by_magnitude(&up, k);

        let mut gate_pre = mlp.w_gate.matvec_rows(x, &active)?;
        if let Some(bias) = &mlp.gate_bias {
            for &i in &active {
                gate_pre[i] += bias[i];
            }
        }
        let mut glu = vec![0.0f32; mlp.d_ff()];
        for &i in &active {
            glu[i] = up[i] * mlp.activation.apply_scalar(gate_pre[i]);
        }
        let y = mlp.down_from_glu(&glu, &active)?;
        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::dense(),
                gate: MatrixAccess::output(active.clone()),
                down: MatrixAccess::input(active),
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
        mlp.up_activations_into(x, &mut ws.up, mirrors.map(|m| &m.up))?;
        let k = topk::count_for_density(ws.up.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        topk::top_k_by_magnitude_into(&ws.up, k, &mut ws.keys, &mut ws.active_a);

        mlp.w_gate.matvec_rows_into(x, &ws.active_a, &mut ws.gate)?;
        if let Some(bias) = &mlp.gate_bias {
            for &i in &ws.active_a {
                ws.gate[i] += bias[i];
            }
        }
        ws.glu.fill(0.0);
        for &i in &ws.active_a {
            ws.glu[i] = ws.up[i] * mlp.activation.apply_scalar(ws.gate[i]);
        }
        mlp.down_from_glu_into(&ws.glu, &ws.active_a, &mut ws.y, mirrors.map(|m| &m.down))?;

        access.up.set_all(SliceAxis::Input);
        access.gate.set_subset(SliceAxis::Output, &ws.active_a);
        access.down.set_subset(SliceAxis::Input, &ws.active_a);
        Ok(())
    }

    fn name(&self) -> String {
        format!("up-pruning@{:.2}", self.neuron_density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, eval, mlp::DenseMlp, ModelConfig};

    fn model() -> lm::TransformerModel {
        build_synthetic(&ModelConfig::tiny(), 8).unwrap()
    }

    #[test]
    fn full_density_recovers_dense_output() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x: Vec<f32> = (0..mlp.d_model())
            .map(|i| (i as f32 - 10.0) / 20.0)
            .collect();
        let dense = mlp.forward_dense(&x).unwrap();
        for strategy in [
            &mut GatePruning::new(1.0).unwrap() as &mut dyn MlpForward,
            &mut UpPruning::new(1.0).unwrap() as &mut dyn MlpForward,
        ] {
            let out = strategy.forward(0, mlp, &x).unwrap();
            for (a, b) in out.y.iter().zip(dense.iter()) {
                assert!((a - b).abs() < 1e-4, "{}", strategy.name());
            }
        }
    }

    #[test]
    fn density_accounting_is_two_of_three() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x = vec![0.25; mlp.d_model()];
        let mut gate = GatePruning::new(0.5).unwrap();
        let d = gate
            .forward(0, mlp, &x)
            .unwrap()
            .access
            .mlp_density(mlp.d_model(), mlp.d_ff());
        assert!(
            (d - (1.0 + 2.0 * 0.5) / 3.0).abs() < 0.02,
            "gate density {d}"
        );

        let mut up = UpPruning::new(0.5).unwrap();
        let d = up
            .forward(0, mlp, &x)
            .unwrap()
            .access
            .mlp_density(mlp.d_model(), mlp.d_ff());
        assert!((d - (1.0 + 2.0 * 0.5) / 3.0).abs() < 0.02, "up density {d}");
    }

    #[test]
    fn partial_signal_selection_is_worse_than_oracle() {
        // Gate/Up pruning select neurons from partial information, so at the
        // same neuron density their perplexity should not beat the oracle's.
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 2, 14, 4).unwrap();
        let mut oracle = crate::strategies::GluOraclePruning::new(0.4).unwrap();
        let ppl_oracle = eval::perplexity(&model, &mut oracle, &seqs)
            .unwrap()
            .perplexity;
        let mut gate = GatePruning::new(0.4).unwrap();
        let ppl_gate = eval::perplexity(&model, &mut gate, &seqs)
            .unwrap()
            .perplexity;
        let mut up = UpPruning::new(0.4).unwrap();
        let ppl_up = eval::perplexity(&model, &mut up, &seqs).unwrap().perplexity;
        assert!(
            ppl_gate >= ppl_oracle * 0.999,
            "gate {ppl_gate} vs oracle {ppl_oracle}"
        );
        assert!(
            ppl_up >= ppl_oracle * 0.999,
            "up {ppl_up} vs oracle {ppl_oracle}"
        );
    }

    #[test]
    fn pruning_degrades_relative_to_dense() {
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 2, 14, 4).unwrap();
        let dense = eval::perplexity(&model, &mut DenseMlp, &seqs)
            .unwrap()
            .perplexity;
        let mut gate = GatePruning::new(0.3).unwrap();
        let ppl = eval::perplexity(&model, &mut gate, &seqs)
            .unwrap()
            .perplexity;
        assert!(ppl >= dense);
    }

    #[test]
    fn invalid_densities_are_rejected() {
        assert!(GatePruning::new(0.0).is_err());
        assert!(UpPruning::new(2.0).is_err());
    }

    #[test]
    fn names_include_density() {
        assert!(GatePruning::new(0.5).unwrap().name().contains("0.50"));
        assert!(UpPruning::new(0.25).unwrap().name().contains("0.25"));
    }
}
