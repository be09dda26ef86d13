//! Predictive GLU pruning (DejaVu-style, Fig. 5c).
//!
//! A small trained predictor guesses which GLU activations will be large;
//! only the predicted neurons are computed and loaded. When the predictor is
//! right this sparsifies all three MLP matrices "for free"; when it is wrong
//! it prunes relevant activations — which is exactly what happens on SwiGLU
//! models (Section 3.3) and why DIP drops the predictor entirely.

use crate::error::to_lm_error;
use crate::predictor::Predictor;
use lm::{
    GluMlp, MatrixAccess, MlpAccessRecord, MlpAccessScratch, MlpForward, MlpForwardOutput,
    MlpWorkspace, SliceAxis,
};
use tensor::topk;

/// DejaVu-style predictive pruning with one trained predictor per layer.
#[derive(Debug, Clone)]
pub struct PredictiveGluPruning {
    predictors: Vec<Predictor>,
    neuron_density: f32,
}

impl PredictiveGluPruning {
    /// Wraps a set of per-layer predictors; at inference the top
    /// `neuron_density` fraction of predictor logits is kept.
    ///
    /// # Errors
    ///
    /// Returns an error if the density is outside `(0, 1]` or no predictors
    /// are provided.
    pub fn new(predictors: Vec<Predictor>, neuron_density: f32) -> crate::Result<Self> {
        super::validate_density("neuron_density", neuron_density)?;
        if predictors.is_empty() {
            return Err(crate::DipError::InvalidParameter {
                name: "predictors",
                reason: "need at least one predictor".to_string(),
            });
        }
        Ok(PredictiveGluPruning {
            predictors,
            neuron_density,
        })
    }

    /// The configured neuron density.
    pub fn neuron_density(&self) -> f32 {
        self.neuron_density
    }

    /// Total parameter count of the predictors — the memory overhead this
    /// method adds (up to ~15 % of the MLP in the paper's setups).
    pub fn predictor_params(&self) -> usize {
        self.predictors.iter().map(|p| p.num_params()).sum()
    }

    /// Number of per-layer predictors.
    pub fn n_layers(&self) -> usize {
        self.predictors.len()
    }
}

impl MlpForward for PredictiveGluPruning {
    fn forward(&mut self, layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let predictor = self.predictors.get(layer).ok_or_else(|| {
            to_lm_error(crate::DipError::CalibrationMismatch {
                reason: format!("no predictor for layer {layer}"),
            })
        })?;
        let logits = predictor.forward(x).map_err(to_lm_error)?;
        let k = topk::count_for_density(logits.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active = topk::top_k_indices(&logits, k);

        let glu = super::glu_at_neurons(mlp, x, &active)?;
        let y = mlp.down_from_glu(&glu, &active)?;
        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::output(active.clone()),
                gate: MatrixAccess::output(active.clone()),
                down: MatrixAccess::input(active),
            },
        })
    }

    fn forward_scratch(
        &mut self,
        layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        let predictor = self.predictors.get(layer).ok_or_else(|| {
            to_lm_error(crate::DipError::CalibrationMismatch {
                reason: format!("no predictor for layer {layer}"),
            })
        })?;
        // the predictor's own forward still allocates its logits (cold
        // two-layer MLP; DejaVu is not on the zero-allocation hot path)
        let logits = predictor.forward(x).map_err(to_lm_error)?;
        let k = topk::count_for_density(logits.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        topk::top_k_indices_into(&logits, k, &mut ws.keys, &mut ws.active_a);

        super::glu_at_neurons_scratch(mlp, x, ws)?;
        mlp.down_from_glu_into(&ws.glu, &ws.active_a, &mut ws.y, mirrors.map(|m| &m.down))?;

        access.up.set_subset(SliceAxis::Output, &ws.active_a);
        access.gate.set_subset(SliceAxis::Output, &ws.active_a);
        access.down.set_subset(SliceAxis::Input, &ws.active_a);
        Ok(())
    }

    fn name(&self) -> String {
        format!("dejavu@{:.2}", self.neuron_density)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{train_predictors, PredictorTrainingConfig};
    use lm::{build_synthetic, eval, trace::collect_activation_trace, ModelConfig};

    fn trained_strategy(density: f32) -> (lm::TransformerModel, PredictiveGluPruning) {
        let model = build_synthetic(&ModelConfig::tiny(), 17).unwrap();
        let seqs = eval::standard_eval_corpus(&model, 3, 14, 21).unwrap();
        let trace = collect_activation_trace(&model, &seqs).unwrap();
        let cfg = PredictorTrainingConfig {
            hidden: 24,
            epochs: 3,
            ..PredictorTrainingConfig::default()
        };
        let predictors = train_predictors(&model, &trace, &cfg).unwrap();
        let strategy = PredictiveGluPruning::new(predictors, density).unwrap();
        (model, strategy)
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(PredictiveGluPruning::new(vec![], 0.5).is_err());
        let (_, s) = trained_strategy(0.5);
        assert!((s.neuron_density() - 0.5).abs() < 1e-6);
        assert!(s.predictor_params() > 0);
        assert_eq!(s.n_layers(), ModelConfig::tiny().n_layers);
    }

    #[test]
    fn forward_reports_all_three_matrices_sparse() {
        let (model, mut s) = trained_strategy(0.5);
        let mlp = &model.layers[0].mlp;
        let x = vec![0.2; mlp.d_model()];
        let out = s.forward(0, mlp, &x).unwrap();
        let d = out.access.mlp_density(mlp.d_model(), mlp.d_ff());
        assert!((d - 0.5).abs() < 0.03, "density {d}");
        assert!(s.name().starts_with("dejavu@"));
    }

    #[test]
    fn missing_predictor_layer_is_an_error() {
        let (model, mut s) = trained_strategy(0.5);
        let mlp = &model.layers[0].mlp;
        let x = vec![0.2; mlp.d_model()];
        assert!(s.forward(99, mlp, &x).is_err());
    }

    #[test]
    fn predictive_pruning_is_worse_than_oracle_on_swiglu() {
        // The central observation of Section 3.3: with imperfect predictors,
        // predictive GLU pruning on a SwiGLU model loses accuracy relative to
        // magnitude (oracle) selection at the same density.
        let (model, mut dejavu) = trained_strategy(0.5);
        let seqs = eval::standard_eval_corpus(&model, 2, 14, 33).unwrap();
        let mut oracle = crate::strategies::GluOraclePruning::new(0.5).unwrap();
        let ppl_oracle = eval::perplexity(&model, &mut oracle, &seqs)
            .unwrap()
            .perplexity;
        let ppl_dejavu = eval::perplexity(&model, &mut dejavu, &seqs)
            .unwrap()
            .perplexity;
        assert!(
            ppl_dejavu >= ppl_oracle,
            "dejavu {ppl_dejavu} should not beat the oracle {ppl_oracle}"
        );
    }
}
