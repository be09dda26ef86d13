//! GLU pruning (Fig. 5a) and its oracle variant, plus the thresholding-study
//! variant used by the Fig. 4 reproduction.

use crate::error::to_lm_error;
use crate::threshold::ThresholdStrategy;
use lm::{
    GluMlp, MatrixAccess, MlpAccessRecord, MlpAccessScratch, MlpForward, MlpForwardOutput,
    MlpWorkspace, SliceAxis,
};
use tensor::topk;

/// Shared scratch body of [`GluPruning`] and [`GluOraclePruning`] (identical
/// computation, different access accounting): dense GLU activations, top-k
/// magnitude selection into `ws.active_a`, pruned down projection.
fn glu_prune_scratch(
    mlp: &GluMlp,
    x: &[f32],
    density: f32,
    ws: &mut MlpWorkspace,
    mirrors: Option<&lm::MlpMirrors>,
) -> lm::Result<()> {
    ws.ensure(mlp.d_model(), mlp.d_ff());
    mlp.up_activations_into(x, &mut ws.up, mirrors.map(|m| &m.up))?;
    mlp.gate_activations_into(x, &mut ws.gate, mirrors.map(|m| &m.gate))?;
    for ((g, u), gate) in ws.glu.iter_mut().zip(ws.up.iter()).zip(ws.gate.iter()) {
        *g = u * gate;
    }
    let k = topk::count_for_density(ws.glu.len(), density).map_err(|e| to_lm_error(e.into()))?;
    topk::top_k_by_magnitude_into(&ws.glu, k, &mut ws.keys, &mut ws.active_a);
    mlp.down_from_glu_into(&ws.glu, &ws.active_a, &mut ws.y, mirrors.map(|m| &m.down))
}

/// GLU pruning: the GLU activations are computed densely, the smallest
/// magnitudes are pruned, and only the corresponding columns of `W_d` are
/// loaded (Eq. 4). `W_u` and `W_g` stay dense, so the MLP density can never
/// drop below 2/3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GluPruning {
    glu_density: f32,
}

impl GluPruning {
    /// Creates GLU pruning keeping the top `glu_density` fraction of GLU
    /// activations per token.
    ///
    /// # Errors
    ///
    /// Returns an error if the density is outside `(0, 1]`.
    pub fn new(glu_density: f32) -> crate::Result<Self> {
        super::validate_density("glu_density", glu_density)?;
        Ok(GluPruning { glu_density })
    }

    /// The configured GLU activation density.
    pub fn glu_density(&self) -> f32 {
        self.glu_density
    }
}

impl MlpForward for GluPruning {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let glu = mlp.glu_activations(x)?;
        let k = topk::count_for_density(glu.len(), self.glu_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active = topk::top_k_by_magnitude(&glu, k);
        let y = mlp.down_from_glu(&glu, &active)?;
        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::dense(),
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
        glu_prune_scratch(mlp, x, self.glu_density, ws, mirrors)?;
        access.up.set_all(SliceAxis::Input);
        access.gate.set_all(SliceAxis::Input);
        access.down.set_subset(SliceAxis::Input, &ws.active_a);
        Ok(())
    }

    fn name(&self) -> String {
        format!("glu-pruning@{:.2}", self.glu_density)
    }
}

/// The GLU-pruning *oracle*: identical outputs to [`GluPruning`], but the
/// access record assumes a perfect predictor told us the surviving neurons in
/// advance, so rows of `W_u`/`W_g` and columns of `W_d` are all skipped.
///
/// This is the upper bound the paper reports as "GLU Pruning (oracle)": the
/// best any predictive scheme could do at a given neuron density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GluOraclePruning {
    neuron_density: f32,
}

impl GluOraclePruning {
    /// Creates the oracle at the given neuron density.
    ///
    /// # Errors
    ///
    /// Returns an error if the density is outside `(0, 1]`.
    pub fn new(neuron_density: f32) -> crate::Result<Self> {
        super::validate_density("neuron_density", neuron_density)?;
        Ok(GluOraclePruning { neuron_density })
    }

    /// The configured neuron density.
    pub fn neuron_density(&self) -> f32 {
        self.neuron_density
    }
}

impl MlpForward for GluOraclePruning {
    fn forward(&mut self, _layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let glu = mlp.glu_activations(x)?;
        let k = topk::count_for_density(glu.len(), self.neuron_density)
            .map_err(|e| to_lm_error(e.into()))?;
        let active = topk::top_k_by_magnitude(&glu, k);
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
        _layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        glu_prune_scratch(mlp, x, self.neuron_density, ws, mirrors)?;
        access.up.set_subset(SliceAxis::Output, &ws.active_a);
        access.gate.set_subset(SliceAxis::Output, &ws.active_a);
        access.down.set_subset(SliceAxis::Input, &ws.active_a);
        Ok(())
    }

    fn name(&self) -> String {
        format!("glu-oracle@{:.2}", self.neuron_density)
    }
}

/// GLU pruning driven by an arbitrary [`ThresholdStrategy`] — used by the
/// Fig. 4 study comparing global, per-layer and per-token thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct GluThresholdPruning {
    threshold: ThresholdStrategy,
    /// Per-layer densities observed during the last evaluation (mean kept
    /// fraction); useful for reproducing the per-layer density plot.
    observed: Vec<(usize, f32)>,
}

impl GluThresholdPruning {
    /// Wraps a thresholding strategy.
    pub fn new(threshold: ThresholdStrategy) -> Self {
        GluThresholdPruning {
            threshold,
            observed: Vec::new(),
        }
    }

    /// The wrapped strategy.
    pub fn threshold(&self) -> &ThresholdStrategy {
        &self.threshold
    }

    /// `(layer, density)` observations recorded since the last reset.
    pub fn observed_densities(&self) -> &[(usize, f32)] {
        &self.observed
    }
}

impl MlpForward for GluThresholdPruning {
    fn forward(&mut self, layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let glu = mlp.glu_activations(x)?;
        let active = self.threshold.select(layer, &glu);
        self.observed
            .push((layer, active.len() as f32 / glu.len().max(1) as f32));
        let y = mlp.down_from_glu(&glu, &active)?;
        Ok(MlpForwardOutput {
            y,
            access: MlpAccessRecord {
                up: MatrixAccess::dense(),
                gate: MatrixAccess::dense(),
                down: MatrixAccess::input(active),
            },
        })
    }

    fn name(&self) -> String {
        format!("glu-{}", self.threshold.name())
    }

    fn reset(&mut self) {
        self.observed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, eval, mlp::DenseMlp, ModelConfig};

    fn model() -> lm::TransformerModel {
        build_synthetic(&ModelConfig::tiny(), 7).unwrap()
    }

    #[test]
    fn full_density_matches_dense_output() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x: Vec<f32> = (0..mlp.d_model()).map(|i| 0.1 * (i as f32 - 8.0)).collect();
        let dense = mlp.forward_dense(&x).unwrap();
        let mut strategy = GluPruning::new(1.0).unwrap();
        let out = strategy.forward(0, mlp, &x).unwrap();
        for (a, b) in out.y.iter().zip(dense.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!((out.access.mlp_density(mlp.d_model(), mlp.d_ff()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn density_accounting_matches_scheme() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x = vec![0.2; mlp.d_model()];

        let mut glu = GluPruning::new(0.5).unwrap();
        let d = glu
            .forward(0, mlp, &x)
            .unwrap()
            .access
            .mlp_density(mlp.d_model(), mlp.d_ff());
        assert!(
            (d - (2.0 + 0.5) / 3.0).abs() < 0.02,
            "glu pruning density {d}"
        );

        let mut oracle = GluOraclePruning::new(0.5).unwrap();
        let d = oracle
            .forward(0, mlp, &x)
            .unwrap()
            .access
            .mlp_density(mlp.d_model(), mlp.d_ff());
        assert!((d - 0.5).abs() < 0.02, "oracle density {d}");
    }

    #[test]
    fn oracle_and_glu_pruning_produce_identical_outputs_at_same_density() {
        let model = model();
        let mlp = &model.layers[1].mlp;
        let x: Vec<f32> = (0..mlp.d_model())
            .map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.5)
            .collect();
        let mut a = GluPruning::new(0.4).unwrap();
        let mut b = GluOraclePruning::new(0.4).unwrap();
        let ya = a.forward(1, mlp, &x).unwrap().y;
        let yb = b.forward(1, mlp, &x).unwrap().y;
        assert_eq!(ya, yb);
    }

    #[test]
    fn pruning_error_grows_as_density_falls() {
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 5, 32, 3).unwrap();
        let dense = eval::perplexity(&model, &mut DenseMlp, &seqs)
            .unwrap()
            .perplexity;
        let mut ppl_prev = dense;
        for density in [0.75f32, 0.5, 0.25] {
            let mut s = GluPruning::new(density).unwrap();
            let ppl = eval::perplexity(&model, &mut s, &seqs).unwrap().perplexity;
            assert!(
                ppl >= dense * 0.97,
                "density {density}: ppl {ppl} < dense {dense}"
            );
            assert!(
                ppl >= ppl_prev * 0.97,
                "perplexity should not improve much as density falls: {ppl} vs {ppl_prev}"
            );
            ppl_prev = ppl;
        }
        // Keeping only the top-25% GLU activations loses very little because
        // the activation magnitudes are heavy-tailed — the same reason the
        // paper's GLU-pruning oracle stays close to the dense model.
        assert!(
            ppl_prev < dense * 1.5,
            "25% GLU density should still be benign"
        );
    }

    #[test]
    fn invalid_densities_are_rejected() {
        assert!(GluPruning::new(0.0).is_err());
        assert!(GluOraclePruning::new(1.5).is_err());
    }

    #[test]
    fn threshold_variant_records_observed_densities() {
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x = vec![0.3; mlp.d_model()];
        let mut s = GluThresholdPruning::new(ThresholdStrategy::top_k(0.25).unwrap());
        s.forward(0, mlp, &x).unwrap();
        s.forward(1, mlp, &x).unwrap();
        assert_eq!(s.observed_densities().len(), 2);
        assert!((s.observed_densities()[0].1 - 0.25).abs() < 0.05);
        assert!(s.name().contains("per-token-topk"));
        s.reset();
        assert!(s.observed_densities().is_empty());
        assert_eq!(s.threshold().name(), "per-token-topk");
    }
}
