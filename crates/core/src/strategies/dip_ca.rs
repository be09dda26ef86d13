//! Cache-aware Dynamic Input Pruning (DIP-CA, Section 5.2, Eq. 10, Alg. 1).
//!
//! DIP-CA keeps DIP's per-token top-k selection but re-weights the magnitude
//! scores with the current DRAM cache state before the selection:
//!
//! `s = |x| * (c + γ (1 - c)) / ||x||_inf`
//!
//! where `c` is the binary "is this column currently cached" mask and
//! `γ ∈ (0, 1]` penalises non-cached columns. Activations in the broad
//! middle of the magnitude distribution (which contribute similarly to the
//! output — Fig. 10 left) get re-ordered in favour of cached columns, which
//! raises the cache hit rate and therefore throughput, while the strongest
//! activations still win even when not cached.
//!
//! The strategy owns one LFU cache (from the `hwsim` crate) per layer and per
//! pruned dimension, sized from a [`hwsim::BlockCacheCapacity`] allocation,
//! so its view of "what is cached" is exactly the simulator's.

use crate::error::{DipError, Result};
use hwsim::cache::LfuColumnCache;
use hwsim::{BlockCacheCapacity, ColumnCache};
use lm::{
    GluMlp, MatrixAccess, MlpAccessRecord, MlpAccessScratch, MlpBatchWorkspace, MlpForward,
    MlpForwardOutput, MlpWorkspace, SliceAxis,
};
use tensor::topk;

use crate::error::to_lm_error;

/// Per-layer caches: one over the input (`d_model`) dimension shared by
/// `W_u`/`W_g`, one over the intermediate (`d_ff`) dimension for `W_d`.
#[derive(Debug)]
struct LayerCaches {
    input: LfuColumnCache,
    glu: LfuColumnCache,
}

/// Cache-aware DIP.
#[derive(Debug)]
pub struct DipCacheAware {
    input_density: f32,
    glu_density: f32,
    gamma: f32,
    caches: Vec<LayerCaches>,
    capacities: Vec<BlockCacheCapacity>,
}

impl DipCacheAware {
    /// Creates DIP-CA.
    ///
    /// `capacities` must contain one entry per transformer layer; the
    /// up/gate (input-dimension) cache uses the smaller of the up and gate
    /// column budgets, the down cache uses the down budget.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidParameter`] for densities outside `(0, 1]`,
    /// `gamma` outside `(0, 1]`, or an empty capacity list.
    pub fn new(
        input_density: f32,
        glu_density: f32,
        gamma: f32,
        d_model: usize,
        d_ff: usize,
        capacities: Vec<BlockCacheCapacity>,
    ) -> Result<Self> {
        super::validate_density("input_density", input_density)?;
        super::validate_density("glu_density", glu_density)?;
        if !(gamma.is_finite() && gamma > 0.0 && gamma <= 1.0) {
            return Err(DipError::InvalidParameter {
                name: "gamma",
                reason: format!("must be in (0, 1], got {gamma}"),
            });
        }
        if capacities.is_empty() {
            return Err(DipError::InvalidParameter {
                name: "capacities",
                reason: "need at least one layer capacity".to_string(),
            });
        }
        let caches = capacities
            .iter()
            .map(|c| LayerCaches {
                input: LfuColumnCache::new(d_model, c.up.min(c.gate)),
                glu: LfuColumnCache::new(d_ff, c.down),
            })
            .collect();
        Ok(DipCacheAware {
            input_density,
            glu_density,
            gamma,
            caches,
            capacities,
        })
    }

    /// The cache-aware penalty hyper-parameter γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
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

    /// The per-layer capacities the internal caches were built from.
    pub fn capacities(&self) -> &[BlockCacheCapacity] {
        &self.capacities
    }

    /// Feeds another tenant's weight accesses into the internal cache
    /// models.
    ///
    /// In a multi-session serving deployment the DRAM column cache is shared
    /// by every session, so a cache-aware mask must account for co-tenant
    /// traffic (dense streams, plain DIP, other DIP-CA configurations) that
    /// hits and evicts the same columns. Layers outside the configured
    /// capacity list are ignored.
    pub fn observe_access(&mut self, layer: usize, input_cols: &[usize], glu_cols: &[usize]) {
        if let Some(caches) = self.caches.get_mut(layer) {
            caches.input.access(input_cols);
            caches.glu.access(glu_cols);
        }
    }

    /// Cache-aware re-weighting of magnitude scores (Eq. 10).
    ///
    /// Exposed for testing and for the γ-ablation experiment.
    pub fn reweight(values: &[f32], cached: &[bool], gamma: f32) -> Vec<f32> {
        let norm = inf_norm(values);
        values
            .iter()
            .zip(cached.iter())
            .map(|(&v, &c)| score(v, c, gamma, norm))
            .collect()
    }

    fn select(
        values: &[f32],
        cache: &mut LfuColumnCache,
        density: f32,
        gamma: f32,
    ) -> Result<Vec<usize>> {
        let mut mask = Vec::new();
        let mut keys = Vec::new();
        let mut active = Vec::new();
        Self::select_into(
            values,
            cache,
            density,
            gamma,
            &mut mask,
            &mut keys,
            &mut active,
        )?;
        Ok(active)
    }

    /// Allocation-free [`DipCacheAware::select`]: mask / key / index
    /// buffers are caller-owned and reused. The re-weighted scores go
    /// straight into packed top-k keys, so selection (and therefore the
    /// cache update) is identical to the allocating variant.
    fn select_into(
        values: &[f32],
        cache: &mut LfuColumnCache,
        density: f32,
        gamma: f32,
        mask: &mut Vec<bool>,
        keys: &mut Vec<u64>,
        out: &mut Vec<usize>,
    ) -> Result<()> {
        cache.cached_mask_into(mask);
        let norm = inf_norm(values);
        keys.clear();
        keys.extend(
            values
                .iter()
                .zip(mask.iter())
                .enumerate()
                .map(|(i, (&v, &c))| topk::packed_key(score(v, c, gamma, norm), i)),
        );
        let k = topk::count_for_density(values.len(), density)?;
        topk::top_k_keys_into(keys, k, out);
        cache.access(out);
        Ok(())
    }
}

/// `||x||_inf`, floored so an all-zero token does not divide by zero.
fn inf_norm(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12)
}

/// One column's Eq. 10 score: `|v| * (c + γ (1 - c)) / norm`.
#[inline]
fn score(v: f32, cached: bool, gamma: f32, norm: f32) -> f32 {
    let penalty = if cached { 1.0 } else { gamma };
    v.abs() * penalty / norm
}

impl MlpForward for DipCacheAware {
    fn forward(&mut self, layer: usize, mlp: &GluMlp, x: &[f32]) -> lm::Result<MlpForwardOutput> {
        let caches = self.caches.get_mut(layer).ok_or_else(|| {
            to_lm_error(DipError::CalibrationMismatch {
                reason: format!("no cache allocation for layer {layer}"),
            })
        })?;

        let active_in = Self::select(x, &mut caches.input, self.input_density, self.gamma)
            .map_err(to_lm_error)?;

        let up = mlp.up_activations_input_pruned(x, &active_in)?;
        let gate = mlp.gate_activations_input_pruned(x, &active_in)?;
        let glu: Vec<f32> = up.iter().zip(gate.iter()).map(|(u, g)| u * g).collect();

        let active_glu = Self::select(&glu, &mut caches.glu, self.glu_density, self.gamma)
            .map_err(to_lm_error)?;
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
        layer: usize,
        mlp: &GluMlp,
        x: &[f32],
        ws: &mut MlpWorkspace,
        access: &mut MlpAccessScratch,
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        let caches = self.caches.get_mut(layer).ok_or_else(|| {
            to_lm_error(DipError::CalibrationMismatch {
                reason: format!("no cache allocation for layer {layer}"),
            })
        })?;
        ws.ensure(mlp.d_model(), mlp.d_ff());

        Self::select_into(
            x,
            &mut caches.input,
            self.input_density,
            self.gamma,
            &mut ws.mask,
            &mut ws.keys,
            &mut ws.active_a,
        )
        .map_err(to_lm_error)?;

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

        Self::select_into(
            &ws.glu,
            &mut caches.glu,
            self.glu_density,
            self.gamma,
            &mut ws.mask,
            &mut ws.keys,
            &mut ws.active_b,
        )
        .map_err(to_lm_error)?;
        mlp.down_from_glu_into(&ws.glu, &ws.active_b, &mut ws.y, mirrors.map(|m| &m.down))?;

        access.up.set_subset(SliceAxis::Input, &ws.active_a);
        access.gate.set_subset(SliceAxis::Input, &ws.active_a);
        access.down.set_subset(SliceAxis::Input, &ws.active_b);
        Ok(())
    }

    /// Every session sharing the physical DRAM cache shares *one* DIP-CA
    /// cell (see `spec::SharedMlpForward`), so one instance driving a lane
    /// is exactly the shared-state semantics.
    fn batch_fusable(&self) -> bool {
        true
    }

    /// Fused batched DIP-CA. Selections (and therefore the internal cache
    /// model updates) run row by row in batch order — the same order the
    /// sequential engine would update the shared cell in — and the weight
    /// passes are fused through the CSR-batched gathered kernels. The input
    /// and GLU selections use *disjoint* cache models, so hoisting all
    /// input selections before the up/gate pass (and all GLU selections
    /// before the down pass) preserves each cache's exact access sequence.
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
            self.forward_scratch(layer, mlp, xs, &mut ws.row_ws, &mut accesses[0], mirrors)?;
            ws.ensure(1, d_model, d_ff);
            ws.y.copy_from_slice(&ws.row_ws.y);
            return Ok(());
        }
        let caches = self.caches.get_mut(layer).ok_or_else(|| {
            to_lm_error(DipError::CalibrationMismatch {
                reason: format!("no cache allocation for layer {layer}"),
            })
        })?;
        ws.ensure(rows, d_model, d_ff);

        ws.active_in_offsets.push(0);
        for r in 0..rows {
            let x = &xs[r * d_model..(r + 1) * d_model];
            Self::select_into(
                x,
                &mut caches.input,
                self.input_density,
                self.gamma,
                &mut ws.mask,
                &mut ws.keys,
                &mut ws.row_active,
            )
            .map_err(to_lm_error)?;
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

        ws.active_glu_offsets.push(0);
        for r in 0..rows {
            let glu = &ws.glu[r * d_ff..(r + 1) * d_ff];
            Self::select_into(
                glu,
                &mut caches.glu,
                self.glu_density,
                self.gamma,
                &mut ws.mask,
                &mut ws.keys,
                &mut ws.row_active,
            )
            .map_err(to_lm_error)?;
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
        format!(
            "dip-ca@{:.2}/{:.2}(gamma={})",
            self.input_density, self.glu_density, self.gamma
        )
    }

    fn reset(&mut self) {
        for c in &mut self.caches {
            c.input.clear();
            c.glu.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, eval, ModelConfig};

    fn capacities(config: &ModelConfig, fraction: f64) -> Vec<BlockCacheCapacity> {
        (0..config.n_layers)
            .map(|_| BlockCacheCapacity {
                up: (config.d_model as f64 * fraction) as usize,
                gate: (config.d_model as f64 * fraction) as usize,
                down: (config.d_ff as f64 * fraction) as usize,
            })
            .collect()
    }

    fn model() -> lm::TransformerModel {
        build_synthetic(&ModelConfig::tiny(), 31).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        let c = ModelConfig::tiny();
        assert!(DipCacheAware::new(0.5, 0.5, 0.2, c.d_model, c.d_ff, capacities(&c, 0.5)).is_ok());
        assert!(DipCacheAware::new(0.0, 0.5, 0.2, c.d_model, c.d_ff, capacities(&c, 0.5)).is_err());
        assert!(DipCacheAware::new(0.5, 0.5, 0.0, c.d_model, c.d_ff, capacities(&c, 0.5)).is_err());
        assert!(DipCacheAware::new(0.5, 0.5, 1.5, c.d_model, c.d_ff, capacities(&c, 0.5)).is_err());
        assert!(DipCacheAware::new(0.5, 0.5, 0.2, c.d_model, c.d_ff, vec![]).is_err());
    }

    #[test]
    fn reweight_prefers_cached_columns_in_the_middle_of_the_distribution() {
        let values = vec![10.0, 1.0, 0.9, 0.01];
        let cached = vec![false, false, true, false];
        let scores = DipCacheAware::reweight(&values, &cached, 0.2);
        // the dominant activation survives despite not being cached
        assert!(scores[0] > scores[2]);
        // but the cached mid-range activation now outranks the non-cached one
        assert!(scores[2] > scores[1]);
        // gamma = 1 recovers plain magnitude ordering
        let plain = DipCacheAware::reweight(&values, &cached, 1.0);
        assert!(plain[1] > plain[2]);
    }

    #[test]
    fn gamma_one_matches_plain_dip_outputs() {
        let config = ModelConfig::tiny();
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 2, 12, 3).unwrap();
        let mut dip = crate::strategies::Dip::new(0.5, 0.5).unwrap();
        let mut dip_ca = DipCacheAware::new(
            0.5,
            0.5,
            1.0,
            config.d_model,
            config.d_ff,
            capacities(&config, 0.5),
        )
        .unwrap();
        let a = eval::perplexity(&model, &mut dip, &seqs).unwrap();
        let b = eval::perplexity(&model, &mut dip_ca, &seqs).unwrap();
        assert!((a.perplexity - b.perplexity).abs() / a.perplexity < 1e-5);
    }

    #[test]
    fn cache_aware_masking_increases_hit_rate() {
        // The core DIP-CA claim (Fig. 11): at the same density, re-using
        // cached columns raises the cache hit rate relative to plain DIP.
        let config = ModelConfig::tiny();
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 2, 20, 5).unwrap();
        let caps = capacities(&config, 0.3);

        let hit_rate = |gamma: f32| -> f64 {
            let mut strategy =
                DipCacheAware::new(0.5, 0.5, gamma, config.d_model, config.d_ff, caps.clone())
                    .unwrap();
            // run the evaluation, then replay the recorded accesses through a
            // fresh LFU cache of the same capacity to measure the hit rate
            let mut state = model.new_decode_state();
            let mut caches: Vec<LfuColumnCache> = (0..config.n_layers)
                .map(|_| LfuColumnCache::new(config.d_model, caps[0].up))
                .collect();
            let mut hits = 0u64;
            let mut total = 0u64;
            let mut cols: Vec<usize> = Vec::new();
            for seq in &seqs {
                state.reset();
                for &t in seq {
                    let out = model.forward_token(t, &mut state, &mut strategy).unwrap();
                    for (li, access) in out.mlp_accesses.iter().enumerate() {
                        cols.clear();
                        access.up.slices.extend_indices(config.d_model, &mut cols);
                        let outcome = caches[li].access(&cols);
                        hits += outcome.hits as u64;
                        total += outcome.total() as u64;
                    }
                }
            }
            hits as f64 / total as f64
        };

        let hr_plain = hit_rate(1.0);
        let hr_aware = hit_rate(0.2);
        assert!(
            hr_aware > hr_plain,
            "cache-aware hit rate {hr_aware} should exceed plain {hr_plain}"
        );
    }

    #[test]
    fn accuracy_cost_of_cache_awareness_is_bounded() {
        let config = ModelConfig::tiny();
        let model = model();
        let seqs = eval::standard_eval_corpus(&model, 2, 16, 7).unwrap();
        let mut dip = crate::strategies::Dip::new(0.5, 0.5).unwrap();
        let mut dip_ca = DipCacheAware::new(
            0.5,
            0.5,
            0.2,
            config.d_model,
            config.d_ff,
            capacities(&config, 0.3),
        )
        .unwrap();
        let plain = eval::perplexity(&model, &mut dip, &seqs)
            .unwrap()
            .perplexity;
        let aware = eval::perplexity(&model, &mut dip_ca, &seqs)
            .unwrap()
            .perplexity;
        // cache-aware masking trades a bounded amount of accuracy
        assert!(aware < plain * 1.5, "aware {aware} vs plain {plain}");
    }

    #[test]
    fn reset_clears_cache_state() {
        let config = ModelConfig::tiny();
        let model = model();
        let mlp = &model.layers[0].mlp;
        let x = vec![0.3; config.d_model];
        let mut s = DipCacheAware::new(
            0.5,
            0.5,
            0.2,
            config.d_model,
            config.d_ff,
            capacities(&config, 0.4),
        )
        .unwrap();
        let first = s.forward(0, mlp, &x).unwrap();
        let _second = s.forward(0, mlp, &x).unwrap();
        s.reset();
        let after_reset = s.forward(0, mlp, &x).unwrap();
        assert_eq!(first.access, after_reset.access);
        assert!(s.name().contains("dip-ca"));
        assert!((s.gamma() - 0.2).abs() < 1e-6);
        assert!((s.mlp_density() - 0.5).abs() < 1e-6);
        assert_eq!(s.capacities().len(), config.n_layers);
        assert!((s.input_density() - 0.5).abs() < 1e-6);
        assert!((s.glu_density() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn observed_co_tenant_traffic_shifts_the_selection() {
        let config = ModelConfig::tiny();
        let model = model();
        let mlp = &model.layers[0].mlp;
        // near-uniform input: the cache-aware re-weighting dominates selection
        let x: Vec<f32> = (0..config.d_model)
            .map(|i| 0.5 + 1e-4 * (i as f32))
            .collect();
        let fresh = || {
            DipCacheAware::new(
                0.5,
                0.5,
                0.2,
                config.d_model,
                config.d_ff,
                capacities(&config, 0.4),
            )
            .unwrap()
        };

        let mut isolated = fresh();
        let baseline = isolated.forward(0, mlp, &x).unwrap();

        // a co-tenant hammers a disjoint set of input columns first
        let mut contended = fresh();
        let foreign: Vec<usize> = (0..config.d_model / 3).collect();
        for _ in 0..8 {
            contended.observe_access(0, &foreign, &foreign);
        }
        let after = contended.forward(0, mlp, &x).unwrap();
        assert_ne!(
            baseline.access, after.access,
            "observed co-tenant traffic must influence the cache-aware mask"
        );
        // out-of-range layers are ignored rather than panicking
        contended.observe_access(99, &foreign, &foreign);
    }

    #[test]
    fn batched_forward_is_bitwise_identical_to_row_by_row() {
        use lm::{MlpBatchWorkspace, MlpWorkspace};

        let config = ModelConfig::tiny();
        let model = model();
        let mlp = &model.layers[0].mlp;
        let rows = 5usize;
        let xs: Vec<f32> = (0..rows * config.d_model)
            .map(|i| ((i as f32) * 0.13).sin())
            .collect();

        let run_pair = |mut sequential: Box<dyn MlpForward>, mut batched: Box<dyn MlpForward>| {
            // sequential oracle: one row at a time through forward_scratch
            let mut ws = MlpWorkspace::new(config.d_model, config.d_ff);
            let mut seq_y = Vec::new();
            let mut seq_access = Vec::new();
            for r in 0..rows {
                let mut access = lm::MlpAccessScratch::default();
                sequential
                    .forward_scratch(
                        0,
                        mlp,
                        &xs[r * config.d_model..(r + 1) * config.d_model],
                        &mut ws,
                        &mut access,
                        None,
                    )
                    .unwrap();
                seq_y.extend_from_slice(&ws.y);
                seq_access.push(access.to_record());
            }

            let mut bws = MlpBatchWorkspace::default();
            let mut accesses: Vec<lm::MlpAccessScratch> =
                (0..rows).map(|_| Default::default()).collect();
            batched
                .forward_batch_scratch(0, mlp, &xs, rows, &mut bws, &mut accesses, None)
                .unwrap();

            for (i, (a, b)) in bws.y.iter().zip(seq_y.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "output {i} diverged");
            }
            for (r, access) in accesses.iter().enumerate() {
                assert_eq!(access.to_record(), seq_access[r], "row {r} access diverged");
            }
        };

        let dip = crate::strategies::Dip::new(0.5, 0.5).unwrap();
        run_pair(Box::new(dip), Box::new(dip));

        let fresh_ca = || {
            Box::new(
                DipCacheAware::new(
                    0.5,
                    0.5,
                    0.2,
                    config.d_model,
                    config.d_ff,
                    capacities(&config, 0.4),
                )
                .unwrap(),
            )
        };
        run_pair(fresh_ca(), fresh_ca());
    }

    #[test]
    fn unknown_layer_is_an_error() {
        let config = ModelConfig::tiny();
        let model = model();
        let mlp = &model.layers[0].mlp;
        let mut s = DipCacheAware::new(
            0.5,
            0.5,
            0.2,
            config.d_model,
            config.d_ff,
            vec![BlockCacheCapacity {
                up: 4,
                gate: 4,
                down: 8,
            }],
        )
        .unwrap();
        assert!(s.forward(5, mlp, &vec![0.1; config.d_model]).is_err());
    }
}
