//! Shared experiment configuration.

use crate::error::{BitwaveError, Result};
use bitwave_accel::EnergyModel;
use bitwave_accel::LayerSparsityProfile;
use bitwave_core::group::GroupSize;
use bitwave_core::prelude::FlipStrategy;
use bitwave_core::stats::LayerSparsityStats;
use bitwave_dataflow::mapping::MappingPolicy;
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::models::NetworkSpec;
use bitwave_dnn::weights::NetworkWeights;

/// Configuration shared by every experiment driver.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// RNG seed for the synthetic weights/activations.
    pub seed: u64,
    /// Maximum number of weight elements sampled per layer when computing
    /// sparsity statistics (the full tensors are only needed by the
    /// simulator); sampling truncates output channels, never the grouping
    /// axis, so the statistics are unbiased.
    pub sample_cap: usize,
    /// BCS group size used for the statistics (the hardware supports 8, 16
    /// and 32 per layer).
    pub group_size: GroupSize,
    /// Memory hierarchy shared by all modelled accelerators.
    pub memory: MemoryHierarchy,
    /// Unit-energy model.
    pub energy: EnergyModel,
    /// How the map stage picks each layer's spatial unrolling: the Fig. 9
    /// heuristic (default, the paper's reported configuration) or the
    /// `bitwave-dse` per-layer design-space search.
    pub mapping_policy: MappingPolicy,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            seed: 42,
            sample_cap: 60_000,
            group_size: GroupSize::G16,
            memory: MemoryHierarchy::bitwave_default(),
            energy: EnergyModel::finfet_16nm(),
            mapping_policy: MappingPolicy::Heuristic,
        }
    }
}

impl ExperimentContext {
    /// Overrides the per-layer sampling cap (builder style).
    pub fn with_sample_cap(mut self, cap: usize) -> Self {
        self.sample_cap = cap;
        self
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the BCS group size (builder style).
    pub fn with_group_size(mut self, group_size: GroupSize) -> Self {
        self.group_size = group_size;
        self
    }

    /// Overrides the mapping policy (builder style).  `Searched` routes the
    /// map stage through the `bitwave-dse` design-space search.
    pub fn with_mapping_policy(mut self, policy: MappingPolicy) -> Self {
        self.mapping_policy = policy;
        self
    }

    /// Generates the (sampled) synthetic Int8 weights of a network.
    pub fn weights(&self, spec: &NetworkSpec) -> NetworkWeights {
        NetworkWeights::generate_sampled(spec, self.seed, self.sample_cap)
    }

    /// Looks up one layer's weights, converting absence into a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`BitwaveError::MissingLayer`] when the weights lack the layer.
    pub fn layer_weights<'w>(
        &self,
        spec: &NetworkSpec,
        weights: &'w NetworkWeights,
        layer: &str,
    ) -> Result<&'w bitwave_tensor::QuantTensor> {
        Ok(self.layer_weight_handle(spec, weights, layer)?.tensor())
    }

    /// Looks up one layer's shared weight handle, converting absence into a
    /// typed error.  Cloning the returned handle shares the tensor with the
    /// weight set instead of copying it — the way experiment drivers build
    /// ad-hoc [`crate::pipeline::LayerJob`]s.
    ///
    /// # Errors
    ///
    /// Returns [`BitwaveError::MissingLayer`] when the weights lack the layer.
    pub fn layer_weight_handle<'w>(
        &self,
        spec: &NetworkSpec,
        weights: &'w NetworkWeights,
        layer: &str,
    ) -> Result<&'w bitwave_tensor::WeightHandle> {
        weights
            .layer_handle(layer)
            .ok_or_else(|| BitwaveError::MissingLayer {
                network: spec.name.clone(),
                layer: layer.to_string(),
            })
    }

    /// Per-layer sparsity statistics of a weight set, aligned with
    /// `spec.layers`.
    ///
    /// # Errors
    ///
    /// Returns [`BitwaveError::MissingLayer`] for absent weights and
    /// propagates grouping errors.
    pub fn layer_stats(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<Vec<LayerSparsityStats>> {
        spec.layers
            .iter()
            .map(|l| {
                let tensor = self.layer_weights(spec, weights, &l.name)?;
                Ok(LayerSparsityStats::analyze(tensor, self.group_size)?)
            })
            .collect()
    }

    /// Per-layer sparsity profiles for the accelerator models, aligned with
    /// `spec.layers`.
    ///
    /// # Errors
    ///
    /// Returns [`BitwaveError::MissingLayer`] for absent weights and
    /// propagates grouping errors.
    pub fn profiles(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<Vec<LayerSparsityProfile>> {
        spec.layers
            .iter()
            .map(|l| {
                let tensor = self.layer_weights(spec, weights, &l.name)?;
                Ok(LayerSparsityProfile::from_weights(
                    tensor,
                    l.expected_activation_sparsity(),
                    self.group_size,
                )?)
            })
            .collect()
    }

    /// The default one-shot Bit-Flip strategy the evaluation uses
    /// (Section III-D / Fig. 6): weight-heavy, perturbation-insensitive
    /// layers are flipped to 5 zero columns; for BERT the especially
    /// sensitive encoder layers 1–3 stay at 2 zero columns.
    pub fn default_bitflip_strategy(&self, spec: &NetworkSpec) -> FlipStrategy {
        let mut strategy = FlipStrategy::new();
        let heavy: Vec<String> = spec
            .weight_heavy_layers(0.75)
            .iter()
            .map(|l| l.name.clone())
            .collect();
        for layer in &spec.layers {
            if !heavy.contains(&layer.name) {
                continue;
            }
            let zero_columns = if layer.sensitivity > 0.7 { 2 } else { 5 };
            strategy.set(&layer.name, self.group_size, zero_columns);
        }
        strategy
    }

    /// Bit-flipped weights under the default strategy.
    ///
    /// # Errors
    ///
    /// Propagates grouping/flip errors from the Bit-Flip kernel.
    pub fn flipped_weights(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<NetworkWeights> {
        Ok(weights.apply_flip_strategy(&self.default_bitflip_strategy(spec))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::models::{bert_base, resnet18};

    #[test]
    fn builder_overrides() {
        let ctx = ExperimentContext::default()
            .with_sample_cap(100)
            .with_seed(7)
            .with_group_size(GroupSize::G8)
            .with_mapping_policy(MappingPolicy::Searched);
        assert_eq!(ctx.sample_cap, 100);
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.group_size, GroupSize::G8);
        assert_eq!(ctx.mapping_policy, MappingPolicy::Searched);
        assert_eq!(
            ExperimentContext::default().mapping_policy,
            MappingPolicy::Heuristic,
            "the heuristic stays the default (goldens depend on it)"
        );
    }

    #[test]
    fn profiles_align_with_layers() {
        let ctx = ExperimentContext::default().with_sample_cap(2_000);
        let net = resnet18();
        let weights = ctx.weights(&net);
        let profiles = ctx.profiles(&net, &weights).unwrap();
        assert_eq!(profiles.len(), net.layers.len());
        let stats = ctx.layer_stats(&net, &weights).unwrap();
        assert_eq!(stats.len(), net.layers.len());
    }

    #[test]
    fn missing_layers_surface_as_typed_errors() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let mut foreign = bert_base();
        foreign.name = net.name.clone();
        let weights = ctx.weights(&foreign);
        let err = ctx.layer_stats(&net, &weights).unwrap_err();
        assert!(matches!(err, BitwaveError::MissingLayer { .. }));
        let err = ctx.profiles(&net, &weights).unwrap_err();
        assert!(matches!(err, BitwaveError::MissingLayer { .. }));
    }

    #[test]
    fn default_strategy_targets_heavy_layers_only() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let strategy = ctx.default_bitflip_strategy(&net);
        assert!(strategy.get("layer4.1.conv2", ctx.group_size) >= 4);
        assert_eq!(strategy.get("conv1", ctx.group_size), 0);
    }

    #[test]
    fn bert_sensitive_layers_get_gentler_targets() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = bert_base();
        let strategy = ctx.default_bitflip_strategy(&net);
        let sensitive = strategy.get("bert.encoder.layer.1.intermediate", ctx.group_size);
        let insensitive = strategy.get("bert.encoder.layer.8.intermediate", ctx.group_size);
        assert!(insensitive > sensitive || sensitive <= 2);
    }

    #[test]
    fn flipped_weights_change_only_targeted_layers() {
        let ctx = ExperimentContext::default().with_sample_cap(2_000);
        let net = resnet18();
        let weights = ctx.weights(&net);
        let flipped = ctx.flipped_weights(&net, &weights).unwrap();
        assert_eq!(
            weights.layer("conv1").unwrap().data(),
            flipped.layer("conv1").unwrap().data()
        );
        assert_ne!(
            weights.layer("layer4.1.conv2").unwrap().data(),
            flipped.layer("layer4.1.conv2").unwrap().data()
        );
    }
}
