//! Synthetic Int8 network weights.
//!
//! Each layer's weights are drawn from its
//! [`bitwave_tensor::synth::LayerWeightProfile`] and
//! quantised with a per-layer dynamic-range utilisation, in one
//! [`WeightGenerator::generate_int8`] call: a layer that only
//! uses 35 % of the Int8 range produces mostly small-magnitude codes and
//! therefore high bit-column sparsity, while a transformer layer using 95 %
//! of the range has few zero columns — reproducing the qualitative sparsity
//! spread the paper reports across ResNet18, MobileNetV2, CNN-LSTM and
//! BERT-Base (Fig. 1, Fig. 6).

use crate::layer::LayerSpec;
use crate::models::NetworkSpec;
use bitwave_core::bitflip::flip_tensor;
use bitwave_core::error::CoreError;
use bitwave_core::prelude::FlipStrategy;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::prelude::*;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Generates the Int8 weight tensor of one layer.
///
/// The same `(layer, seed)` pair always produces the same tensor.
pub fn generate_layer_weights(layer: &LayerSpec, seed: u64) -> QuantTensor {
    generate_with_shape(layer, layer.weight_shape(), seed)
}

/// Generates a *statistically representative sample* of a layer's weights,
/// capped at roughly `max_elements` values by truncating the output-channel
/// dimension.  The input-channel dimension (the grouping axis of BCS) is
/// never truncated, so bit-column statistics match the full layer.
pub fn generate_layer_sample(layer: &LayerSpec, seed: u64, max_elements: usize) -> QuantTensor {
    let shape = layer.weight_shape();
    let total = shape.num_elements();
    if total <= max_elements.max(1) {
        return generate_layer_weights(layer, seed);
    }
    let per_k = total / shape.dim(0);
    let keep_k = (max_elements / per_k.max(1)).clamp(1, shape.dim(0));
    let sampled_shape = match shape.rank() {
        2 => Shape::d2(keep_k, shape.dim(1)),
        4 => Shape::conv_weight(keep_k, shape.dim(1), shape.dim(2), shape.dim(3)),
        _ => shape,
    };
    generate_with_shape(layer, sampled_shape, seed)
}

fn generate_with_shape(layer: &LayerSpec, shape: Shape, seed: u64) -> QuantTensor {
    let profile = layer.weight_profile;
    WeightGenerator::new(profile.distribution, seed).generate_int8(
        shape,
        fnv1a(layer.name.as_bytes()),
        profile.dynamic_range_utilisation,
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The full set of (synthetic) Int8 weights of one network.
///
/// Each layer's tensor is held behind a shared [`WeightHandle`], so cloning a
/// weight set — and planning pipeline jobs from it — bumps reference counts
/// instead of deep-copying tensors.  Transformations that leave a layer
/// untouched ([`NetworkWeights::apply_flip_strategy`],
/// [`NetworkWeights::apply_ptq`]) share the original handle for that layer.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWeights {
    network: String,
    layers: BTreeMap<String, WeightHandle>,
}

impl NetworkWeights {
    /// Generates full-size weights for every layer of `spec`.
    ///
    /// For the larger networks (BERT-Base ≈ 85 M weights) prefer
    /// [`NetworkWeights::generate_sampled`] unless the full tensors are
    /// really needed.
    pub fn generate(spec: &NetworkSpec, seed: u64) -> Self {
        Self::generate_with(spec, seed, usize::MAX)
    }

    /// Generates weights capped at `max_elements_per_layer` values per layer
    /// (statistically representative sampling along the output-channel axis).
    pub fn generate_sampled(spec: &NetworkSpec, seed: u64, max_elements_per_layer: usize) -> Self {
        Self::generate_with(spec, seed, max_elements_per_layer)
    }

    /// Layers generate in parallel: each draws from its own seed stream
    /// (the `fnv1a(layer.name)` salt), so the result is bit-identical to a
    /// sequential run.
    fn generate_with(spec: &NetworkSpec, seed: u64, cap: usize) -> Self {
        let layers = spec
            .layers
            .par_iter()
            .map(|l| {
                (
                    l.name.clone(),
                    WeightHandle::new(generate_layer_sample(l, seed, cap)),
                )
            })
            .collect();
        Self {
            network: spec.name.clone(),
            layers,
        }
    }

    /// The network these weights belong to.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// The weight tensor of a layer, if present.
    pub fn layer(&self, name: &str) -> Option<&QuantTensor> {
        self.layers.get(name).map(WeightHandle::tensor)
    }

    /// The shared handle of a layer's weights, if present.  Cloning the
    /// returned handle shares the tensor instead of copying it — the
    /// zero-copy path pipeline job planning uses.
    pub fn layer_handle(&self, name: &str) -> Option<&WeightHandle> {
        self.layers.get(name)
    }

    /// Iterates over `(layer name, weights)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &QuantTensor)> {
        self.layers.iter().map(|(k, v)| (k.as_str(), v.tensor()))
    }

    /// Number of layers with weights.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layer weights are stored.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Applies a Bit-Flip strategy, returning the flipped weights.  Layers
    /// not mentioned by the strategy are left untouched.  For each layer the
    /// strategy's best (group size, zero columns) entry is applied, matching
    /// how the hardware ultimately configures one group size per layer.
    ///
    /// # Errors
    ///
    /// Propagates grouping/flip errors from the Bit-Flip kernel.
    pub fn apply_flip_strategy(
        &self,
        strategy: &FlipStrategy,
    ) -> Result<NetworkWeights, CoreError> {
        let layers = self
            .layers
            .iter()
            .map(|(name, handle)| {
                let flipped = match strategy.best_for_layer(name) {
                    Some((group_size, zero_columns)) if zero_columns > 0 => WeightHandle::new(
                        flip_tensor(handle, group_size, zero_columns, Encoding::SignMagnitude)?.0,
                    ),
                    // Untouched layers share the original tensor (no copy).
                    _ => handle.clone(),
                };
                Ok((name.clone(), flipped))
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(NetworkWeights {
            network: self.network.clone(),
            layers,
        })
    }

    /// Applies uniform post-training quantisation to `bits` bits on the given
    /// layers (all layers when `layer_filter` is `None`), returning weights
    /// re-expanded onto the Int8 grid so they remain comparable bit-for-bit.
    pub fn apply_ptq(&self, bits: u8, layer_filter: Option<&[String]>) -> NetworkWeights {
        let layers = self
            .layers
            .iter()
            .map(|(name, handle)| {
                let selected = layer_filter.is_none_or(|f| f.iter().any(|l| l == name));
                let new_handle = if selected {
                    let reduced = requantize_to_bits(handle, bits).expect("bits validated");
                    WeightHandle::new(bitwave_tensor::quant::expand_to_int8_grid(&reduced))
                } else {
                    // Unselected layers share the original tensor (no copy).
                    handle.clone()
                };
                (name.clone(), new_handle)
            })
            .collect();
        NetworkWeights {
            network: self.network.clone(),
            layers,
        }
    }

    /// Total number of stored weight elements.
    pub fn total_elements(&self) -> usize {
        self.layers.values().map(|t| t.data().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{bert_base, resnet18};
    use bitwave_core::group::{extract_groups, GroupSize};
    use bitwave_core::prelude::zero_column_count;
    use bitwave_core::stats::LayerSparsityStats;

    #[test]
    fn generation_is_deterministic_and_layer_dependent() {
        let spec = resnet18();
        let a = generate_layer_sample(&spec.layers[1], 42, 10_000);
        let b = generate_layer_sample(&spec.layers[1], 42, 10_000);
        let c = generate_layer_sample(&spec.layers[2], 42, 10_000);
        assert_eq!(a, b);
        assert_ne!(a.data()[..32], c.data()[..32]);
    }

    #[test]
    fn sampled_generation_caps_size_but_keeps_input_channels() {
        let spec = resnet18();
        let fc = spec.layer("fc").unwrap();
        let sample = generate_layer_sample(fc, 1, 50_000);
        assert!(sample.data().len() <= 51_200);
        assert_eq!(sample.shape().dim(1), 512, "input-feature axis preserved");
    }

    #[test]
    fn resnet_conv_layers_have_high_sm_column_sparsity() {
        // The reproduction target: ResNet18's mid conv layers show strong
        // sign-magnitude column sparsity (paper: conv2 ≈ 59% at G=4).
        let spec = resnet18();
        let layer = spec.layer("layer1.0.conv1").unwrap();
        let w = generate_layer_sample(layer, 7, 40_000);
        let stats = LayerSparsityStats::analyze(&w, GroupSize::Custom(4)).unwrap();
        assert!(
            stats.column_sparsity_sign_magnitude > 0.35,
            "SM column sparsity too low: {}",
            stats.column_sparsity_sign_magnitude
        );
        assert!(
            stats.column_sparsity_sign_magnitude > 1.5 * stats.column_sparsity_twos_complement,
            "SM should clearly beat two's complement"
        );
    }

    #[test]
    fn bert_layers_have_low_column_sparsity() {
        let spec = bert_base();
        let layer = spec.layer("bert.encoder.layer.0.attention.q").unwrap();
        let w = generate_layer_sample(layer, 7, 40_000);
        let stats = LayerSparsityStats::analyze(&w, GroupSize::G8).unwrap();
        assert!(
            stats.column_sparsity_sign_magnitude < 0.35,
            "BERT column sparsity should be limited, got {}",
            stats.column_sparsity_sign_magnitude
        );
    }

    #[test]
    fn network_weights_lookup_and_iteration() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 3, 5_000);
        assert_eq!(weights.len(), spec.layers.len());
        assert!(!weights.is_empty());
        assert!(weights.layer("conv1").is_some());
        assert!(weights.layer("nonexistent").is_none());
        assert_eq!(weights.network(), "ResNet18");
        assert!(weights.total_elements() > 0);
        assert_eq!(weights.iter().count(), spec.layers.len());
    }

    #[test]
    fn flip_strategy_only_touches_requested_layers() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 3, 5_000);
        let mut strategy = FlipStrategy::new();
        strategy.set("fc", GroupSize::G16, 5);
        let flipped = weights.apply_flip_strategy(&strategy).unwrap();
        assert_eq!(
            weights.layer("conv1").unwrap().data(),
            flipped.layer("conv1").unwrap().data(),
            "unrelated layer must be untouched"
        );
        let fc = flipped.layer("fc").unwrap();
        let groups = extract_groups(fc, GroupSize::G16).unwrap();
        for g in groups.iter() {
            assert!(zero_column_count(g, Encoding::SignMagnitude) >= 5);
        }
    }

    #[test]
    fn untouched_layers_share_allocations_without_deep_copies() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 3, 5_000);
        let mut strategy = FlipStrategy::new();
        strategy.set("fc", GroupSize::G16, 5);

        let _guard = bitwave_tensor::copy_metrics::exclusive();
        let counter = bitwave_tensor::copy_metrics::CopyCounter::snapshot();
        let flipped = weights.apply_flip_strategy(&strategy).unwrap();
        let ptq = weights.apply_ptq(3, Some(&["fc".to_string()]));
        let cloned = weights.clone();
        assert_eq!(
            counter.delta(),
            0,
            "flip/PTQ/clone must not deep-copy untouched tensors"
        );

        // Untouched layers are the *same allocation*, not merely equal.
        let original = weights.layer_handle("conv1").unwrap();
        assert!(original.shares_allocation_with(flipped.layer_handle("conv1").unwrap()));
        assert!(original.shares_allocation_with(ptq.layer_handle("conv1").unwrap()));
        assert!(original.shares_allocation_with(cloned.layer_handle("conv1").unwrap()));
        // Transformed layers get fresh tensors.
        let fc = weights.layer_handle("fc").unwrap();
        assert!(!fc.shares_allocation_with(flipped.layer_handle("fc").unwrap()));
        assert!(!fc.shares_allocation_with(ptq.layer_handle("fc").unwrap()));
    }

    #[test]
    fn ptq_reduces_distinct_levels() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 3, 5_000);
        let ptq = weights.apply_ptq(4, None);
        let layer = ptq.layer("layer4.1.conv2").unwrap();
        let distinct: std::collections::BTreeSet<i8> = layer.data().iter().copied().collect();
        assert!(
            distinct.len() <= 15,
            "4-bit PTQ should leave at most 15 distinct levels, got {}",
            distinct.len()
        );
    }

    #[test]
    fn ptq_with_filter_leaves_other_layers_alone() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 3, 5_000);
        let ptq = weights.apply_ptq(3, Some(&["fc".to_string()]));
        assert_eq!(
            weights.layer("conv1").unwrap().data(),
            ptq.layer("conv1").unwrap().data()
        );
        assert_ne!(
            weights.layer("fc").unwrap().data(),
            ptq.layer("fc").unwrap().data()
        );
    }

    #[test]
    fn utilisation_controls_code_magnitudes() {
        let g = WeightGenerator::new(WeightDistribution::Uniform { range: 0.5 }, 4);
        let low = g.generate_int8(Shape::d1(64), 0, 0.3);
        let high = g.generate_int8(Shape::d1(64), 0, 1.0);
        let max_low = low.data().iter().map(|v| v.unsigned_abs()).max().unwrap();
        let max_high = high.data().iter().map(|v| v.unsigned_abs()).max().unwrap();
        assert!(max_low < max_high);
        assert_eq!(max_high, 127);
    }
}
