//! The unit of pipeline work: one layer with its weights and targets.

use crate::context::ExperimentContext;
use crate::error::{BitwaveError, Result};
use bitwave_core::group::GroupSize;
use bitwave_core::prelude::FlipStrategy;
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::NetworkSpec;
use bitwave_dnn::weights::NetworkWeights;
use bitwave_tensor::handle::WeightHandle;

/// One layer's worth of pipeline input: the layer specification, its
/// (synthetic) Int8 weights, and the per-layer knobs sliced out of the
/// experiment context — group size and Bit-Flip target.
///
/// The weights are carried by a shared [`WeightHandle`]: planning a job from
/// a [`NetworkWeights`] set and cloning the job (as the parallel dispatcher
/// does, once per rayon task) bump reference counts instead of deep-copying
/// tensors.  Only the Bit-Flip stage replaces the handle, and then with a
/// freshly constructed flipped tensor — never with a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerJob {
    /// Network the layer belongs to.
    pub network: String,
    /// The layer specification (loop nest, kind, sensitivity).
    pub layer: LayerSpec,
    /// Shared handle to the layer's Int8 weights.
    pub weights: WeightHandle,
    /// BCS group size for compression/statistics.
    pub group_size: GroupSize,
    /// Zero-column target for the Bit-Flip stage (0 = lossless, no flip).
    pub zero_column_target: u32,
}

impl LayerJob {
    /// Plans one job per layer of `spec` over `weights` (generated by
    /// [`ExperimentContext::weights`], or already flipped or PTQ-quantised by
    /// an experiment driver), reading each layer's Bit-Flip target from
    /// `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`BitwaveError::EmptyModel`] for a layerless network and
    /// [`BitwaveError::MissingLayer`] if `weights` lacks a layer of `spec`.
    pub fn plan_with_weights(
        ctx: &ExperimentContext,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
        strategy: &FlipStrategy,
    ) -> Result<Vec<LayerJob>> {
        if spec.layers.is_empty() {
            return Err(BitwaveError::EmptyModel {
                network: spec.name.clone(),
            });
        }
        spec.layers
            .iter()
            .map(|layer| {
                let handle = weights.layer_handle(&layer.name).ok_or_else(|| {
                    BitwaveError::MissingLayer {
                        network: spec.name.clone(),
                        layer: layer.name.clone(),
                    }
                })?;
                // A layer targeted by the strategy is grouped at the
                // strategy's chosen group size (the hardware configures one
                // group size per layer); untargeted layers use the context's
                // default.  This keeps the pipeline's flip identical to
                // `NetworkWeights::apply_flip_strategy`.
                let (group_size, zero_column_target) =
                    strategy
                        .best_for_layer(&layer.name)
                        .map_or((ctx.group_size, 0), |(g, z)| {
                            if z > 0 {
                                (g, z)
                            } else {
                                (ctx.group_size, 0)
                            }
                        });
                Ok(LayerJob {
                    network: spec.name.clone(),
                    layer: layer.clone(),
                    // Shares the tensor with the weight set — no deep copy.
                    weights: handle.clone(),
                    group_size,
                    zero_column_target,
                })
            })
            .collect()
    }

    /// Number of weight elements carried by this job.
    pub fn weight_elements(&self) -> usize {
        self.weights.data().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::models::resnet18;

    #[test]
    fn plan_yields_one_job_per_layer_in_order() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let jobs =
            LayerJob::plan_with_weights(&ctx, &net, &ctx.weights(&net), &FlipStrategy::new())
                .unwrap();
        assert_eq!(jobs.len(), net.layers.len());
        for (job, layer) in jobs.iter().zip(&net.layers) {
            assert_eq!(job.layer.name, layer.name);
            assert_eq!(job.network, "ResNet18");
            assert_eq!(job.zero_column_target, 0);
            assert!(job.weight_elements() > 0);
        }
    }

    #[test]
    fn planning_shares_weight_allocations_without_copies() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let weights = ctx.weights(&net);
        let _guard = bitwave_tensor::copy_metrics::exclusive();
        let counter = bitwave_tensor::copy_metrics::CopyCounter::snapshot();
        let jobs = LayerJob::plan_with_weights(&ctx, &net, &weights, &FlipStrategy::new()).unwrap();
        let cloned: Vec<LayerJob> = jobs.clone();
        assert_eq!(
            counter.delta(),
            0,
            "planning and job cloning must not deep-copy weight tensors"
        );
        for job in &cloned {
            let source = weights.layer_handle(&job.layer.name).unwrap();
            assert!(job.weights.shares_allocation_with(source));
        }
    }

    #[test]
    fn strategy_targets_reach_the_jobs() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let strategy = ctx.default_bitflip_strategy(&net);
        let jobs = LayerJob::plan_with_weights(&ctx, &net, &ctx.weights(&net), &strategy).unwrap();
        let targeted: Vec<&LayerJob> = jobs.iter().filter(|j| j.zero_column_target > 0).collect();
        assert!(
            !targeted.is_empty(),
            "default strategy must flip some layers"
        );
        assert!(jobs.iter().any(|j| j.zero_column_target == 0));
    }

    #[test]
    fn strategy_group_size_overrides_context_default() {
        use bitwave_core::group::GroupSize;
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let mut strategy = FlipStrategy::new();
        strategy.set("layer4.1.conv2", GroupSize::G8, 5);
        let jobs = LayerJob::plan_with_weights(&ctx, &net, &ctx.weights(&net), &strategy).unwrap();
        let targeted = jobs
            .iter()
            .find(|j| j.layer.name == "layer4.1.conv2")
            .unwrap();
        assert_eq!(targeted.group_size, GroupSize::G8);
        assert_eq!(targeted.zero_column_target, 5);
        let untargeted = jobs.iter().find(|j| j.layer.name == "conv1").unwrap();
        assert_eq!(untargeted.group_size, ctx.group_size);
    }

    #[test]
    fn missing_layer_weights_are_an_error() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let net = resnet18();
        let mut other = bitwave_dnn::models::mobilenet_v2();
        other.name = net.name.clone();
        let foreign_weights = ctx.weights(&other);
        let err = LayerJob::plan_with_weights(&ctx, &net, &foreign_weights, &FlipStrategy::new())
            .unwrap_err();
        assert!(matches!(err, BitwaveError::MissingLayer { .. }));
    }

    #[test]
    fn empty_model_is_an_error() {
        let ctx = ExperimentContext::default().with_sample_cap(1_000);
        let mut net = resnet18();
        net.layers.clear();
        let err = LayerJob::plan_with_weights(&ctx, &net, &ctx.weights(&net), &FlipStrategy::new())
            .unwrap_err();
        assert!(matches!(err, BitwaveError::EmptyModel { .. }));
    }
}
