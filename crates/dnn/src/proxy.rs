//! Task-quality proxy (accuracy / F1 / PESQ).
//!
//! The paper evaluates Bit-Flip and PTQ against dataset metrics (ImageNet
//! top-1, SQuAD F1, PESQ).  Without those datasets we estimate the quality
//! drop from the weight perturbation each technique induces: per layer we
//! measure the relative RMS error between original and modified weights,
//! weight it by the layer's parameter share and its perturbation
//! *sensitivity* (early/weight-light layers are more sensitive, Fig. 6a–d),
//! and map the aggregate through a calibrated gain onto the metric's scale.
//!
//! The proxy preserves exactly the properties Fig. 6 demonstrates:
//!
//! * flipping insensitive, weight-heavy layers costs little quality;
//! * flipping sensitive early layers costs much more;
//! * at matched compression ratio, uniform PTQ (which perturbs *every*
//!   weight, including the sensitive layers, by a full quantisation step)
//!   degrades quality faster than SM+Bit-Flip.
//!
//! Absolute dataset numbers are out of scope: the reproduction runs on
//! synthetic weights (README.md), with no datasets or trained checkpoints.

use crate::models::{NetworkSpec, TaskKind};
use crate::weights::NetworkWeights;
use bitwave_core::error::CoreError;
use bitwave_core::prelude::FlipStrategy;
use serde::{Deserialize, Serialize};

/// The quality metric a network is evaluated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityMetric {
    /// ImageNet-style top-1 accuracy in percent.
    TopOneAccuracy,
    /// Perceptual Evaluation of Speech Quality score (1.0–4.5).
    Pesq,
    /// SQuAD-style F1 score in percent.
    F1,
}

impl QualityMetric {
    /// Selects the metric for a task kind.
    pub fn for_task(task: TaskKind) -> Self {
        match task {
            TaskKind::Classification => QualityMetric::TopOneAccuracy,
            TaskKind::SpeechEnhancement => QualityMetric::Pesq,
            TaskKind::QuestionAnswering => QualityMetric::F1,
        }
    }

    /// Full scale of the metric, used to translate a relative perturbation
    /// into metric units.
    pub fn range(&self) -> f64 {
        match self {
            QualityMetric::TopOneAccuracy | QualityMetric::F1 => 100.0,
            QualityMetric::Pesq => 4.5,
        }
    }

    /// Human-readable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            QualityMetric::TopOneAccuracy => "top-1 accuracy",
            QualityMetric::Pesq => "PESQ",
            QualityMetric::F1 => "F1",
        }
    }
}

/// The proxy evaluator for one network.
#[derive(Debug, Clone)]
pub struct AccuracyProxy {
    network: String,
    metric: QualityMetric,
    baseline_quality: f64,
    /// `(layer name, sensitivity, weight share)` rows.
    layer_profile: Vec<(String, f64, f64)>,
    baseline: NetworkWeights,
}

impl AccuracyProxy {
    /// The perturbation-to-quality gain.  Calibrated so that flipping the
    /// weight-heavy layers of the CNNs to 4–7 zero columns costs well under
    /// one accuracy point (the paper's operating regime), while aggressive
    /// uniform PTQ costs several points.
    pub const GAIN: f64 = 0.2;

    /// Creates a proxy from a network specification and its baseline
    /// (unmodified) weights.
    pub fn new(spec: &NetworkSpec, baseline: NetworkWeights) -> Self {
        let total_weights: f64 = spec.total_weights() as f64;
        let layer_profile = spec
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    l.sensitivity,
                    l.weight_count() as f64 / total_weights,
                )
            })
            .collect();
        Self {
            network: spec.name.clone(),
            metric: QualityMetric::for_task(spec.task),
            baseline_quality: spec.baseline_quality,
            layer_profile,
            baseline,
        }
    }

    /// The metric this proxy reports.
    pub fn metric(&self) -> QualityMetric {
        self.metric
    }

    /// The baseline (Int8, unmodified) model quality.
    pub fn baseline_quality(&self) -> f64 {
        self.baseline_quality
    }

    /// The baseline weights the proxy compares against.
    pub fn baseline_weights(&self) -> &NetworkWeights {
        &self.baseline
    }

    /// Estimated quality of a modified weight set.
    pub fn quality_of(&self, modified: &NetworkWeights) -> f64 {
        let perturbation = self.weighted_perturbation(modified);
        (self.baseline_quality - Self::GAIN * self.metric.range() * perturbation).max(0.0)
    }

    /// Estimated quality after applying a Bit-Flip strategy to the baseline
    /// weights — the `Inference(BitFlip(M, S), D)` step of Algorithm 1.
    ///
    /// # Errors
    ///
    /// Propagates grouping/flip errors from the Bit-Flip kernel.
    pub fn quality_of_strategy(&self, strategy: &FlipStrategy) -> Result<f64, CoreError> {
        let flipped = self.baseline.apply_flip_strategy(strategy)?;
        Ok(self.quality_of(&flipped))
    }

    /// Estimated quality after uniform PTQ of the given layers to `bits`
    /// bits (all layers when `layer_filter` is `None`).
    pub fn quality_of_ptq(&self, bits: u8, layer_filter: Option<&[String]>) -> f64 {
        let ptq = self.baseline.apply_ptq(bits, layer_filter);
        self.quality_of(&ptq)
    }

    /// The sensitivity- and share-weighted relative perturbation between the
    /// baseline and a modified weight set (0.0 when identical).
    pub fn weighted_perturbation(&self, modified: &NetworkWeights) -> f64 {
        let mut acc = 0.0f64;
        for (name, sensitivity, share) in &self.layer_profile {
            let (Some(orig), Some(new)) = (self.baseline.layer(name), modified.layer(name)) else {
                continue;
            };
            let rel = relative_rms_error_i8(orig.data(), new.data());
            acc += share * (sensitivity * rel).powi(2);
        }
        acc.sqrt()
    }

    /// The network this proxy evaluates.
    pub fn network(&self) -> &str {
        &self.network
    }
}

/// Relative RMS error between two Int8 slices (`‖a−b‖ / ‖a‖`).
pub fn relative_rms_error_i8(reference: &[i8], modified: &[i8]) -> f64 {
    assert_eq!(
        reference.len(),
        modified.len(),
        "weight tensors must have equal length"
    );
    if reference.is_empty() {
        return 0.0;
    }
    let mut err = 0.0f64;
    let mut base = 0.0f64;
    for (&a, &b) in reference.iter().zip(modified) {
        let d = f64::from(a) - f64::from(b);
        err += d * d;
        base += f64::from(a) * f64::from(a);
    }
    if base == 0.0 {
        if err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (err / base).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{bert_base, resnet18, TaskKind};
    use bitwave_core::group::GroupSize;

    fn resnet_proxy() -> AccuracyProxy {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 11, 4_000);
        AccuracyProxy::new(&spec, weights)
    }

    #[test]
    fn metric_selection_and_ranges() {
        assert_eq!(
            QualityMetric::for_task(TaskKind::Classification),
            QualityMetric::TopOneAccuracy
        );
        assert_eq!(
            QualityMetric::for_task(TaskKind::SpeechEnhancement),
            QualityMetric::Pesq
        );
        assert_eq!(
            QualityMetric::for_task(TaskKind::QuestionAnswering),
            QualityMetric::F1
        );
        assert_eq!(QualityMetric::Pesq.range(), 4.5);
        assert_eq!(QualityMetric::F1.range(), 100.0);
        assert_eq!(QualityMetric::TopOneAccuracy.name(), "top-1 accuracy");
    }

    #[test]
    fn unmodified_weights_keep_baseline_quality() {
        let proxy = resnet_proxy();
        let quality = proxy.quality_of(proxy.baseline_weights());
        assert!((quality - proxy.baseline_quality()).abs() < 1e-9);
        assert_eq!(proxy.weighted_perturbation(proxy.baseline_weights()), 0.0);
    }

    #[test]
    fn flipping_heavy_layers_costs_little() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 11, 4_000);
        let proxy = AccuracyProxy::new(&spec, weights);
        let mut strategy = FlipStrategy::new();
        for layer in ["layer4.0.conv1", "layer4.1.conv1", "layer4.1.conv2", "fc"] {
            strategy.set(layer, GroupSize::G16, 5);
        }
        let quality = proxy.quality_of_strategy(&strategy).unwrap();
        let drop = proxy.baseline_quality() - quality;
        assert!(drop >= 0.0);
        assert!(
            drop < 2.0,
            "flipping weight-heavy layers should cost <2 points, got {drop}"
        );
    }

    #[test]
    fn flipping_sensitive_early_layer_costs_more_per_weight() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 11, 4_000);
        let proxy = AccuracyProxy::new(&spec, weights);

        let mut early = FlipStrategy::new();
        early.set("conv1", GroupSize::G8, 6);
        let mut late = FlipStrategy::new();
        late.set("layer4.1.conv2", GroupSize::G8, 6);

        let drop_early = proxy.baseline_quality() - proxy.quality_of_strategy(&early).unwrap();
        let drop_late = proxy.baseline_quality() - proxy.quality_of_strategy(&late).unwrap();
        // conv1 is tiny but very sensitive; per flipped weight it must cost more.
        let early_weights = spec.layer("conv1").unwrap().weight_count() as f64;
        let late_weights = spec.layer("layer4.1.conv2").unwrap().weight_count() as f64;
        assert!(
            drop_early / early_weights > drop_late / late_weights,
            "early layers should be more sensitive per weight"
        );
    }

    #[test]
    fn ptq_is_worse_than_bitflip_at_matched_compression() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 11, 4_000);
        let proxy = AccuracyProxy::new(&spec, weights);

        // Bit-Flip to 4 zero columns is roughly a 2x compression of the
        // stored columns; PTQ to 4 bits is exactly 2x.
        let mut strategy = FlipStrategy::new();
        for layer in spec.layer_names() {
            strategy.set(&layer, GroupSize::G16, 4);
        }
        let q_flip = proxy.quality_of_strategy(&strategy).unwrap();
        let q_ptq = proxy.quality_of_ptq(4, None);
        assert!(
            q_flip > q_ptq,
            "SM+Bit-Flip ({q_flip:.2}) should beat PTQ ({q_ptq:.2}) at matched CR"
        );
    }

    #[test]
    fn more_zero_columns_monotonically_reduce_quality() {
        let spec = resnet18();
        let weights = NetworkWeights::generate_sampled(&spec, 11, 4_000);
        let proxy = AccuracyProxy::new(&spec, weights);
        let mut last = f64::INFINITY;
        for z in 0..=7u32 {
            let mut strategy = FlipStrategy::new();
            strategy.set("layer4.1.conv2", GroupSize::G16, z);
            let q = proxy.quality_of_strategy(&strategy).unwrap();
            assert!(
                q <= last + 1e-9,
                "quality should not improve with more flips"
            );
            last = q;
        }
    }

    #[test]
    fn bert_proxy_reports_f1() {
        let spec = bert_base();
        let weights = NetworkWeights::generate_sampled(&spec, 5, 2_000);
        let proxy = AccuracyProxy::new(&spec, weights);
        assert_eq!(proxy.metric(), QualityMetric::F1);
        assert_eq!(proxy.network(), "Bert-Base");
        assert!((proxy.baseline_quality() - 88.5).abs() < 1e-9);
    }

    #[test]
    fn relative_rms_error_conventions() {
        assert_eq!(relative_rms_error_i8(&[], &[]), 0.0);
        assert_eq!(relative_rms_error_i8(&[0, 0], &[0, 0]), 0.0);
        assert_eq!(relative_rms_error_i8(&[0, 0], &[1, 0]), f64::INFINITY);
        let e = relative_rms_error_i8(&[10, -10], &[11, -9]);
        assert!((e - 0.1).abs() < 1e-9);
    }
}
