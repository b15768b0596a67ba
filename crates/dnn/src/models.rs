//! The four benchmark networks of the paper's evaluation (Fig. 12 left):
//! ResNet18, MobileNetV2, CNN-LSTM and BERT-Base.
//!
//! The layer shapes of ResNet18, MobileNetV2 and BERT-Base follow the
//! published architectures exactly.  The CNN-LSTM is the paper authors'
//! in-house audio-denoising model (never published); we define a
//! representative CNN-LSTM in which the two LSTM layers hold ≈80 % of the
//! weights, matching the only structural facts the paper states about it
//! (Fig. 6c/g: "applying 4 to 7 zero columns on LSTM.0 and LSTM.1 (80 %
//! weights)").

use crate::layer::{LayerKind, LayerSpec};
use bitwave_tensor::synth::{ActivationKind, LayerWeightProfile, WeightDistribution};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of task a network solves, which determines the quality metric
/// the proxy reports (Fig. 6 uses accuracy, PESQ and F1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// ImageNet-style classification (top-1 accuracy, %).
    Classification,
    /// Speech enhancement (PESQ score, 1.0–4.5).
    SpeechEnhancement,
    /// Extractive question answering (F1 score, %).
    QuestionAnswering,
}

/// A full benchmark network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name as used in the paper's figures.
    pub name: String,
    /// Task kind (selects the quality metric).
    pub task: TaskKind,
    /// Baseline quality of the Int8 model (top-1 %, PESQ or F1 %).
    pub baseline_quality: f64,
    /// The layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Total number of MAC operations of one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// Total GFLOPs (2 FLOPs per MAC), the number Fig. 12 quotes.
    pub fn gflops(&self) -> f64 {
        self.total_macs() as f64 * 2.0 / 1e9
    }

    /// Total number of weight parameters.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weight_count).sum()
    }

    /// Looks a layer up by name.
    pub fn layer(&self, name: &str) -> Option<&LayerSpec> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Layer names in execution order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name.clone()).collect()
    }

    /// The layers holding the top `fraction` of the network's weights,
    /// heaviest first — the paper's "weight-heavy layers" that Bit-Flip
    /// targets first (e.g. ResNet18 layer4 + fc ≈ 70 % of weights).
    pub fn weight_heavy_layers(&self, fraction: f64) -> Vec<&LayerSpec> {
        let mut sorted: Vec<&LayerSpec> = self.layers.iter().collect();
        sorted.sort_by_key(|l| std::cmp::Reverse(l.weight_count()));
        let target = (self.total_weights() as f64 * fraction.clamp(0.0, 1.0)) as u64;
        let mut acc = 0u64;
        let mut out = Vec::new();
        for layer in sorted {
            if acc >= target {
                break;
            }
            acc += layer.weight_count();
            out.push(layer);
        }
        out
    }

    /// One row of the Fig. 12 workload table.
    pub fn summary(&self) -> WorkloadSummary {
        WorkloadSummary {
            name: self.name.clone(),
            task: self.task,
            layers: self.layers.len(),
            gflops: self.gflops(),
            params_millions: self.total_weights() as f64 / 1e6,
            baseline_quality: self.baseline_quality,
        }
    }
}

/// Summary row of the Fig. 12 workload table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    /// Network name.
    pub name: String,
    /// Task kind.
    pub task: TaskKind,
    /// Number of weight layers.
    pub layers: usize,
    /// GFLOPs per inference.
    pub gflops: f64,
    /// Parameter count in millions.
    pub params_millions: f64,
    /// Baseline model quality.
    pub baseline_quality: f64,
}

/// Sensitivity heuristic shared by the CNN models: early, weight-light layers
/// are more sensitive to perturbation than late, weight-heavy ones
/// (observed in Fig. 6a–c).
fn cnn_sensitivity(layer_index: usize, total_layers: usize) -> f64 {
    let depth_fraction = layer_index as f64 / total_layers.max(1) as f64;
    // 1.0 for the first layer decaying towards 0.25 for the last.
    1.0 - 0.75 * depth_fraction
}

/// Builds the ResNet18 specification (ImageNet, 224×224 input).
pub fn resnet18() -> NetworkSpec {
    let mut layers = Vec::new();
    let total = 21;
    let mut idx = 0usize;
    let mut sens = |i: &mut usize| {
        let s = cnn_sensitivity(*i, total);
        *i += 1;
        s
    };

    layers.push(
        LayerSpec::conv2d("conv1", 3, 64, 7, 2, 3, 224, sens(&mut idx))
            .with_weight_profile(LayerWeightProfile::weight_light()),
    );

    // Four residual stages of two BasicBlocks each.
    let stage = |layers: &mut Vec<LayerSpec>,
                 idx: &mut usize,
                 sens: &mut dyn FnMut(&mut usize) -> f64,
                 stage_no: usize,
                 in_ch: usize,
                 out_ch: usize,
                 in_hw: usize,
                 stride: usize| {
        let out_hw = in_hw / stride;
        // Block 0 (possibly strided, with a 1x1 downsample projection).
        layers.push(LayerSpec::conv2d(
            format!("layer{stage_no}.0.conv1"),
            in_ch,
            out_ch,
            3,
            stride,
            1,
            in_hw,
            sens(idx),
        ));
        layers.push(LayerSpec::conv2d(
            format!("layer{stage_no}.0.conv2"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            out_hw,
            sens(idx),
        ));
        if stride != 1 || in_ch != out_ch {
            layers.push(LayerSpec::conv2d(
                format!("layer{stage_no}.0.downsample"),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                in_hw,
                sens(idx),
            ));
        }
        // Block 1.
        layers.push(LayerSpec::conv2d(
            format!("layer{stage_no}.1.conv1"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            out_hw,
            sens(idx),
        ));
        layers.push(LayerSpec::conv2d(
            format!("layer{stage_no}.1.conv2"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            out_hw,
            sens(idx),
        ));
    };

    stage(&mut layers, &mut idx, &mut sens, 1, 64, 64, 56, 1);
    stage(&mut layers, &mut idx, &mut sens, 2, 64, 128, 56, 2);
    stage(&mut layers, &mut idx, &mut sens, 3, 128, 256, 28, 2);
    stage(&mut layers, &mut idx, &mut sens, 4, 256, 512, 14, 2);

    layers.push(LayerSpec::linear("fc", 512, 1000, 1, 0.25));

    NetworkSpec {
        name: "ResNet18".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 69.76,
        layers,
    }
}

/// Builds the MobileNetV2 specification (ImageNet, 224×224 input).
pub fn mobilenet_v2() -> NetworkSpec {
    let mut layers = Vec::new();
    // (expansion t, output channels c, repeats n, stride s) — Table 2 of the
    // MobileNetV2 paper.
    let config: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];

    let mut layer_no = 0usize;
    let total_convs = 52;
    let next_sens = |layer_no: &mut usize| {
        let s = cnn_sensitivity(*layer_no, total_convs);
        *layer_no += 1;
        s
    };

    layers.push(
        LayerSpec::conv2d(
            "features.0.conv",
            3,
            32,
            3,
            2,
            1,
            224,
            next_sens(&mut layer_no),
        )
        .with_weight_profile(LayerWeightProfile::weight_light()),
    );

    let mut in_ch = 32usize;
    let mut hw = 112usize;
    let mut block_no = 0usize;
    for &(t, c, n, s) in &config {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let expanded = in_ch * t;
            block_no += 1;
            if t != 1 {
                layers.push(LayerSpec::pointwise(
                    format!("block{block_no}.expand"),
                    in_ch,
                    expanded,
                    hw,
                    next_sens(&mut layer_no),
                ));
            }
            let out_hw = if stride == 2 { hw / 2 } else { hw };
            layers.push(LayerSpec::depthwise(
                format!("block{block_no}.dwconv"),
                expanded,
                3,
                stride,
                1,
                hw,
                next_sens(&mut layer_no),
            ));
            layers.push(LayerSpec::pointwise(
                format!("block{block_no}.project"),
                expanded,
                c,
                out_hw,
                next_sens(&mut layer_no),
            ));
            in_ch = c;
            hw = out_hw;
        }
    }

    layers.push(LayerSpec::pointwise(
        "features.18.conv",
        in_ch,
        1280,
        hw,
        next_sens(&mut layer_no),
    ));
    layers.push(LayerSpec::linear("classifier", 1280, 1000, 1, 0.3));

    NetworkSpec {
        name: "MobileNetV2".to_string(),
        task: TaskKind::Classification,
        baseline_quality: 71.88,
        layers,
    }
}

/// Builds the CNN-LSTM audio-denoising specification.
///
/// The authors' model is private (reference \[6\] of the paper); this
/// substitute keeps the two structural facts the paper relies on: the model
/// mixes convolutional front-end layers with two LSTM layers, and `LSTM.0` +
/// `LSTM.1` hold roughly 80 % of the weights.
pub fn cnn_lstm() -> NetworkSpec {
    let timesteps = 100; // ~1 s of 10 ms audio frames
    let freq_bins = 257; // 512-point STFT magnitude spectrum
    let mut layers = Vec::new();

    // Convolutional front-end over the spectrogram (treated as 1-D convs
    // along time, i.e. OY = 1).
    let conv_channels = [(1usize, 64usize), (64, 128), (128, 64)];
    for (i, &(cin, cout)) in conv_channels.iter().enumerate() {
        let mut spec = LayerSpec::conv2d(
            format!("conv.{i}"),
            cin,
            cout,
            3,
            1,
            1,
            16,
            1.0 - 0.15 * i as f64,
        );
        // Flatten the spectrogram geometry into a time-only convolution.
        spec.dims.oy = 1;
        spec.dims.ox = timesteps;
        spec.dims.fy = 1;
        spec.dims.fx = 3;
        layers.push(spec);
    }

    // Two stacked LSTM layers dominate the weight budget (≈80 %).
    let lstm_input = 64 * 32; // 64 channels × 32 pooled frequency features
    layers.push(LayerSpec::lstm_gates(
        "lstm.0", lstm_input, 400, timesteps, 0.45,
    ));
    layers.push(LayerSpec::lstm_gates("lstm.1", 400, 400, timesteps, 0.4));

    // Mask-estimation head.
    layers.push(
        LayerSpec::linear("fc.1", 400, 2048, timesteps, 0.55)
            .with_activation(ActivationKind::Gaussianlike { std: 1.0 }),
    );
    layers.push(
        LayerSpec::linear("fc.mask", 2048, freq_bins, timesteps, 0.6)
            .with_activation(ActivationKind::Gaussianlike { std: 1.0 }),
    );

    NetworkSpec {
        name: "CNN-LSTM".to_string(),
        task: TaskKind::SpeechEnhancement,
        baseline_quality: 2.95, // PESQ of the Int8 baseline
        layers,
    }
}

/// Builds the BERT-Base specification (12 encoder layers, hidden 768,
/// FFN 3072), evaluated at the paper's input token size of 4 (Fig. 13).
pub fn bert_base() -> NetworkSpec {
    bert_base_with_tokens(4)
}

/// BERT-Base with an explicit input token count (the paper uses 4; larger
/// token counts are useful for utilisation experiments).
pub fn bert_base_with_tokens(tokens: usize) -> NetworkSpec {
    let hidden = 768usize;
    let ffn = 3072usize;
    let mut layers = Vec::new();
    for l in 0..12usize {
        // The paper observes encoder layers 1-3 to be especially sensitive
        // (Fig. 6d); encode that in the sensitivity profile.
        let sensitivity = if (1..=3).contains(&l) { 1.0 } else { 0.35 };
        let profile = LayerWeightProfile {
            distribution: WeightDistribution::Gaussian { std: 0.035 },
            dynamic_range_utilisation: 0.95,
        };
        for proj in ["q", "k", "v", "output"] {
            layers.push(
                LayerSpec::transformer(
                    format!("bert.encoder.layer.{l}.attention.{proj}"),
                    LayerKind::AttentionProjection,
                    hidden,
                    hidden,
                    tokens,
                    sensitivity,
                )
                .with_weight_profile(profile),
            );
        }
        layers.push(
            LayerSpec::transformer(
                format!("bert.encoder.layer.{l}.intermediate"),
                LayerKind::FeedForward,
                hidden,
                ffn,
                tokens,
                sensitivity * 0.8,
            )
            .with_weight_profile(profile),
        );
        layers.push(
            LayerSpec::transformer(
                format!("bert.encoder.layer.{l}.ffn_output"),
                LayerKind::FeedForward,
                ffn,
                hidden,
                tokens,
                sensitivity * 0.8,
            )
            .with_weight_profile(profile),
        );
    }
    layers.push(LayerSpec::transformer(
        "qa_outputs",
        LayerKind::Linear,
        hidden,
        2,
        tokens,
        0.3,
    ));

    NetworkSpec {
        name: "Bert-Base".to_string(),
        task: TaskKind::QuestionAnswering,
        baseline_quality: 88.5, // SQuAD v1.1 F1 of the Int8 baseline
        layers,
    }
}

/// All four benchmark networks in the order the paper's figures use.
pub fn all_networks() -> Vec<NetworkSpec> {
    vec![resnet18(), mobilenet_v2(), cnn_lstm(), bert_base()]
}

/// Canonical registry names of the benchmark networks, in the order the
/// paper's figures use.  These are the identifiers [`by_name`] resolves and
/// the evaluation service exposes under `GET /v1/models`.
pub const MODEL_NAMES: [&str; 4] = ["resnet18", "mobilenet-v2", "cnn-lstm", "bert-base"];

/// A model name that [`by_name`] could not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelError {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown model `{}` (known models: {})",
            self.name,
            MODEL_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownModelError {}

/// Looks a benchmark network up by its canonical registry name.
///
/// Matching is case-insensitive and treats `_` and `-` as equivalent, so
/// `ResNet18`, `resnet18`, `mobilenet_v2` and `mobilenet-v2` all resolve.
///
/// # Errors
///
/// Returns [`UnknownModelError`] (listing the known names) when the name
/// does not resolve.
pub fn by_name(name: &str) -> Result<NetworkSpec, UnknownModelError> {
    let canonical: String = name
        .trim()
        .chars()
        .map(|c| match c {
            '_' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect();
    match canonical.as_str() {
        "resnet18" => Ok(resnet18()),
        "mobilenet-v2" | "mobilenetv2" => Ok(mobilenet_v2()),
        "cnn-lstm" | "cnnlstm" => Ok(cnn_lstm()),
        "bert-base" | "bertbase" | "bert" => Ok(bert_base()),
        _ => Err(UnknownModelError {
            name: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_parameter_and_flop_budget() {
        let net = resnet18();
        // Conv + fc weights of ResNet18 total ≈ 11.17 M parameters
        // (the canonical 11.69 M count includes BN and biases, which carry no
        // MACs on the accelerator).
        let params = net.total_weights();
        assert!(
            (11_000_000..11_800_000).contains(&params),
            "unexpected ResNet18 parameter count {params}"
        );
        // ≈ 1.82 GMACs → 3.6 GFLOPs.
        let gflops = net.gflops();
        assert!(
            (3.0..4.0).contains(&gflops),
            "unexpected ResNet18 GFLOPs {gflops}"
        );
        assert_eq!(net.layers.len(), 21);
    }

    #[test]
    fn mobilenet_v2_parameter_and_flop_budget() {
        let net = mobilenet_v2();
        let params = net.total_weights();
        // ≈ 3.4 M conv/fc parameters.
        assert!(
            (2_900_000..3_800_000).contains(&params),
            "unexpected MobileNetV2 parameter count {params}"
        );
        let gflops = net.gflops();
        assert!(
            (0.5..0.7).contains(&gflops),
            "unexpected MobileNetV2 GFLOPs {gflops}"
        );
        // 17 inverted-residual blocks plus stem, head and classifier.
        assert!(net.layers.iter().any(|l| l.kind.is_depthwise()));
    }

    #[test]
    fn bert_base_parameter_budget() {
        let net = bert_base();
        let params = net.total_weights();
        // Encoder-only matmul weights: 12 * (4*768*768 + 2*768*3072) ≈ 85 M.
        assert!(
            (84_000_000..87_000_000).contains(&params),
            "unexpected BERT parameter count {params}"
        );
        assert_eq!(net.layers.len(), 12 * 6 + 1);
        // At 4 tokens the compute is small even though the model is large.
        assert!(net.gflops() < 1.0);
    }

    #[test]
    fn cnn_lstm_is_lstm_dominated() {
        let net = cnn_lstm();
        let total = net.total_weights() as f64;
        let lstm: u64 = net
            .layers
            .iter()
            .filter(|l| l.name.starts_with("lstm"))
            .map(LayerSpec::weight_count)
            .sum();
        let share = lstm as f64 / total;
        assert!(
            (0.7..0.95).contains(&share),
            "LSTM layers should hold ~80% of weights, got {share:.2}"
        );
    }

    #[test]
    fn weight_heavy_layers_cover_requested_fraction() {
        let net = resnet18();
        let heavy = net.weight_heavy_layers(0.7);
        let covered: u64 = heavy.iter().map(|l| l.weight_count()).sum();
        assert!(covered as f64 >= 0.7 * net.total_weights() as f64);
        // The heaviest layers of ResNet18 live in layer4 and fc.
        assert!(heavy.iter().all(|l| l.name.starts_with("layer4")
            || l.name == "fc"
            || l.name.starts_with("layer3")));
    }

    #[test]
    fn summaries_have_sensible_fields() {
        for net in all_networks() {
            let s = net.summary();
            assert_eq!(s.name, net.name);
            assert!(s.gflops > 0.0);
            assert!(s.params_millions > 0.0);
            assert!(s.layers > 5);
            assert!(net.layer(&net.layers[0].name).is_some());
            assert_eq!(net.layer_names().len(), net.layers.len());
        }
    }

    #[test]
    fn sensitivity_decreases_with_depth_for_cnns() {
        let net = resnet18();
        let first = net.layers.first().unwrap().sensitivity;
        let last_conv = net
            .layers
            .iter()
            .rfind(|l| !l.kind.is_matmul())
            .unwrap()
            .sensitivity;
        assert!(first > last_conv);
    }

    #[test]
    fn bert_sensitive_layers_match_paper_observation() {
        let net = bert_base();
        let layer1 = net
            .layer("bert.encoder.layer.1.attention.q")
            .unwrap()
            .sensitivity;
        let layer10 = net
            .layer("bert.encoder.layer.10.attention.q")
            .unwrap()
            .sensitivity;
        assert!(layer1 > layer10);
    }

    #[test]
    fn registry_resolves_every_canonical_name() {
        for name in MODEL_NAMES {
            assert!(by_name(name).is_ok(), "registry must resolve `{name}`");
        }
        assert_eq!(MODEL_NAMES.len(), all_networks().len());
    }

    #[test]
    fn registry_is_case_and_separator_insensitive() {
        assert_eq!(by_name("ResNet18").unwrap().name, "ResNet18");
        assert_eq!(by_name("mobilenet_v2").unwrap().name, "MobileNetV2");
        assert_eq!(by_name("CNN-LSTM").unwrap().name, "CNN-LSTM");
        assert_eq!(by_name("bert").unwrap().name, "Bert-Base");
    }

    #[test]
    fn registry_rejects_unknown_names_with_the_known_list() {
        let err = by_name("alexnet").unwrap_err();
        assert_eq!(err.name, "alexnet");
        let msg = err.to_string();
        assert!(msg.contains("alexnet") && msg.contains("resnet18"));
    }

    #[test]
    fn token_count_scales_bert_compute_linearly() {
        let a = bert_base_with_tokens(4).total_macs();
        let b = bert_base_with_tokens(8).total_macs();
        assert_eq!(b, a * 2);
    }
}
