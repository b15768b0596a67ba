//! # bitwave-dnn
//!
//! The DNN substrate of the BitWave (HPCA 2024) reproduction: the four
//! benchmark workloads of the paper's evaluation (ResNet18, MobileNetV2,
//! CNN-LSTM and BERT-Base), expressed as layer-exact loop-nest descriptions,
//! plus an Int8 reference inference path and the accuracy proxy used by the
//! Bit-Flip search.
//!
//! * [`layer`] — layer specifications: every layer is normalised onto the
//!   paper's 7-dimensional loop nest `B, K, C, OY, OX, FY, FX` (Fig. 2) so
//!   the dataflow and accelerator models can treat convolutions, depthwise
//!   convolutions, linear layers, LSTM gates and attention projections
//!   uniformly.
//! * [`models`] — the four networks with layer-exact shapes and the Fig. 12
//!   workload summary (GFLOPs, parameter count, model type).
//! * [`weights`] — synthetic Int8 weights per layer, calibrated so that the
//!   sparsity statistics match the ranges the paper reports.
//! * [`infer`] — exact Int8 reference kernels (conv2d, depthwise conv,
//!   linear) used as the golden model for the cycle-level simulator.
//! * [`proxy`] — the task-quality proxy (accuracy / F1 / PESQ) that maps
//!   weight perturbation to an estimated quality drop, standing in for the
//!   datasets we do not have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod infer;
pub mod layer;
pub mod models;
pub mod proxy;
pub mod weights;

pub use layer::{LayerKind, LayerSpec, LoopDims};
pub use models::{all_networks, bert_base, cnn_lstm, mobilenet_v2, resnet18, NetworkSpec};
pub use weights::NetworkWeights;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::infer::{conv2d_int8, depthwise_conv2d_int8, linear_int8};
    pub use crate::layer::{LayerKind, LayerSpec, LoopDims};
    pub use crate::models::{
        all_networks, bert_base, cnn_lstm, mobilenet_v2, resnet18, NetworkSpec, WorkloadSummary,
    };
    pub use crate::proxy::{AccuracyProxy, QualityMetric};
    pub use crate::weights::NetworkWeights;
}
