//! # bitwave-tensor
//!
//! Tensor, quantisation and binary-representation substrate for the BitWave
//! (HPCA 2024) reproduction.
//!
//! The BitWave paper operates exclusively on **Int8 post-training-quantised**
//! networks and exploits the *bit-level* structure of the quantised weights.
//! This crate therefore provides:
//!
//! * [`shape::Shape`] — lightweight N-dimensional shapes (up to 4-D, NCHW).
//! * [`tensor::FloatTensor`] / [`tensor::QuantTensor`] — dense float and Int8
//!   tensors with affine quantisation parameters.
//! * [`quant`] — affine post-training quantisation (per-tensor and
//!   per-channel), re-quantisation to fewer than 8 bits (the paper's
//!   "Int8+PTQ" baseline of Fig. 6), and dequantisation.
//! * [`sm`] — sign-magnitude ⇄ two's-complement codecs and bit-plane helpers,
//!   the representation change at the heart of bit-column sparsity
//!   (Section III-B of the paper).
//! * [`bitplane`] — bitplane-packed weight representation
//!   ([`bitplane::BitplaneTensor`]): one `u64` word = 64 weights' bit-`k`
//!   column, the hardware's own memory layout (Fig. 10) applied to the
//!   analysis kernels so sparsity statistics, BCS sizing and Bit-Flip
//!   screening run on word-parallel `count_ones`/mask ops.
//! * [`synth`] — synthetic weight/activation generators whose distributions
//!   are calibrated so that the *sparsity statistics* of the generated
//!   tensors match the ranges the paper reports.
//! * [`metrics`] — RMS error, SQNR and cosine similarity used by the accuracy
//!   proxy in `bitwave-dnn`.
//! * [`handle::WeightHandle`] — `Arc`-backed shared weight handles, the
//!   zero-copy ownership model of the pipeline; paired with
//!   [`copy_metrics`], which counts every `QuantTensor` deep copy so benches
//!   can gate on copy-free hot paths.
//!
//! # Example
//!
//! ```
//! use bitwave_tensor::prelude::*;
//!
//! # fn main() -> Result<(), TensorError> {
//! // Generate a synthetic conv-like weight tensor and quantise it to Int8.
//! let gen = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.04 }, 42);
//! let w = gen.generate(Shape::conv_weight(64, 64, 3, 3));
//! let q = quantize_per_tensor(&w, 8)?;
//! assert_eq!(q.shape(), w.shape());
//! // Round-trip through sign-magnitude preserves the value.
//! let v: i8 = -42;
//! assert_eq!(sm::from_sign_magnitude(sm::to_sign_magnitude(v)), v);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitplane;
pub mod bits;
pub mod copy_metrics;
pub mod error;
pub mod handle;
pub mod metrics;
pub mod quant;
pub mod shape;
pub mod sm;
pub mod synth;
pub mod tensor;

pub use error::TensorError;
pub use handle::WeightHandle;
pub use quant::{quantize_per_channel, quantize_per_tensor, QuantParams};
pub use shape::Shape;
pub use tensor::{FloatTensor, QuantTensor};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bitplane::{BitplaneTensor, GroupPlanes};
    pub use crate::bits::{bit, bit_columns, magnitude_bits, MAGNITUDE_BITS, WORD_BITS};
    pub use crate::error::TensorError;
    pub use crate::handle::WeightHandle;
    pub use crate::metrics::{cosine_similarity, rms_error, sqnr_db};
    pub use crate::quant::{
        dequantize, quantize_per_channel, quantize_per_tensor, requantize_to_bits, QuantParams,
    };
    pub use crate::shape::Shape;
    pub use crate::sm;
    pub use crate::synth::{ActivationGenerator, WeightDistribution, WeightGenerator};
    pub use crate::tensor::{FloatTensor, QuantTensor};
}
