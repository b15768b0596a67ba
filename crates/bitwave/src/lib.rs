//! # bitwave
//!
//! High-level facade of the BitWave (HPCA 2024) reproduction.  It re-exports
//! the substrate crates, provides the unified per-layer [`pipeline`]
//! (compress → bit-flip → map → simulate) and one **experiment driver per
//! table and figure** of the paper's evaluation, so that the benchmark
//! harness, the examples and downstream users can regenerate every result
//! with a single function call.
//!
//! | module | contents |
//! |--------|----------|
//! | [`context`] | shared experiment configuration (seed, sampling cap, group size, memory, energy model) |
//! | [`digest`] | stable FNV-1a/128 content digests over canonical JSON (request/report addressing for `bitwave-serve`) |
//! | [`pipeline`] | the typed compress → bit-flip → map → simulate layer pipeline and its one whole-model entry point, the layer-parallel `Pipeline::run` |
//! | [`error`] | [`BitwaveError`], the unified error propagated across all crate boundaries |
//! | [`experiments::sparsity`] | Fig. 1, Fig. 4, Fig. 5 — sparsity survey, representation study, compression-ratio sweep |
//! | [`experiments::bitflip`] | Fig. 6 — layer sensitivity and CR-vs-quality Pareto fronts |
//! | [`experiments::hardware`] | Fig. 9, Table I, Fig. 12, Table III, Table IV, Fig. 18 |
//! | [`experiments::evaluation`] | Fig. 13–17 speedup / energy / efficiency comparisons and the model-vs-simulator validation |
//!
//! # Quickstart
//!
//! ```
//! use bitwave::context::ExperimentContext;
//! use bitwave::experiments::sparsity::fig01_sparsity_survey;
//!
//! // Use a tiny sampling cap to keep the doctest fast; the benches use the
//! // default (much larger) cap.
//! let ctx = ExperimentContext::default().with_sample_cap(2_000);
//! let rows = fig01_sparsity_survey(&ctx).unwrap();
//! assert_eq!(rows.len(), 4);
//! for row in &rows {
//!     assert!(row.bit_sparsity_sign_magnitude >= row.value_sparsity);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod digest;
pub mod error;
pub mod experiments;
pub mod pipeline;

pub use bitwave_accel as accel;
pub use bitwave_core as core;
pub use bitwave_dataflow as dataflow;
pub use bitwave_dnn as dnn;
pub use bitwave_dse as dse;
pub use bitwave_sim as sim;
pub use bitwave_tensor as tensor;

pub use context::ExperimentContext;
pub use error::{BitwaveError, Result};
pub use pipeline::{LayerReport, ModelReport, Pipeline};
