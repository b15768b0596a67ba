//! One experiment driver per table and figure of the paper's evaluation.
//!
//! Every driver takes an [`crate::context::ExperimentContext`] and returns a
//! vector of serialisable rows; the benchmark harness prints them as the
//! tables/series the paper reports.  README.md maps each paper result to
//! its driver.

pub mod bitflip;
pub mod evaluation;
pub mod hardware;
pub mod sparsity;
