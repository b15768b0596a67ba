//! Analytical-model-vs-simulator validation (Section V-B: "The presented
//! model has been validated against the RTL model of BitWave, demonstrating
//! a deviation of less than 6 %").
//!
//! We do not have the authors' RTL, but the same validation role is played by
//! the cycle-level engine of this crate.  The caller prices a layer with the
//! production Eq. 1–5 model (`bitwave-accel`'s `evaluate_layer_with_mapping`)
//! and runs the same workload on the engine; a [`ValidationReport`] compares
//! the two.  This crate holds no model of its own: the engine is the only
//! source of the simulated numbers, the caller the only source of the priced
//! ones.

use crate::engine::SimStats;
use serde::{Deserialize, Serialize};

/// Outcome of one validation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Compute cycles measured by the cycle-level engine.
    pub simulated_cycles: u64,
    /// Compute cycles predicted by the analytical model (Eq. 2).
    pub model_cycles: f64,
    /// Relative deviation `|sim − model| / sim`.
    pub deviation: f64,
    /// Weight compression ratio measured on the streamed weights.
    pub simulated_compression_ratio: f64,
    /// Weight compression ratio predicted by the BCS codec statistics.
    pub model_compression_ratio: f64,
}

impl ValidationReport {
    /// Compares the engine's `stats` with the caller's priced compute cycles
    /// and BCS compression ratio for the same workload.
    pub fn new(stats: &SimStats, model_cycles: f64, model_compression_ratio: f64) -> Self {
        let sim = stats.compute_cycles as f64;
        let deviation = if sim == 0.0 {
            if model_cycles == 0.0 {
                0.0
            } else {
                1.0
            }
        } else {
            (sim - model_cycles).abs() / sim
        };
        Self {
            simulated_cycles: stats.compute_cycles,
            model_cycles,
            deviation,
            simulated_compression_ratio: stats.weight_compression_ratio(),
            model_compression_ratio,
        }
    }

    /// Whether the deviation is within the paper's reported 6 % bound.
    pub fn within_paper_bound(&self) -> bool {
        self.deviation < 0.06
    }
}
