//! Cycle-level cross-validation of searched mappings.
//!
//! The search itself costs candidates with the analytical Eq. 1–5 model —
//! fast enough for thousands of candidates per layer.  This module closes
//! the loop with `bitwave-sim`'s functional BCE array: a winning
//! `Cu × OXu × Ku` mapping is lowered onto an [`EngineConfig`] and a real
//! weight tensor is streamed through the cycle-level engine, reproducing the
//! paper's model-vs-RTL validation (Section V-B, < 6 % deviation) for
//! *searched* dataflows rather than only the fixed Table I menu.

use crate::cost::EvaluatedMapping;
use crate::error::{DseError, Result};
use bitwave_dataflow::su::SpatialUnrolling;
use bitwave_sim::engine::EngineConfig;
use bitwave_sim::validate::{validate_layer, ValidationReport};
use bitwave_tensor::QuantTensor;

/// Lowers a `Cu × OXu × Ku` spatial unrolling onto the cycle-level BCE
/// array.  Returns `None` for shapes the engine cannot execute: depthwise
/// `Gu` unrolling, kernel-dimension unrolling, `OYu > 1`, a zero `Ku` or
/// `OXu`, or a `Cu` outside the BCE lane range (`1..=`[`BCE_LANES`](bitwave_sim::bce::BCE_LANES)).
pub fn engine_config_for(su: &SpatialUnrolling) -> Option<EngineConfig> {
    if su.g != 1 || su.fx != 1 || su.fy != 1 || su.oy != 1 {
        return None;
    }
    let config = EngineConfig {
        ku: su.k,
        mu: su.ox,
        lanes: su.c,
        // Eight kernels share one packed weight segment (Fig. 10) unless the
        // mapping unrolls fewer output channels.
        sync_kernels: su.k.min(8),
    };
    config.validate().ok().map(|()| config)
}

/// Cross-validates a searched mapping's compute-cycle model against the
/// cycle-level engine on a lowered matrix multiplication (`input: M×C`,
/// `weights: K×C`).
///
/// # Errors
///
/// [`DseError::UnliftableMapping`] when the mapping's shape cannot run on
/// the BCE array, and [`DseError::Sim`] for engine/shape failures.
pub fn validate_mapping(
    input: &QuantTensor,
    weights: &QuantTensor,
    mapping: &EvaluatedMapping,
) -> Result<ValidationReport> {
    let config = engine_config_for(&mapping.su).ok_or_else(|| DseError::UnliftableMapping {
        label: mapping.label.clone(),
    })?;
    Ok(validate_layer(input, weights, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MappingCost;
    use bitwave_dataflow::su::bitwave_su;
    use bitwave_tensor::prelude::*;

    fn mapping(su: SpatialUnrolling) -> EvaluatedMapping {
        EvaluatedMapping {
            label: su.name.to_string(),
            su,
            temporal: None,
            utilization: 1.0,
            effective_macs_per_cycle: su.parallelism() as f64,
            cost: MappingCost {
                compute_cycles: 0.0,
                dram_cycles: 0.0,
                total_cycles: 0.0,
                energy_pj: 0.0,
                edp: 0.0,
            },
        }
    }

    fn tensor(rows: usize, cols: usize, seed: i8) -> QuantTensor {
        let data: Vec<i8> = (0..rows * cols)
            .map(|i| ((i as i64 * 37 + i64::from(seed)) % 17 - 8) as i8)
            .collect();
        QuantTensor::new(Shape::d2(rows, cols), data, QuantParams::unit()).unwrap()
    }

    #[test]
    fn cxk_mappings_lower_onto_the_engine() {
        let config = engine_config_for(&bitwave_su::SU1).unwrap();
        assert_eq!(config.ku, 32);
        assert_eq!(config.mu, 16);
        assert_eq!(config.lanes, 8);
        assert_eq!(config.sync_kernels, 8);
        assert!(engine_config_for(&bitwave_su::SU7).is_none(), "Gu unrolls");
        let wide = SpatialUnrolling::cxk("DSE", 128, 1, 32);
        assert!(engine_config_for(&wide).is_none(), "Cu beyond lane range");
        let empty = SpatialUnrolling::cxk("DSE", 8, 1, 0);
        assert!(engine_config_for(&empty).is_none(), "Ku = 0");
    }

    #[test]
    fn searched_mapping_validates_within_the_paper_bound() {
        // A small lowered matmul: 32 output positions × 16 kernels × 64 ch.
        let input = tensor(32, 64, 1);
        let weights = tensor(16, 64, 5);
        let su = SpatialUnrolling::cxk("DSE", 8, 4, 8);
        let report = validate_mapping(&input, &weights, &mapping(su)).unwrap();
        assert!(report.simulated_cycles > 0);
        assert!(
            report.within_paper_bound(),
            "deviation {:.3} exceeds the 6% bound",
            report.deviation
        );
    }

    #[test]
    fn unliftable_mappings_are_a_typed_error() {
        let input = tensor(8, 64, 2);
        let weights = tensor(8, 64, 3);
        let err = validate_mapping(&input, &weights, &mapping(bitwave_su::SU7)).unwrap_err();
        assert!(matches!(err, DseError::UnliftableMapping { .. }));
        // Table I mappings wider than one BCE (Cu = 16 or 32) are refused
        // up front instead of reaching the engine.
        for su in [
            bitwave_su::SU2,
            bitwave_su::SU3,
            bitwave_su::SU5,
            bitwave_su::SU6,
        ] {
            let err = validate_mapping(&input, &weights, &mapping(su)).unwrap_err();
            assert!(
                matches!(err, DseError::UnliftableMapping { ref label } if label == su.name),
                "{}: {err:?}",
                su.name
            );
        }
    }
}
