//! End-to-end evaluation experiments: Fig. 13 (speedup breakdown), Fig. 14
//! (speedup vs SotA), Fig. 15 (energy), Fig. 16 (energy breakdown), Fig. 17
//! (energy efficiency) and the model-vs-simulator validation of Section V-B.
//!
//! Every accelerator evaluation runs through the [`crate::pipeline`]: one
//! [`Pipeline`] per accelerator configuration, sharing one generated weight
//! set per network.

use crate::context::ExperimentContext;
use crate::error::Result;
use crate::pipeline::{ModelReport, Pipeline};
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_dnn::models::{all_networks, NetworkSpec};
use bitwave_sim::engine::EngineConfig;
use bitwave_sim::validate::{validate_layer, ValidationReport};
use bitwave_tensor::prelude::*;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One bar of Fig. 13: a BitWave optimisation step on one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig13Row {
    /// Network name.
    pub network: String,
    /// Optimisation step ("Dense", "DF", "DF+SM", "DF+SM+BF").
    pub step: String,
    /// Speedup relative to the Dense configuration (higher is better).
    pub speedup_vs_dense: f64,
}

/// One bar of the Fig. 14/15/17 SotA comparisons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SotaComparisonRow {
    /// Network name.
    pub network: String,
    /// Accelerator label.
    pub accelerator: String,
    /// Speedup normalised to SCNN (Fig. 14, higher is better).
    pub speedup_vs_scnn: f64,
    /// Energy normalised to BitWave+DF+SM+BF (Fig. 15, lower is better).
    pub energy_vs_bitwave: f64,
    /// Energy efficiency normalised to SCNN (Fig. 17, higher is better).
    pub efficiency_vs_scnn: f64,
    /// Fraction of this accelerator's energy spent in DRAM (Fig. 16 context).
    pub dram_energy_fraction: f64,
}

/// One row of the Fig. 16 energy breakdown for BitWave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig16Row {
    /// Network name.
    pub network: String,
    /// Compute (PE array) energy share.
    pub compute_fraction: f64,
    /// On-chip SRAM energy share.
    pub sram_fraction: f64,
    /// Register energy share.
    pub register_fraction: f64,
    /// Off-chip DRAM energy share.
    pub dram_fraction: f64,
    /// Absolute total energy in millijoules.
    pub total_mj: f64,
}

/// Evaluates one network on every accelerator of the comparison plus the
/// BitWave variants, returning `(label, report)` pairs.  One pipeline per
/// configuration; the BitWave+BF configuration enables the Bit-Flip stage.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn evaluate_all_accelerators(
    ctx: &ExperimentContext,
    spec: &NetworkSpec,
) -> Result<Vec<(String, ModelReport)>> {
    let weights = ctx.weights(spec);
    // The compress/bit-flip prefix is accelerator independent: prepare the
    // baseline and the flipped variant once, then run only the map+simulate
    // suffix per accelerator.
    let baseline = Pipeline::new(ctx.clone()).prepare_with_weights(spec, &weights)?;
    let flipped = Pipeline::new(ctx.clone())
        .with_default_bitflip(spec)
        .prepare_with_weights(spec, &weights)?;
    let configs: Vec<(AcceleratorSpec, bool)> = vec![
        (AcceleratorSpec::dense(), false),
        (
            AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_only()),
            false,
        ),
        (
            AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_sm()),
            false,
        ),
        (AcceleratorSpec::bitwave(BitwaveOptimizations::all()), true),
        (AcceleratorSpec::scnn(), false),
        (AcceleratorSpec::stripes(), false),
        (AcceleratorSpec::pragmatic(), false),
        (AcceleratorSpec::bitlet(), false),
        (AcceleratorSpec::huaa(), false),
    ];
    configs
        .par_iter()
        .map(|(accel, use_bitflip)| {
            let pipeline = Pipeline::new(ctx.clone()).with_accelerator(accel.clone());
            let prepared = if *use_bitflip { &flipped } else { &baseline };
            let report = pipeline.simulate_prepared(spec, prepared)?;
            Ok((accel.label.clone(), report))
        })
        .collect()
}

/// Fig. 13: the speedup breakdown Dense → +DF → +SM → +BF for every network.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig13_speedup_breakdown(ctx: &ExperimentContext) -> Result<Vec<Fig13Row>> {
    let per_network: Vec<Vec<Fig13Row>> = all_networks()
        .par_iter()
        .map(|spec| -> Result<Vec<Fig13Row>> {
            let results = evaluate_all_accelerators(ctx, spec)?;
            let get = |label: &str| {
                results
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, r)| r)
                    .expect("configuration evaluated")
            };
            let dense = get("Dense");
            Ok([
                ("Dense", dense),
                ("DF", get("BitWave+DF")),
                ("DF+SM", get("BitWave+DF+SM")),
                ("DF+SM+BF", get("BitWave+DF+SM+BF")),
            ]
            .map(|(step, result)| Fig13Row {
                network: spec.name.clone(),
                step: step.to_string(),
                speedup_vs_dense: result.speedup_over(dense),
            })
            .to_vec())
        })
        .collect::<Result<_>>()?;
    Ok(per_network.into_iter().flatten().collect())
}

/// Figs. 14, 15 and 17: speedup, energy and efficiency of every accelerator,
/// normalised exactly as the paper normalises them.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig14_15_17_sota_comparison(ctx: &ExperimentContext) -> Result<Vec<SotaComparisonRow>> {
    let per_network: Vec<Vec<SotaComparisonRow>> = all_networks()
        .par_iter()
        .map(|spec| -> Result<Vec<SotaComparisonRow>> {
            let results = evaluate_all_accelerators(ctx, spec)?;
            let scnn = results
                .iter()
                .find(|(l, _)| l == "SCNN")
                .map(|(_, r)| r.clone())
                .expect("SCNN evaluated");
            let bitwave = results
                .iter()
                .find(|(l, _)| l == "BitWave+DF+SM+BF")
                .map(|(_, r)| r.clone())
                .expect("BitWave evaluated");
            Ok(results
                .iter()
                .filter(|(label, _)| {
                    // The SotA figures plot the five baselines plus BitWave.
                    label == "SCNN"
                        || label == "Stripes"
                        || label == "Pragmatic"
                        || label == "Bitlet"
                        || label == "HUAA"
                        || label == "BitWave+DF+SM+BF"
                })
                .map(|(label, result)| SotaComparisonRow {
                    network: spec.name.clone(),
                    accelerator: label.clone(),
                    speedup_vs_scnn: result.speedup_over(&scnn),
                    energy_vs_bitwave: result.relative_energy(&bitwave),
                    efficiency_vs_scnn: result.efficiency_over(&scnn),
                    dram_energy_fraction: result.energy.dram_fraction(),
                })
                .collect::<Vec<_>>())
        })
        .collect::<Result<_>>()?;
    Ok(per_network.into_iter().flatten().collect())
}

/// Fig. 16: BitWave's energy breakdown including DRAM for every network.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig16_energy_breakdown(ctx: &ExperimentContext) -> Result<Vec<Fig16Row>> {
    all_networks()
        .par_iter()
        .map(|spec| {
            let report = Pipeline::new(ctx.clone())
                .with_default_bitflip(spec)
                .run(spec, &ctx.weights(spec))?;
            let total = report.energy.total_pj();
            Ok(Fig16Row {
                network: spec.name.clone(),
                compute_fraction: report.energy.compute_pj / total,
                sram_fraction: report.energy.sram_pj / total,
                register_fraction: report.energy.register_pj / total,
                dram_fraction: report.energy.dram_pj / total,
                total_mj: report.energy.total_mj(),
            })
        })
        .collect()
}

/// Section V-B validation: the analytical model against the cycle-level
/// simulator on a representative matmul workload.
///
/// # Errors
///
/// Propagates quantisation and simulator errors.
pub fn validation_model_vs_simulator(ctx: &ExperimentContext) -> Result<ValidationReport> {
    let gen = WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.02 }, ctx.seed);
    let weights = quantize_per_tensor(&gen.generate(Shape::d2(64, 256)), 8)?;
    let acts = ActivationGenerator::new(
        bitwave_tensor::synth::ActivationKind::Relu { std: 1.0 },
        ctx.seed ^ 1,
    )
    .generate(Shape::d2(32, 256));
    let acts = quantize_per_tensor(&acts, 8)?;
    Ok(validate_layer(&acts, &weights, EngineConfig::su1())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::models::{bert_base, mobilenet_v2};

    fn ctx() -> ExperimentContext {
        ExperimentContext::default().with_sample_cap(2_500)
    }

    #[test]
    fn fig13_breakdown_is_monotonic_per_network() {
        let rows = fig13_speedup_breakdown(&ctx()).unwrap();
        assert_eq!(rows.len(), 4 * 4);
        for net in ["ResNet18", "MobileNetV2", "CNN-LSTM", "Bert-Base"] {
            let series: Vec<&Fig13Row> = rows.iter().filter(|r| r.network == net).collect();
            assert_eq!(series.len(), 4);
            assert!((series[0].speedup_vs_dense - 1.0).abs() < 1e-9);
            for pair in series.windows(2) {
                assert!(
                    pair[1].speedup_vs_dense >= pair[0].speedup_vs_dense - 1e-9,
                    "{net}: {} -> {} regressed",
                    pair[0].step,
                    pair[1].step
                );
            }
            // The full stack is a real improvement.
            assert!(
                series[3].speedup_vs_dense > 1.1,
                "{net} total speedup too small"
            );
        }
    }

    #[test]
    fn mobilenet_gains_most_from_dynamic_dataflow() {
        let rows = fig13_speedup_breakdown(&ctx()).unwrap();
        let df_gain = |net: &str| {
            rows.iter()
                .find(|r| r.network == net && r.step == "DF")
                .unwrap()
                .speedup_vs_dense
        };
        assert!(df_gain("MobileNetV2") > df_gain("Bert-Base"));
        assert!(df_gain("MobileNetV2") > df_gain("CNN-LSTM"));
    }

    #[test]
    fn fig14_bitwave_wins_and_scnn_is_the_reference() {
        let rows = fig14_15_17_sota_comparison(&ctx()).unwrap();
        for net in ["ResNet18", "MobileNetV2", "CNN-LSTM", "Bert-Base"] {
            let series: Vec<&SotaComparisonRow> =
                rows.iter().filter(|r| r.network == net).collect();
            assert_eq!(series.len(), 6);
            let scnn = series.iter().find(|r| r.accelerator == "SCNN").unwrap();
            assert!((scnn.speedup_vs_scnn - 1.0).abs() < 1e-9);
            assert!((scnn.efficiency_vs_scnn - 1.0).abs() < 1e-9);
            let bitwave = series
                .iter()
                .find(|r| r.accelerator == "BitWave+DF+SM+BF")
                .unwrap();
            for row in &series {
                assert!(
                    bitwave.speedup_vs_scnn >= row.speedup_vs_scnn - 1e-9,
                    "{net}: BitWave loses speedup to {}",
                    row.accelerator
                );
                assert!(
                    bitwave.efficiency_vs_scnn >= row.efficiency_vs_scnn - 1e-9,
                    "{net}: BitWave loses efficiency to {}",
                    row.accelerator
                );
                assert!(
                    row.energy_vs_bitwave >= 1.0 - 1e-9,
                    "{net}: {} uses less energy than BitWave",
                    row.accelerator
                );
            }
        }
    }

    #[test]
    fn weight_heavy_networks_are_dram_dominated() {
        let rows = fig16_energy_breakdown(&ctx()).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let sum = row.compute_fraction
                + row.sram_fraction
                + row.register_fraction
                + row.dram_fraction;
            assert!((sum - 1.0).abs() < 1e-9);
        }
        let bert = rows.iter().find(|r| r.network == "Bert-Base").unwrap();
        assert!(
            bert.dram_fraction > 0.5,
            "BERT should be DRAM dominated, got {:.2}",
            bert.dram_fraction
        );
    }

    #[test]
    fn validation_stays_within_paper_bound() {
        let report = validation_model_vs_simulator(&ctx()).unwrap();
        assert!(
            report.within_paper_bound(),
            "deviation {:.3} exceeds 6%",
            report.deviation
        );
    }

    #[test]
    fn evaluate_all_returns_every_configuration() {
        let ctx = ctx();
        let results = evaluate_all_accelerators(&ctx, &mobilenet_v2()).unwrap();
        assert_eq!(results.len(), 9);
        let results = evaluate_all_accelerators(&ctx, &bert_base()).unwrap();
        assert!(results.iter().any(|(l, _)| l == "Bitlet"));
    }
}
