//! Bit-Flip experiments: Fig. 6 layer sensitivity and CR-vs-quality Pareto
//! fronts, plus the Algorithm 1 greedy search.
//!
//! Whole-network compression accounting goes through the
//! [`crate::pipeline`] compress stage ([`network_bcs_compression`]).

use crate::context::ExperimentContext;
use crate::error::Result;
use crate::pipeline::{CompressStage, CompressionSummary, Pipeline, PipelineStage};
use bitwave_core::pareto::{pareto_front_n, Direction, ParetoPointN};
use bitwave_core::prelude::FlipStrategy;
use bitwave_core::search::{greedy_bitflip_search, SearchConfig, SearchOutcome};
use bitwave_dnn::models::NetworkSpec;
use bitwave_dnn::proxy::AccuracyProxy;
use bitwave_dnn::weights::NetworkWeights;
use bitwave_tensor::bits::Encoding;
use serde::{Deserialize, Serialize};

/// One point of a Fig. 6(a–d) layer-sensitivity curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// Network name.
    pub network: String,
    /// Layer whose weights were flipped (all other layers untouched).
    pub layer: String,
    /// Zero-column target applied to the layer.
    pub zero_columns: u32,
    /// Resulting model quality (accuracy %, PESQ or F1 %).
    pub quality: f64,
    /// Quality drop relative to the Int8 baseline.
    pub quality_drop: f64,
}

/// Fig. 6(a–d): flip one layer at a time to 0–7 zero columns and record the
/// quality of the proxy metric.  `layers` restricts the sweep (the paper
/// plots every layer; the benches use a representative subset to bound the
/// runtime).
///
/// # Errors
///
/// Propagates Bit-Flip errors from the proxy.
pub fn fig06_layer_sensitivity(
    ctx: &ExperimentContext,
    spec: &NetworkSpec,
    layers: &[String],
    max_zero_columns: u32,
) -> Result<Vec<SensitivityRow>> {
    let weights = ctx.weights(spec);
    let proxy = AccuracyProxy::new(spec, weights);
    let mut rows = Vec::new();
    for layer in layers {
        for z in 0..=max_zero_columns.min(7) {
            let mut strategy = FlipStrategy::new();
            strategy.set(layer, ctx.group_size, z);
            let quality = proxy.quality_of_strategy(&strategy)?;
            rows.push(SensitivityRow {
                network: spec.name.clone(),
                layer: layer.clone(),
                zero_columns: z,
                quality,
                quality_drop: proxy.baseline_quality() - quality,
            });
        }
    }
    Ok(rows)
}

/// One operating point of a Fig. 6(e–h) compression/quality trade-off curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffRow {
    /// Network name.
    pub network: String,
    /// Method ("Int8+PTQ", "Int8+SM", "Int8+SM+BitFlip").
    pub method: String,
    /// Configuration label (zero-column target or PTQ bit width).
    pub configuration: String,
    /// Weight compression ratio of the whole network (index included).
    pub compression_ratio: f64,
    /// Model quality under the proxy metric.
    pub quality: f64,
}

/// Fig. 6(e–h): compression ratio vs quality for Int8+PTQ, Int8+SM (lossless)
/// and Int8+SM+Bit-Flip on one network.
///
/// # Errors
///
/// Propagates pipeline and Bit-Flip errors.
pub fn fig06_tradeoff(ctx: &ExperimentContext, spec: &NetworkSpec) -> Result<Vec<TradeoffRow>> {
    let weights = ctx.weights(spec);
    let proxy = AccuracyProxy::new(spec, weights.clone());
    let heavy: Vec<String> = spec
        .weight_heavy_layers(0.75)
        .iter()
        .map(|l| l.name.clone())
        .collect();
    let mut rows = Vec::new();

    // Int8+SM: lossless BCS compression of the unmodified weights.
    rows.push(TradeoffRow {
        network: spec.name.clone(),
        method: "Int8+SM".to_string(),
        configuration: format!("{} lossless", ctx.group_size),
        compression_ratio: network_bcs_compression(ctx, spec, &weights)?,
        quality: proxy.baseline_quality(),
    });

    // Int8+SM+Bit-Flip: flip the weight-heavy layers to 4..=7 zero columns.
    for z in 4..=7u32 {
        let mut strategy = FlipStrategy::new();
        for layer in &heavy {
            strategy.set(layer, ctx.group_size, z);
        }
        let flipped = weights.apply_flip_strategy(&strategy)?;
        rows.push(TradeoffRow {
            network: spec.name.clone(),
            method: "Int8+SM+BitFlip".to_string(),
            configuration: format!("z={z} on {} layers", heavy.len()),
            compression_ratio: network_bcs_compression(ctx, spec, &flipped)?,
            quality: proxy.quality_of(&flipped),
        });
    }

    // Int8+PTQ: reduce the bit width of the same heavy layers to match the
    // compression ratios reached by Bit-Flip.  The reported compression ratio
    // is network wide (untouched layers stay at 8 bits), exactly like the
    // Bit-Flip rows.
    let total_weights: f64 = weights.iter().map(|(_, t)| t.data().len() as f64).sum();
    let heavy_weights: f64 = weights
        .iter()
        .filter(|(name, _)| heavy.iter().any(|h| h == name))
        .map(|(_, t)| t.data().len() as f64)
        .sum();
    for bits in [6u8, 5, 4, 3, 2] {
        let ptq = weights.apply_ptq(bits, Some(&heavy));
        let compressed_bits =
            heavy_weights * f64::from(bits) + (total_weights - heavy_weights) * 8.0;
        rows.push(TradeoffRow {
            network: spec.name.clone(),
            method: "Int8+PTQ".to_string(),
            configuration: format!("{bits}-bit on heavy layers"),
            compression_ratio: total_weights * 8.0 / compressed_bits,
            quality: proxy.quality_of(&ptq),
        });
    }
    Ok(rows)
}

/// Whole-network BCS compression ratio (index included) at the context's
/// group size, computed through the pipeline's compress stage.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn network_bcs_compression(
    ctx: &ExperimentContext,
    spec: &NetworkSpec,
    weights: &NetworkWeights,
) -> Result<f64> {
    let compress = CompressStage::new(Encoding::SignMagnitude);
    let summaries = Pipeline::new(ctx.clone())
        .jobs_with_weights(spec, weights)?
        .into_iter()
        .map(|job| Ok(compress.run(job)?.compression))
        .collect::<Result<Vec<_>>>()?;
    Ok(CompressionSummary::aggregate_ratio(&summaries))
}

/// The Pareto front of a Fig. 6(e–h) trade-off sweep over
/// `[compression ratio, quality]`, both maximised, sorted by ascending
/// compression ratio.
pub fn fig06_pareto(rows: &[TradeoffRow]) -> Vec<ParetoPointN<2>> {
    let points: Vec<ParetoPointN<2>> = rows
        .iter()
        .map(|r| {
            ParetoPointN::new(
                [r.compression_ratio, r.quality],
                format!("{} {}", r.method, r.configuration),
            )
        })
        .collect();
    pareto_front_n(&points, &[Direction::Maximize; 2])
}

/// Runs Algorithm 1 (greedy layer-wise Bit-Flip search) on a network with the
/// proxy evaluator, restricted to the listed layers (the paper restricts the
/// search to the flip-insensitive layers identified in the sensitivity
/// analysis).
///
/// # Errors
///
/// Propagates Bit-Flip errors from the proxy evaluator.
pub fn run_greedy_search(
    ctx: &ExperimentContext,
    spec: &NetworkSpec,
    layers: &[String],
    min_quality: f64,
    max_iterations: usize,
) -> Result<SearchOutcome> {
    let weights = ctx.weights(spec);
    let proxy = AccuracyProxy::new(spec, weights);
    let config = SearchConfig {
        min_accuracy: min_quality,
        group_sizes: vec![ctx.group_size],
        max_zero_columns: 7,
        max_iterations,
    };
    Ok(greedy_bitflip_search(
        layers,
        FlipStrategy::new(),
        &config,
        |strategy| proxy.quality_of_strategy(strategy),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::models::{cnn_lstm, resnet18};

    fn ctx() -> ExperimentContext {
        ExperimentContext::default().with_sample_cap(3_000)
    }

    #[test]
    fn sensitivity_is_monotone_in_zero_columns() {
        let ctx = ctx();
        let net = resnet18();
        let rows = fig06_layer_sensitivity(
            &ctx,
            &net,
            &["conv1".to_string(), "layer4.1.conv2".to_string()],
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 2 * 8);
        for window in rows.windows(2) {
            if window[0].layer == window[1].layer {
                assert!(window[1].quality <= window[0].quality + 1e-9);
            }
        }
        // The early layer degrades faster per flipped column at high targets.
        let conv1_drop = rows
            .iter()
            .find(|r| r.layer == "conv1" && r.zero_columns == 7)
            .unwrap()
            .quality_drop;
        assert!(conv1_drop > 0.0);
    }

    #[test]
    fn tradeoff_bitflip_dominates_ptq() {
        let ctx = ctx();
        let net = resnet18();
        let rows = fig06_tradeoff(&ctx, &net).unwrap();
        // For every PTQ point there is a Bit-Flip point with at least the
        // same compression and better quality (the Fig. 6e finding).
        let bitflip: Vec<&TradeoffRow> = rows
            .iter()
            .filter(|r| r.method == "Int8+SM+BitFlip")
            .collect();
        let ptq: Vec<&TradeoffRow> = rows.iter().filter(|r| r.method == "Int8+PTQ").collect();
        assert!(!bitflip.is_empty() && !ptq.is_empty());
        let ptq4 = ptq
            .iter()
            .find(|r| r.configuration.starts_with("4-bit"))
            .unwrap();
        let better = bitflip.iter().any(|b| {
            b.compression_ratio >= ptq4.compression_ratio * 0.8 && b.quality > ptq4.quality
        });
        assert!(better, "no Bit-Flip point dominates the 4-bit PTQ point");
        // The lossless SM point keeps baseline quality.
        let sm = rows.iter().find(|r| r.method == "Int8+SM").unwrap();
        assert!((sm.quality - net.baseline_quality).abs() < 1e-9);
        assert!(sm.compression_ratio > 1.0);
    }

    #[test]
    fn pareto_front_is_nonempty_and_sorted() {
        let ctx = ctx();
        let net = cnn_lstm();
        let rows = fig06_tradeoff(&ctx, &net).unwrap();
        let front = fig06_pareto(&rows);
        assert!(!front.is_empty());
        assert!(front.windows(2).all(|w| w[0].metrics[0] <= w[1].metrics[0]));
    }

    #[test]
    fn greedy_search_respects_quality_floor() {
        let ctx = ctx();
        let net = resnet18();
        let layers: Vec<String> = net
            .weight_heavy_layers(0.5)
            .iter()
            .map(|l| l.name.clone())
            .collect();
        let floor = net.baseline_quality - 0.5;
        let outcome = run_greedy_search(&ctx, &net, &layers, floor, 12).unwrap();
        assert!(outcome.final_accuracy >= floor);
        assert!(outcome.evaluations > 0);
    }
}
