//! Sparsity-analysis experiments: Fig. 1, Fig. 4 and Fig. 5.
//!
//! All per-layer analysis goes through the [`crate::pipeline`] compress
//! stage; this module only aggregates stage outputs into the paper's figures.

use crate::context::ExperimentContext;
use crate::error::Result;
use crate::pipeline::{CompressStage, Pipeline, PipelineStage};
use bitwave_core::compress::{CompressionReport, CsrCodec, WeightCodec, ZreCodec};
use bitwave_core::group::GroupSize;
use bitwave_core::stats::SparsitySummary;
use bitwave_dnn::models::{all_networks, resnet18};
use bitwave_tensor::bits::Encoding;
use serde::{Deserialize, Serialize};

/// One network bar of Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig01Row {
    /// Network name.
    pub network: String,
    /// Weight value sparsity.
    pub value_sparsity: f64,
    /// Weight bit sparsity in two's complement.
    pub bit_sparsity_twos_complement: f64,
    /// Weight bit sparsity in sign-magnitude.
    pub bit_sparsity_sign_magnitude: f64,
    /// `SR` ratio (two's complement bit sparsity / value sparsity).
    pub speedup_ratio_twos_complement: f64,
    /// `SR` ratio for sign-magnitude.
    pub speedup_ratio_sign_magnitude: f64,
}

/// Fig. 1: weight value sparsity vs bit sparsity for the four Int8 networks.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig01_sparsity_survey(ctx: &ExperimentContext) -> Result<Vec<Fig01Row>> {
    let pipeline = Pipeline::new(ctx.clone());
    let compress = CompressStage::new(Encoding::SignMagnitude);
    all_networks()
        .iter()
        .map(|net| {
            let stats = pipeline
                .jobs_with_weights(net, &ctx.weights(net))?
                .into_iter()
                .map(|job| Ok(compress.run(job)?.sparsity))
                .collect::<Result<Vec<_>>>()?;
            let summary = SparsitySummary::aggregate(stats.iter());
            Ok(Fig01Row {
                network: net.name.clone(),
                value_sparsity: summary.value_sparsity,
                bit_sparsity_twos_complement: summary.bit_sparsity_twos_complement,
                bit_sparsity_sign_magnitude: summary.bit_sparsity_sign_magnitude,
                speedup_ratio_twos_complement: summary.speedup_ratio_twos_complement(),
                speedup_ratio_sign_magnitude: summary.speedup_ratio_sign_magnitude(),
            })
        })
        .collect()
}

/// The Fig. 4 representation study on one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig04Result {
    /// Layer analysed (the paper uses ResNet18 conv2 at G = 4).
    pub layer: String,
    /// Group size.
    pub group_size: usize,
    /// Value sparsity of the layer.
    pub value_sparsity: f64,
    /// Bit-column sparsity in two's complement.
    pub column_sparsity_twos_complement: f64,
    /// Bit-column sparsity in sign-magnitude.
    pub column_sparsity_sign_magnitude: f64,
    /// Improvement factor of switching the representation.
    pub sign_magnitude_improvement: f64,
}

/// Fig. 4: bit-column sparsity of an early ResNet18 conv layer under two's
/// complement vs sign-magnitude at `G = 4`.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig04_bcs_representation(ctx: &ExperimentContext) -> Result<Fig04Result> {
    let net = resnet18();
    // "conv2" of the paper corresponds to the first 3x3 layer of stage 1.
    let layer_name = "layer1.0.conv1";
    let weights = ctx.weights(&net);
    let layer = net
        .layer(layer_name)
        .ok_or_else(|| crate::error::BitwaveError::MissingLayer {
            network: net.name.clone(),
            layer: layer_name.to_string(),
        })?;
    let job = crate::pipeline::LayerJob {
        network: net.name.clone(),
        layer: layer.clone(),
        // Shares the generated tensor with the weight set (no deep copy).
        weights: ctx.layer_weight_handle(&net, &weights, layer_name)?.clone(),
        group_size: GroupSize::Custom(4),
        zero_column_target: 0,
    };
    let compressed = CompressStage::new(Encoding::SignMagnitude).run(job)?;
    let stats = compressed.sparsity;
    Ok(Fig04Result {
        layer: layer_name.to_string(),
        group_size: 4,
        value_sparsity: stats.value_sparsity,
        column_sparsity_twos_complement: stats.column_sparsity_twos_complement,
        column_sparsity_sign_magnitude: stats.column_sparsity_sign_magnitude,
        sign_magnitude_improvement: if stats.column_sparsity_twos_complement > 0.0 {
            stats.column_sparsity_sign_magnitude / stats.column_sparsity_twos_complement
        } else {
            f64::INFINITY
        },
    })
}

/// One bar of Fig. 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig05Row {
    /// Codec name ("BCS", "ZRE", "CSR").
    pub codec: String,
    /// Group size for BCS bars (None for the value-sparsity codecs).
    pub group_size: Option<usize>,
    /// Compression ratio ignoring index overhead.
    pub cr_ideal: f64,
    /// Compression ratio including index overhead.
    pub cr_with_index: f64,
}

/// Fig. 5: compression ratio of BCS (G = 1..64) vs ZRE and CSR on the last
/// four conv layers of ResNet18.
///
/// # Errors
///
/// Propagates pipeline planning/stage errors.
pub fn fig05_compression_ratio(ctx: &ExperimentContext) -> Result<Vec<Fig05Row>> {
    let net = resnet18();
    let weights = ctx.weights(&net);
    // The last four conv layers: layer4.* (≥50% of the network's weights).
    let target_layers = [
        "layer4.0.conv1",
        "layer4.0.conv2",
        "layer4.1.conv1",
        "layer4.1.conv2",
    ];
    let mut concatenated: Vec<i8> = Vec::new();
    let mut target_jobs = Vec::new();
    for name in &target_layers {
        let handle = ctx.layer_weight_handle(&net, &weights, name)?;
        concatenated.extend_from_slice(handle.data());
        let layer = net
            .layer(name)
            .ok_or_else(|| crate::error::BitwaveError::MissingLayer {
                network: net.name.clone(),
                layer: (*name).to_string(),
            })?;
        target_jobs.push(crate::pipeline::LayerJob {
            network: net.name.clone(),
            layer: layer.clone(),
            // Shares the generated tensor with the weight set (no deep copy).
            weights: handle.clone(),
            group_size: GroupSize::G16, // overwritten per sweep point below
            zero_column_target: 0,
        });
    }

    let mut rows = Vec::new();
    for g in [1usize, 2, 4, 8, 16, 32, 64] {
        // Group along the input-channel axis per layer through the pipeline's
        // compress stage, then merge the accounting, mirroring how the
        // hardware compresses each layer.
        let stage = CompressStage::new(Encoding::SignMagnitude);
        let mut payload = 0usize;
        let mut index = 0usize;
        let mut original = 0usize;
        for job in &target_jobs {
            let mut job = job.clone();
            job.group_size = GroupSize::from_len(g);
            let compressed = stage.run(job)?;
            payload += compressed.compression.payload_bits;
            index += compressed.compression.index_bits;
            original += compressed.compression.original_bits;
        }
        rows.push(Fig05Row {
            codec: "BCS".to_string(),
            group_size: Some(g),
            cr_ideal: original as f64 / payload.max(1) as f64,
            cr_with_index: original as f64 / (payload + index).max(1) as f64,
        });
    }

    for report in [
        CompressionReport::from_compressed(&ZreCodec::default().compress(&concatenated), None),
        CompressionReport::from_compressed(&CsrCodec::new(512).compress(&concatenated), None),
    ] {
        rows.push(Fig05Row {
            codec: report.codec,
            group_size: None,
            cr_ideal: report.cr_ideal,
            cr_with_index: report.cr_with_index,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::default().with_sample_cap(4_000)
    }

    #[test]
    fn fig01_orderings_match_paper() {
        let rows = fig01_sparsity_survey(&ctx()).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            // Bit sparsity always exceeds value sparsity (the Fig. 1 point),
            // and sign-magnitude always exceeds two's complement.
            assert!(row.bit_sparsity_twos_complement > row.value_sparsity);
            assert!(row.bit_sparsity_sign_magnitude >= row.bit_sparsity_twos_complement);
            assert!(row.speedup_ratio_twos_complement > 1.0);
        }
    }

    #[test]
    fn fig04_sign_magnitude_multiplies_column_sparsity() {
        let result = fig04_bcs_representation(&ctx()).unwrap();
        assert!(result.column_sparsity_sign_magnitude > result.column_sparsity_twos_complement);
        assert!(
            result.sign_magnitude_improvement > 1.5,
            "improvement {:.2}",
            result.sign_magnitude_improvement
        );
        assert_eq!(result.group_size, 4);
    }

    #[test]
    fn fig05_cr_decreases_with_group_size_and_beats_value_codecs() {
        let rows = fig05_compression_ratio(&ctx()).unwrap();
        let bcs: Vec<&Fig05Row> = rows.iter().filter(|r| r.codec == "BCS").collect();
        assert_eq!(bcs.len(), 7);
        // Ideal CR decreases (or stays) as the group grows.
        for pair in bcs.windows(2) {
            assert!(pair[0].cr_ideal >= pair[1].cr_ideal - 1e-9);
        }
        // G=1's real CR is hurt by the index overhead relative to G=8.
        let g1 = bcs.iter().find(|r| r.group_size == Some(1)).unwrap();
        let g8 = bcs.iter().find(|r| r.group_size == Some(8)).unwrap();
        assert!(g1.cr_ideal > g8.cr_ideal);
        assert!(g1.cr_with_index < g1.cr_ideal / 1.5);
        // BCS at the hardware group sizes beats ZRE and CSR on these layers.
        let zre = rows.iter().find(|r| r.codec == "ZRE").unwrap();
        let csr = rows.iter().find(|r| r.codec == "CSR").unwrap();
        for g in [8usize, 16, 32] {
            let bcs_g = bcs.iter().find(|r| r.group_size == Some(g)).unwrap();
            assert!(bcs_g.cr_with_index > zre.cr_with_index);
            assert!(bcs_g.cr_with_index > csr.cr_with_index);
        }
    }
}
