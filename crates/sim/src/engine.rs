//! The 512-BCE BitWave array (Fig. 10 / Fig. 11).
//!
//! The engine executes a layer lowered to a matrix multiplication
//! `O[m][k] = Σ_c A[m][c] · W[k][c]` (convolutions are lowered with im2col,
//! linear/LSTM/attention layers are already in this form) from
//! **BCS-compressed weights**, under an SU1-style spatial arrangement
//! `[Cu = 8, OXu = mu, Ku = ku]`:
//!
//! * weights are grouped 8 input channels at a time and compressed with the
//!   sign-magnitude BCS codec — the engine never decompresses them, it
//!   streams the stored non-zero columns straight into the BCEs;
//! * `ku × mu` BCEs work in parallel on `ku` output channels × `mu` output
//!   positions;
//! * the eight kernels that share one packed 64-bit weight segment advance in
//!   lockstep, so a synchronisation set's cycle cost for one channel group is
//!   the *maximum* non-zero-column count across its kernels (the load
//!   imbalance the analytical model adjusts for);
//! * the functional result of every output is produced by the
//!   [`BitColumnEngine`] arithmetic and can be compared bit-exactly against
//!   the Int8 reference kernels.

use crate::bce::{BitColumnEngine, BCE_LANES};
use crate::error::{check_reference, SimError};
use crate::zcip::ZeroColumnIndexParser;
use bitwave_core::compress::{BcsCodec, BcsGroup};
use bitwave_core::group::{group_slice, GroupSize};
use bitwave_tensor::bitplane::BitplaneTensor;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::{QuantTensor, Shape, TensorError};
use serde::{Deserialize, Serialize};

/// Spatial configuration of the simulated array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Output channels processed in parallel (`Ku`).
    pub ku: usize,
    /// Output positions processed in parallel (`OXu`, here output rows of the
    /// lowered matrix).
    pub mu: usize,
    /// Input channels per weight group (`Cu`, the BCE lane count).
    pub lanes: usize,
    /// Kernels sharing one packed weight segment (and therefore one column
    /// schedule) — the synchronisation width.
    pub sync_kernels: usize,
}

impl EngineConfig {
    /// The SU1 arrangement of Table I: `[Cu = 8, OXu = 16, Ku = 32]`,
    /// 512 BCEs, 8 kernels per packed segment.
    pub fn su1() -> Self {
        Self {
            ku: 32,
            mu: 16,
            lanes: 8,
            sync_kernels: 8,
        }
    }

    /// Total number of BCEs in the configuration.
    pub fn num_bces(&self) -> usize {
        self.ku * self.mu
    }

    /// Total 1b×8b multiplier lanes.
    pub fn num_lanes(&self) -> usize {
        self.num_bces() * self.lanes
    }

    /// Checks that the array can run this configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a zero `ku`, `mu` or `sync_kernels`,
    /// or a lane count outside `1..=`[`BCE_LANES`].
    pub fn validate(&self) -> Result<(), SimError> {
        let runnable = self.ku > 0
            && self.mu > 0
            && self.sync_kernels > 0
            && (1..=BCE_LANES).contains(&self.lanes);
        if runnable {
            Ok(())
        } else {
            Err(SimError::InvalidConfig(*self))
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::su1()
    }
}

/// Execution statistics of one simulated layer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Compute cycles (column-serial, including synchronisation stalls).
    pub compute_cycles: u64,
    /// Dense (uncompressed) weight volume in bits streamed per tile pass.
    pub dense_weight_bits: u64,
    /// Compute cycles the same array would need without any column skipping
    /// (all 8 columns of every group).
    pub dense_cycles: u64,
    /// MAC-equivalent operations of the workload.
    pub macs: u64,
    /// Weight payload bits streamed from the weight SRAM (non-zero columns).
    pub weight_payload_bits: u64,
    /// Weight index bits streamed (8 per group).
    pub weight_index_bits: u64,
    /// Activation bytes broadcast to the array.
    pub activation_bytes: u64,
    /// Output values written back.
    pub outputs_written: u64,
    /// Bit-columns skipped thanks to BCS.
    pub skipped_columns: u64,
}

impl SimStats {
    /// Speedup of column skipping over dense column-serial execution.
    pub fn column_skip_speedup(&self) -> f64 {
        if self.compute_cycles == 0 {
            1.0
        } else {
            self.dense_cycles as f64 / self.compute_cycles as f64
        }
    }

    /// Effective weight compression ratio of the streamed weights
    /// (uncompressed bits / streamed payload+index bits).
    pub fn weight_compression_ratio(&self) -> f64 {
        let streamed = self.weight_payload_bits + self.weight_index_bits;
        if streamed == 0 {
            1.0
        } else {
            self.dense_weight_bits as f64 / streamed as f64
        }
    }
}

/// The simulated BitWave array.
#[derive(Debug, Clone)]
pub struct BitwaveEngine {
    config: EngineConfig,
    parser: ZeroColumnIndexParser,
}

impl BitwaveEngine {
    /// Creates an engine with the given spatial configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            parser: ZeroColumnIndexParser::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Runs a lowered matrix multiplication `A (M×C) · Wᵀ (K×C)` from
    /// BCS-compressed weights and returns the `M×K` outputs (row major)
    /// together with execution statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the engine's configuration
    /// cannot run (see [`EngineConfig::validate`]), and [`SimError::Tensor`]
    /// if the inner dimensions of `activations` and `weights` disagree or
    /// either tensor is not rank-2.
    pub fn run_matmul(
        &self,
        activations: &QuantTensor,
        weights: &QuantTensor,
    ) -> Result<(Vec<i32>, SimStats), SimError> {
        self.config.validate()?;
        let a_shape = activations.shape();
        let w_shape = weights.shape();
        if a_shape.rank() != 2 || w_shape.rank() != 2 || a_shape.dim(1) != w_shape.dim(1) {
            return Err(SimError::Tensor(TensorError::IncompatibleShapes {
                left: a_shape,
                right: w_shape,
            }));
        }
        let m = a_shape.dim(0);
        let c = a_shape.dim(1);
        let k = w_shape.dim(0);
        let lanes = self.config.lanes;
        let c_groups = c.div_ceil(lanes);

        // Compress every kernel's weights group by group (offline
        // pre-processing in the real system, Fig. 10).
        let mut kernel_groups: Vec<Vec<BcsGroup>> = Vec::with_capacity(k);
        let codec = BcsCodec::new(GroupSize::from_len(lanes), Encoding::SignMagnitude);
        let wdata = weights.data();
        let mut stats = SimStats::default();
        for ki in 0..k {
            let row = &wdata[ki * c..(ki + 1) * c];
            let grouped = group_slice(row, GroupSize::from_len(lanes));
            // One bitplane packing per kernel row feeds both the size
            // accounting (word-parallel, no payload materialisation) and the
            // streamed BCS groups.
            let planes = grouped.to_bitplanes();
            let sizes = codec.measure_packed(&planes, grouped.padded_len());
            stats.weight_payload_bits += sizes.payload_bits as u64;
            stats.weight_index_bits += sizes.index_bits as u64;
            let groups = rebuild_groups(&planes);
            debug_assert_eq!(groups.len(), c_groups);
            kernel_groups.push(groups);
        }
        stats.dense_weight_bits = (k * c_groups * lanes * 8) as u64;
        stats.macs = (m * k * c) as u64;
        stats.outputs_written = (m * k) as u64;

        let adata = activations.data();
        let mut outputs = vec![0i32; m * k];

        // Tile the output space: mu rows × ku kernels per tile.
        let k_tiles = k.div_ceil(self.config.ku);
        let m_tiles = m.div_ceil(self.config.mu);
        for kt in 0..k_tiles {
            let k_begin = kt * self.config.ku;
            let k_end = (k_begin + self.config.ku).min(k);
            for mt in 0..m_tiles {
                let m_begin = mt * self.config.mu;
                let m_end = (m_begin + self.config.mu).min(m);

                // Activations for this tile are broadcast to every BCE row.
                stats.activation_bytes += ((m_end - m_begin) * c) as u64;

                // Cycle accounting: each synchronisation set of kernels
                // advances independently; the tile completes when the slowest
                // set has streamed all of its channel groups.
                let mut slowest_set_cycles = 0u64;
                for set_begin in (k_begin..k_end).step_by(self.config.sync_kernels) {
                    let set_end = (set_begin + self.config.sync_kernels).min(k_end);
                    let mut set_cycles = 0u64;
                    for cg in 0..c_groups {
                        let max_cols = kernel_groups[set_begin..set_end]
                            .iter()
                            .map(|groups| u64::from(groups[cg].index.count_ones()))
                            .max()
                            .unwrap_or(0);
                        set_cycles += max_cols;
                        stats.skipped_columns += (set_end - set_begin) as u64 * 8 - max_cols;
                    }
                    slowest_set_cycles = slowest_set_cycles.max(set_cycles);
                }
                stats.compute_cycles += slowest_set_cycles;
                stats.dense_cycles += (c_groups * 8) as u64;

                // Functional execution through the BCE arithmetic.
                for ki in k_begin..k_end {
                    for mi in m_begin..m_end {
                        let mut bce = BitColumnEngine::new();
                        for (cg, group) in kernel_groups[ki].iter().enumerate() {
                            let c_begin = cg * lanes;
                            let c_end = (c_begin + lanes).min(c);
                            let mut lane_acts = [0i8; BCE_LANES];
                            let n = c_end - c_begin;
                            lane_acts[..n]
                                .copy_from_slice(&adata[mi * c + c_begin..mi * c + c_end]);
                            let schedule = self.parser.parse(group.index);
                            bce.process_group(group, &schedule, &lane_acts[..lanes]);
                        }
                        outputs[mi * k + ki] = bce.accumulator() as i32;
                    }
                }
            }
        }

        Ok((outputs, stats))
    }

    /// Runs a linear layer (`input: M×C`, `weights: K×C`) and checks the
    /// result against the Int8 reference kernel, returning the outputs and
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the matmul and reports a
    /// [`SimError::ReferenceMismatch`] if the simulated result disagrees with
    /// the reference (which would indicate a simulator defect).
    pub fn run_linear_verified(
        &self,
        input: &QuantTensor,
        weights: &QuantTensor,
    ) -> Result<(Vec<i32>, SimStats), SimError> {
        let (outputs, stats) = self.run_matmul(input, weights)?;
        let (reference, _) = bitwave_dnn::infer::linear_int8(input, weights)?;
        check_reference(&outputs, &reference)?;
        Ok((outputs, stats))
    }

    /// Lowers a small convolution to an im2col matrix multiplication and runs
    /// it on the engine, checking against the reference convolution.
    ///
    /// # Errors
    ///
    /// Returns shape errors for inconsistent operands and a
    /// [`SimError::ReferenceMismatch`] if the lowered result disagrees with
    /// the reference convolution.
    pub fn run_conv_verified(
        &self,
        input: &QuantTensor,
        weights: &QuantTensor,
        stride: usize,
        padding: usize,
    ) -> Result<(Vec<i32>, SimStats), SimError> {
        let (patches, k_weights, out_shape) = im2col(input, weights, stride, padding)?;
        let (outputs, stats) = self.run_matmul(&patches, &k_weights)?;
        let (reference, ref_shape) =
            bitwave_dnn::infer::conv2d_int8(input, weights, stride, padding)?;
        if ref_shape != out_shape {
            return Err(SimError::Tensor(TensorError::IncompatibleShapes {
                left: ref_shape,
                right: out_shape,
            }));
        }
        // The matmul produces [position][k]; the reference is [b][k][oy][ox].
        let k = k_weights.shape().dim(0);
        let positions = patches.shape().dim(0);
        let (b, oy, ox) = (out_shape.dim(0), out_shape.dim(2), out_shape.dim(3));
        let mut rearranged = vec![0i32; reference.len()];
        for pos in 0..positions {
            let bi = pos / (oy * ox);
            let oyi = (pos / ox) % oy;
            let oxi = pos % ox;
            for ki in 0..k {
                rearranged[out_shape.offset(&[bi, ki, oyi, oxi])] = outputs[pos * k + ki];
            }
        }
        debug_assert_eq!(positions, b * oy * ox);
        check_reference(&rearranged, &reference)?;
        Ok((outputs, stats))
    }
}

/// Rebuilds the per-kernel BCS groups (index + packed columns) for one weight
/// row from its bitplane packing; used by the engine to stream columns
/// without re-deriving offsets from the flattened compressed tensor.  Each
/// group's index and stored columns are read straight off the packed planes.
fn rebuild_groups(planes: &BitplaneTensor) -> Vec<BcsGroup> {
    (0..planes.num_groups())
        .map(|gi| {
            let group = planes.group_planes(Encoding::SignMagnitude, gi);
            let index = group.nonzero_column_mask();
            let columns = (0..8)
                .filter(|&b| (index >> b) & 1 == 1)
                .map(|b| group.plane(b))
                .collect();
            BcsGroup { index, columns }
        })
        .collect()
}

/// Lowers a convolution input to im2col patches (`positions × (C·FY·FX)`) and
/// reshapes the weights to `K × (C·FY·FX)`.
fn im2col(
    input: &QuantTensor,
    weights: &QuantTensor,
    stride: usize,
    padding: usize,
) -> Result<(QuantTensor, QuantTensor, Shape), TensorError> {
    let ishape = input.shape();
    let wshape = weights.shape();
    if ishape.rank() != 4 || wshape.rank() != 4 || ishape.dim(1) != wshape.dim(1) {
        return Err(TensorError::IncompatibleShapes {
            left: ishape,
            right: wshape,
        });
    }
    let (b, c, h, w) = (ishape.dim(0), ishape.dim(1), ishape.dim(2), ishape.dim(3));
    let (k, _, fy, fx) = (wshape.dim(0), wshape.dim(1), wshape.dim(2), wshape.dim(3));
    let oy = (h + 2 * padding - fy) / stride + 1;
    let ox = (w + 2 * padding - fx) / stride + 1;
    let patch_len = c * fy * fx;
    let positions = b * oy * ox;
    let mut patches = vec![0i8; positions * patch_len];
    let idata = input.data();
    let mut row = 0usize;
    for bi in 0..b {
        for oyi in 0..oy {
            for oxi in 0..ox {
                let mut col = 0usize;
                for ci in 0..c {
                    for fyi in 0..fy {
                        for fxi in 0..fx {
                            let iy = (oyi * stride + fyi) as isize - padding as isize;
                            let ix = (oxi * stride + fxi) as isize - padding as isize;
                            patches[row * patch_len + col] =
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    idata[ishape.offset(&[bi, ci, iy as usize, ix as usize])]
                                } else {
                                    0
                                };
                            col += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    let patches = QuantTensor::new(Shape::d2(positions, patch_len), patches, input.params())?;
    let k_weights = weights.reshaped(Shape::d2(k, patch_len))?;
    let out_shape = Shape::feature_map(b, k, oy, ox);
    Ok((patches, k_weights, out_shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::prelude::*;
    use bitwave_tensor::quant::QuantParams;

    fn tensor(shape: Shape, data: Vec<i8>) -> QuantTensor {
        QuantTensor::new(shape, data, QuantParams::unit()).unwrap()
    }

    fn random_tensor(shape: Shape, seed: u64, range: f64) -> QuantTensor {
        let gen = WeightGenerator::new(WeightDistribution::Uniform { range }, seed);
        quantize_per_tensor(&gen.generate(shape), 8).unwrap()
    }

    #[test]
    fn config_accessors() {
        let c = EngineConfig::su1();
        assert_eq!(c.num_bces(), 512);
        assert_eq!(c.num_lanes(), 4096);
        assert_eq!(EngineConfig::default(), c);
        assert_eq!(BitwaveEngine::new(c).config(), c);
    }

    #[test]
    fn matmul_matches_reference_on_random_operands() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let a = random_tensor(Shape::d2(5, 37), 1, 1.0);
        let w = random_tensor(Shape::d2(11, 37), 2, 0.2);
        let (out, stats) = engine.run_linear_verified(&a, &w).unwrap();
        assert_eq!(out.len(), 5 * 11);
        assert_eq!(stats.macs, 5 * 11 * 37);
        assert!(stats.compute_cycles > 0);
        assert!(stats.compute_cycles <= stats.dense_cycles);
    }

    #[test]
    fn sparse_weights_skip_columns_and_compress() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let a = random_tensor(Shape::d2(4, 64), 3, 1.0);
        // Small-magnitude weights: plenty of zero columns.
        let w = tensor(
            Shape::d2(16, 64),
            (0..16 * 64).map(|i| ((i * 7) % 11) as i8 - 5).collect(),
        );
        let (_, stats) = engine.run_linear_verified(&a, &w).unwrap();
        assert!(
            stats.column_skip_speedup() > 1.3,
            "{}",
            stats.column_skip_speedup()
        );
        assert!(stats.weight_compression_ratio() > 1.2);
        assert!(stats.skipped_columns > 0);
    }

    #[test]
    fn dense_full_range_weights_get_no_speedup() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let a = random_tensor(Shape::d2(2, 32), 5, 1.0);
        let w = tensor(
            Shape::d2(8, 32),
            (0..256)
                .map(|i| if i % 2 == 0 { 127 } else { -127 })
                .collect(),
        );
        let (_, stats) = engine.run_linear_verified(&a, &w).unwrap();
        assert!((stats.column_skip_speedup() - 1.0).abs() < 1e-9);
        assert!(stats.weight_compression_ratio() <= 1.0);
    }

    #[test]
    fn all_zero_weights_finish_in_zero_compute_cycles() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let a = random_tensor(Shape::d2(3, 16), 6, 1.0);
        let w = tensor(Shape::d2(4, 16), vec![0i8; 64]);
        let (out, stats) = engine.run_linear_verified(&a, &w).unwrap();
        assert!(out.iter().all(|&v| v == 0));
        assert_eq!(stats.compute_cycles, 0);
    }

    #[test]
    fn conv_lowering_matches_reference() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let input = random_tensor(Shape::feature_map(1, 3, 8, 8), 7, 1.0);
        let weights = random_tensor(Shape::conv_weight(6, 3, 3, 3), 8, 0.1);
        let (_, stats) = engine.run_conv_verified(&input, &weights, 1, 1).unwrap();
        assert_eq!(stats.macs, 6 * 3 * 3 * 3 * 8 * 8);
        assert!(stats.compute_cycles > 0);
    }

    #[test]
    fn strided_conv_lowering_matches_reference() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let input = random_tensor(Shape::feature_map(1, 4, 9, 9), 9, 1.0);
        let weights = random_tensor(Shape::conv_weight(5, 4, 3, 3), 10, 0.2);
        let (_, stats) = engine.run_conv_verified(&input, &weights, 2, 0).unwrap();
        assert!(stats.outputs_written > 0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let engine = BitwaveEngine::new(EngineConfig::su1());
        let a = random_tensor(Shape::d2(2, 16), 1, 1.0);
        let w = random_tensor(Shape::d2(4, 17), 2, 1.0);
        assert!(engine.run_matmul(&a, &w).is_err());
    }

    #[test]
    fn unrunnable_configs_are_a_typed_error() {
        let a = random_tensor(Shape::d2(2, 16), 1, 1.0);
        let w = random_tensor(Shape::d2(4, 16), 2, 1.0);
        let su1 = EngineConfig::su1();
        for config in [
            EngineConfig { lanes: 16, ..su1 },
            EngineConfig { lanes: 0, ..su1 },
            EngineConfig { ku: 0, ..su1 },
            EngineConfig { mu: 0, ..su1 },
            EngineConfig {
                sync_kernels: 0,
                ..su1
            },
        ] {
            let err = BitwaveEngine::new(config).run_matmul(&a, &w).unwrap_err();
            assert_eq!(err, SimError::InvalidConfig(config));
        }
        // Narrower groups than a full BCE still run.
        let narrow = EngineConfig { lanes: 4, ..su1 };
        assert!(BitwaveEngine::new(narrow).run_matmul(&a, &w).is_ok());
    }

    #[test]
    fn sync_width_one_never_exceeds_sync_width_eight_cycles() {
        let a = random_tensor(Shape::d2(4, 64), 11, 1.0);
        let w = random_tensor(Shape::d2(32, 64), 12, 0.1);
        let synced = BitwaveEngine::new(EngineConfig::su1());
        let unsynced = BitwaveEngine::new(EngineConfig {
            sync_kernels: 1,
            ..EngineConfig::su1()
        });
        let (_, s1) = synced.run_matmul(&a, &w).unwrap();
        let (_, s2) = unsynced.run_matmul(&a, &w).unwrap();
        // Without the lockstep constraint the slowest-kernel penalty shrinks
        // to the per-kernel cost; note the tile still waits for its slowest
        // synchronisation set.
        assert!(s2.compute_cycles <= s1.compute_cycles);
    }
}
