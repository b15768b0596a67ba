//! STEP 2: per-layer sparsity statistics and compression ratios, including
//! the load-imbalance adjustment.
//!
//! The paper adjusts the raw sparsity statistics "to accommodate for load
//! imbalance in the runtime scheduled accelerators": a bit-serial lane that
//! skips zero bits still has to wait for the slowest lane in its
//! synchronisation group, so the *effective* number of processed bits per
//! weight is the expected maximum over the group rather than the mean.  We
//! compute those maxima directly from the (synthetic) weight tensors instead
//! of assuming a distribution.
//!
//! Each accelerator reads only part of a profile.  BitWave reads the value,
//! bit and column sparsity and the BCS ratio, all of which come off the
//! counts the compress stage reduced while packing.  Two passes over the
//! weights serve baselines only: the two's-complement bit counts (Pragmatic
//! and Bitlet price their bit-serial cycles with them) and the ZRE/CSR
//! ratios (SCNN).  A [`LayerAnalysis`] runs each lazily, the first time a
//! machine that reads it is priced.

use crate::spec::AcceleratorSpec;
use bitwave_core::compress::{BcsCodec, CsrCodec, WeightCodec, ZreCodec};
use bitwave_core::error::CoreError;
use bitwave_core::group::GroupSize;
use bitwave_core::stats::{LayerSparsityStats, PackedAnalysis};
use bitwave_tensor::bitplane::BitplaneTensor;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::handle::WeightHandle;
use bitwave_tensor::QuantTensor;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Synchronisation width assumed for Pragmatic's bit-serial lanes.
pub const PRAGMATIC_SYNC_LANES: usize = 16;
/// Synchronisation width assumed for Bitlet's bit-interleaving pipeline.
pub const BITLET_SYNC_LANES: usize = 64;
/// Number of weight groups that share one column schedule in BitWave
/// (one 64-bit packed segment holds 8 groups of 8 channels, Fig. 10).
pub const BITWAVE_SYNC_GROUPS: usize = 8;

/// Sparsity statistics of one layer as consumed by the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSparsityProfile {
    /// Fraction of zero-valued weights (`Sw`).
    pub weight_value_sparsity: f64,
    /// Fraction of zero-valued input activations (`Sa`).
    pub activation_value_sparsity: f64,
    /// Fraction of zero weight bits in two's complement (`Sw,b`).
    pub weight_bit_sparsity_tc: f64,
    /// Fraction of zero weight bits in sign-magnitude.
    pub weight_bit_sparsity_sm: f64,
    /// Group (column) size used for the BCS statistics.
    pub group_size: usize,
    /// Mean non-zero bit-columns per group (sign-magnitude, 0..=8).
    pub mean_nonzero_columns: f64,
    /// Mean over the layer of the *maximum* non-zero column count across the
    /// [`BITWAVE_SYNC_GROUPS`] groups processed in lockstep — the effective
    /// per-group cycle count before Bit-Flip balances the workload.
    pub max_nonzero_columns_synced: f64,
    /// Mean non-zero bits per weight in two's complement (0..=8).
    pub mean_nonzero_bits_tc: f64,
    /// Effective bits per weight for Pragmatic (max over 16 synced lanes).
    pub max_nonzero_bits_sync16: f64,
    /// Effective bits per weight for Bitlet (max over 64 synced lanes).
    pub max_nonzero_bits_sync64: f64,
    /// BCS weight compression ratio including index overhead.
    pub bcs_compression_ratio: f64,
    /// ZRE weight compression ratio including index overhead (SCNN).
    pub zre_compression_ratio: f64,
    /// CSR weight compression ratio including index overhead.
    pub csr_compression_ratio: f64,
}

impl LayerSparsityProfile {
    /// Analyses a weight tensor (plus the layer's expected activation value
    /// sparsity) at the given group size, resolving every pass eagerly.  The
    /// single-analysis pipeline path instead builds the profile from
    /// already-extracted parts ([`LayerSparsityProfile::from_shared_parts`])
    /// and defers the baseline-only passes behind a [`LayerAnalysis`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedRank`] for ungroupable weight tensors.
    pub fn from_weights(
        weights: &QuantTensor,
        activation_value_sparsity: f64,
        group_size: GroupSize,
    ) -> Result<Self, CoreError> {
        let packed = PackedAnalysis::of(weights, group_size, Encoding::SignMagnitude)?;
        Ok(
            Self::from_shared_parts(activation_value_sparsity, &packed.stats, &packed.planes)
                .with_tc_counts(weights)
                .with_value_codecs(weights),
        )
    }

    /// Builds the profile from parts an earlier pass **already extracted** —
    /// the statistics and the bitplane-packed groups (with the counts
    /// reduced while packing, which also give the sign-magnitude BCS ratio)
    /// the pipeline's compress stage produced — so nothing is re-derived per
    /// stage.  The two passes only baselines read stay at dense
    /// placeholders: the two's-complement bit counts at `8.0` (resolve with
    /// [`LayerSparsityProfile::with_tc_counts`]) and the ZRE/CSR ratios at
    /// `1.0` ([`LayerSparsityProfile::with_value_codecs`]); a
    /// [`LayerAnalysis`] resolves both lazily.
    ///
    /// `stats` and `planes` must come from the same weights at the same
    /// group size; given that, the non-placeholder fields are identical to
    /// [`LayerSparsityProfile::from_weights`].
    pub fn from_shared_parts(
        activation_value_sparsity: f64,
        stats: &LayerSparsityStats,
        planes: &BitplaneTensor,
    ) -> Self {
        // Non-zero columns per group, and the synced maximum over chunks of
        // BITWAVE_SYNC_GROUPS groups.  CR is measured against the real
        // (unpadded) weight storage, like the pipeline's CompressionSummary
        // and the ZRE/CSR accounting.
        let column_counts = &planes.counts().group_columns;
        let bcs = BcsCodec::new(
            GroupSize::from_len(planes.group_size()),
            Encoding::SignMagnitude,
        )
        .measure_packed(planes, stats.num_weights);
        Self {
            weight_value_sparsity: stats.value_sparsity,
            activation_value_sparsity: activation_value_sparsity.clamp(0.0, 1.0),
            weight_bit_sparsity_tc: stats.bit_sparsity_twos_complement,
            weight_bit_sparsity_sm: stats.bit_sparsity_sign_magnitude,
            group_size: planes.group_size(),
            mean_nonzero_columns: mean_u32(column_counts),
            max_nonzero_columns_synced: mean_of_chunk_max(column_counts, BITWAVE_SYNC_GROUPS),
            mean_nonzero_bits_tc: 8.0,
            max_nonzero_bits_sync16: 8.0,
            max_nonzero_bits_sync64: 8.0,
            bcs_compression_ratio: bcs.compression_ratio_with_index(),
            zre_compression_ratio: 1.0,
            csr_compression_ratio: 1.0,
        }
    }

    /// Resolves the two's-complement bit counts (the pass only the
    /// bit-serial baselines with bit skipping consume) from the weights.
    pub fn with_tc_counts(self, weights: &QuantTensor) -> Self {
        TcBitCounts::of(weights.data()).applied_to(self)
    }

    /// Resolves the ZRE/CSR value-codec compression ratios (the two passes
    /// only the SCNN baseline consumes) from the weight tensor.
    pub fn with_value_codecs(self, weights: &QuantTensor) -> Self {
        self.with_codec_ratios(value_codec_ratios(weights))
    }

    fn with_codec_ratios(mut self, (zre, csr): (f64, f64)) -> Self {
        self.zre_compression_ratio = zre;
        self.csr_compression_ratio = csr;
        self
    }

    /// A fully dense profile (no sparsity anywhere) — the behaviour every
    /// accelerator degenerates to on incompressible weights.
    pub fn dense(group_size: usize) -> Self {
        Self {
            weight_value_sparsity: 0.0,
            activation_value_sparsity: 0.0,
            weight_bit_sparsity_tc: 0.0,
            weight_bit_sparsity_sm: 0.0,
            group_size,
            mean_nonzero_columns: 8.0,
            max_nonzero_columns_synced: 8.0,
            mean_nonzero_bits_tc: 8.0,
            max_nonzero_bits_sync16: 8.0,
            max_nonzero_bits_sync64: 8.0,
            bcs_compression_ratio: 1.0,
            zre_compression_ratio: 1.0,
            csr_compression_ratio: 1.0,
        }
    }
}

/// ZRE and CSR compression ratios (index included) of a weight tensor.
///
/// These are the per-tensor passes only the value-sparsity SotA baselines
/// consume; the pipeline computes them lazily via [`LayerAnalysis`].
pub fn value_codec_ratios(weights: &QuantTensor) -> (f64, f64) {
    let data = weights.data();
    let zre = ZreCodec::default().compress(data);
    let csr = CsrCodec::new(weights.shape().dim(weights.shape().rank() - 1).max(2)).compress(data);
    (
        zre.compression_ratio_with_index(),
        csr.compression_ratio_with_index(),
    )
}

/// One layer's shared sparsity analysis: the eagerly computed part of the
/// profile (everything BitWave reads: value, bit and column sparsity and
/// the BCS ratio) plus the weight handle that resolves the two
/// baseline-only passes **lazily** — the two's-complement bit counts when a
/// bit-serial machine with bit skipping (Pragmatic, Bitlet) reads them, the
/// ZRE/CSR ratios when a value-sparsity machine (SCNN) does.  Each pass runs
/// at most once per layer, even when many accelerators share the analysis
/// across threads.
#[derive(Debug, Clone)]
pub struct LayerAnalysis {
    eager: LayerSparsityProfile,
    weights: WeightHandle,
    tc_counts: OnceLock<TcBitCounts>,
    codec_ratios: OnceLock<(f64, f64)>,
}

impl LayerAnalysis {
    /// Builds the analysis from parts an earlier pass already extracted (see
    /// [`LayerSparsityProfile::from_shared_parts`]); the weight handle is
    /// shared, not copied.
    pub fn from_shared_parts(
        weights: WeightHandle,
        activation_value_sparsity: f64,
        stats: &LayerSparsityStats,
        planes: &BitplaneTensor,
    ) -> Self {
        Self {
            eager: LayerSparsityProfile::from_shared_parts(
                activation_value_sparsity,
                stats,
                planes,
            ),
            weights,
            tc_counts: OnceLock::new(),
            codec_ratios: OnceLock::new(),
        }
    }

    /// Builds the analysis directly from a weight handle, extracting groups
    /// and statistics itself (used outside the pipeline's shared path).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedRank`] for ungroupable weight tensors.
    pub fn from_weights(
        weights: WeightHandle,
        activation_value_sparsity: f64,
        group_size: GroupSize,
    ) -> Result<Self, CoreError> {
        let packed = PackedAnalysis::of(&weights, group_size, Encoding::SignMagnitude)?;
        Ok(Self::from_shared_parts(
            weights,
            activation_value_sparsity,
            &packed.stats,
            &packed.planes,
        ))
    }

    /// The analysed weights.
    pub fn weights(&self) -> &WeightHandle {
        &self.weights
    }

    /// The eager profile with the requested lazy passes resolved (each at
    /// most once, thread-safe); unresolved fields keep their placeholders.
    fn resolve(&self, tc_counts: bool, codec_ratios: bool) -> LayerSparsityProfile {
        let mut profile = self.eager;
        if tc_counts {
            profile = self
                .tc_counts
                .get_or_init(|| TcBitCounts::of(self.weights.data()))
                .applied_to(profile);
        }
        if codec_ratios {
            profile = profile.with_codec_ratios(
                *self
                    .codec_ratios
                    .get_or_init(|| value_codec_ratios(&self.weights)),
            );
        }
        profile
    }

    /// The core profile: two's-complement bit counts resolved, ZRE/CSR at
    /// the dense placeholder `1.0`.  Every profile that is digested or
    /// serialized (the sweep portfolio, DSE search keys) is this one.
    pub fn core_profile(&self) -> LayerSparsityProfile {
        self.resolve(true, false)
    }

    /// The full profile, every pass resolved.
    pub fn full_profile(&self) -> LayerSparsityProfile {
        self.resolve(true, true)
    }

    /// The profile `spec`'s pricing needs, resolving only the lazy passes
    /// `spec` reads: a BitWave run resolves neither.  Pricing it equals
    /// pricing the full profile bit for bit; it is not a search key (see
    /// [`LayerAnalysis::keyed_profile`]).
    pub fn profile_for(&self, spec: &AcceleratorSpec) -> LayerSparsityProfile {
        self.resolve(spec.reads_tc_bit_counts(), spec.needs_value_codec_ratios())
    }

    /// The profile a DSE search for `spec` is keyed on: the core profile,
    /// plus the ZRE/CSR ratios for machines that read them.  The key
    /// digests every field, so the bit counts are resolved even for
    /// machines that never price them.
    pub fn keyed_profile(&self, spec: &AcceleratorSpec) -> LayerSparsityProfile {
        self.resolve(true, spec.needs_value_codec_ratios())
    }

    /// Whether the lazy two's-complement bit-count pass has run.
    pub fn tc_counts_computed(&self) -> bool {
        self.tc_counts.get().is_some()
    }

    /// Whether the lazy value-codec passes have run.
    pub fn value_codecs_computed(&self) -> bool {
        self.codec_ratios.get().is_some()
    }
}

impl PartialEq for LayerAnalysis {
    /// Equality over the analysis *inputs and eager results*; whether the
    /// lazy passes have been resolved yet is not an observable difference.
    fn eq(&self, other: &Self) -> bool {
        self.eager == other.eager && self.weights == other.weights
    }
}

/// Non-zero bits per weight (two's complement) reduced in one pass over the
/// weights: their mean, and the means of the per-chunk maxima over the
/// [`PRAGMATIC_SYNC_LANES`] and [`BITLET_SYNC_LANES`] lanes that run in
/// lockstep.  Every sum is an exact integer, so each ratio is bit-identical
/// to summing the per-weight counts as `f64`s.
#[derive(Debug, Clone, Copy)]
struct TcBitCounts {
    mean: f64,
    max_sync16: f64,
    max_sync64: f64,
}

// The 16-lane chunks must tile each 64-lane chunk exactly.
const _: () = assert!(BITLET_SYNC_LANES % PRAGMATIC_SYNC_LANES == 0);

impl TcBitCounts {
    fn of(data: &[i8]) -> Self {
        let (mut total, mut sum_max16, mut sum_max64) = (0u64, 0u64, 0u64);
        for lanes64 in data.chunks(BITLET_SYNC_LANES) {
            let mut max64 = 0u32;
            for lanes16 in lanes64.chunks(PRAGMATIC_SYNC_LANES) {
                let mut max16 = 0u32;
                for &w in lanes16 {
                    let bits = (w as u8).count_ones();
                    total += u64::from(bits);
                    max16 = max16.max(bits);
                }
                sum_max16 += u64::from(max16);
                max64 = max64.max(max16);
            }
            sum_max64 += u64::from(max64);
        }
        let mean = |sum: u64, lanes: usize| {
            if data.is_empty() {
                0.0
            } else {
                sum as f64 / data.len().div_ceil(lanes) as f64
            }
        };
        Self {
            mean: mean(total, 1),
            max_sync16: mean(sum_max16, PRAGMATIC_SYNC_LANES),
            max_sync64: mean(sum_max64, BITLET_SYNC_LANES),
        }
    }

    fn applied_to(&self, mut profile: LayerSparsityProfile) -> LayerSparsityProfile {
        profile.mean_nonzero_bits_tc = self.mean;
        profile.max_nonzero_bits_sync16 = self.max_sync16;
        profile.max_nonzero_bits_sync64 = self.max_sync64;
        profile
    }
}

fn mean_u32(values: &[u32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64
}

/// Mean of per-chunk maxima: the effective per-item cost when `chunk` items
/// are processed in lockstep and the slowest one gates the group.
fn mean_of_chunk_max(values: &[u32], chunk: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let chunk = chunk.max(1);
    let mut total = 0.0f64;
    let mut chunks = 0usize;
    for c in values.chunks(chunk) {
        total += f64::from(*c.iter().max().expect("non-empty chunk"));
        chunks += 1;
    }
    total / chunks as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_core::compress::BcsCodec;
    use bitwave_dnn::models::{bert_base, resnet18};
    use bitwave_dnn::weights::generate_layer_sample;

    fn resnet_profile() -> LayerSparsityProfile {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let w = generate_layer_sample(layer, 3, 60_000);
        LayerSparsityProfile::from_weights(&w, layer.expected_activation_sparsity(), GroupSize::G8)
            .unwrap()
    }

    #[test]
    fn profile_fields_are_consistent() {
        let p = resnet_profile();
        assert!(p.weight_value_sparsity < p.weight_bit_sparsity_tc);
        assert!(p.weight_bit_sparsity_sm > p.weight_bit_sparsity_tc);
        assert!((0.0..=8.0).contains(&p.mean_nonzero_columns));
        // Synced maxima are never better than the mean.
        assert!(p.max_nonzero_columns_synced >= p.mean_nonzero_columns);
        assert!(p.max_nonzero_bits_sync16 >= p.mean_nonzero_bits_tc);
        assert!(p.max_nonzero_bits_sync64 >= p.max_nonzero_bits_sync16);
        assert!(p.bcs_compression_ratio > 1.0);
        assert_eq!(p.activation_value_sparsity, 0.5);
        assert_eq!(p.group_size, 8);
    }

    #[test]
    fn bcs_outcompresses_value_codecs_on_low_value_sparsity_layers() {
        // The Fig. 5 observation: with little value sparsity, BCS wins.
        let p = resnet_profile();
        assert!(p.weight_value_sparsity < 0.4);
        assert!(p.bcs_compression_ratio > p.zre_compression_ratio);
        assert!(p.bcs_compression_ratio > p.csr_compression_ratio);
    }

    #[test]
    fn bert_profile_has_little_column_sparsity() {
        let net = bert_base();
        let layer = net.layer("bert.encoder.layer.5.attention.v").unwrap();
        let w = generate_layer_sample(layer, 3, 60_000);
        let p = LayerSparsityProfile::from_weights(&w, 0.0, GroupSize::G8).unwrap();
        assert!(
            p.mean_nonzero_columns > 6.0,
            "got {}",
            p.mean_nonzero_columns
        );
        assert!(p.bcs_compression_ratio < 1.4);
        assert_eq!(p.activation_value_sparsity, 0.0);
    }

    #[test]
    fn dense_profile_is_neutral() {
        let p = LayerSparsityProfile::dense(16);
        assert_eq!(p.mean_nonzero_columns, 8.0);
        assert_eq!(p.bcs_compression_ratio, 1.0);
        assert_eq!(p.weight_value_sparsity, 0.0);
        assert_eq!(p.group_size, 16);
    }

    #[test]
    fn chunk_max_helpers() {
        assert_eq!(mean_u32(&[]), 0.0);
        assert_eq!(mean_of_chunk_max(&[], 4), 0.0);
        assert_eq!(mean_u32(&[2, 4, 6]), 4.0);
        // Chunks of 2: max(1,5)=5, max(2,2)=2 -> mean 3.5.
        assert_eq!(mean_of_chunk_max(&[1, 5, 2, 2], 2), 3.5);
        // Chunk of 1 degenerates to the mean.
        assert_eq!(mean_of_chunk_max(&[1, 5, 2, 2], 1), 2.5);
    }

    /// The pre-streaming formula: a per-weight `Vec<u32>` of popcounts, its
    /// mean and the means of its 16- and 64-lane chunk maxima.
    fn bit_count_oracle(data: &[i8]) -> [f64; 3] {
        let counts: Vec<u32> = data.iter().map(|&w| (w as u8).count_ones()).collect();
        [
            mean_u32(&counts),
            mean_of_chunk_max(&counts, PRAGMATIC_SYNC_LANES),
            mean_of_chunk_max(&counts, BITLET_SYNC_LANES),
        ]
    }

    fn assert_bit_counts_match_oracle(data: &[i8]) {
        let streamed = TcBitCounts::of(data);
        let got = [streamed.mean, streamed.max_sync16, streamed.max_sync64];
        let want = bit_count_oracle(data);
        for (name, (g, w)) in ["mean", "sync16", "sync64"]
            .iter()
            .zip(got.iter().zip(want))
        {
            assert_eq!(g.to_bits(), w.to_bits(), "{name} at length {}", data.len());
        }
    }

    #[test]
    fn streamed_bit_counts_are_bit_identical_to_the_vec_formula() {
        // Deterministic xorshift weights.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as i8
        };
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65] {
            let data: Vec<i8> = (0..len).map(|_| next()).collect();
            assert_bit_counts_match_oracle(&data);
        }
        for round in 0..64 {
            let len = 1 + (next() as u8 as usize) * 37 + round;
            let data: Vec<i8> = (0..len).map(|_| next()).collect();
            assert_bit_counts_match_oracle(&data);
        }
        // Real layer tensors, read through the profile.
        let net = resnet18();
        for name in ["conv1", "layer3.0.conv1", "fc"] {
            let w = generate_layer_sample(net.layer(name).unwrap(), 5, 20_000);
            assert_bit_counts_match_oracle(w.data());
            let p = LayerSparsityProfile::from_weights(&w, 0.5, GroupSize::G16).unwrap();
            let want = bit_count_oracle(w.data());
            assert_eq!(p.mean_nonzero_bits_tc.to_bits(), want[0].to_bits());
            assert_eq!(p.max_nonzero_bits_sync16.to_bits(), want[1].to_bits());
            assert_eq!(p.max_nonzero_bits_sync64.to_bits(), want[2].to_bits());
        }
    }

    #[test]
    fn shared_parts_profile_equals_from_weights() {
        // The single-pass path: stats/groups/BCS extracted once (as the
        // pipeline's compress stage does) must yield exactly the profile the
        // monolithic constructor computes on the same tensor.
        let net = resnet18();
        for (layer_name, g) in [("layer3.0.conv1", GroupSize::G8), ("fc", GroupSize::G16)] {
            let layer = net.layer(layer_name).unwrap();
            let w = generate_layer_sample(layer, 3, 20_000);
            let act = layer.expected_activation_sparsity();
            let eager = LayerSparsityProfile::from_weights(&w, act, g).unwrap();

            let groups = bitwave_core::group::extract_groups(&w, g).unwrap();
            let planes = groups.to_bitplanes();
            let stats = LayerSparsityStats::from_tensor_and_groups(&w, &groups);
            let bcs = BcsCodec::new(g, Encoding::SignMagnitude)
                .compress_groups(groups.iter(), w.data().len());
            let shared = LayerSparsityProfile::from_shared_parts(act, &stats, &planes);
            assert_eq!(
                shared.bcs_compression_ratio,
                bcs.compression_ratio_with_index()
            );
            // Eager fields are bit-identical; the baseline-only passes are
            // placeholders...
            assert_eq!(shared.mean_nonzero_bits_tc, 8.0);
            assert_eq!(shared.max_nonzero_bits_sync64, 8.0);
            assert_eq!(shared.zre_compression_ratio, 1.0);
            assert_eq!(shared.csr_compression_ratio, 1.0);
            // ...until resolved, after which the whole profile matches.
            assert_eq!(shared.with_tc_counts(&w).with_value_codecs(&w), eager);
        }
    }

    #[test]
    fn layer_analysis_resolves_value_codecs_lazily_and_once() {
        use crate::spec::BitwaveOptimizations;
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let w = generate_layer_sample(layer, 3, 20_000);
        let act = layer.expected_activation_sparsity();
        let eager = LayerSparsityProfile::from_weights(&w, act, GroupSize::G8).unwrap();

        let analysis =
            LayerAnalysis::from_weights(WeightHandle::new(w), act, GroupSize::G8).unwrap();
        let resolved = |a: &LayerAnalysis| (a.tc_counts_computed(), a.value_codecs_computed());
        assert_eq!(resolved(&analysis), (false, false));

        // BitWave reads neither lazy pass.
        let bitwave = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        assert!(!bitwave.reads_tc_bit_counts() && !bitwave.needs_value_codec_ratios());
        let lean = analysis.profile_for(&bitwave);
        assert_eq!(lean.bcs_compression_ratio, eager.bcs_compression_ratio);
        assert_eq!(lean.mean_nonzero_bits_tc, 8.0);
        assert_eq!(lean.zre_compression_ratio, 1.0);
        assert_eq!(resolved(&analysis), (false, false));

        // SCNN triggers the ZRE/CSR passes only.
        let scnn = AcceleratorSpec::scnn();
        let with_codecs = analysis.profile_for(&scnn);
        assert_eq!(
            with_codecs.zre_compression_ratio,
            eager.zre_compression_ratio
        );
        assert_eq!(with_codecs.mean_nonzero_bits_tc, 8.0);
        assert_eq!(resolved(&analysis), (false, true));

        // Pragmatic triggers the bit counts; after that every profile
        // matches the eager constructor exactly.
        let pragmatic = AcceleratorSpec::pragmatic();
        assert!(pragmatic.reads_tc_bit_counts());
        assert_eq!(
            analysis.profile_for(&pragmatic).max_nonzero_bits_sync16,
            eager.max_nonzero_bits_sync16
        );
        assert_eq!(resolved(&analysis), (true, true));
        assert_eq!(analysis.full_profile(), eager);
        assert_eq!(analysis.keyed_profile(&scnn), eager);
        assert_eq!(
            analysis.core_profile(),
            LayerSparsityProfile {
                zre_compression_ratio: 1.0,
                csr_compression_ratio: 1.0,
                ..eager
            }
        );

        // Clones preserve equality and the resolved state is carried over.
        let clone = analysis.clone();
        assert_eq!(clone, analysis);
        assert_eq!(resolved(&clone), (true, true));
        assert_eq!(clone.full_profile(), eager);
    }

    #[test]
    fn lean_profiles_price_every_registry_machine_like_full_profiles() {
        // `profile_for(spec)` leaves the passes `spec` does not read at
        // their placeholders; pricing must not be able to tell, bit for bit,
        // on every machine the SotA comparison prices (unconstrained and
        // throttled DRAM).
        use crate::energy::EnergyModel;
        use crate::model::evaluate_layer_with_mapping;
        use bitwave_dataflow::mapping::select_spatial_unrolling;
        use bitwave_dataflow::{DramSpec, MemoryHierarchy};
        let net = resnet18();
        let memory = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        for layer_name in ["conv1", "layer2.0.downsample", "layer4.1.conv2", "fc"] {
            let layer = net.layer(layer_name).unwrap();
            let w = WeightHandle::new(generate_layer_sample(layer, 9, 20_000));
            let act = layer.expected_activation_sparsity();
            for name in AcceleratorSpec::REGISTRY_NAMES {
                for dram in [DramSpec::unconstrained(), DramSpec::constrained(64)] {
                    let spec = AcceleratorSpec {
                        dram,
                        ..AcceleratorSpec::by_name(name).unwrap()
                    };
                    let analysis =
                        LayerAnalysis::from_weights(w.clone(), act, GroupSize::G16).unwrap();
                    let decision = select_spatial_unrolling(layer, &spec.su_set).unwrap();
                    let price = |profile: &LayerSparsityProfile| {
                        let cost = evaluate_layer_with_mapping(
                            &spec, layer, &decision, profile, &memory, &energy,
                        );
                        format!("{cost:?}")
                    };
                    let lean = price(&analysis.profile_for(&spec));
                    assert_eq!(
                        (
                            analysis.tc_counts_computed(),
                            analysis.value_codecs_computed()
                        ),
                        (spec.reads_tc_bit_counts(), spec.needs_value_codec_ratios()),
                        "{name}: profile_for resolves exactly the passes the spec reads"
                    );
                    assert_eq!(
                        lean,
                        price(&analysis.full_profile()),
                        "{name} on {layer_name}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitflipped_weights_reduce_synced_column_count() {
        use bitwave_core::bitflip::flip_tensor;
        let net = resnet18();
        let layer = net.layer("layer4.0.conv1").unwrap();
        let w = generate_layer_sample(layer, 3, 60_000);
        let before = LayerSparsityProfile::from_weights(&w, 0.5, GroupSize::G16).unwrap();
        let (flipped, _) = flip_tensor(&w, GroupSize::G16, 5, Encoding::SignMagnitude).unwrap();
        let after = LayerSparsityProfile::from_weights(&flipped, 0.5, GroupSize::G16).unwrap();
        assert!(after.max_nonzero_columns_synced <= 3.0 + 1e-9);
        assert!(after.max_nonzero_columns_synced < before.max_nonzero_columns_synced);
        assert!(after.bcs_compression_ratio > before.bcs_compression_ratio);
    }
}
