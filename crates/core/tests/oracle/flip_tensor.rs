//! The tensor-level Bit-Flip as it was first composed: every group flipped
//! into a fresh vector by the exhaustive per-group search, the tensor
//! reassembled from the groups, and the RMS perturbation measured by a
//! separate floating-point distance pass over the reassembled tensor; then
//! the flipped tensor analysed from scratch, its weight count read off the
//! tensor.  Expects the including test crate to declare `mod oracle;`.

use crate::oracle::flip_group_scalar;
use bitwave_core::bitflip::FlipStats;
use bitwave_core::compress::BcsCodec;
use bitwave_core::group::{extract_groups, reassemble_tensor, GroupSize};
use bitwave_core::stats::{LayerSparsityStats, PackedAnalysis};
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::metrics::euclidean_distance_i8;
use bitwave_tensor::QuantTensor;

/// Flips every group of `tensor` (grouped as `extract_groups` does) and
/// returns the flipped tensor with the aggregate statistics.
pub fn flip_tensor(
    tensor: &QuantTensor,
    group_size: GroupSize,
    target_zero_columns: u32,
    encoding: Encoding,
) -> (QuantTensor, FlipStats) {
    let mut groups = extract_groups(tensor, group_size).expect("groupable rank");
    let mut stats = FlipStats::default();
    let mut zero_cols = 0u64;
    for group in groups.iter_mut() {
        let outcome = flip_group_scalar(group, target_zero_columns, encoding);
        stats.groups += 1;
        if outcome.distance > 0.0 {
            stats.groups_modified += 1;
        }
        zero_cols += u64::from(outcome.achieved_zero_columns);
        group.copy_from_slice(&outcome.flipped);
    }
    let flipped = reassemble_tensor(tensor, &groups).expect("same shape");
    if stats.groups > 0 {
        stats.mean_zero_columns = zero_cols as f64 / stats.groups as f64;
    }
    let n = tensor.data().len().max(1) as f64;
    stats.rms_perturbation = euclidean_distance_i8(tensor.data(), flipped.data()) / n.sqrt();
    (flipped, stats)
}

/// Re-groups and packs `weights` and derives the statistics and the
/// `encoding` BCS sizes from the planes, counting the tensor's weights.
pub fn analyse(weights: &QuantTensor, group_size: GroupSize, encoding: Encoding) -> PackedAnalysis {
    let planes = extract_groups(weights, group_size)
        .expect("groupable rank")
        .to_bitplanes();
    let num_weights = weights.data().len();
    PackedAnalysis {
        stats: LayerSparsityStats::from_planes(num_weights, &planes),
        bcs: BcsCodec::new(group_size, encoding).measure_packed(&planes, num_weights),
        planes,
    }
}
