//! # bitwave-core
//!
//! The algorithmic contribution of the BitWave paper (HPCA 2024), Section III:
//!
//! * [`group`] — weight grouping along the input-channel dimension and the
//!   layer-wise tunable group (column) size `G ∈ {8, 16, 32}`.
//! * [`stats`] — value sparsity, bit-level sparsity and **bit-column
//!   sparsity (BCS)** statistics in two's-complement and sign-magnitude
//!   encodings (Figs. 1 and 4).
//! * [`compress`] — the lossless BCS compression format (non-zero bit
//!   columns + 8-bit zero-column index per group) together with the
//!   value-sparsity baselines ZRE (zero run-length encoding) and CSR used in
//!   Fig. 5.
//! * [`bitflip`] — the one-shot, training-free **Bit-Flip** weight
//!   perturbation that forces a target number of zero columns per group while
//!   minimising the Euclidean distance to the original group (Fig. 4c).
//! * [`search`] — the greedy layer-wise search of Algorithm 1.
//! * [`pareto`] — multi-objective Pareto fronts: the compression-ratio/
//!   accuracy front of Fig. 6 plus the N-objective generalisation the
//!   dataflow design-space explorer prunes with.
//! * [`digest`] — stable FNV-1a/128 content digests over canonical JSON
//!   (cache and search-key addressing for `bitwave-serve` and `bitwave-dse`).
//!
//! The crate deliberately knows nothing about networks, dataflows or
//! hardware; those live in `bitwave-dnn`, `bitwave-dataflow`,
//! `bitwave-accel` and `bitwave-sim`.
//!
//! # Example
//!
//! ```
//! use bitwave_core::prelude::*;
//! use bitwave_tensor::bits::Encoding;
//!
//! // Group four Int8 weights and inspect their bit-column sparsity.
//! let group = [5i8, -3, 9, 1];
//! let tc = zero_column_count(&group, Encoding::TwosComplement);
//! let sm = zero_column_count(&group, Encoding::SignMagnitude);
//! assert!(sm >= tc, "sign-magnitude never has fewer zero columns here");
//!
//! // Compress a weight slice with BCS at group size 8 and decompress it.
//! let weights: Vec<i8> = (0..64).map(|i| ((i % 7) - 3) as i8).collect();
//! let compressed = BcsCodec::new(GroupSize::G8, Encoding::SignMagnitude).compress(&weights);
//! assert_eq!(compressed.decompress(), weights);
//! assert!(compressed.compression_ratio_with_index() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitflip;
pub mod compress;
pub mod digest;
pub mod error;
pub mod group;
pub mod pareto;
pub mod search;
pub mod stats;

pub use bitwave_tensor::bits::{zero_column_count, Encoding};
pub use error::CoreError;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bitflip::{flip_group, flip_slice, FlipOutcome};
    pub use crate::compress::{
        BcsCodec, CompressedTensor, CompressionReport, CsrCodec, WeightCodec, ZreCodec,
    };
    pub use crate::digest::{fnv1a128, Digest};
    pub use crate::error::CoreError;
    pub use crate::group::{extract_groups, GroupSize, Groups};
    pub use crate::pareto::{
        pareto_front, pareto_front_indices, pareto_front_n, Direction, ParetoPoint, ParetoPointN,
    };
    pub use crate::search::{greedy_bitflip_search, FlipStrategy, SearchConfig, SearchOutcome};
    pub use crate::stats::{LayerSparsityStats, SparsitySummary};
    pub use bitwave_tensor::bits::{nonzero_column_count, zero_column_count, Encoding};
}
