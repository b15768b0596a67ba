//! The shared memory hierarchy of the modelled accelerators.
//!
//! Section V-B models every accelerator with "an equivalent number of
//! processing elements and memory hierarchy": on-chip weight and activation
//! SRAM backed by off-chip DRAM, plus the PE-local registers.  BitWave's
//! implementation uses 256 KB of weight SRAM and 256 KB of activation SRAM
//! (Section V-A1); the same capacities are applied to the baselines.

use serde::{Deserialize, Serialize};

/// Capacities of the register / SRAM / DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryHierarchy {
    /// On-chip weight SRAM capacity in bytes.
    pub weight_sram_bytes: usize,
    /// On-chip activation SRAM capacity in bytes.
    pub activation_sram_bytes: usize,
    /// DRAM interface width in bits per access (one burst beat).  The
    /// unconstrained DRAM tier moves one such word per cycle: its additive
    /// Eq. 5 term is `bytes × 8 / dram_word_bits`.
    pub dram_word_bits: usize,
    /// SRAM word width in bits per access.
    pub sram_word_bits: usize,
}

impl MemoryHierarchy {
    /// The BitWave configuration: 256 KB + 256 KB SRAM, 64-bit SRAM words
    /// (the packed segments of Fig. 10), 64-bit DRAM beats.
    pub fn bitwave_default() -> Self {
        Self {
            weight_sram_bytes: 256 * 1024,
            activation_sram_bytes: 256 * 1024,
            dram_word_bits: 64,
            sram_word_bits: 64,
        }
    }

    /// Number of weight tiles needed when a weight working set of `bytes`
    /// must be streamed through the weight SRAM (1 when it fits).
    pub fn weight_tiles(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.weight_sram_bytes).max(1)
    }

    /// Number of activation tiles needed for an activation working set of
    /// `bytes` (1 when it fits).
    pub fn activation_tiles(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.activation_sram_bytes).max(1)
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::bitwave_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_capacities() {
        let m = MemoryHierarchy::bitwave_default();
        assert_eq!(m.weight_sram_bytes + m.activation_sram_bytes, 512 * 1024);
        assert_eq!(m.dram_word_bits, 64);
    }

    #[test]
    fn fit_checks() {
        // A working set fits its SRAM (one tile) up to and including the
        // capacity.
        let m = MemoryHierarchy::bitwave_default();
        assert_eq!(m.weight_tiles(100 * 1024), 1);
        assert_eq!(m.weight_tiles(300 * 1024), 2);
        assert_eq!(m.activation_tiles(256 * 1024), 1);
        assert_eq!(m.activation_tiles(256 * 1024 + 1), 2);
    }

    #[test]
    fn tile_counts() {
        let m = MemoryHierarchy::bitwave_default();
        assert_eq!(m.weight_tiles(0), 1);
        assert_eq!(m.weight_tiles(256 * 1024), 1);
        assert_eq!(m.weight_tiles(256 * 1024 + 1), 2);
        assert_eq!(m.activation_tiles(1024 * 1024), 4);
    }
}
