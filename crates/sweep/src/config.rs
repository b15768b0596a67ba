//! Sweep configuration: the hardware axes, the workload portfolio, and the
//! per-layer mapping space each candidate is searched with.
//!
//! A configuration fully determines the candidate enumeration order and
//! every evaluation input, so its [digest](SweepConfig::digest) addresses
//! the sweep's results in the shared store: two processes with the same
//! configuration cooperate on one result set, and a changed configuration
//! starts a fresh one.

use bitwave_core::digest::Digest;
use bitwave_dse::SearchSpace;
use serde::{Deserialize, Serialize};

/// Version stamp mixed into every sweep digest; bump when the candidate
/// enumeration, the evaluation semantics, or the result schema changes so
/// stale persisted results can never replay as current ones.  Version 2:
/// candidates evaluate under the constrained DRAM roofline tier (the
/// bandwidth axis became a real per-layer `max(compute, dram)` constraint
/// instead of an additive term), so version-1 results must not replay.
pub const SWEEP_SCHEMA_VERSION: u32 = 2;

/// Which SU menu family a candidate ships in its instruction memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MenuKind {
    /// The paper's Table I seven-SU menu (SU1–SU7).
    TableI,
    /// The BitSim exemplar's seven-entry dataflow tuple list
    /// (`(pe_dotprod_size, pe_array_height, pe_array_width)`).
    BitSim,
}

impl MenuKind {
    /// Short stable name used in labels and exports.
    pub fn name(self) -> &'static str {
        match self {
            MenuKind::TableI => "table1",
            MenuKind::BitSim => "bitsim",
        }
    }

    /// Parses a [`MenuKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "table1" => Some(MenuKind::TableI),
            "bitsim" => Some(MenuKind::BitSim),
            _ => None,
        }
    }
}

/// The whole-accelerator sweep configuration.  The cross product of the
/// hardware axes (times the menu list) is the candidate space; every
/// candidate is evaluated against every portfolio model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Peak bit-serial lane counts (the paper's array is 4096 = 512 BCEs ×
    /// 8 lanes).  Power-of-two values; SU menus scale to each.
    pub lanes: Vec<usize>,
    /// Lane-synchronisation granularities (lanes sharing one column
    /// schedule; the paper's dispatcher syncs 8).
    pub sync_lanes: Vec<usize>,
    /// Weight-SRAM sizes in KiB.
    pub weight_sram_kb: Vec<usize>,
    /// Activation-SRAM sizes in KiB.
    pub activation_sram_kb: Vec<usize>,
    /// DRAM interface widths in bits/cycle.
    pub dram_bandwidth_bits: Vec<usize>,
    /// On-chip SRAM port widths in bits/cycle (applied to both operand
    /// SRAMs).
    pub sram_bandwidth_bits: Vec<usize>,
    /// SU menu families to try.
    pub menus: Vec<MenuKind>,
    /// Workload portfolio: registry model names resolved via
    /// `bitwave_dnn::models::by_name`.
    pub portfolio: Vec<String>,
    /// RNG seed for the synthetic weights.
    pub seed: u64,
    /// Per-layer weight sampling cap for the sparsity profiles.
    pub sample_cap: usize,
    /// Claim time-to-live in milliseconds: a worker that holds a claim
    /// longer than this without finishing is presumed crashed and its point
    /// is re-stolen.  **Not** part of the sweep identity.
    pub claim_ttl_ms: u64,
    /// The per-layer mapping space each candidate is searched with.
    pub space: SearchSpace,
}

/// The digest-relevant view of a configuration: everything except
/// operational knobs (`claim_ttl_ms`) that cannot change results.  Owned
/// (the vendored serde derive has no lifetime support); digesting clones a
/// handful of small vectors once per sweep.
#[derive(Serialize)]
struct SweepIdentity {
    schema: u32,
    lanes: Vec<usize>,
    sync_lanes: Vec<usize>,
    weight_sram_kb: Vec<usize>,
    activation_sram_kb: Vec<usize>,
    dram_bandwidth_bits: Vec<usize>,
    sram_bandwidth_bits: Vec<usize>,
    menus: Vec<MenuKind>,
    portfolio: Vec<String>,
    seed: u64,
    sample_cap: usize,
    space: SearchSpace,
}

impl SweepConfig {
    /// The **tiny** space: 8 points over one small model — CI smoke runs,
    /// crash-recovery tests and the sharded≡sequential property test.
    pub fn tiny() -> Self {
        Self {
            lanes: vec![4096, 8192],
            sync_lanes: vec![8, 16],
            weight_sram_kb: vec![256],
            activation_sram_kb: vec![256],
            dram_bandwidth_bits: vec![64],
            sram_bandwidth_bits: vec![1024],
            menus: vec![MenuKind::TableI, MenuKind::BitSim],
            portfolio: vec!["cnn-lstm".to_string()],
            seed: 42,
            sample_cap: 2_000,
            claim_ttl_ms: 30_000,
            space: SearchSpace {
                min_fill: 0.25,
                tile_factors: vec![1],
                include_su_set: true,
                max_front: 4,
                max_parallelism: None,
            },
        }
    }

    /// The **small** space: 24 points over a two-model portfolio — the
    /// `bench_sweep` gates.
    pub fn small() -> Self {
        Self {
            lanes: vec![2048, 4096, 8192],
            sync_lanes: vec![8, 16],
            weight_sram_kb: vec![256, 512],
            activation_sram_kb: vec![256],
            dram_bandwidth_bits: vec![64],
            sram_bandwidth_bits: vec![1024],
            menus: vec![MenuKind::TableI, MenuKind::BitSim],
            portfolio: vec!["resnet18".to_string(), "cnn-lstm".to_string()],
            seed: 42,
            sample_cap: 4_000,
            claim_ttl_ms: 30_000,
            space: SearchSpace {
                min_fill: 0.25,
                tile_factors: vec![1, 2],
                include_su_set: true,
                max_front: 8,
                max_parallelism: None,
            },
        }
    }

    /// The **full** space: ~10⁴ points over the four-model portfolio — the
    /// overnight coordinator run the CLI defaults to documenting.
    pub fn full() -> Self {
        Self {
            lanes: vec![1024, 2048, 4096, 8192],
            sync_lanes: vec![1, 4, 8, 16, 32, 64],
            weight_sram_kb: vec![64, 128, 256, 512, 1024],
            activation_sram_kb: vec![64, 128, 256, 512, 1024],
            dram_bandwidth_bits: vec![32, 64, 128],
            sram_bandwidth_bits: vec![512, 1024, 2048],
            menus: vec![MenuKind::TableI, MenuKind::BitSim],
            portfolio: vec![
                "resnet18".to_string(),
                "mobilenet-v2".to_string(),
                "cnn-lstm".to_string(),
                "bert-base".to_string(),
            ],
            seed: 42,
            sample_cap: 20_000,
            claim_ttl_ms: 300_000,
            space: SearchSpace::default(),
        }
    }

    /// Resolves a preset by name (`tiny` / `small` / `full`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "small" => Some(Self::small()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Number of candidate points (the cross product of every axis),
    /// saturating at `usize::MAX` instead of overflowing on a
    /// caller-supplied config.
    pub fn total_points(&self) -> usize {
        [
            self.lanes.len(),
            self.sync_lanes.len(),
            self.weight_sram_kb.len(),
            self.activation_sram_kb.len(),
            self.dram_bandwidth_bits.len(),
            self.sram_bandwidth_bits.len(),
            self.menus.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Content digest of everything that determines results — the sweep's
    /// identity in the shared store and the `/v1/design` replay key.
    pub fn digest(&self) -> Digest {
        Digest::of_value(&SweepIdentity {
            schema: SWEEP_SCHEMA_VERSION,
            lanes: self.lanes.clone(),
            sync_lanes: self.sync_lanes.clone(),
            weight_sram_kb: self.weight_sram_kb.clone(),
            activation_sram_kb: self.activation_sram_kb.clone(),
            dram_bandwidth_bits: self.dram_bandwidth_bits.clone(),
            sram_bandwidth_bits: self.sram_bandwidth_bits.clone(),
            menus: self.menus.clone(),
            portfolio: self.portfolio.clone(),
            seed: self.seed,
            sample_cap: self.sample_cap,
            space: self.space.clone(),
        })
        .expect("sweep identity is always serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes() {
        assert_eq!(SweepConfig::tiny().total_points(), 8);
        assert_eq!(SweepConfig::small().total_points(), 24);
        let full = SweepConfig::full().total_points();
        assert!(
            (10_000..100_000).contains(&full),
            "full preset must land in the 10^4–10^5 band, got {full}"
        );
    }

    #[test]
    fn total_points_saturates() {
        let mut config = SweepConfig::tiny();
        config.lanes = vec![1; 1 << 16];
        config.sync_lanes = vec![1; 1 << 16];
        config.weight_sram_kb = vec![1; 1 << 16];
        config.activation_sram_kb = vec![1; 1 << 16];
        config.dram_bandwidth_bits = vec![1; 2];
        assert_eq!(config.total_points(), usize::MAX);
        config.menus.clear();
        assert_eq!(config.total_points(), 0);
    }

    #[test]
    fn digest_ignores_operational_knobs_only() {
        let base = SweepConfig::tiny();
        let mut ttl = base.clone();
        ttl.claim_ttl_ms += 1;
        assert_eq!(base.digest(), ttl.digest(), "TTL cannot change results");
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(base.digest(), seed.digest());
        let mut space = base.clone();
        space.space.max_front += 1;
        assert_ne!(base.digest(), space.digest());
    }

    #[test]
    fn config_roundtrips_through_json() {
        let config = SweepConfig::small();
        let json = serde_json::to_string(&config).unwrap();
        let back: SweepConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.digest(), config.digest());
    }

    #[test]
    fn menu_names_roundtrip() {
        for menu in [MenuKind::TableI, MenuKind::BitSim] {
            assert_eq!(MenuKind::parse(menu.name()), Some(menu));
        }
        assert_eq!(MenuKind::parse("nope"), None);
    }
}
