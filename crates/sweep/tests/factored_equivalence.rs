//! Property: the amortized factored evaluation path is **semantically
//! invisible** — for arbitrary synthetic candidate points, spanning both
//! SRAM-fit regimes (workloads that fit on-chip and workloads forced
//! through the DRAM roofline), arbitrary mapping spaces, a depthwise
//! portfolio and infeasible points, `evaluate_point_factored` reproduces
//! the naive oracle's full per-candidate evaluation byte for byte.

mod oracle;

use bitwave_dse::SearchSpace;
use bitwave_sweep::{
    build_portfolio, enumerate, evaluate_point_factored, run_with_progress, MenuKind, SweepConfig,
};
use proptest::prelude::*;

/// A single-point sweep configuration over one axis choice each, so the
/// candidate under test is exactly the generated hardware point.
fn single_point_config(
    lanes: usize,
    sync: usize,
    sram_kb: usize,
    dram_bits: usize,
    sram_bits: usize,
    menu: MenuKind,
    seed: u64,
) -> SweepConfig {
    let mut config = SweepConfig::tiny();
    config.lanes = vec![lanes];
    config.sync_lanes = vec![sync];
    config.weight_sram_kb = vec![sram_kb];
    config.activation_sram_kb = vec![sram_kb];
    config.dram_bandwidth_bits = vec![dram_bits];
    config.sram_bandwidth_bits = vec![sram_bits];
    config.menus = vec![menu];
    config.seed = seed;
    config.sample_cap = 1_000;
    config
}

/// Asserts that the factored path reproduces the full path's serialized
/// `PointResult` for the configuration's single point, and returns it.
fn assert_factored_matches_full(config: &SweepConfig) -> bitwave_sweep::PointResult {
    assert_eq!(config.total_points(), 1);
    let portfolio = build_portfolio(config).expect("portfolio builds");
    let point = enumerate(config)[0];
    let full = oracle::evaluate_point(&point, config, &portfolio);
    let factored = evaluate_point_factored(&point, config, &portfolio);
    assert_eq!(
        serde_json::to_string(&factored).unwrap(),
        serde_json::to_string(&full).unwrap(),
        "factored evaluation must reproduce the full path byte for byte"
    );
    full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Factored ≡ full, byte for byte, on arbitrary candidates.  The SRAM
    /// axis deliberately straddles the fit boundary: 16 KiB forces layers
    /// through the constrained DRAM tier while 1024 KiB keeps the portfolio
    /// on-chip, so the re-pricing (fit check + DRAM traffic + roofline max)
    /// is exercised in both regimes.
    #[test]
    fn factored_evaluation_equals_full_evaluation(
        lanes_pow in 10u32..=13,   // 1024..=8192 lanes
        sync_pick in 0u8..3,       // 1, 8 or 16 synced lanes
        sram_pick in 0u8..2,       // 16 KiB (DRAM-bound) or 1024 KiB (fits)
        dram_pick in 0u8..2,       // 32 or 128 bits/cycle
        sram_bw_pick in 0u8..2,    // 512 or 1024 bits/cycle
        menu_pick in 0u8..2,
        seed in 1u64..500,
    ) {
        let sync = [1usize, 8, 16][sync_pick as usize];
        let sram_kb = [16usize, 1024][sram_pick as usize];
        let dram_bits = [32usize, 128][dram_pick as usize];
        let sram_bits = [512usize, 1024][sram_bw_pick as usize];
        let menu = [MenuKind::TableI, MenuKind::BitSim][menu_pick as usize];
        let config = single_point_config(
            1usize << lanes_pow, sync, sram_kb, dram_bits, sram_bits, menu, seed,
        );
        assert_factored_matches_full(&config);
    }

    /// Factored ≡ full under arbitrary mapping spaces: every non-empty
    /// subset of the tile factors {1, 2, 4}, three fill floors and three
    /// front caps, in both SRAM-fit regimes.
    #[test]
    fn factored_evaluation_equals_full_evaluation_across_spaces(
        tile_mask in 1u8..8,       // non-empty subset of {1, 2, 4}
        fill_pick in 0u8..3,
        front_pick in 0u8..3,
        sram_pick in 0u8..2,
        lanes_pow in 11u32..=13,
        seed in 1u64..500,
    ) {
        let sram_kb = [16usize, 1024][sram_pick as usize];
        let mut config = single_point_config(
            1usize << lanes_pow, 8, sram_kb, 64, 1024, MenuKind::TableI, seed,
        );
        config.space = SearchSpace {
            min_fill: [0.125, 0.25, 0.5][fill_pick as usize],
            tile_factors: [1usize, 2, 4]
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| tile_mask & (1 << bit) != 0)
                .map(|(_, factor)| factor)
                .collect(),
            include_su_set: true,
            max_front: [1usize, 4, 16][front_pick as usize],
            max_parallelism: None,
        };
        assert_factored_matches_full(&config);
    }
}

/// A depthwise portfolio exercises the `G×OX` candidates the plain
/// convolutional models never enumerate, in both SRAM-fit regimes.
#[test]
fn depthwise_portfolio_factored_equals_full() {
    for sram_kb in [16, 1024] {
        let mut config = single_point_config(4096, 8, sram_kb, 64, 1024, MenuKind::TableI, 7);
        config.portfolio = vec!["mobilenet-v2".to_string(), "cnn-lstm".to_string()];
        let result = assert_factored_matches_full(&config);
        assert!(result.feasible, "{:?}", result.error);
        assert_eq!(result.models.len(), 2);
    }
}

/// An empty mapping space makes the point infeasible; the factored path
/// must report the same first error as the full path, byte for byte.
#[test]
fn infeasible_point_reports_the_full_path_error() {
    let mut config = single_point_config(4096, 8, 256, 64, 1024, MenuKind::TableI, 3);
    config.space = SearchSpace {
        include_su_set: false,
        max_parallelism: Some(0),
        ..config.space.clone()
    };
    let result = assert_factored_matches_full(&config);
    assert!(!result.feasible);
    let error = result.error.expect("infeasible points record their error");
    assert!(error.contains("has no candidates"), "{error}");
}

/// The `tiny` sweep over a depthwise portfolio, end to end: the default
/// sweep's front report equals the oracle sweep's, byte for byte, both
/// sequentially and with the oracle's points fanned out across threads.
#[test]
fn depthwise_tiny_sweep_report_equals_the_oracle() {
    let mut config = SweepConfig::tiny();
    config.portfolio = vec!["mobilenet-v2".to_string(), "cnn-lstm".to_string()];
    let (report, _) = run_with_progress(&config, None, |_| {}).expect("sweep runs");
    let json = serde_json::to_string_pretty(&report).unwrap();
    for threads in [1, 4] {
        let expected = oracle::sweep(&config, threads);
        assert_eq!(
            json,
            serde_json::to_string_pretty(&expected).unwrap(),
            "{threads} oracle threads"
        );
    }
}
