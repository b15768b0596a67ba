//! The single-pass Pareto filter against the naive all-pairs oracle: mixed
//! objective directions, exact duplicates, NaN rows and DSE-shaped inputs
//! of about a thousand candidates with a small front.

#[path = "oracle/pareto.rs"]
mod oracle;

use bitwave_core::pareto::{pareto_front_indices, Direction};
use proptest::prelude::*;

/// The DSE's objective axes: `[cycles, energy, edp, utilisation]`.
const DSE_OBJECTIVES: [Direction; 4] = [
    Direction::Minimize,
    Direction::Minimize,
    Direction::Minimize,
    Direction::Maximize,
];

fn maximise<const N: usize>(directions: &[Direction; N]) -> [bool; N] {
    directions.map(|d| d == Direction::Maximize)
}

fn directions_from_bits<const N: usize>(bits: u8) -> [Direction; N] {
    std::array::from_fn(|k| {
        if bits >> k & 1 == 0 {
            Direction::Minimize
        } else {
            Direction::Maximize
        }
    })
}

/// Small integer-derived metrics maximise the chance of ties.
fn metric(raw: u8) -> f64 {
    f64::from(raw % 8)
}

fn rows3(raw: &[u8], value: impl Fn(u8) -> f64) -> Vec<[f64; 3]> {
    raw.chunks_exact(3)
        .map(|c| [value(c[0]), value(c[1]), value(c[2])])
        .collect()
}

/// SplitMix64 step: a fixed, dependency-free stream for the DSE-shaped rows.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `rows` candidate objective rows shaped like one layer's DSE search:
/// cycles and energy on a coarse grid (so ties and exact duplicates are
/// common), EDP their product, and utilisation falling with cycles.
fn dse_rows(seed: u64, rows: usize) -> Vec<[f64; 4]> {
    let mut state = seed;
    (0..rows)
        .map(|_| {
            let cycles = 1.0e5 * (1.0 + (splitmix(&mut state) % 64) as f64);
            let energy = 2.0e3 * (1.0 + (splitmix(&mut state) % 64) as f64);
            let utilisation = (1.0e5 / cycles * 16.0).round() / 16.0;
            [cycles, energy, cycles * energy, utilisation]
        })
        .collect()
}

#[test]
fn hand_picked_nan_and_duplicate_rows() {
    let dirs = [Direction::Minimize, Direction::Maximize];
    let rows = [
        [1.0, 5.0],
        [f64::NAN, 9.0],
        [1.0, 5.0],
        [2.0, 4.0],
        [0.0, f64::NAN],
        [0.5, 6.0],
        [0.5, 6.0],
    ];
    let front = pareto_front_indices(&rows, &dirs);
    assert_eq!(front, vec![1, 4, 5, 6]);
    assert_eq!(front, oracle::front_indices(&rows, &maximise(&dirs)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_oracle_under_mixed_directions(
        raw in proptest::collection::vec(any::<u8>(), 0..90),
        dir_bits in any::<u8>(),
    ) {
        let dirs: [Direction; 3] = directions_from_bits(dir_bits);
        let rows = rows3(&raw, metric);
        prop_assert_eq!(
            pareto_front_indices(&rows, &dirs),
            oracle::front_indices(&rows, &maximise(&dirs))
        );
    }

    #[test]
    fn matches_oracle_with_exact_duplicates(
        raw in proptest::collection::vec(any::<u8>(), 3..60),
        copies in proptest::collection::vec(any::<usize>(), 1..20),
        dir_bits in any::<u8>(),
    ) {
        let dirs: [Direction; 3] = directions_from_bits(dir_bits);
        let mut rows = rows3(&raw, metric);
        let originals = rows.len();
        for c in copies {
            let row = rows[c % originals];
            rows.push(row);
        }
        prop_assert_eq!(
            pareto_front_indices(&rows, &dirs),
            oracle::front_indices(&rows, &maximise(&dirs))
        );
    }

    #[test]
    fn matches_oracle_with_nan_rows(
        raw in proptest::collection::vec(any::<u8>(), 0..90),
        dir_bits in any::<u8>(),
    ) {
        // About one value in nine is NaN.
        let nan_or_metric = |r: u8| if r % 9 == 8 { f64::NAN } else { metric(r) };
        let dirs: [Direction; 3] = directions_from_bits(dir_bits);
        let rows = rows3(&raw, nan_or_metric);
        prop_assert_eq!(
            pareto_front_indices(&rows, &dirs),
            oracle::front_indices(&rows, &maximise(&dirs))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matches_oracle_on_dse_shaped_inputs(
        seed in any::<u64>(),
        rows in 900usize..=1100,
    ) {
        let objectives = dse_rows(seed, rows);
        let front = pareto_front_indices(&objectives, &DSE_OBJECTIVES);
        prop_assert!(front.len() < rows / 10, "front of {} is not small", front.len());
        prop_assert_eq!(front, oracle::front_indices(&objectives, &maximise(&DSE_OBJECTIVES)));
    }
}
