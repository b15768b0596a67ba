//! `WeightGenerator::generate_int8` (the fused Laplacian kernel and the
//! float path) against the float reference in `oracle/`.

mod oracle;

use bitwave_tensor::prelude::*;
use bitwave_tensor::synth::WeightDistribution;
use proptest::prelude::*;

/// A shape of rank 1, 2 or 4 with roughly `n` elements.
fn shape_of(rank: u8, n: usize, k: usize, window: usize) -> Shape {
    match rank {
        1 => Shape::d1(n),
        2 => Shape::d2(k, (n / k).max(1)),
        _ => Shape::conv_weight(k, (n / (k * window * window)).max(1), window, window),
    }
}

fn assert_matches_oracle(
    distribution: WeightDistribution,
    seed: u64,
    shape: Shape,
    salt: u64,
    utilisation: f64,
) {
    let got = WeightGenerator::new(distribution, seed).generate_int8(shape, salt, utilisation);
    let want = oracle::generate_int8(distribution, seed, shape, salt, utilisation);
    assert_eq!(got.shape(), want.shape());
    assert_eq!(
        got.params().scale.to_bits(),
        want.params().scale.to_bits(),
        "{distribution:?} seed {seed} {shape:?} utilisation {utilisation}"
    );
    assert_eq!(got.params(), want.params());
    assert!(
        got.data() == want.data(),
        "{distribution:?} seed {seed} {shape:?} utilisation {utilisation}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `b` spans `[1e-4, 1]` log-uniformly; utilisation spans `[0, 1.2]`, so
    /// both ends of its `[0.05, 1]` clamp are hit.
    #[test]
    fn laplacian_kernel_matches_float_path(
        seed in any::<u64>(),
        salt in any::<u64>(),
        rank in prop_oneof![Just(1u8), Just(2), Just(4)],
        n in prop_oneof![1usize..64, 64usize..=70_000],
        k in 1usize..=64,
        window in 1usize..=3,
        b_step in 0u32..=1_000,
        utilisation_step in 0u32..=120,
    ) {
        let b = 1e-4 * 10f64.powf(4.0 * f64::from(b_step) / 1_000.0);
        let utilisation = f64::from(utilisation_step) / 100.0;
        let shape = shape_of(rank, n, k.min(n), window);
        assert_matches_oracle(
            WeightDistribution::Laplacian { scale: b },
            seed,
            shape,
            salt,
            utilisation,
        );
    }

    #[test]
    fn float_path_matches_for_other_distributions(
        seed in any::<u64>(),
        n in 1usize..=5_000,
        family in 0u8..3,
        utilisation_step in 0u32..=120,
    ) {
        let distribution = match family {
            0 => WeightDistribution::Gaussian { std: 0.05 },
            1 => WeightDistribution::SpikeAndSlab { zero_probability: 0.3, std: 0.02 },
            _ => WeightDistribution::Uniform { range: 0.7 },
        };
        let utilisation = f64::from(utilisation_step) / 100.0;
        assert_matches_oracle(distribution, seed, Shape::d1(n), seed >> 7, utilisation);
    }
}

#[test]
fn utilisation_clamp_edges_match() {
    for utilisation in [0.0, 0.05, 0.049, 1.0, 1.2, 0.35] {
        assert_matches_oracle(
            WeightDistribution::Laplacian { scale: 0.018 },
            7,
            Shape::conv_weight(64, 64, 3, 3),
            11,
            utilisation,
        );
    }
}
