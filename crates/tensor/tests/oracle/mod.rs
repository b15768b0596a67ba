//! The generate → quantise reference: the float path every Int8 weight
//! tensor used to take.  Each weight is drawn as an `f64` from the seeded
//! stream and cast to `f32`, the tensor's abs-max sets the scale, and each
//! code is `(v / scale).round()` with libm's `f32::round`.
//!
//! `WeightGenerator::generate_int8` must reproduce it byte for byte (codes
//! and scale).  Shared by the tensor and dnn test suites.
#![allow(dead_code)]

use bitwave_tensor::prelude::*;
use bitwave_tensor::synth::WeightDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates the float weights of `shape` under `seed ^ salt.rotate_left(17)`
/// and quantises them with `utilisation`.
pub fn generate_int8(
    distribution: WeightDistribution,
    seed: u64,
    shape: Shape,
    salt: u64,
    utilisation: f64,
) -> QuantTensor {
    let floats = generate(distribution, seed ^ salt.rotate_left(17), shape);
    quantize_with_utilisation(&floats, utilisation)
}

fn generate(distribution: WeightDistribution, seed: u64, shape: Shape) -> FloatTensor {
    let mut hash = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &d in shape.dims() {
        hash = hash.wrapping_mul(0x100_0000_01B3).wrapping_add(d as u64);
    }
    let mut rng = StdRng::seed_from_u64(hash);
    let data = (0..shape.num_elements())
        .map(|_| sample(distribution, &mut rng) as f32)
        .collect();
    FloatTensor::new(shape, data).unwrap()
}

fn sample<R: Rng>(distribution: WeightDistribution, rng: &mut R) -> f64 {
    match distribution {
        WeightDistribution::Gaussian { std } => sample_gaussian(rng) * std,
        WeightDistribution::Laplacian { scale } => {
            let u: f64 = rng.gen_range(-0.5..0.5);
            -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
        }
        WeightDistribution::SpikeAndSlab {
            zero_probability,
            std,
        } => {
            if rng.gen_bool(zero_probability.clamp(0.0, 1.0)) {
                0.0
            } else {
                sample_gaussian(rng) * std
            }
        }
        WeightDistribution::Uniform { range } => rng.gen_range(-range..=range),
    }
}

fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn quantize_with_utilisation(tensor: &FloatTensor, utilisation: f64) -> QuantTensor {
    let utilisation = utilisation.clamp(0.05, 1.0);
    let abs_max = tensor.abs_max();
    let target_max = 127.0 * utilisation as f32;
    let scale = if abs_max == 0.0 {
        1.0
    } else {
        abs_max / target_max
    };
    let data: Vec<i8> = tensor
        .data()
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    QuantTensor::new(tensor.shape(), data, QuantParams::symmetric(scale, 8)).unwrap()
}
