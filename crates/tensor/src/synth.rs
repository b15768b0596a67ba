//! Synthetic weight and activation generators.
//!
//! The paper evaluates pre-trained Int8 networks (ResNet18, MobileNetV2,
//! CNN-LSTM, BERT-Base).  We do not have those checkpoints; instead we
//! generate weights from the zero-centred, small-σ distributions that trained
//! DNN layers exhibit (the paper itself leans on this property — Section
//! III-B, "NN weights often exhibit non-uniform distributions with a high
//! frequency of small or zero values").  The generator parameters are chosen
//! per layer so that the resulting Int8 value sparsity and bit-column
//! sparsity land in the ranges the paper reports (e.g. ≈20 % value sparsity
//! and ≈59 % SM bit-column sparsity for ResNet18 conv2 at G = 4).
//!
//! Activations are modelled as rectified Gaussians (post-ReLU) or plain
//! Gaussians (GELU/attention outputs), again matching the qualitative
//! statistics the evaluation needs (activation value sparsity for SCNN and
//! Pragmatic modelling).
//!
//! # Laplacian layers straight to Int8
//!
//! [`WeightGenerator::generate_int8`] defines a layer's codes as: draw every
//! weight as an `f32`, take the tensor's abs-max, set the scale so that it
//! lands at `127 · utilisation`, and round each `weight / scale`.  For
//! Laplacian layers it produces exactly those codes without a `ln` per
//! weight:
//!
//! - **Integer draws.** A draw is `j·2⁻⁵³` for a 53-bit integer `j`, so
//!   `u = j·2⁻⁵³ − ½` and `w = 1 − 2|u|` are exact: `w = W·2⁻⁵³` with the
//!   integer `W = 2⁵³ − 2·|j − 2⁵²|` in `[0, 2⁵³]`.  The weight is
//!   `∓b·ln w`, negative exactly when `j < 2⁵²`.
//! - **Monotone step.** The weight's magnitude depends only on `W`, and so
//!   does the code's: sign and magnitude are rounded symmetrically.  The
//!   magnitude never rises as `W` grows.  So the abs-max comes from the
//!   smallest `W` drawn; the first pass tracks it and evaluates the weight
//!   exactly for every draw within 1e-9 of it (a `ln` within an ulp of
//!   monotone cannot reorder draws that far apart).
//! - **Guard bands.** In exact arithmetic `weight / scale` crosses `k − ½`,
//!   where the code's magnitude steps from `k − 1` to `k`, at
//!   `W = T_k = 2⁵³·exp(−(k − ½)·scale/b)`.  The float expression rounds to
//!   `f32` twice (the weight, then `weight / scale`), so it is within
//!   1.2e-7 relative of the exact ratio, which is at most
//!   `127 · utilisation`.  Moving `W` by 1e-4 relative moves the exact ratio
//!   by `1e-4 · b / scale`: at least `127 · utilisation · 2.7e-6`, because
//!   the abs-max is at most `b · ln 2⁵²`.  So outside the band
//!   `T_k ± (1e-4·T_k + 2)` the float code equals the exact one, the number
//!   of steps `T_k` above `W`.
//! - **Bucket table.** The second pass re-runs the seeded stream and looks
//!   each `W` up in a table indexed by its `f64` exponent and top six
//!   mantissa bits (built in one linear walk over the buckets from the
//!   smallest `W` up).  A bucket holds a code, or the one band inside it,
//!   or "compute"; a draw inside a band (≈0.1 % of them) is computed with
//!   the float expression.
//! - **`W = 0`.** `ln 0 = −∞` makes the abs-max infinite; a layer that
//!   draws it takes the float path.

use crate::quant::{round_half_away, QuantParams};
use crate::shape::Shape;
use crate::tensor::{FloatTensor, QuantTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Weight distribution families used for synthetic layer weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightDistribution {
    /// Zero-mean Gaussian with the given standard deviation.
    Gaussian {
        /// Standard deviation of the distribution.
        std: f64,
    },
    /// Zero-mean Laplacian (double exponential); heavier concentration of
    /// small values than a Gaussian, typical of trained conv layers.
    Laplacian {
        /// Scale parameter `b` (variance is `2 b²`).
        scale: f64,
    },
    /// A mixture of a point mass at zero and a Gaussian, used to model layers
    /// that were trained with weight decay strong enough to produce exact
    /// zeros after quantisation.
    SpikeAndSlab {
        /// Probability of drawing an exact zero.
        zero_probability: f64,
        /// Standard deviation of the non-zero component.
        std: f64,
    },
    /// Uniform over `[-range, range]`; used for stress/property tests rather
    /// than realistic layers.
    Uniform {
        /// Half-width of the support.
        range: f64,
    },
}

/// Deterministic generator of synthetic floating-point weight tensors.
#[derive(Debug, Clone)]
pub struct WeightGenerator {
    distribution: WeightDistribution,
    seed: u64,
}

impl WeightGenerator {
    /// Creates a generator for the given distribution and RNG seed.
    pub fn new(distribution: WeightDistribution, seed: u64) -> Self {
        Self { distribution, seed }
    }

    /// The configured distribution.
    pub fn distribution(&self) -> WeightDistribution {
        self.distribution
    }

    /// Generates a weight tensor of the requested shape.  The same generator
    /// and shape always produce the same tensor (the seed is combined with
    /// the shape so different layers of a network differ).
    pub fn generate(&self, shape: Shape) -> FloatTensor {
        let data = self.samples(stream_seed(self.seed, &shape), shape.num_elements());
        FloatTensor::new(shape, data).expect("generated data matches shape")
    }

    /// Generates a symmetric Int8 weight tensor whose largest magnitude
    /// lands at `127 · utilisation` (clamped to `[0.05, 1]`) rather than 127,
    /// emulating layers whose trained dynamic range only covers part of the
    /// Int8 grid.  The per-layer `salt` gives two layers of the same shape
    /// different weights.
    ///
    /// The codes are those of quantising [`WeightGenerator::generate`]'s
    /// floats (under the salted seed) with that scale, rounding half away
    /// from zero; Laplacian layers get them without materialising the
    /// floats (see the module docs).
    pub fn generate_int8(&self, shape: Shape, salt: u64, utilisation: f64) -> QuantTensor {
        let seed = stream_seed(self.seed ^ salt.rotate_left(17), &shape);
        let n = shape.num_elements();
        let target_max = 127.0 * utilisation.clamp(0.05, 1.0) as f32;
        let fused = match self.distribution {
            WeightDistribution::Laplacian { scale } => {
                laplacian_int8(|| draws(seed, n), scale, target_max)
            }
            _ => None,
        };
        let (data, scale) =
            fused.unwrap_or_else(|| quantize_floats(&self.samples(seed, n), target_max));
        QuantTensor::new(shape, data, QuantParams::symmetric(scale, 8)).expect("shape preserved")
    }

    fn samples(&self, seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng) as f32).collect()
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self.distribution {
            WeightDistribution::Gaussian { std } => sample_gaussian(rng) * std,
            WeightDistribution::Laplacian { scale } => laplacian(scale, rng.next_u64() >> 11),
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
}

/// The RNG seed of one tensor: the generator seed hashed with the shape.
fn stream_seed(seed: u64, shape: &Shape) -> u64 {
    let mut hash = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &d in shape.dims() {
        hash = hash.wrapping_mul(0x100_0000_01B3).wrapping_add(d as u64);
    }
    hash
}

/// The 53-bit draws `j` of a tensor's stream (one per weight).
fn draws(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    std::iter::repeat_with(move || rng.next_u64() >> 11).take(n)
}

/// Inverse-CDF Laplace sample of scale `b` for the 53-bit draw `j`, with
/// `u = j·2⁻⁵³ − ½` formed exactly as `gen_range(-0.5..0.5)` forms it.
fn laplacian(b: f64, j: u64) -> f64 {
    let u = -0.5 + j as f64 * (1.0 / (1u64 << 53) as f64);
    -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// One weight's Int8 code at `scale`.
fn quantize(v: f32, scale: f32) -> i8 {
    round_half_away(v / scale).clamp(-127.0, 127.0) as i8
}

/// The scale that puts `abs_max` at `target_max` (1 for an all-zero tensor).
fn scale_for(abs_max: f32, target_max: f32) -> f32 {
    if abs_max == 0.0 {
        1.0
    } else {
        abs_max / target_max
    }
}

/// Quantises floats so that their abs-max lands at `target_max`, returning
/// the codes and the scale.
fn quantize_floats(data: &[f32], target_max: f32) -> (Vec<i8>, f32) {
    let abs_max = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = scale_for(abs_max, target_max);
    (data.iter().map(|&v| quantize(v, scale)).collect(), scale)
}

/// `2⁵²`: draws below it give negative weights.
const HALF: u64 = 1 << 52;
/// `2⁵³`: the largest `W` (the draw `u = 0`).
const FULL: u64 = 1 << 53;
/// Table buckets: `f64` exponents 0..=53 of `W`, 64 mantissa slices each.
const BUCKETS: usize = 54 << 6;
/// Bucket entry flag: the low byte is the one guard band `k` inside it.
const BAND: u16 = 0x100;
/// Bucket entry: compute every draw in it.
const EXACT: u16 = u16::MAX;

/// `W` of the draw `j`: `1 − 2|u| = W·2⁻⁵³`.
fn width(j: u64) -> u64 {
    FULL - 2 * j.abs_diff(HALF)
}

/// Table bucket of `W ≥ 1`: its `f64` exponent and top six mantissa bits.
fn bucket(w: u64) -> usize {
    (((w as f64).to_bits() >> 46) - (1023 << 6)) as usize
}

/// The largest `W` within 1e-9 (relative) of `w`.
fn near_limit(w: u64) -> u64 {
    w.saturating_add((w as f64 * 1e-9) as u64)
}

/// The fused Laplacian kernel: the codes and scale of quantising the
/// Laplace samples of `draws()` (scale `b`) to `target_max`, or `None` when
/// the layer must take the float path (a `W = 0` draw, or `b` out of
/// range).  `draws` is called twice and must yield the same stream both
/// times.
fn laplacian_int8<I: Iterator<Item = u64>>(
    draws: impl Fn() -> I,
    b: f64,
    target_max: f32,
) -> Option<(Vec<i8>, f32)> {
    // Outside this range a nonzero weight can be subnormal or overflow as an
    // `f32`, and the guard-band bound no longer holds.
    if !(1e-15..=1e30).contains(&b) {
        return None;
    }
    // Pass 1: the smallest W, and every distinct W within 1e-9 of it.
    let mut w_min = u64::MAX;
    let mut limit = u64::MAX;
    let mut near: Vec<u64> = Vec::new();
    for w in draws().map(width) {
        if w <= limit {
            if w < w_min {
                w_min = w;
                limit = near_limit(w);
                near.retain(|&v| v <= limit);
            }
            if !near.contains(&w) {
                near.push(w);
            }
        }
    }
    if w_min == 0 {
        return None;
    }
    let abs_max = near.iter().fold(0.0f32, |m, &w| {
        m.max((laplacian(b, HALF + (FULL - w) / 2) as f32).abs())
    });
    let scale = scale_for(abs_max, target_max);

    // Guard bands [lo, hi] around each step T_k (index 0 unused); both ends
    // fall as k rises.
    let step = f64::from(scale) / b;
    let mut bands = [(0u64, 0u64); 128];
    for (k, band) in bands.iter_mut().enumerate().skip(1) {
        let t = FULL as f64 * (-(k as f64 - 0.5) * step).exp();
        let guard = 1e-4 * t + 2.0;
        *band = (
            (t - guard).max(0.0).floor() as u64,
            (t + guard).ceil() as u64,
        );
    }
    // One walk over the buckets from w_min's up.  Bands 1..=above lie wholly
    // above the bucket, bands above+1..=reach overlap it.
    let first = bucket(w_min);
    let (mut above, mut reach) = (127, 127);
    let table: Vec<u16> = (first..BUCKETS)
        .map(|i| {
            let (exponent, slice) = (i >> 6, (i & 63) as u64);
            let lo = ((64 + slice) << exponent).div_ceil(64);
            let end = ((65 + slice) << exponent).div_ceil(64);
            if lo >= end {
                return EXACT; // no integer W falls in this bucket
            }
            while above > 0 && bands[above].0 < end {
                above -= 1;
            }
            while reach > 0 && bands[reach].1 < lo {
                reach -= 1;
            }
            match reach - above {
                0 => above as u16,
                1 => BAND | reach as u16,
                _ => EXACT,
            }
        })
        .collect();

    // Pass 2: re-run the stream and look every code up.
    let codes = draws()
        .map(|j| {
            let w = width(j);
            let magnitude = match table[bucket(w) - first] {
                EXACT => return quantize(laplacian(b, j) as f32, scale),
                entry if entry & BAND == 0 => entry as i8,
                entry => {
                    let k = usize::from(entry as u8);
                    let (lo, hi) = bands[k];
                    if w > hi {
                        k as i8 - 1
                    } else if w < lo {
                        k as i8
                    } else {
                        return quantize(laplacian(b, j) as f32, scale);
                    }
                }
            };
            if j < HALF {
                -magnitude
            } else {
                magnitude
            }
        })
        .collect();
    Some((codes, scale))
}

/// Standard normal sample via the Box–Muller transform (keeps us independent
/// of `rand_distr`, which is not in the approved dependency set).
fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Activation statistics model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Post-ReLU: negative half clipped to zero — high value sparsity.
    Relu {
        /// Standard deviation of the pre-activation Gaussian.
        std: f64,
    },
    /// Post-GELU / attention output: approximately Gaussian, little sparsity.
    Gaussianlike {
        /// Standard deviation.
        std: f64,
    },
}

/// Deterministic generator of synthetic activation tensors.
#[derive(Debug, Clone)]
pub struct ActivationGenerator {
    kind: ActivationKind,
    seed: u64,
}

impl ActivationGenerator {
    /// Creates a generator with the given activation model and RNG seed.
    pub fn new(kind: ActivationKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// Generates an activation tensor of the requested shape.
    pub fn generate(&self, shape: Shape) -> FloatTensor {
        let mut rng = StdRng::seed_from_u64(self.seed ^ shape.num_elements() as u64);
        let data = (0..shape.num_elements())
            .map(|_| {
                let v = match self.kind {
                    ActivationKind::Relu { std } => (sample_gaussian(&mut rng) * std).max(0.0),
                    ActivationKind::Gaussianlike { std } => sample_gaussian(&mut rng) * std,
                };
                v as f32
            })
            .collect();
        FloatTensor::new(shape, data).expect("generated data matches shape")
    }

    /// Expected value sparsity of this activation model (0.5 for ReLU over a
    /// zero-mean Gaussian, ~0 otherwise).  Useful for analytical models that
    /// only need the statistic, not the data.
    pub fn expected_value_sparsity(&self) -> f64 {
        match self.kind {
            ActivationKind::Relu { .. } => 0.5,
            ActivationKind::Gaussianlike { .. } => 0.0,
        }
    }
}

/// Convenience distribution parameterisation used by `bitwave-dnn` to pick a
/// per-layer weight distribution that reproduces the paper's reported
/// sparsity statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerWeightProfile {
    /// Distribution family and parameters.
    pub distribution: WeightDistribution,
    /// Fraction of the Int8 range that the distribution's ±4σ support should
    /// span.  Smaller values concentrate the quantised weights near zero and
    /// therefore raise bit-level sparsity.
    pub dynamic_range_utilisation: f64,
}

impl LayerWeightProfile {
    /// A profile typical of large convolution / linear layers: Laplacian with
    /// low dynamic-range utilisation — many near-zero weights, high
    /// bit-column sparsity under sign-magnitude.
    pub fn weight_heavy() -> Self {
        Self {
            distribution: WeightDistribution::Laplacian { scale: 0.018 },
            dynamic_range_utilisation: 0.35,
        }
    }

    /// A profile typical of early convolution layers: wider Gaussian, lower
    /// sparsity, more sensitive to perturbation.
    pub fn weight_light() -> Self {
        Self {
            distribution: WeightDistribution::Gaussian { std: 0.05 },
            dynamic_range_utilisation: 0.8,
        }
    }

    /// A profile for transformer (BERT) layers: dense Gaussians with very few
    /// exact zeros and limited bit sparsity, matching the paper's
    /// observation that the original Int8 BERT has few zero columns.
    pub fn transformer() -> Self {
        Self {
            distribution: WeightDistribution::Gaussian { std: 0.03 },
            dynamic_range_utilisation: 0.95,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_per_tensor;

    #[test]
    fn generation_is_deterministic() {
        let g = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.05 }, 7);
        let a = g.generate(Shape::d2(16, 16));
        let b = g.generate(Shape::d2(16, 16));
        assert_eq!(a, b);
    }

    #[test]
    fn different_shapes_or_salts_give_different_tensors() {
        let g = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.05 }, 7);
        let a = g.generate(Shape::d2(16, 16));
        let b = g.generate(Shape::d2(16, 17));
        assert_ne!(a.data()[..16], b.data()[..16]);
        let c = g.generate_int8(Shape::d2(16, 16), 1, 1.0);
        let d = g.generate_int8(Shape::d2(16, 16), 2, 1.0);
        assert_ne!(c.data()[..16], d.data()[..16]);
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let g = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.1 }, 3);
        let t = g.generate(Shape::d1(50_000));
        let mean = t.mean().unwrap();
        let var: f32 = t
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.data().len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var.sqrt() - 0.1).abs() < 0.01,
            "std {} too far from 0.1",
            var.sqrt()
        );
    }

    #[test]
    fn laplacian_is_heavier_near_zero_than_gaussian() {
        let lap = WeightGenerator::new(WeightDistribution::Laplacian { scale: 0.05 }, 3)
            .generate(Shape::d1(50_000));
        let gau = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.0707 }, 3)
            .generate(Shape::d1(50_000));
        // Same variance, but more samples within 0.25σ of zero for the Laplacian.
        let near = |t: &FloatTensor| t.data().iter().filter(|v| v.abs() < 0.0125).count();
        assert!(near(&lap) > near(&gau));
    }

    #[test]
    fn spike_and_slab_produces_exact_zero_fraction() {
        let g = WeightGenerator::new(
            WeightDistribution::SpikeAndSlab {
                zero_probability: 0.3,
                std: 0.05,
            },
            11,
        );
        let t = g.generate(Shape::d1(20_000));
        let zero_frac = t.data().iter().filter(|&&v| v == 0.0).count() as f64 / 20_000.0;
        assert!((zero_frac - 0.3).abs() < 0.02, "zero fraction {zero_frac}");
    }

    #[test]
    fn relu_activations_are_half_sparse_after_quantisation() {
        let g = ActivationGenerator::new(ActivationKind::Relu { std: 1.0 }, 5);
        let t = g.generate(Shape::feature_map(1, 8, 32, 32));
        let q = quantize_per_tensor(&t, 8).unwrap();
        let sparsity = q.value_sparsity();
        assert!(
            (sparsity - 0.5).abs() < 0.05,
            "post-ReLU sparsity {sparsity} should be near 0.5"
        );
        assert_eq!(g.expected_value_sparsity(), 0.5);
    }

    #[test]
    fn gaussian_activations_have_little_sparsity() {
        let g = ActivationGenerator::new(ActivationKind::Gaussianlike { std: 1.0 }, 5);
        let t = g.generate(Shape::d2(64, 64));
        let q = quantize_per_tensor(&t, 8).unwrap();
        assert!(q.value_sparsity() < 0.05);
        assert_eq!(g.expected_value_sparsity(), 0.0);
    }

    /// The float path on injected draws: every weight evaluated, abs-max
    /// folded, each code rounded with libm's `f32::round`.
    fn float_reference(js: &[u64], b: f64, target_max: f32) -> (Vec<i8>, f32) {
        let values: Vec<f32> = js.iter().map(|&j| laplacian(b, j) as f32).collect();
        let abs_max = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if abs_max == 0.0 {
            1.0
        } else {
            abs_max / target_max
        };
        let codes = values
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        (codes, scale)
    }

    fn assert_kernel_matches(js: &[u64], b: f64, target_max: f32) {
        let (codes, scale) =
            laplacian_int8(|| js.iter().copied(), b, target_max).expect("table path");
        let (want, want_scale) = float_reference(js, b, target_max);
        assert_eq!(scale.to_bits(), want_scale.to_bits());
        assert_eq!(codes, want);
    }

    /// The draw `j ≥ 2⁵²` whose `W` is `w` (even, in `[2, 2⁵³]`).
    fn positive_draw(w: u64) -> u64 {
        HALF + (FULL - w) / 2
    }

    #[test]
    fn kernel_matches_float_path_on_injected_draws() {
        let target = 127.0 * 0.35;
        // j = 2⁵² is u = 0: a zero weight (W = 2⁵³).
        assert_kernel_matches(&[HALF, HALF + 12_345, HALF - 999], 0.02, target);
        // One weight, on either side of zero.
        assert_kernel_matches(&[HALF + 77], 0.02, target);
        assert_kernel_matches(&[5], 0.02, 127.0);
        // All-equal draws, including all zero weights (abs-max 0, scale 1).
        assert_kernel_matches(&[HALF / 3; 500], 0.5, target);
        assert_kernel_matches(&[HALF; 7], 0.5, target);
        // Draws packed just below u = 0: every bucket holds many steps.
        let tight: Vec<u64> = (0..2_000).map(|i| HALF + i * 3).collect();
        assert_kernel_matches(&tight, 1e-4, 127.0);
    }

    #[test]
    fn kernel_matches_float_path_at_every_step() {
        for (b, target, w_min) in [
            (0.018, 127.0 * 0.35, 1u64 << 40),
            (1e-4, 127.0, 1 << 50),
            (1.0, 127.0 * 0.05, 2),
            (0.3, 127.0 * 0.8, 1 << 12),
        ] {
            // The smallest W fixes abs-max and so the scale and every T_k.
            let (_, scale) = float_reference(&[positive_draw(w_min)], b, target);
            let mut js = vec![positive_draw(w_min)];
            for k in 1..=127 {
                let t = FULL as f64 * (-(k as f64 - 0.5) * f64::from(scale) / b).exp();
                let w = ((t / 2.0).round() as u64 * 2).clamp(w_min, FULL);
                // The draws one below, at and one above the step's W
                // (W moves by 2 per draw), on both sides of zero.
                let j = positive_draw(w);
                for d in [j - 1, j, j + 1] {
                    let d = d.clamp(HALF, positive_draw(w_min));
                    js.extend([d, 2 * HALF - d]);
                }
            }
            assert_kernel_matches(&js, b, target);
        }
    }

    #[test]
    fn kernel_leaves_zero_width_draws_to_the_float_path() {
        // j = 0 is u = −½: W = 0 and ln 0 = −∞.
        assert!(laplacian_int8(|| [HALF + 1, 0].into_iter(), 0.02, 44.45).is_none());
        assert!(laplacian_int8(|| [HALF].into_iter(), 0.0, 44.45).is_none());
        let empty = laplacian_int8(std::iter::empty, 0.02, 44.45).unwrap();
        assert_eq!(empty, (Vec::new(), 1.0));
    }

    #[test]
    fn profiles_expose_expected_orderings() {
        let heavy = LayerWeightProfile::weight_heavy();
        let light = LayerWeightProfile::weight_light();
        assert!(heavy.dynamic_range_utilisation < light.dynamic_range_utilisation);
    }
}
