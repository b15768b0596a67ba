//! Post-training quantisation (PTQ).
//!
//! The paper's networks are Int8 quantised with PyTorch's standard
//! post-training quantisation flow (Section V-A2).  For the Fig. 6
//! comparison it additionally re-quantises the Int8 weights to fewer than 8
//! bits ("Int8+PTQ") as the baseline against which BCS + Bit-Flip is judged.
//! This module provides both operations.

use crate::error::TensorError;
use crate::tensor::{FloatTensor, QuantTensor};
use serde::{Deserialize, Serialize};

/// Affine quantisation parameters: `real ≈ scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Scale factor applied to the integer value.
    pub scale: f32,
    /// Zero point (0 for the symmetric scheme used for weights).
    pub zero_point: i32,
    /// Bit width of the integer representation (1..=8).
    pub bits: u8,
}

impl QuantParams {
    /// Parameters representing an identity mapping (scale 1, zero point 0,
    /// 8 bits).
    pub fn unit() -> Self {
        Self {
            scale: 1.0,
            zero_point: 0,
            bits: 8,
        }
    }

    /// Symmetric parameters for a given scale and bit width.
    pub fn symmetric(scale: f32, bits: u8) -> Self {
        Self {
            scale,
            zero_point: 0,
            bits,
        }
    }

    /// The largest representable magnitude for this bit width
    /// (e.g. 127 for 8 bits, 7 for 4 bits).
    pub fn q_max(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// The most negative representable value (e.g. -128 for 8 bits).
    pub fn q_min(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self::unit()
    }
}

/// `x.round()` (round half away from zero) without the libm call.
///
/// Bit-identical to [`f32::round`] for every input, NaN, ±∞ and ±0
/// included: a magnitude of 2²³ or more (and NaN) is already integral and
/// comes back unchanged; below that, `as i32` truncates exactly and the
/// dropped fraction decides whether to step one away from zero.
#[inline]
pub fn round_half_away(x: f32) -> f32 {
    if x.is_nan() || x.abs() >= 8_388_608.0 {
        return x;
    }
    let truncated = x as i32 as f32;
    let rounded = if (x - truncated).abs() >= 0.5 {
        truncated + x.signum()
    } else {
        truncated
    };
    rounded.copysign(x)
}

fn check_bits(bits: u8) -> Result<(), TensorError> {
    if bits == 0 || bits > 8 {
        return Err(TensorError::InvalidBitWidth(bits));
    }
    Ok(())
}

/// Symmetric per-tensor quantisation of a float tensor to `bits` bits.
///
/// The scale is chosen so that the maximum absolute value maps to the largest
/// representable magnitude, matching PyTorch's default symmetric observer for
/// weights.
///
/// # Errors
///
/// Returns [`TensorError::InvalidBitWidth`] if `bits` is not in `1..=8`.
///
/// # Example
///
/// ```
/// use bitwave_tensor::prelude::*;
/// # fn main() -> Result<(), TensorError> {
/// let t = FloatTensor::new(Shape::d1(4), vec![0.5, -1.0, 0.25, 0.0])?;
/// let q = quantize_per_tensor(&t, 8)?;
/// assert_eq!(q.data()[1], -127);
/// # Ok(())
/// # }
/// ```
pub fn quantize_per_tensor(tensor: &FloatTensor, bits: u8) -> Result<QuantTensor, TensorError> {
    check_bits(bits)?;
    let q_max = ((1i32 << (bits - 1)) - 1) as f32;
    let abs_max = tensor.abs_max();
    let scale = if abs_max == 0.0 { 1.0 } else { abs_max / q_max };
    let params = QuantParams::symmetric(scale, bits);
    let data = tensor
        .data()
        .iter()
        .map(|&v| {
            let q = round_half_away(v / scale);
            q.clamp(-q_max, q_max) as i8
        })
        .collect();
    QuantTensor::new(tensor.shape(), data, params)
}

/// Symmetric per-channel quantisation along `axis` (normally the output
/// channel axis, 0, for convolution and linear weights).
///
/// Each channel gets its own scale; the returned tensor's
/// [`QuantTensor::params`] holds the *maximum* channel scale (useful as a
/// summary), while the per-channel scales are returned alongside.
///
/// # Errors
///
/// Returns [`TensorError::InvalidBitWidth`] for an unsupported bit width and
/// [`TensorError::InvalidAxis`] if `axis` is out of range.
pub fn quantize_per_channel(
    tensor: &FloatTensor,
    bits: u8,
    axis: usize,
) -> Result<(QuantTensor, Vec<f32>), TensorError> {
    check_bits(bits)?;
    let shape = tensor.shape();
    if axis >= shape.rank() {
        return Err(TensorError::InvalidAxis {
            axis,
            rank: shape.rank(),
        });
    }
    let q_max = ((1i32 << (bits - 1)) - 1) as f32;
    let channels = shape.dim(axis);
    let strides = shape.strides();
    let channel_stride = strides[axis];
    let num = shape.num_elements();

    // Per-channel abs-max pass.
    let mut abs_max = vec![0.0f32; channels];
    for (i, &v) in tensor.data().iter().enumerate() {
        let ch = (i / channel_stride) % channels;
        if v.abs() > abs_max[ch] {
            abs_max[ch] = v.abs();
        }
    }
    let scales: Vec<f32> = abs_max
        .iter()
        .map(|&m| if m == 0.0 { 1.0 } else { m / q_max })
        .collect();

    let mut data = vec![0i8; num];
    for (i, &v) in tensor.data().iter().enumerate() {
        let ch = (i / channel_stride) % channels;
        let q = round_half_away(v / scales[ch]).clamp(-q_max, q_max);
        data[i] = q as i8;
    }
    let summary_scale = scales.iter().cloned().fold(0.0f32, f32::max);
    let qt = QuantTensor::new(shape, data, QuantParams::symmetric(summary_scale, bits))?;
    Ok((qt, scales))
}

/// Dequantises an Int8 tensor back to floats using its stored parameters.
pub fn dequantize(tensor: &QuantTensor) -> FloatTensor {
    let params = tensor.params();
    let data = tensor
        .data()
        .iter()
        .map(|&q| params.scale * (q as i32 - params.zero_point) as f32)
        .collect();
    FloatTensor::new(tensor.shape(), data).expect("shape is preserved by construction")
}

/// Re-quantises an existing Int8 tensor to a smaller bit width, keeping the
/// real-valued range.
///
/// This is the paper's "Int8+PTQ" baseline of Fig. 6(e)–(h): the Int8 weights
/// are mapped to `bits < 8` by dropping LSB resolution (the scale grows by
/// `2^(8-bits)`), which is what uniform PTQ to a lower precision does to an
/// already-quantised tensor.
///
/// # Errors
///
/// Returns [`TensorError::InvalidBitWidth`] if `bits` is not in `1..=8`.
pub fn requantize_to_bits(tensor: &QuantTensor, bits: u8) -> Result<QuantTensor, TensorError> {
    check_bits(bits)?;
    let src = tensor.params();
    let shift = 8 - bits;
    let q_max = (1i32 << (bits - 1)) - 1;
    let new_scale = src.scale * (1i32 << shift) as f32;
    let data: Vec<i8> = tensor
        .data()
        .iter()
        .map(|&q| {
            // Round-to-nearest (ties away from zero) when dropping `shift` LSBs.
            let v = q as i32;
            let rounded = if shift == 0 {
                v
            } else {
                let bias = 1i32 << (shift - 1);
                let magnitude = (v.abs() + bias) >> shift;
                magnitude * v.signum()
            };
            rounded.clamp(-q_max, q_max) as i8
        })
        .collect();
    QuantTensor::new(
        tensor.shape(),
        data,
        QuantParams {
            scale: new_scale,
            zero_point: src.zero_point,
            bits,
        },
    )
}

/// Expands a re-quantised tensor back onto the Int8 grid of the original
/// tensor (multiplying by `2^(8-bits)`), so that PTQ-degraded weights can be
/// compared bit-for-bit and fed through the same Int8 inference path.
pub fn expand_to_int8_grid(tensor: &QuantTensor) -> QuantTensor {
    let params = tensor.params();
    let shift = 8 - params.bits;
    let data: Vec<i8> = tensor
        .data()
        .iter()
        .map(|&q| ((q as i32) << shift).clamp(-128, 127) as i8)
        .collect();
    QuantTensor::new(
        tensor.shape(),
        data,
        QuantParams {
            scale: params.scale / (1i32 << shift) as f32,
            zero_point: params.zero_point,
            bits: 8,
        },
    )
    .expect("shape preserved")
}

/// The effective compression ratio of storing a tensor at `bits` bits rather
/// than 8 (used to pick the PTQ bit width that matches a target BCS
/// compression ratio in Fig. 6).
pub fn ptq_compression_ratio(bits: u8) -> f64 {
    8.0 / f64::from(bits)
}

/// Chooses the smallest PTQ bit width whose compression ratio is at least
/// `target_cr`, clamped to `1..=8`.
pub fn ptq_bits_for_compression(target_cr: f64) -> u8 {
    for bits in (1..=8u8).rev() {
        if ptq_compression_ratio(bits) >= target_cr {
            return bits;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn sample_tensor() -> FloatTensor {
        FloatTensor::new(
            Shape::d2(2, 4),
            vec![0.5, -1.0, 0.25, 0.0, 0.75, -0.125, 1.0, -0.5],
        )
        .unwrap()
    }

    #[test]
    fn per_tensor_quantisation_maps_abs_max_to_qmax() {
        let q = quantize_per_tensor(&sample_tensor(), 8).unwrap();
        assert_eq!(q.data()[1], -127);
        assert_eq!(q.data()[6], 127);
        assert_eq!(q.params().bits, 8);
    }

    #[test]
    fn dequantisation_roundtrip_error_is_small() {
        let t = sample_tensor();
        let q = quantize_per_tensor(&t, 8).unwrap();
        let d = dequantize(&q);
        for (a, b) in t.data().iter().zip(d.data()) {
            assert!((a - b).abs() <= q.params().scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn invalid_bit_widths_rejected() {
        let t = sample_tensor();
        assert!(quantize_per_tensor(&t, 0).is_err());
        assert!(quantize_per_tensor(&t, 9).is_err());
        let q = quantize_per_tensor(&t, 8).unwrap();
        assert!(requantize_to_bits(&q, 0).is_err());
    }

    #[test]
    fn per_channel_scales_differ() {
        // Channel 0 has max 1.0, channel 1 has max 0.1.
        let t =
            FloatTensor::new(Shape::d2(2, 3), vec![1.0, -0.5, 0.25, 0.1, -0.05, 0.025]).unwrap();
        let (q, scales) = quantize_per_channel(&t, 8, 0).unwrap();
        assert_eq!(scales.len(), 2);
        assert!(scales[0] > scales[1]);
        // Both channel maxima map to 127.
        assert_eq!(q.data()[0], 127);
        assert_eq!(q.data()[3], 127);
    }

    #[test]
    fn per_channel_invalid_axis() {
        let t = sample_tensor();
        assert!(matches!(
            quantize_per_channel(&t, 8, 5),
            Err(TensorError::InvalidAxis { axis: 5, rank: 2 })
        ));
    }

    #[test]
    fn requantize_drops_lsbs_and_scales_up() {
        let q = QuantTensor::new(
            Shape::d1(4),
            vec![100, -100, 3, -3],
            QuantParams::symmetric(0.01, 8),
        )
        .unwrap();
        let r = requantize_to_bits(&q, 4).unwrap();
        // 100 >> 4 with rounding = (100+8)>>4 = 6 (clamped to 7 max).
        assert_eq!(r.data()[0], 6);
        assert_eq!(r.data()[1], -6);
        assert_eq!(r.data()[2], 0);
        assert_eq!(r.params().bits, 4);
        assert!((r.params().scale - 0.16).abs() < 1e-6);
        // Real value is approximately preserved: 100*0.01 = 1.0 vs 6*0.16 = 0.96.
        let orig = 100.0 * 0.01;
        let requant = 6.0 * r.params().scale;
        assert!((orig - requant).abs() < 0.1);
    }

    #[test]
    fn expand_to_int8_grid_matches_shifted_values() {
        let q =
            QuantTensor::new(Shape::d1(2), vec![6, -6], QuantParams::symmetric(0.16, 4)).unwrap();
        let e = expand_to_int8_grid(&q);
        assert_eq!(e.data(), &[96, -96]);
        assert_eq!(e.params().bits, 8);
    }

    #[test]
    fn ptq_bit_selection() {
        assert_eq!(ptq_bits_for_compression(1.0), 8);
        assert_eq!(ptq_bits_for_compression(1.4), 5);
        assert_eq!(ptq_bits_for_compression(2.0), 4);
        assert_eq!(ptq_bits_for_compression(3.0), 2);
        assert_eq!(ptq_bits_for_compression(10.0), 1);
    }

    #[test]
    fn all_zero_tensor_quantises_without_nan() {
        let t = FloatTensor::zeros(Shape::d1(8));
        let q = quantize_per_tensor(&t, 8).unwrap();
        assert!(q.data().iter().all(|&v| v == 0));
        assert!(q.params().scale.is_finite());
    }

    /// Every `f32` bit pattern, NaN, ±∞, ±0, the `as i32` saturation range
    /// and the ±127 clamp included.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn round_half_away_matches_f32_round_on_every_bit_pattern() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunk = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let end = ((t + 1) * chunk).min(1 << 32);
                    for bits in t * chunk..end {
                        let x = f32::from_bits(bits as u32);
                        let (ours, libm) = (round_half_away(x), x.round());
                        if libm.is_nan() {
                            assert!(ours.is_nan(), "{x:e}");
                        } else {
                            assert_eq!(ours.to_bits(), libm.to_bits(), "{x:e}");
                        }
                        assert_eq!(
                            ours.clamp(-127.0, 127.0) as i8,
                            libm.clamp(-127.0, 127.0) as i8,
                            "{x:e}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn round_half_away_edge_cases() {
        for x in [
            0.5f32,
            -0.5,
            1.5,
            -2.5,
            0.499_999_97,
            -0.3,
            -0.0,
            0.0,
            8_388_607.5,
            -8_388_607.5,
            3e9,
            -3e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
        assert!(round_half_away(f32::NAN).is_nan());
        assert_eq!(round_half_away(f32::NAN).clamp(-127.0, 127.0) as i8, 0);
    }

    #[test]
    fn qmin_qmax_for_bit_widths() {
        let p8 = QuantParams::symmetric(1.0, 8);
        assert_eq!((p8.q_min(), p8.q_max()), (-128, 127));
        let p4 = QuantParams::symmetric(1.0, 4);
        assert_eq!((p4.q_min(), p4.q_max()), (-8, 7));
    }
}
