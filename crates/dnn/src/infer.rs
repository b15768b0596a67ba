//! Exact Int8 reference kernels.
//!
//! These kernels compute layer outputs with 32-bit integer accumulation,
//! matching what a bit-parallel Int8 MAC array produces.  They are the
//! *golden model* against which the cycle-level BitWave simulator
//! (`bitwave-sim`) checks the functional correctness of its
//! bit-column-serial arithmetic, and they feed the accuracy proxy when
//! output-level error propagation is requested.

use bitwave_tensor::{QuantTensor, Shape, TensorError};

/// Computes a standard 2-D convolution over NCHW Int8 tensors with i32
/// accumulation.
///
/// * `input`: `[B, C, H, W]`
/// * `weight`: `[K, C, FY, FX]`
///
/// Returns the raw i32 accumulator tensor flattened row-major as
/// `[B, K, OY, OX]` together with its shape.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the channel counts of
/// input and weight disagree or either tensor is not rank-4.
pub fn conv2d_int8(
    input: &QuantTensor,
    weight: &QuantTensor,
    stride: usize,
    padding: usize,
) -> Result<(Vec<i32>, Shape), TensorError> {
    let ishape = input.shape();
    let wshape = weight.shape();
    if ishape.rank() != 4 || wshape.rank() != 4 || ishape.dim(1) != wshape.dim(1) {
        return Err(TensorError::IncompatibleShapes {
            left: ishape,
            right: wshape,
        });
    }
    let (b, c, h, w) = (ishape.dim(0), ishape.dim(1), ishape.dim(2), ishape.dim(3));
    let (k, _, fy, fx) = (wshape.dim(0), wshape.dim(1), wshape.dim(2), wshape.dim(3));
    let oy = (h + 2 * padding - fy) / stride + 1;
    let ox = (w + 2 * padding - fx) / stride + 1;
    let out_shape = Shape::feature_map(b, k, oy, ox);
    let mut out = vec![0i32; out_shape.num_elements()];

    let idata = input.data();
    let wdata = weight.data();
    for bi in 0..b {
        for ki in 0..k {
            for oyi in 0..oy {
                for oxi in 0..ox {
                    let mut acc = 0i32;
                    for ci in 0..c {
                        for fyi in 0..fy {
                            let iy = (oyi * stride + fyi) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for fxi in 0..fx {
                                let ix = (oxi * stride + fxi) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let ival = idata[ishape.offset(&[bi, ci, iy as usize, ix as usize])]
                                    as i32;
                                let wval = wdata[wshape.offset(&[ki, ci, fyi, fxi])] as i32;
                                acc += ival * wval;
                            }
                        }
                    }
                    out[out_shape.offset(&[bi, ki, oyi, oxi])] = acc;
                }
            }
        }
    }
    Ok((out, out_shape))
}

/// Computes a depthwise 2-D convolution (`weight` is `[K, 1, FY, FX]`, each
/// output channel convolves only its own input channel).
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the channel counts of
/// input and weight disagree.
pub fn depthwise_conv2d_int8(
    input: &QuantTensor,
    weight: &QuantTensor,
    stride: usize,
    padding: usize,
) -> Result<(Vec<i32>, Shape), TensorError> {
    let ishape = input.shape();
    let wshape = weight.shape();
    if ishape.rank() != 4
        || wshape.rank() != 4
        || ishape.dim(1) != wshape.dim(0)
        || wshape.dim(1) != 1
    {
        return Err(TensorError::IncompatibleShapes {
            left: ishape,
            right: wshape,
        });
    }
    let (b, c, h, w) = (ishape.dim(0), ishape.dim(1), ishape.dim(2), ishape.dim(3));
    let (fy, fx) = (wshape.dim(2), wshape.dim(3));
    let oy = (h + 2 * padding - fy) / stride + 1;
    let ox = (w + 2 * padding - fx) / stride + 1;
    let out_shape = Shape::feature_map(b, c, oy, ox);
    let mut out = vec![0i32; out_shape.num_elements()];

    let idata = input.data();
    let wdata = weight.data();
    for bi in 0..b {
        for ci in 0..c {
            for oyi in 0..oy {
                for oxi in 0..ox {
                    let mut acc = 0i32;
                    for fyi in 0..fy {
                        let iy = (oyi * stride + fyi) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for fxi in 0..fx {
                            let ix = (oxi * stride + fxi) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ival =
                                idata[ishape.offset(&[bi, ci, iy as usize, ix as usize])] as i32;
                            let wval = wdata[wshape.offset(&[ci, 0, fyi, fxi])] as i32;
                            acc += ival * wval;
                        }
                    }
                    out[out_shape.offset(&[bi, ci, oyi, oxi])] = acc;
                }
            }
        }
    }
    Ok((out, out_shape))
}

/// Computes `input (B×C) · weightᵀ (K×C)` with i32 accumulation, the kernel
/// behind linear layers, LSTM gate bundles and transformer projections.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the inner dimensions do
/// not match or either tensor is not rank-2.
pub fn linear_int8(
    input: &QuantTensor,
    weight: &QuantTensor,
) -> Result<(Vec<i32>, Shape), TensorError> {
    let ishape = input.shape();
    let wshape = weight.shape();
    if ishape.rank() != 2 || wshape.rank() != 2 || ishape.dim(1) != wshape.dim(1) {
        return Err(TensorError::IncompatibleShapes {
            left: ishape,
            right: wshape,
        });
    }
    let (b, c) = (ishape.dim(0), ishape.dim(1));
    let k = wshape.dim(0);
    let out_shape = Shape::d2(b, k);
    let mut out = vec![0i32; b * k];
    let idata = input.data();
    let wdata = weight.data();
    for bi in 0..b {
        for ki in 0..k {
            let mut acc = 0i32;
            for ci in 0..c {
                acc += idata[bi * c + ci] as i32 * wdata[ki * c + ci] as i32;
            }
            out[bi * k + ki] = acc;
        }
    }
    Ok((out, out_shape))
}

/// Plain Int8 dot product with i32 accumulation — the primitive the BitWave
/// Compute Engine (BCE) implements bit-column-serially; exposed so the
/// simulator tests can check arbitrary operand vectors.
pub fn dot_int8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::prelude::*;
    use bitwave_tensor::quant::QuantParams;
    use proptest::prelude::*;

    fn qt(shape: Shape, data: Vec<i8>) -> QuantTensor {
        QuantTensor::new(shape, data, QuantParams::unit()).unwrap()
    }

    #[test]
    fn conv_identity_kernel_copies_input() {
        // 1x1 kernel with weight 1 reproduces the input.
        let input = qt(
            Shape::feature_map(1, 1, 3, 3),
            (1..=9).map(|v| v as i8).collect(),
        );
        let weight = qt(Shape::conv_weight(1, 1, 1, 1), vec![1]);
        let (out, shape) = conv2d_int8(&input, &weight, 1, 0).unwrap();
        assert_eq!(shape, Shape::feature_map(1, 1, 3, 3));
        assert_eq!(out, (1..=9).collect::<Vec<i32>>());
    }

    #[test]
    fn conv_known_small_case() {
        // 2x2 input, 2x2 kernel, no padding -> single output.
        let input = qt(Shape::feature_map(1, 1, 2, 2), vec![1, 2, 3, 4]);
        let weight = qt(Shape::conv_weight(1, 1, 2, 2), vec![1, 0, 0, -1]);
        let (out, shape) = conv2d_int8(&input, &weight, 1, 0).unwrap();
        assert_eq!(shape.dims(), &[1, 1, 1, 1]);
        assert_eq!(out, vec![1 - 4]);
    }

    #[test]
    fn conv_with_padding_and_stride() {
        let input = qt(Shape::feature_map(1, 1, 4, 4), vec![1; 16]);
        let weight = qt(Shape::conv_weight(1, 1, 3, 3), vec![1; 9]);
        let (out, shape) = conv2d_int8(&input, &weight, 2, 1).unwrap();
        assert_eq!(shape.dims(), &[1, 1, 2, 2]);
        // Top-left output sees a 2x2 valid patch, interior sees 3x3.
        assert_eq!(out[0], 4);
        assert_eq!(out[3], 9);
    }

    #[test]
    fn conv_channel_mismatch_is_error() {
        let input = qt(Shape::feature_map(1, 2, 2, 2), vec![0; 8]);
        let weight = qt(Shape::conv_weight(1, 3, 1, 1), vec![0; 3]);
        assert!(conv2d_int8(&input, &weight, 1, 0).is_err());
    }

    #[test]
    fn depthwise_processes_channels_independently() {
        let input = qt(Shape::feature_map(1, 2, 2, 2), vec![1, 1, 1, 1, 2, 2, 2, 2]);
        let weight = qt(
            Shape::conv_weight(2, 1, 2, 2),
            vec![1, 1, 1, 1, -1, -1, -1, -1],
        );
        let (out, shape) = depthwise_conv2d_int8(&input, &weight, 1, 0).unwrap();
        assert_eq!(shape.dims(), &[1, 2, 1, 1]);
        assert_eq!(out, vec![4, -8]);
    }

    #[test]
    fn depthwise_rejects_multi_channel_kernels() {
        let input = qt(Shape::feature_map(1, 2, 2, 2), vec![0; 8]);
        let weight = qt(Shape::conv_weight(2, 2, 1, 1), vec![0; 4]);
        assert!(depthwise_conv2d_int8(&input, &weight, 1, 0).is_err());
    }

    #[test]
    fn linear_matches_manual_matmul() {
        let input = qt(Shape::d2(2, 3), vec![1, 2, 3, -1, 0, 2]);
        let weight = qt(Shape::d2(2, 3), vec![1, 1, 1, 2, 0, -1]);
        let (out, shape) = linear_int8(&input, &weight).unwrap();
        assert_eq!(shape, Shape::d2(2, 2));
        assert_eq!(out, vec![6, -1, 1, -4]);
    }

    #[test]
    fn linear_dimension_mismatch_is_error() {
        let input = qt(Shape::d2(1, 3), vec![0; 3]);
        let weight = qt(Shape::d2(2, 4), vec![0; 8]);
        assert!(linear_int8(&input, &weight).is_err());
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot_int8(&[1, -2, 3], &[4, 5, -6]), 4 - 10 - 18);
        assert_eq!(dot_int8(&[], &[]), 0);
    }

    #[test]
    fn conv_equals_linear_for_1x1_geometry() {
        // A 1x1 convolution over a 1x1 feature map is exactly a linear layer.
        let gen = WeightGenerator::new(WeightDistribution::Uniform { range: 1.0 }, 3);
        let w4 = quantize_per_tensor(&gen.generate(Shape::conv_weight(4, 6, 1, 1)), 8).unwrap();
        let x4 = quantize_per_tensor(&gen.generate(Shape::feature_map(1, 6, 1, 1)), 8).unwrap();
        let (conv_out, _) = conv2d_int8(&x4, &w4, 1, 0).unwrap();
        let w2 = w4.reshaped(Shape::d2(4, 6)).unwrap();
        let x2 = x4.reshaped(Shape::d2(1, 6)).unwrap();
        let (lin_out, _) = linear_int8(&x2, &w2).unwrap();
        assert_eq!(conv_out, lin_out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dot_product_is_commutative(
            a in proptest::collection::vec(-127i8..=127, 0..64),
        ) {
            let b: Vec<i8> = a.iter().rev().cloned().collect();
            let mut b_ordered = b.clone();
            b_ordered.reverse();
            prop_assert_eq!(dot_int8(&a, &b_ordered), dot_int8(&b_ordered, &a));
        }

        #[test]
        fn linear_is_additive_in_inputs(
            x in proptest::collection::vec(-63i8..=63, 8),
            y in proptest::collection::vec(-63i8..=63, 8),
            w in proptest::collection::vec(-127i8..=127, 16),
        ) {
            // (x + y) · W == x · W + y · W when no saturation occurs.
            let weight = qt(Shape::d2(2, 8), w);
            let sum: Vec<i8> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
            let (ox, _) = linear_int8(&qt(Shape::d2(1, 8), x), &weight).unwrap();
            let (oy, _) = linear_int8(&qt(Shape::d2(1, 8), y), &weight).unwrap();
            let (os, _) = linear_int8(&qt(Shape::d2(1, 8), sum), &weight).unwrap();
            for i in 0..2 {
                prop_assert_eq!(os[i], ox[i] + oy[i]);
            }
        }
    }
}
