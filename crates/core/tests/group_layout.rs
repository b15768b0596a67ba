//! The strided group layout against the naive per-element gather/scatter it
//! replaced: `extract_groups` and `reassemble_tensor` must match the
//! `Shape::offset` walk byte for byte on every rank, group size and kernel
//! size, padded or not.

use bitwave_core::group::{extract_groups, reassemble_tensor, GroupSize, Groups};
use bitwave_tensor::quant::QuantParams;
use bitwave_tensor::{QuantTensor, Shape};
use proptest::prelude::*;

/// Naive oracle: one `Shape::offset` per element gathers every
/// `(k, fy, fx)` row of input channels (rank 4) or takes the rows as they
/// lie (ranks 1 and 2), then zero-pads each row to a multiple of `g`.
/// Returns the padded group data and the unpadded row length.
fn naive_gather(tensor: &QuantTensor, g: usize) -> (Vec<i8>, usize) {
    let shape = tensor.shape();
    let data = tensor.data();
    let (rows, axis_len, reordered) = match shape.rank() {
        1 => (1, shape.dim(0), data.to_vec()),
        2 => (shape.dim(0), shape.dim(1), data.to_vec()),
        4 => {
            let (k, c, fy, fx) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
            let mut reordered = Vec::with_capacity(data.len());
            for ki in 0..k {
                for yi in 0..fy {
                    for xi in 0..fx {
                        for ci in 0..c {
                            reordered.push(data[shape.offset(&[ki, ci, yi, xi])]);
                        }
                    }
                }
            }
            (k * fy * fx, c, reordered)
        }
        rank => panic!("ungroupable rank {rank}"),
    };
    let padded_axis = axis_len.div_ceil(g) * g;
    let mut out = vec![0i8; rows * padded_axis];
    for row in 0..rows {
        out[row * padded_axis..row * padded_axis + axis_len]
            .copy_from_slice(&reordered[row * axis_len..(row + 1) * axis_len]);
    }
    (out, axis_len)
}

/// Naive oracle of the inverse: drops each row's padding and writes every
/// element back through `Shape::offset`.
fn naive_scatter(shape: Shape, padded: &[i8], axis_len: usize, g: usize) -> Vec<i8> {
    let padded_axis = axis_len.div_ceil(g) * g;
    let flat: Vec<i8> = padded
        .chunks_exact(padded_axis)
        .flat_map(|row| row[..axis_len].iter().copied())
        .collect();
    match shape.rank() {
        1 | 2 => flat,
        4 => {
            let (k, c, fy, fx) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
            let mut out = vec![0i8; flat.len()];
            let mut idx = 0usize;
            for ki in 0..k {
                for yi in 0..fy {
                    for xi in 0..fx {
                        for ci in 0..c {
                            out[shape.offset(&[ki, ci, yi, xi])] = flat[idx];
                            idx += 1;
                        }
                    }
                }
            }
            out
        }
        rank => panic!("ungroupable rank {rank}"),
    }
}

fn padded_data(groups: &Groups) -> Vec<i8> {
    groups.iter().flatten().copied().collect()
}

/// Deterministic pseudo-random weights (splitmix64 bytes).
fn weights(shape: Shape, seed: u64) -> QuantTensor {
    let mut state = seed;
    let data = (0..shape.num_elements())
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as i8
        })
        .collect();
    QuantTensor::new(shape, data, QuantParams::unit()).unwrap()
}

/// Checks gather, scatter of modified groups, and the round trip.
fn check_layout(shape: Shape, g: usize, seed: u64) {
    let tensor = weights(shape, seed);
    let groups = extract_groups(&tensor, GroupSize::from_len(g)).unwrap();
    let (expected, axis_len) = naive_gather(&tensor, g);
    assert_eq!(groups.group_size(), g);
    assert_eq!(
        padded_data(&groups),
        expected,
        "gather of {:?} at G={g}",
        shape.dims()
    );

    // Round trip to the original tensor.
    let back = reassemble_tensor(&tensor, &groups).unwrap();
    assert_eq!(
        back.data(),
        tensor.data(),
        "round trip of {:?}",
        shape.dims()
    );
    assert_eq!(back.shape(), tensor.shape());
    assert_eq!(back.params(), tensor.params());

    // Scatter of modified groups (padding included) matches the oracle.
    let mut modified = groups.clone();
    for (i, v) in modified.iter_mut().flatten().enumerate() {
        *v = v.wrapping_mul(3).wrapping_add(i as i8);
    }
    let scattered = reassemble_tensor(&tensor, &modified).unwrap();
    assert_eq!(
        scattered.data(),
        naive_scatter(shape, &padded_data(&modified), axis_len, g).as_slice(),
        "scatter of {:?} at G={g}",
        shape.dims()
    );
}

/// Grouped-axis length `C`: an exact multiple of `g`, or (when `g > 1`)
/// forced off the multiple so the tail group is padded.
fn axis_len(g: usize, raw: usize, multiple: bool) -> usize {
    if multiple {
        g * (1 + raw % 3)
    } else if g > 1 && raw % g == 0 {
        raw + 1
    } else {
        raw
    }
}

#[test]
fn paper_shapes_match_the_oracle() {
    for g in [1, 8, 16, 32, 64] {
        check_layout(Shape::conv_weight(4, 64, 3, 3), g, 1);
        check_layout(Shape::conv_weight(3, 70, 1, 1), g, 2);
        check_layout(Shape::conv_weight(2, 3, 3, 3), g, 3);
        check_layout(Shape::d2(5, 100), g, 4);
        check_layout(Shape::d1(129), g, 5);
    }
}

#[test]
fn groups_from_another_shape_are_rejected() {
    let tensor = weights(Shape::conv_weight(2, 6, 3, 3), 9);
    // Same element count, different grouped axis.
    let other = weights(Shape::conv_weight(2, 9, 3, 2), 9);
    let groups = extract_groups(&other, GroupSize::G8).unwrap();
    assert!(reassemble_tensor(&tensor, &groups).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conv_layout_matches_the_oracle(
        g in 1usize..=64,
        k in 1usize..=4,
        raw_c in 1usize..=96,
        multiple in any::<bool>(),
        fy in 1usize..=3,
        fx in 1usize..=3,
        seed in any::<u64>(),
    ) {
        check_layout(Shape::conv_weight(k, axis_len(g, raw_c, multiple), fy, fx), g, seed);
    }

    #[test]
    fn linear_layout_matches_the_oracle(
        g in 1usize..=64,
        rows in 1usize..=6,
        raw_c in 1usize..=160,
        multiple in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_layout(Shape::d2(rows, axis_len(g, raw_c, multiple)), g, seed);
    }

    #[test]
    fn vector_layout_matches_the_oracle(
        g in 1usize..=64,
        raw_c in 1usize..=300,
        multiple in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_layout(Shape::d1(axis_len(g, raw_c, multiple)), g, seed);
    }
}
