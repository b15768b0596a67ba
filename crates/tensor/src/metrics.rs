//! Tensor distance metrics used by the accuracy proxy.
//!
//! The Bit-Flip optimisation (Section III-D) trades weight perturbation
//! against accuracy; our reproduction replaces dataset accuracy with a proxy
//! built on these metrics.

use crate::tensor::FloatTensor;

/// Root-mean-square error between two equally-sized slices.
///
/// Returns `0.0` for empty inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rms_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "rms_error requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    (sum / a.len() as f64).sqrt()
}

/// Relative RMS error: `rms(a - b) / rms(a)`, with the convention that an
/// all-zero reference yields `0.0` when `b` is also all zero and `inf`
/// otherwise.
pub fn relative_rms_error(reference: &[f32], perturbed: &[f32]) -> f64 {
    let err = rms_error(reference, perturbed);
    let base = rms_error(reference, &vec![0.0; reference.len()]);
    if base == 0.0 {
        if err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        err / base
    }
}

/// Signal-to-quantisation-noise ratio in decibels: `20 log10(rms(ref) /
/// rms(ref - test))`. Returns `f64::INFINITY` when the signals are identical.
pub fn sqnr_db(reference: &[f32], test: &[f32]) -> f64 {
    let rel = relative_rms_error(reference, test);
    if rel == 0.0 {
        f64::INFINITY
    } else {
        -20.0 * rel.log10()
    }
}

/// Cosine similarity between two slices (1.0 for identical directions, 0.0
/// when either vector is all-zero).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity requires equal lengths");
    let dot: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum();
    let na: f64 = a
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt();
    let nb: f64 = b
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// RMS error between two float tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn tensor_rms_error(a: &FloatTensor, b: &FloatTensor) -> f64 {
    assert_eq!(
        a.shape(),
        b.shape(),
        "tensor_rms_error requires equal shapes"
    );
    rms_error(a.data(), b.data())
}

/// Euclidean distance between two Int8 slices, the objective the Bit-Flip
/// algorithm minimises when choosing a replacement weight group
/// (Section III-D: "minimise the Euclidean Distance between the modified and
/// original weight vectors").
pub fn euclidean_distance_i8(a: &[i8], b: &[i8]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "euclidean_distance_i8 requires equal lengths"
    );
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn rms_of_identical_signals_is_zero() {
        let a = [1.0f32, -2.0, 3.0];
        assert_eq!(rms_error(&a, &a), 0.0);
        assert_eq!(sqnr_db(&a, &a), f64::INFINITY);
    }

    #[test]
    fn rms_known_value() {
        let a = [0.0f32, 0.0, 0.0, 0.0];
        let b = [1.0f32, 1.0, 1.0, 1.0];
        assert!((rms_error(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_rms_and_sqnr() {
        let reference = [10.0f32, -10.0, 10.0, -10.0];
        let perturbed = [11.0f32, -9.0, 11.0, -9.0];
        let rel = relative_rms_error(&reference, &perturbed);
        assert!((rel - 0.1).abs() < 1e-9);
        assert!((sqnr_db(&reference, &perturbed) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_reference_conventions() {
        let z = [0.0f32; 3];
        assert_eq!(relative_rms_error(&z, &z), 0.0);
        assert_eq!(relative_rms_error(&z, &[1.0, 0.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [2.0f32, 4.0, 6.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-9);
        let c = [-1.0f32, -2.0, -3.0];
        assert!((cosine_similarity(&a, &c) + 1.0).abs() < 1e-9);
        assert_eq!(cosine_similarity(&a, &[0.0; 3]), 0.0);
    }

    #[test]
    fn euclidean_distance_matches_paper_example() {
        // Fig. 4(c): flipping -3 to -4 has a vector distance of 1.
        assert_eq!(euclidean_distance_i8(&[-3], &[-4]), 1.0);
        assert_eq!(euclidean_distance_i8(&[3, 4], &[0, 0]), 5.0);
    }

    #[test]
    fn tensor_rms_requires_same_shape() {
        let a = FloatTensor::zeros(Shape::d2(2, 2));
        let b = FloatTensor::zeros(Shape::d2(2, 2));
        assert_eq!(tensor_rms_error(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        rms_error(&[1.0], &[1.0, 2.0]);
    }
}
