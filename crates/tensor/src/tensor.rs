//! Dense float and quantised tensors.

use crate::error::TensorError;
use crate::quant::QuantParams;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
///
/// Used for the floating-point reference path (synthetic "pre-trained"
/// weights before post-training quantisation) and for dequantised outputs in
/// the accuracy proxy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloatTensor {
    shape: Shape,
    data: Vec<f32>,
}

impl FloatTensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not match
    /// the number of elements implied by `shape`.
    pub fn new(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![0.0; shape.num_elements()],
            shape,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element access by multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Largest absolute value in the tensor (0.0 for an all-zero tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Mean of the elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] if the tensor has no elements (cannot
    /// happen for tensors built through [`Shape`], which forbids zero dims).
    pub fn mean(&self) -> Result<f32, TensorError> {
        if self.data.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.data.iter().sum::<f32>() / self.data.len() as f32)
    }
}

/// A dense row-major Int8 tensor together with its affine quantisation
/// parameters.
///
/// The quantisation convention follows the common symmetric/affine scheme:
/// `real ≈ scale * (q - zero_point)`.  The BitWave paper uses symmetric
/// per-tensor quantisation for weights (zero_point = 0), which is also what
/// [`crate::quant::quantize_per_tensor`] produces.
///
/// Cloning duplicates the whole Int8 payload and is therefore **counted** in
/// [`crate::copy_metrics`]; share read-only weights through a
/// [`crate::handle::WeightHandle`] instead of cloning.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantTensor {
    shape: Shape,
    data: Vec<i8>,
    params: QuantParams,
}

impl Clone for QuantTensor {
    fn clone(&self) -> Self {
        crate::copy_metrics::record_deep_copy();
        Self {
            shape: self.shape,
            data: self.data.clone(),
            params: self.params,
        }
    }
}

impl QuantTensor {
    /// Creates a quantised tensor from raw Int8 data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not match
    /// the number of elements implied by `shape`.
    pub fn new(shape: Shape, data: Vec<i8>, params: QuantParams) -> Result<Self, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Self {
            shape,
            data,
            params,
        })
    }

    /// Creates a zero-filled quantised tensor with unit scale.
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![0i8; shape.num_elements()],
            shape,
            params: QuantParams::unit(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The affine quantisation parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Immutable view of the Int8 data.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Mutable view of the Int8 data.
    pub fn data_mut(&mut self) -> &mut [i8] {
        &mut self.data
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> i8 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element access by multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut i8 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Fraction of elements equal to zero (the paper's "value sparsity").
    pub fn value_sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Reinterprets the tensor with a new shape containing the same number of
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the element counts do
    /// not match.
    pub fn reshaped(&self, shape: Shape) -> Result<QuantTensor, TensorError> {
        if shape.num_elements() != self.shape.num_elements() {
            return Err(TensorError::IncompatibleShapes {
                left: self.shape,
                right: shape,
            });
        }
        Ok(QuantTensor {
            shape,
            data: self.data.clone(),
            params: self.params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_tensor_roundtrip() {
        let t = FloatTensor::new(Shape::d2(2, 3), vec![1.0, -2.0, 3.0, 4.0, -5.0, 6.0]).unwrap();
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.abs_max(), 6.0);
        assert!((t.mean().unwrap() - (7.0 / 6.0)).abs() < 1e-6);
    }

    #[test]
    fn float_tensor_shape_mismatch() {
        let err = FloatTensor::new(Shape::d2(2, 3), vec![0.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn quant_tensor_value_sparsity() {
        let t = QuantTensor::new(
            Shape::d1(8),
            vec![0, 1, 0, -3, 0, 0, 7, -1],
            QuantParams::unit(),
        )
        .unwrap();
        assert!((t.value_sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quant_tensor_mutation() {
        let mut t = QuantTensor::zeros(Shape::d2(2, 2));
        *t.at_mut(&[1, 1]) = -7;
        assert_eq!(t.at(&[1, 1]), -7);
        assert_eq!(t.data()[3], -7);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = QuantTensor::new(
            Shape::d2(2, 4),
            (0..8).map(|v| v as i8).collect(),
            QuantParams::unit(),
        )
        .unwrap();
        let r = t.reshaped(Shape::d4(2, 2, 2, 1)).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(Shape::d1(7)).is_err());
    }

    #[test]
    fn zeros_have_full_sparsity() {
        let t = QuantTensor::zeros(Shape::d1(16));
        assert_eq!(t.value_sparsity(), 1.0);
    }
}
