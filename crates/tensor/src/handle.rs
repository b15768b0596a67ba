//! Shared, reference-counted weight-tensor handles.
//!
//! The BitWave pipeline does all of its expensive per-tensor work — bit-column
//! statistics, BCS compression, Bit-Flip — **once per layer**, then consumes
//! the result from many read-only stages, jobs and accelerator sweeps.  A
//! [`WeightHandle`] is the ownership model that matches: an [`Arc`]-backed,
//! immutable view of a [`QuantTensor`] whose `Clone` bumps a reference count
//! instead of deep-copying the weight payload.
//!
//! Deep copies of quantised tensors remain possible (and counted — see
//! [`crate::copy_metrics`]), but the pipeline's job planning and parallel
//! dispatch are expected to perform **zero** of them; the `bench_pipeline`
//! bench gates on that invariant.

use crate::tensor::QuantTensor;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, shared, immutable handle to a layer's Int8 weights.
///
/// Dereferences to [`QuantTensor`], so all read-only tensor APIs work
/// unchanged.  Mutation requires materialising a new tensor (Bit-Flip and PTQ
/// construct fresh tensors anyway) and wrapping it in a new handle.
#[derive(Debug, Clone)]
pub struct WeightHandle(Arc<QuantTensor>);

impl WeightHandle {
    /// Wraps an owned tensor into a shared handle (no copy).
    pub fn new(tensor: QuantTensor) -> Self {
        Self(Arc::new(tensor))
    }

    /// Borrow the underlying tensor.
    pub fn tensor(&self) -> &QuantTensor {
        &self.0
    }

    /// True when both handles point at the **same allocation** (not merely
    /// equal contents) — the zero-copy sharing check used by tests.
    pub fn shares_allocation_with(&self, other: &WeightHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Extracts an owned tensor: without copying when this is the last
    /// handle, via one (counted) deep copy otherwise.
    pub fn into_tensor(self) -> QuantTensor {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl Deref for WeightHandle {
    type Target = QuantTensor;

    fn deref(&self) -> &QuantTensor {
        &self.0
    }
}

impl PartialEq for WeightHandle {
    /// Content equality (same shape, data and params); handles to different
    /// allocations with identical contents compare equal.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl From<QuantTensor> for WeightHandle {
    fn from(tensor: QuantTensor) -> Self {
        Self::new(tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_metrics;
    use crate::quant::QuantParams;
    use crate::shape::Shape;

    fn tensor() -> QuantTensor {
        QuantTensor::new(
            Shape::d2(2, 4),
            vec![1, -2, 0, 4, -5, 0, 7, -8],
            QuantParams::unit(),
        )
        .unwrap()
    }

    #[test]
    fn clone_shares_the_allocation_without_deep_copying() {
        let _guard = copy_metrics::exclusive();
        let h = WeightHandle::new(tensor());
        let before = copy_metrics::deep_copies();
        let c = h.clone();
        assert_eq!(copy_metrics::deep_copies(), before, "clone must not copy");
        assert!(h.shares_allocation_with(&c));
        assert_eq!(Arc::strong_count(&h.0), 2);
        assert_eq!(c.data(), h.data());
    }

    #[test]
    fn deref_exposes_tensor_api() {
        let h = WeightHandle::new(tensor());
        assert_eq!(h.data().len(), 8);
        assert_eq!(h.shape(), Shape::d2(2, 4));
        assert!((h.value_sparsity() - 0.25).abs() < 1e-12);
        assert_eq!(h.tensor().data(), h.data());
    }

    #[test]
    fn equality_is_by_contents() {
        let a = WeightHandle::new(tensor());
        let b = WeightHandle::new(tensor());
        assert_eq!(a, b);
        assert!(!a.shares_allocation_with(&b));
        let mut other = tensor();
        other.data_mut()[0] = 99;
        assert_ne!(a, WeightHandle::new(other));
    }

    #[test]
    fn into_tensor_is_free_for_the_last_handle_and_copies_otherwise() {
        let _guard = copy_metrics::exclusive();
        let h = WeightHandle::new(tensor());
        let before = copy_metrics::deep_copies();
        let t = h.into_tensor();
        assert_eq!(copy_metrics::deep_copies(), before, "sole owner: no copy");
        let h = WeightHandle::new(t);
        let keep_alive = h.clone();
        let before = copy_metrics::deep_copies();
        let t = h.into_tensor();
        assert_eq!(copy_metrics::deep_copies(), before + 1, "shared: one copy");
        assert_eq!(t.data(), keep_alive.data());
    }

    #[test]
    fn from_impl_wraps_without_copying() {
        let _guard = copy_metrics::exclusive();
        let t = tensor();
        let before = copy_metrics::deep_copies();
        let via_from: WeightHandle = t.into();
        assert_eq!(copy_metrics::deep_copies(), before, "From must not copy");
        assert_eq!(Arc::strong_count(&via_from.0), 1);
        assert_eq!(via_from, WeightHandle::new(tensor()));
    }
}
