//! Error type of the cycle-level simulator.
//!
//! Written by hand rather than with `thiserror` because the build
//! environment is offline; the shape matches what `#[derive(Error)]` would
//! generate.

use crate::bce::BCE_LANES;
use crate::engine::EngineConfig;
use bitwave_tensor::TensorError;
use std::fmt;

/// Errors produced by the cycle-level simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An underlying tensor (shape) error.
    Tensor(
        /// The propagated tensor error.
        TensorError,
    ),
    /// The engine configuration cannot run on the BCE array: a zero `ku`,
    /// `mu` or `sync_kernels`, or a lane count outside
    /// `1..=`[`BCE_LANES`].
    InvalidConfig(
        /// The rejected configuration.
        EngineConfig,
    ),
    /// The bit-column-serial result diverged from the Int8 reference kernel —
    /// a simulator defect surfaced by a `*_verified` run.
    ReferenceMismatch {
        /// Index of the first diverging output element.
        index: usize,
        /// The simulated value at that index.
        simulated: i32,
        /// The reference value at that index.
        reference: i32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Tensor(e) => write!(f, "tensor error: {e}"),
            SimError::InvalidConfig(c) => write!(
                f,
                "engine config ku={} mu={} lanes={} sync_kernels={} needs non-zero \
                 ku, mu and sync_kernels and 1..={BCE_LANES} lanes",
                c.ku, c.mu, c.lanes, c.sync_kernels
            ),
            SimError::ReferenceMismatch {
                index,
                simulated,
                reference,
            } => write!(
                f,
                "simulated output[{index}] = {simulated} diverged from the Int8 reference {reference}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SimError {
    fn from(e: TensorError) -> Self {
        SimError::Tensor(e)
    }
}

/// Returns `Ok(())` when `simulated == reference`, or the first divergence as
/// a [`SimError::ReferenceMismatch`].
pub(crate) fn check_reference(simulated: &[i32], reference: &[i32]) -> Result<(), SimError> {
    if simulated.len() != reference.len() {
        return Err(SimError::ReferenceMismatch {
            index: simulated.len().min(reference.len()),
            simulated: 0,
            reference: 0,
        });
    }
    for (index, (&s, &r)) in simulated.iter().zip(reference).enumerate() {
        if s != r {
            return Err(SimError::ReferenceMismatch {
                index,
                simulated: s,
                reference: r,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SimError::from(TensorError::Empty);
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = SimError::ReferenceMismatch {
            index: 4,
            simulated: -1,
            reference: 2,
        };
        assert!(e.to_string().contains("output[4]"));
        assert!(e.source().is_none());
    }

    #[test]
    fn reference_check_finds_first_divergence() {
        assert!(check_reference(&[1, 2, 3], &[1, 2, 3]).is_ok());
        let err = check_reference(&[1, 9, 3], &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            SimError::ReferenceMismatch {
                index: 1,
                simulated: 9,
                reference: 2
            }
        );
        assert!(check_reference(&[1], &[1, 2]).is_err());
    }
}
