//! Error type of the design-space exploration engine.
//!
//! Written by hand rather than with `thiserror` because the build
//! environment is offline; the shape matches what `#[derive(Error)]` would
//! generate.

use bitwave_core::error::CoreError;
use bitwave_dataflow::mapping::MappingError;
use std::fmt;

/// Errors produced while exploring a layer's mapping space.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DseError {
    /// The underlying mapping substrate rejected the request (empty SU set,
    /// degenerate layer).
    Mapping(
        /// The propagated mapping error.
        MappingError,
    ),
    /// A search key failed to digest (serialization failure).
    Core(
        /// The propagated core error.
        CoreError,
    ),
    /// The search space produced no candidates for a layer.
    EmptySpace {
        /// The offending layer name.
        layer: String,
    },
    /// `search_network` was handed misaligned layer/profile slices.
    MisalignedProfiles {
        /// Number of layers.
        layers: usize,
        /// Number of profiles.
        profiles: usize,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Mapping(e) => write!(f, "mapping error: {e}"),
            DseError::Core(e) => write!(f, "core error: {e}"),
            DseError::EmptySpace { layer } => {
                write!(f, "search space has no candidates for layer `{layer}`")
            }
            DseError::MisalignedProfiles { layers, profiles } => {
                write!(
                    f,
                    "network search needs one profile per layer ({layers} layers, {profiles} profiles)"
                )
            }
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Mapping(e) => Some(e),
            DseError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MappingError> for DseError {
    fn from(e: MappingError) -> Self {
        DseError::Mapping(e)
    }
}

impl From<CoreError> for DseError {
    fn from(e: CoreError) -> Self {
        DseError::Core(e)
    }
}

/// The crate-wide result alias.
pub type Result<T> = std::result::Result<T, DseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: DseError = MappingError::EmptySuSet {
            set: "X".to_string(),
        }
        .into();
        assert!(e.to_string().contains("mapping error"));
        assert!(e.source().is_some());
        let e: DseError = CoreError::Serialization {
            message: "boom".to_string(),
        }
        .into();
        assert!(e.to_string().contains("core error"));
        let e = DseError::EmptySpace {
            layer: "conv1".to_string(),
        };
        assert!(e.to_string().contains("conv1"));
        assert!(e.source().is_none());
        let e = DseError::MisalignedProfiles {
            layers: 3,
            profiles: 2,
        };
        assert!(e.to_string().contains("3 layers"));
    }
}
