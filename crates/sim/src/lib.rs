//! # bitwave-sim
//!
//! A cycle-level simulator of the BitWave NPU micro-architecture
//! (Section IV of the paper).  Where `bitwave-accel` estimates performance
//! analytically, this crate *executes* layers on a software model of the
//! hardware:
//!
//! * [`zcip`] — the Zero-Column Index Parser: walks the 8-bit non-zero-column
//!   index of each compressed weight group, emits one (column, shift) pair
//!   per cycle, raises the sign request and drives the synchronisation
//!   counter (Fig. 7).
//! * [`bce`] — the BitWave Compute Engine: 8 sign-magnitude 1b×8b
//!   multipliers, partial-sum adder tree, single shared shifter and output
//!   register, executing the 5-step pipeline of Fig. 8.
//! * [`engine`] — the 512-BCE array with data fetcher/dispatcher, executing a
//!   whole layer (lowered to a matrix multiplication) from BCS-compressed
//!   weights under a Table-I spatial unrolling, producing both the functional
//!   result and cycle/access statistics.
//! * [`validate`] — the report of the model-vs-simulator validation the paper
//!   uses to trust its analytical results ("a deviation of less than 6 %"):
//!   engine statistics against cycles and a compression ratio the caller
//!   priced with `bitwave-accel`.  The crate holds no analytical model; the
//!   production model is held to the engine by `bitwave-dse`'s
//!   `engine_agreement` test.
//!
//! The simulator's outputs are checked bit-exactly against the Int8 reference
//! kernels of `bitwave-dnn`, which is the strongest functional argument that
//! bit-column-serial arithmetic computes the same results as a conventional
//! MAC array.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bce;
pub mod engine;
pub mod error;
pub mod validate;
pub mod zcip;

pub use bce::BitColumnEngine;
pub use engine::{BitwaveEngine, EngineConfig, SimStats};
pub use error::SimError;
pub use validate::ValidationReport;
pub use zcip::ZeroColumnIndexParser;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::bce::BitColumnEngine;
    pub use crate::engine::{BitwaveEngine, EngineConfig, SimStats};
    pub use crate::error::SimError;
    pub use crate::validate::ValidationReport;
    pub use crate::zcip::ZeroColumnIndexParser;
}
