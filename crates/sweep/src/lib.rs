//! # bitwave-sweep
//!
//! **Whole-accelerator hardware design-space exploration** with sharded
//! multi-process execution.
//!
//! The paper hand-picks its hardware (Table I: a 4096-lane bit-serial
//! array, an 8-lane sync dispatcher, 2×256 KiB SRAM and a seven-SU menu);
//! this crate searches that choice.  A [`config::SweepConfig`] spans the
//! cross product of array size, sync granularity, SRAM sizes, interface
//! bandwidths and SU-menu family; every candidate is materialised as a
//! full [`bitwave_accel::spec::AcceleratorSpec`] and evaluated against a
//! workload *portfolio* through the existing `bitwave-dse` per-layer
//! search and Eq. 1–5 cost stack.  Candidates are pruned to a 4-objective
//! Pareto front (EDP, energy, cycles, area) with
//! [`bitwave_core::pareto::FrontAccumulator`].
//!
//! Execution shards across worker **processes** coordinating through a
//! shared `bitwave-store` root: each point's result is a content-addressed
//! store entry, and a TTL-expiring claim file arbitrates who computes it
//! ([`bitwave_store::ClaimLedger`]).  Workers crash-recover (stale claims
//! are stolen), restart warm (published results are reused), and any
//! worker count produces a byte-identical [`run::FrontReport`].
//!
//! Inside each process, evaluation is **amortized and factored**
//! ([`eval`]): workload sparsity profiles are built once per portfolio
//! entry and shared as `Arc`s, per-candidate network searches are factored
//! into compute groups re-priced per memory point
//! ([`bitwave_dse::factor_network`]), and claimed points fan out across
//! scoped threads ([`run::EvalOptions`]) — byte-identical for any thread
//! count.
//!
//! Surfaces: the `bitwave-sweep` CLI (coordinator and `--worker` modes),
//! `POST /v1/design` on `bitwave-serve` (streams partial fronts), and a
//! Table-I-style instruction-memory [`menu`] export per front member.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod eval;
pub mod ledger;
pub mod menu;
pub mod run;
pub mod space;

pub use config::{MenuKind, SweepConfig, SWEEP_SCHEMA_VERSION};
pub use eval::{
    build_portfolio, evaluate_point_factored, global_eval_engine, portfolio_cache_stats,
    EvalEngine, ModelOutcome, PointResult,
};
pub use ledger::{PointClaim, SweepLedger};
pub use menu::{menu_rows, MenuRow};
pub use run::{
    assemble_report, run_sharded, run_with_progress, run_with_progress_opts, run_worker,
    EvalOptions, FrontPoint, FrontReport, PartialFront, WorkerStats, OBJECTIVES,
};
pub use space::{enumerate, CandidatePoint};
