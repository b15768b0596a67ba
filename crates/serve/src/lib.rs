//! # bitwave-serve
//!
//! A concurrent HTTP/1.1 evaluation service over the BitWave pipeline, with
//! content-addressed report caching — the repository's "reachable" tier: the
//! zero-copy compress → bit-flip → map → simulate chain of
//! [`bitwave::pipeline`], exposed as a JSON API that batches, deduplicates
//! and replays the repeated analytical sweeps accelerator-comparison studies
//! run.
//!
//! Built entirely on [`std::net`] — the build environment is offline, so
//! like the `vendor/` shims the service carries its own minimal HTTP framing
//! ([`http`]) and client ([`client`]) instead of a framework.
//!
//! ## Architecture
//!
//! ```text
//!   TcpListener ──▶ serve-loop thread (epoll/poll readiness, non-blocking)
//!     conn cap → 503   │  per-conn read/parse/write buffers + deadlines
//!                      │  (idle 5 s · partial request 10 s → 408 · write 5 s)
//!                      ├─ cheap endpoints + cache hits answered inline
//!                      ├─ rate limit (token bucket per peer IP) → 429
//!                      ├─ max-inflight cap → 503 + Retry-After
//!                      ▼
//!            Dispatcher (one job per in-flight digest)
//!     identical digest → rider (free)   new digest → its own job
//!                      │ job queue
//!        ┌─────────────┼─────────────┐
//!   worker 0      worker 1 …    worker N-1      (pipeline compute only)
//!        │             │             │
//!        ▼             ▼             ▼
//!   ReportCache (single-flight LRU) ─ miss ─▶ ModelStore (Arc weights)
//!        │                                        │ zero tensor deep copies
//!        │                                        ▼
//!        │                         Pipeline::run (layer-parallel)
//!        └─▶ completion ─▶ loop fans out to every waiter:
//!            {digest, key, report} + X-Bitwave-Cache + X-Bitwave-Batch
//! ```
//!
//! ## Endpoints
//!
//! | endpoint | contents |
//! |----------|----------|
//! | `POST /v1/evaluate` | run (or replay) one model × accelerator evaluation; body: `{"model", "accelerator?", "bitflip?", "seed?", "sample_cap?", "group_size?", "mapping?"}` |
//! | `POST /v1/search` | run (or replay) the per-layer dataflow design-space search (`bitwave-dse`): winning mappings, Pareto fronts, heuristic-vs-searched EDP; same body minus `mapping` |
//! | `POST /v1/design` | launch (or attach to) a `bitwave-sweep` hardware design sweep; streams partial Pareto fronts as chunked NDJSON lines, final [`bitwave_sweep::FrontReport`] last; completed sweeps replay byte-identically from the store |
//! | `GET /v1/reports/{digest}` | replay a cached report by content digest, no recomputation |
//! | `GET /v1/models` | the model registry (`bitwave_dnn::models::by_name` names) |
//! | `GET /v1/accelerators` | the accelerator registry (`AcceleratorSpec::by_name` names) |
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus-style text counters, incl. the tensor deep-copy count |
//!
//! ## Caching semantics
//!
//! A request is normalised (registry names canonicalised, defaults applied)
//! into an [`api::EvaluationKey`], whose stable FNV-1a/128 digest
//! ([`bitwave::digest`]) addresses the serialized response **bytes** in a
//! tiered `bitwave-store` (bounded sharded-LRU memory tier; optional
//! checksummed disk tier under [`ServeConfig::store_root`]).  A hit replays
//! exactly the bytes the cold run produced; concurrent identical requests
//! are coalesced onto one computation (single-flight), so a thundering herd
//! of the same request performs one evaluation and zero extra tensor
//! copies.  The `X-Bitwave-Cache` response header reports `hit` (memory),
//! `disk` (replayed from the disk tier, e.g. after a restart), `miss` or
//! `coalesced`.  The event loop remembers which digest each valid body
//! resolved to (a bounded LRU keyed by op and exact body bytes), so a
//! byte-identical repeat skips parsing, normalising and digesting.
//!
//! ## Quickstart
//!
//! ```
//! use bitwave_serve::client::Client;
//! use bitwave_serve::server::{start, ServeConfig};
//!
//! let handle = start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::new(handle.local_addr());
//! let health = client.get("/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! let body = r#"{"model":"resnet18","sample_cap":2000}"#;
//! let cold = client.post_json("/v1/evaluate", body).unwrap();
//! let warm = client.post_json("/v1/evaluate", body).unwrap();
//! assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
//! assert_eq!(warm.header("x-bitwave-cache"), Some("hit"));
//! assert_eq!(cold.body, warm.body, "cache hits replay byte-identical JSON");
//! handle.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod api;
mod batch;
pub mod cache;
pub mod client;
pub mod design;
pub mod error;
mod event_loop;
pub mod http;
mod memo;
pub mod metrics;
pub mod poller;
pub mod server;
pub mod store;

pub use api::{EvaluateRequest, EvaluateResponse, EvaluationKey, SearchKey, SearchResponse};
pub use cache::{CacheOp, CacheOutcome, ReportCache};
pub use error::ServeError;
pub use server::{start, ServeConfig, ServerHandle};
