//! The service runtime: poll-driven event loop, compute worker pool and
//! request routing.
//!
//! One `serve-loop` thread owns the listener and every client socket
//! (non-blocking, registered with [`crate::poller::Poller`] — epoll on
//! Linux, `poll(2)` elsewhere) and runs the readiness state machine in
//! the private `event_loop` module: incremental parsing, inline answers for cheap
//! endpoints and cache hits, and centrally-enforced idle/read/write
//! deadlines, so thousands of mostly-idle keep-alive connections cost
//! buffers instead of threads.  Admission control lives on the same thread:
//! a connection cap (overflow → best-effort non-blocking `503`), an optional
//! per-client token-bucket rate limit (`429` + `Retry-After`) and a
//! `max_inflight` cap on dispatched computations (`503` + `Retry-After`).
//!
//! A cache-missing evaluate/search request either rides the job already in
//! flight for its digest or dispatches a job of its own (the private `batch`
//! module) onto a queue drained by `workers` compute threads; the
//! `X-Bitwave-Batch` response header carries each dispatch's fan-out size.
//! Jobs over one `(model, seed, sample_cap)` weight set share the
//! [`ModelStore`]'s single generation of its `Arc`-backed tensors.
//! Results land in the single-flight [`ReportCache`] keyed by request
//! digest — a tiered `bitwave-store`, so configuring
//! [`ServeConfig::store_root`] makes cached responses survive restarts and
//! replay byte-identically from disk.

use crate::api::{list_accelerators, list_models, NormalizedRequest, NormalizedSearch};
use crate::batch::{Completions, Job, JobDone, JobKind, JobQueue};
use crate::cache::ReportCache;
use crate::error::ServeError;
use crate::event_loop::EventLoop;
use crate::http::{Request, Response};
use crate::metrics::ServiceMetrics;
use crate::poller::Waker;
use crate::store::ModelStore;
use bitwave::digest::Digest;
use bitwave_store::StoreConfig;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute worker threads (pipeline evaluations and searches).
    pub workers: usize,
    /// Maximum open client connections (overflow → best-effort `503`).
    pub queue_capacity: usize,
    /// Report-cache capacity in entries (per op: evaluate and search each
    /// get this many).
    pub cache_capacity: usize,
    /// Weight-store capacity in generated weight sets.
    pub store_capacity: usize,
    /// Root directory of the persistent store; `None` (default) keeps this
    /// service's report cache memory-only.  With a root, evaluate/search
    /// responses persist under `<root>/{evaluate,search}/<digest>` and
    /// replay byte-identically across restarts.
    pub store_root: Option<String>,
    /// Maximum distinct cache-missing computations in flight at once;
    /// further compute requests shed with `503` + `Retry-After`.  Riders on
    /// an in-flight identical request are always admitted.
    pub max_inflight: usize,
    /// Per-client (peer IP) request budget in compute requests per second,
    /// enforced as a token bucket with a one-second burst; `None` (default)
    /// disables rate limiting.  Over-budget requests answer `429` with
    /// `Retry-After`.
    pub rate_limit: Option<u32>,
    /// Idle keep-alive connections close after this long (counted in
    /// `bitwave_serve_idle_closed_total`).
    pub keep_alive_idle: std::time::Duration,
    /// A started-but-incomplete request must finish within this, else the
    /// connection is answered `408` and closed.
    pub read_timeout: std::time::Duration,
    /// A peer that accepts no response byte for this long is dropped.
    pub write_timeout: std::time::Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map_or(2, |n| n.get())
                .clamp(2, 8),
            queue_capacity: 128,
            cache_capacity: 256,
            store_capacity: 8,
            store_root: None,
            max_inflight: 64,
            rate_limit: None,
            keep_alive_idle: crate::event_loop::KEEP_ALIVE_IDLE,
            read_timeout: crate::event_loop::READ_TIMEOUT,
            write_timeout: crate::event_loop::WRITE_TIMEOUT,
        }
    }
}

/// Shared state of one running service.
#[derive(Debug)]
pub struct ServiceState {
    /// The resolved configuration.
    pub config: ServeConfig,
    /// Content-addressed report cache.
    pub cache: ReportCache,
    /// Shared weight store.
    pub store: ModelStore,
    /// Service counters.
    pub metrics: ServiceMetrics,
    /// Request body → report digest, for the event loop's compute path.
    pub(crate) memo: crate::memo::BodyMemo,
    pub(crate) shutdown: AtomicBool,
    pub(crate) jobs: JobQueue,
    pub(crate) completions: Completions,
    pub(crate) waker: Waker,
    pub(crate) design: crate::design::DesignHub,
}

/// Handle to a running service; dropping it does **not** stop the service —
/// call [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServiceState>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service state (cache/store/metrics introspection).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Stops the event loop and workers and joins them.  The waker unblocks
    /// the loop immediately — no network round-trip, no timeout wait — so
    /// shutdown completes in milliseconds even with idle connections open.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.waker.wake();
        self.state.jobs.notify_all();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            self.state.jobs.notify_all();
            let _ = worker.join();
        }
    }
}

/// Binds, spawns the event loop + compute workers, and returns the handle.
///
/// # Errors
///
/// Returns [`ServeError::Internal`] when the listener cannot bind or the
/// poller/waker cannot be created.
pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Internal(format!("bind {}: {e}", config.addr)))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| ServeError::Internal(format!("local_addr: {e}")))?;
    let workers = config.workers.max(1);
    let mut store_config = StoreConfig::default().with_mem_entries(config.cache_capacity);
    if let Some(root) = &config.store_root {
        store_config = store_config.with_root(root);
    }
    let cache = ReportCache::with_config(&store_config).map_err(|e| {
        ServeError::Internal(format!(
            "store root {}: {e}",
            config.store_root.as_deref().unwrap_or("<memory>")
        ))
    })?;
    let (waker, wake_reader) =
        Waker::pair().map_err(|e| ServeError::Internal(format!("waker: {e}")))?;
    let design = crate::design::DesignHub::new(&store_config, config.store_root.as_deref())
        .map_err(|e| {
            ServeError::Internal(format!(
                "design store {}: {e}",
                config.store_root.as_deref().unwrap_or("<memory>")
            ))
        })?;
    let state = Arc::new(ServiceState {
        cache,
        design,
        store: ModelStore::new(config.store_capacity),
        metrics: ServiceMetrics::default(),
        memo: crate::memo::BodyMemo::new(),
        shutdown: AtomicBool::new(false),
        jobs: JobQueue::default(),
        completions: Completions::default(),
        waker,
        config,
    });

    let event_loop = EventLoop::new(Arc::clone(&state), listener, wake_reader)
        .map_err(|e| ServeError::Internal(format!("event loop: {e}")))?;
    let loop_handle = std::thread::Builder::new()
        .name("serve-loop".to_string())
        .spawn(move || event_loop.run())
        .map_err(|e| ServeError::Internal(format!("spawn event loop: {e}")))?;

    let worker_handles = (0..workers)
        .map(|i| {
            let worker_state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_main(&worker_state))
                .map_err(|e| ServeError::Internal(format!("spawn worker: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(ServerHandle {
        local_addr,
        state,
        event_loop: Some(loop_handle),
        workers: worker_handles,
    })
}

/// A compute worker: pops jobs, runs each through the single-flight cache,
/// publishes the completion and wakes the loop.
fn worker_main(state: &ServiceState) {
    while let Some(Job { digest, kind }) = state.jobs.pop(&state.shutdown) {
        let result = state
            .cache
            .get_or_compute(kind.op(), digest, || match &kind {
                JobKind::Evaluate(normalized) => compute_evaluate(state, normalized, &digest),
                JobKind::Search(normalized) => compute_search(state, normalized, &digest),
            });
        state.completions.push(JobDone { digest, result });
        state.waker.wake();
    }
}

/// The cold evaluate computation.
fn compute_evaluate(
    state: &ServiceState,
    normalized: &NormalizedRequest,
    digest: &Digest,
) -> Result<String, String> {
    ServiceMetrics::bump(&state.metrics.evaluations);
    let weights = state.store.weights(
        &normalized.spec,
        normalized.key.knobs.seed,
        normalized.key.knobs.sample_cap,
    );
    let report = normalized
        .evaluate(&weights)
        .map_err(|e| ServeError::from(e).to_string())?;
    if report.memory_bound_layers > 0 {
        state
            .metrics
            .memory_bound_layers
            .fetch_add(report.memory_bound_layers as u64, Ordering::Relaxed);
    }
    normalized
        .envelope(digest, &report)
        .map_err(|e| e.to_string())
}

/// The cold search computation.
fn compute_search(
    state: &ServiceState,
    normalized: &NormalizedSearch,
    digest: &Digest,
) -> Result<String, String> {
    ServiceMetrics::bump(&state.metrics.searches);
    let weights = state.store.weights(
        &normalized.spec,
        normalized.key.knobs.seed,
        normalized.key.knobs.sample_cap,
    );
    let search = normalized
        .run(&weights)
        .map_err(|e| ServeError::from(e).to_string())?;
    normalized
        .envelope(digest, &search)
        .map_err(|e| e.to_string())
}

/// Answers the endpoints the event loop does not intercept: the cheap
/// `GET`s inline, a wrong method with `405` and an unknown path with `404`.
/// The loop itself handles `POST /v1/evaluate`, `POST /v1/search`,
/// `POST /v1/design` and `GET /v1/reports/{digest}`.
pub(crate) fn route(request: &Request, state: &ServiceState) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#.to_string()),
        ("GET", "/metrics") => {
            Response::text(200, state.metrics.render(&state.cache, &state.store))
        }
        ("GET", "/v1/models") => json_or_500(&list_models()),
        ("GET", "/v1/accelerators") => json_or_500(&list_accelerators()),
        (
            _,
            "/healthz" | "/metrics" | "/v1/models" | "/v1/accelerators" | "/v1/evaluate"
            | "/v1/search" | "/v1/design",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn json_or_500<T: serde::Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("serialization failed: {e}")),
    }
}

pub(crate) fn error_response(error: &ServeError) -> Response {
    Response::error(error.status(), &error.to_string())
}
