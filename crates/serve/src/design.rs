//! `POST /v1/design`: the streaming hardware design-sweep endpoint.
//!
//! A design request resolves to a [`SweepConfig`] whose digest identifies
//! the sweep.  The first subscriber spawns one background `serve-design`
//! thread that works the sweep (through the server's store root, so CLI
//! workers on the same root cooperate); every subscribed connection
//! receives partial Pareto-front frames as chunked NDJSON lines while
//! results land, then the final [`bitwave_sweep::FrontReport`] as the last
//! line.  The final report is persisted in the `design` store op, so a
//! repeated request replays it byte-identically without re-running the
//! sweep.
//!
//! The hub decouples the sweep thread from the event loop: the thread
//! pushes `DesignEvent`s and wakes the loop's poller; the loop drains
//! them on its own thread and fans frames out to subscriber write buffers
//! using the ordinary connection write machinery (write deadlines and the
//! stalled-writer counter apply to slow stream readers unchanged).

use crate::api::MAX_SAMPLE_CAP;
use crate::error::ServeError;
use crate::server::ServiceState;
use bitwave::digest::Digest;
use bitwave_store::{StoreConfig, StringCodec, TieredStore};
use bitwave_sweep::{run_with_progress, SweepConfig};
use serde::{Deserialize, Value};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Store op namespace holding final design reports.
pub const DESIGN_OP: &str = "design";

/// The JSON body of `POST /v1/design`; every field is optional.
#[derive(Debug, Deserialize)]
struct DesignRequest {
    /// Preset name (`tiny` / `small` / `full`); default `tiny`.
    space: Option<String>,
    /// Full [`SweepConfig`] override — replaces the preset entirely.
    config: Option<SweepConfig>,
    /// Synthetic-weight RNG seed override.
    seed: Option<u64>,
    /// Per-layer sampling-cap override.
    sample_cap: Option<usize>,
    /// Workload portfolio override (registry model names).
    portfolio: Option<Vec<String>>,
    /// Claim TTL override in milliseconds (operational; not part of the
    /// sweep identity).
    claim_ttl_ms: Option<u64>,
}

/// Parses a design request body into the sweep configuration it names.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for malformed JSON, an unknown preset, a
/// `sample_cap` (from the request or its `config`) outside
/// `1..=`[`MAX_SAMPLE_CAP`], an empty space, or an unknown portfolio model
/// name.
pub fn parse_design(body: &[u8]) -> Result<SweepConfig, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(ServeError::BadRequest(
            "request body must be a JSON object".to_string(),
        ));
    }
    let request: DesignRequest = serde_json::from_value(&value)
        .map_err(|e| ServeError::BadRequest(format!("invalid request: {e}")))?;
    let mut config = match (&request.config, request.space.as_deref()) {
        (Some(config), _) => config.clone(),
        (None, space) => {
            let name = space.unwrap_or("tiny");
            SweepConfig::preset(name).ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "unknown sweep space `{name}` (expected `tiny`, `small` or `full`)"
                ))
            })?
        }
    };
    if let Some(seed) = request.seed {
        config.seed = seed;
    }
    if let Some(sample_cap) = request.sample_cap {
        config.sample_cap = sample_cap;
    }
    if let Some(portfolio) = &request.portfolio {
        config.portfolio = portfolio.clone();
    }
    if let Some(ttl) = request.claim_ttl_ms {
        config.claim_ttl_ms = ttl.max(1);
    }
    if config.sample_cap == 0 || config.sample_cap > MAX_SAMPLE_CAP {
        return Err(ServeError::BadRequest(format!(
            "sample_cap must be in 1..={MAX_SAMPLE_CAP}, got {}",
            config.sample_cap
        )));
    }
    if config.total_points() == 0 {
        return Err(ServeError::BadRequest(
            "the sweep space is empty".to_string(),
        ));
    }
    for name in &config.portfolio {
        bitwave_dnn::models::by_name(name).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    }
    Ok(config)
}

/// One event from a design sweep thread to the event loop.
#[derive(Debug)]
pub(crate) enum DesignEvent {
    /// A partial-front frame (one NDJSON line, newline not included).
    Frame {
        /// Sweep digest hex the frame belongs to.
        sweep: String,
        /// Serialized [`bitwave_sweep::PartialFront`].
        line: String,
    },
    /// The sweep finished; `line` is the final report (or an
    /// `{"error": …}` object when the sweep failed).
    Final {
        /// Sweep digest hex.
        sweep: String,
        /// Serialized [`bitwave_sweep::FrontReport`] or error object.
        line: String,
    },
}

/// Shared design-sweep state: the persisted final reports, the set of
/// sweeps with a running thread, and the frame queue to the event loop.
#[derive(Debug)]
pub(crate) struct DesignHub {
    store: TieredStore<StringCodec>,
    active: Mutex<HashSet<String>>,
    events: Mutex<VecDeque<DesignEvent>>,
    root: Option<PathBuf>,
}

impl DesignHub {
    /// Opens the hub; with a rooted `store_config` final reports persist
    /// and sweeps share the root's `sweep`/`sweep-claims` ledger.
    ///
    /// # Errors
    ///
    /// Propagates store directory creation/scan failures.
    pub(crate) fn new(store_config: &StoreConfig, root: Option<&str>) -> io::Result<Self> {
        Ok(Self {
            store: TieredStore::new(DESIGN_OP, store_config)?,
            active: Mutex::new(HashSet::new()),
            events: Mutex::new(VecDeque::new()),
            root: root.map(PathBuf::from),
        })
    }

    fn lock_active(&self) -> MutexGuard<'_, HashSet<String>> {
        self.active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_events(&self) -> MutexGuard<'_, VecDeque<DesignEvent>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The store key of one sweep's final report.
    fn key(sweep: &str) -> Digest {
        Digest::of_bytes(format!("design:{sweep}").as_bytes())
    }

    /// A persisted final report line, when the sweep already completed —
    /// byte-identical replay, no recomputation.
    pub(crate) fn replay(&self, sweep: &str) -> Option<Arc<String>> {
        self.store.try_get(Self::key(sweep)).map(|(line, _)| line)
    }

    /// Drains the pending event queue (event-loop side).
    pub(crate) fn drain_events(&self) -> Vec<DesignEvent> {
        self.lock_events().drain(..).collect()
    }

    fn push_event(&self, state: &ServiceState, event: DesignEvent) {
        self.lock_events().push_back(event);
        state.waker.wake();
    }

    /// Ensures a sweep thread is running for `config`; no-op when one
    /// already is.  The thread streams frames through the hub and persists
    /// the final report.
    pub(crate) fn ensure_running(state: &Arc<ServiceState>, config: SweepConfig, sweep: String) {
        {
            let mut active = state.design.lock_active();
            if !active.insert(sweep.clone()) {
                return;
            }
        }
        let thread_state = Arc::clone(state);
        let thread_sweep = sweep.clone();
        let spawned = std::thread::Builder::new()
            .name("serve-design".to_string())
            .spawn(move || Self::run_sweep(&thread_state, &config, &thread_sweep));
        if let Err(e) = spawned {
            // Nothing will ever finish this sweep; releasing the active
            // slot and failing the stream keeps subscribers from wedging.
            state.design.lock_active().remove(&sweep);
            state.design.push_event(
                state,
                DesignEvent::Final {
                    sweep,
                    line: error_line(&format!("spawning sweep thread: {e}")),
                },
            );
        }
    }

    fn run_sweep(state: &Arc<ServiceState>, config: &SweepConfig, sweep: &str) {
        let root = state.design.root.clone();
        let progress_state = Arc::clone(state);
        let result = run_with_progress(config, root.as_deref(), |frame| {
            if let Ok(line) = serde_json::to_string(frame) {
                progress_state.design.push_event(
                    &progress_state,
                    DesignEvent::Frame {
                        sweep: sweep.to_string(),
                        line,
                    },
                );
            }
        });
        let line = match result {
            Ok((report, _)) => match serde_json::to_string(&report) {
                Ok(line) => {
                    // Persist before announcing: a request racing the
                    // final frame either replays from the store or
                    // attaches to a warm re-run; it never hangs.
                    let stored = state.design.store.get_or_compute(
                        Self::key(sweep),
                        || Ok::<_, String>(line),
                        |e| e,
                    );
                    match stored {
                        Ok((line, _)) => line.as_ref().clone(),
                        Err(message) => error_line(&message),
                    }
                }
                Err(e) => error_line(&format!("rendering final report: {e}")),
            },
            Err(e) => error_line(&format!("sweep failed: {e}")),
        };
        state.design.lock_active().remove(sweep);
        state.design.push_event(
            state,
            DesignEvent::Final {
                sweep: sweep.to_string(),
                line,
            },
        );
    }
}

/// An `{"error": …}` NDJSON line with proper escaping.
fn error_line(message: &str) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::String(message.to_string()),
    )]))
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_applies_preset_and_overrides() {
        let config = parse_design(br#"{"space":"tiny","seed":7,"sample_cap":500}"#).unwrap();
        assert_eq!(config.seed, 7);
        assert_eq!(config.sample_cap, 500);
        assert_eq!(config.total_points(), SweepConfig::tiny().total_points());
        let default = parse_design(b"{}").unwrap();
        assert_eq!(default.total_points(), SweepConfig::tiny().total_points());
    }

    #[test]
    fn parse_rejects_bad_bodies() {
        assert!(parse_design(b"not json").is_err());
        assert!(parse_design(b"[1,2]").is_err());
        assert!(parse_design(br#"{"space":"galactic"}"#).is_err());
        assert!(parse_design(br#"{"portfolio":["not-a-model"]}"#).is_err());
    }

    #[test]
    fn full_config_bodies_override_presets() {
        let mut config = SweepConfig::tiny();
        config.seed = 99;
        let body = format!(
            r#"{{"config":{},"sample_cap":123}}"#,
            serde_json::to_string(&config).unwrap()
        );
        let parsed = parse_design(body.as_bytes()).unwrap();
        assert_eq!(parsed.seed, 99);
        assert_eq!(parsed.sample_cap, 123, "overrides still apply on top");
    }

    #[test]
    fn error_lines_escape_quotes() {
        let line = error_line("bad \"quote\"");
        assert!(line.contains("\\\"quote\\\""), "{line}");
    }
}
