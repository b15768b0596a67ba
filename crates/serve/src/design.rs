//! `POST /v1/design`: the streaming hardware design-sweep endpoint.
//!
//! A design request resolves ([`parse_design`]) to a [`SweepConfig`] whose
//! digest identifies the sweep.  From there it takes the same path as an
//! evaluation: the rate limiter, a probe of the report cache's
//! [`DESIGN_OP`] store (a completed sweep replays its final report as one
//! NDJSON line, byte-identically, without re-running), then the
//! dispatcher, which rides the sweep already in flight for the digest,
//! queues a new one, or sheds it at `max_inflight`.  A `workers` thread
//! runs the sweep through the server's store root (so CLI workers on the
//! same root cooperate) and posts every partial Pareto front to the event
//! loop, which writes it as a chunked NDJSON line to each connection then
//! waiting on the sweep.  The final [`bitwave_sweep::FrontReport`] is
//! persisted in the `design` store op under
//! `Digest::of_bytes("design:{sweep digest hex}")` and ends every waiter's
//! stream.

use crate::api::MAX_SAMPLE_CAP;
use crate::error::ServeError;
use bitwave_sweep::SweepConfig;
use serde::{Deserialize, Value};

/// Store op namespace holding final design reports.
pub const DESIGN_OP: &str = "design";

/// The largest sweep a request may name: the points of the `full` preset
/// ([`SweepConfig::full`]).
pub const MAX_DESIGN_POINTS: usize = 10_800;

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
/// `1..=`[`MAX_SAMPLE_CAP`], an empty space, a space of more than
/// [`MAX_DESIGN_POINTS`] points, or an unknown portfolio model name.
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
    let points = config.total_points();
    if points == 0 {
        return Err(ServeError::BadRequest(
            "the sweep space is empty".to_string(),
        ));
    }
    if points > MAX_DESIGN_POINTS {
        return Err(ServeError::BadRequest(format!(
            "the sweep space has {points} points, more than the {MAX_DESIGN_POINTS} allowed"
        )));
    }
    for name in &config.portfolio {
        bitwave_dnn::models::by_name(name).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    }
    Ok(config)
}

/// An `{"error": …}` NDJSON line with proper escaping.
pub(crate) fn error_line(message: &str) -> String {
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

    /// A `config` body over the tiny preset with its axes replaced.
    fn config_body(edit: impl FnOnce(&mut SweepConfig)) -> String {
        let mut config = SweepConfig::tiny();
        edit(&mut config);
        format!(
            r#"{{"config":{}}}"#,
            serde_json::to_string(&config).unwrap()
        )
    }

    #[test]
    fn the_point_cap_is_the_full_preset() {
        assert_eq!(MAX_DESIGN_POINTS, SweepConfig::full().total_points());
        let full = parse_design(br#"{"space":"full"}"#).unwrap();
        assert_eq!(full.total_points(), MAX_DESIGN_POINTS);
    }

    #[test]
    fn parse_rejects_spaces_over_the_point_cap() {
        // 7 × 1 543 = 10 801 points: one over the cap.
        let over = config_body(|c| {
            c.lanes = vec![1024; 7];
            c.sync_lanes = vec![8; 1543];
            c.weight_sram_kb.truncate(1);
            c.activation_sram_kb.truncate(1);
            c.dram_bandwidth_bits.truncate(1);
            c.sram_bandwidth_bits.truncate(1);
            c.menus.truncate(1);
        });
        let err = parse_design(over.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("10801 points"), "{err}");
        // Six axes of 1 700 entries multiply past `usize::MAX` in a body of
        // a few tens of KB.
        let overflowing = config_body(|c| {
            c.lanes = vec![1; 1700];
            c.sync_lanes = vec![1; 1700];
            c.weight_sram_kb = vec![1; 1700];
            c.activation_sram_kb = vec![1; 1700];
            c.dram_bandwidth_bits = vec![1; 1700];
            c.sram_bandwidth_bits = vec![1; 1700];
        });
        let err = parse_design(overflowing.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("{} points", usize::MAX)), "{err}");
    }
}
