//! Request/response types and the evaluation entry point.
//!
//! `POST /v1/evaluate` accepts a JSON body selecting a model and accelerator
//! by their registry names plus optional [`bitwave::digest::ContextKnobs`]
//! overrides.  The request is **normalised** into an [`EvaluationKey`] —
//! canonical names, defaults applied — before hashing, so logically
//! identical requests (`"ResNet18"` vs `"resnet18"`, omitted vs explicit
//! defaults) share one digest and therefore one cache entry.

use crate::error::ServeError;
use bitwave::context::ExperimentContext;
use bitwave::dataflow::mapping::MappingPolicy;
use bitwave::dataflow::DramSpec;
use bitwave::digest::{ContextKnobs, Digest, DIGEST_SCHEMA_VERSION};
use bitwave::dse::NetworkSearch;
use bitwave::pipeline::{ModelReport, Pipeline};
use bitwave::BitwaveError;
use bitwave_accel::spec::AcceleratorSpec;
use bitwave_dnn::models::NetworkSpec;
use bitwave_dnn::weights::NetworkWeights;
use serde::{Deserialize, Serialize, Value};

/// Largest accepted per-layer sampling cap: bounds the cost of one request
/// (85 M-weight BERT at full size is a denial-of-service vector, not a
/// workload).
pub const MAX_SAMPLE_CAP: usize = 1_000_000;

/// Largest accepted BCS group size (the hardware supports 8/16/32; analysis
/// sweeps may go finer or coarser within reason).
pub const MAX_GROUP_SIZE: usize = 64;

/// Largest accepted DRAM bandwidth throttle in bits per cycle (anything
/// beyond this is indistinguishable from unconstrained for every modelled
/// workload).
pub const MAX_DRAM_BANDWIDTH_BITS: usize = 1 << 20;

/// Largest accepted DRAM burst size in bytes.
pub const MAX_DRAM_BURST_BYTES: usize = 4096;

/// The JSON body of `POST /v1/evaluate`; every field except `model` is
/// optional and falls back to the documented default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateRequest {
    /// Model registry name (see `GET /v1/models`).
    pub model: String,
    /// Accelerator registry name (default `bitwave`, the fully optimised
    /// configuration).
    pub accelerator: Option<String>,
    /// Apply the paper's default one-shot Bit-Flip strategy (default
    /// `false`, i.e. lossless).
    pub bitflip: Option<bool>,
    /// RNG seed for the synthetic weights (default 42).
    pub seed: Option<u64>,
    /// Per-layer weight sampling cap (default 60 000, max
    /// [`MAX_SAMPLE_CAP`]).
    pub sample_cap: Option<usize>,
    /// BCS group size in weights (default 16, max [`MAX_GROUP_SIZE`]).
    pub group_size: Option<usize>,
    /// Mapping policy: `"heuristic"` (default) or `"searched"` (per-layer
    /// DSE; winners come from the design-space search).
    pub mapping: Option<String>,
    /// DRAM bandwidth throttle in bits per cycle.  Omitted (the default)
    /// means the unconstrained legacy DRAM model; set, it switches every
    /// layer to the roofline `max(cycle_compute, cycle_dram)` and the
    /// response reports per-layer boundedness.
    pub dram_bandwidth_bits: Option<usize>,
    /// DRAM burst size in bytes for burst-quantised traffic (default 64).
    /// Only meaningful together with `dram_bandwidth_bits`.
    pub dram_burst_bytes: Option<usize>,
}

impl EvaluateRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for invalid JSON or a missing
    /// `model` field.
    pub fn from_json(body: &[u8]) -> Result<Self, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
        let value: Value = serde_json::from_str(text)
            .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))?;
        if value.as_object().is_none() {
            return Err(ServeError::BadRequest(
                "request body must be a JSON object".to_string(),
            ));
        }
        let request: EvaluateRequest = serde_json::from_value(&value)
            .map_err(|e| ServeError::BadRequest(format!("invalid request: {e}")))?;
        if request.model.trim().is_empty() {
            return Err(ServeError::BadRequest(
                "field `model` is required".to_string(),
            ));
        }
        Ok(request)
    }

    /// Normalises the request: resolves registry names to their canonical
    /// spellings, applies defaults, and validates the knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for out-of-range knobs and unknown
    /// model/accelerator names (with the known names in the message).
    pub fn normalize(&self) -> Result<NormalizedRequest, ServeError> {
        let spec = bitwave_dnn::models::by_name(&self.model)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let accel_name = self.accelerator.as_deref().unwrap_or("bitwave");
        let mut accelerator = AcceleratorSpec::by_name(accel_name)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let defaults = ExperimentContext::default();
        let mapping = match self.mapping.as_deref() {
            None => defaults.mapping_policy,
            Some(name) => MappingPolicy::parse(name).ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "unknown mapping policy `{name}` (expected `heuristic` or `searched`)"
                ))
            })?,
        };
        let dram = match (self.dram_bandwidth_bits, self.dram_burst_bytes) {
            (None, None) => DramSpec::unconstrained(),
            (None, Some(_)) => {
                return Err(ServeError::BadRequest(
                    "dram_burst_bytes requires dram_bandwidth_bits".to_string(),
                ))
            }
            (Some(bandwidth), burst) => {
                if bandwidth == 0 || bandwidth > MAX_DRAM_BANDWIDTH_BITS {
                    return Err(ServeError::BadRequest(format!(
                        "dram_bandwidth_bits must be in 1..={MAX_DRAM_BANDWIDTH_BITS}, \
                         got {bandwidth}"
                    )));
                }
                let mut spec = DramSpec::constrained(bandwidth);
                if let Some(burst) = burst {
                    if burst == 0 || burst > MAX_DRAM_BURST_BYTES {
                        return Err(ServeError::BadRequest(format!(
                            "dram_burst_bytes must be in 1..={MAX_DRAM_BURST_BYTES}, got {burst}"
                        )));
                    }
                    spec = spec.with_burst(burst);
                }
                spec
            }
        };
        // The throttle travels both in the digest (the accelerator *name*
        // does not change, so the knob must) and in the spec that actually
        // runs the evaluation.
        accelerator.dram = dram;
        let knobs = ContextKnobs {
            seed: self.seed.unwrap_or(defaults.seed),
            sample_cap: self.sample_cap.unwrap_or(defaults.sample_cap),
            group_size: self.group_size.unwrap_or(defaults.group_size.len()),
            mapping,
            dram,
        };
        if knobs.sample_cap == 0 || knobs.sample_cap > MAX_SAMPLE_CAP {
            return Err(ServeError::BadRequest(format!(
                "sample_cap must be in 1..={MAX_SAMPLE_CAP}, got {}",
                knobs.sample_cap
            )));
        }
        if knobs.group_size < 2 || knobs.group_size > MAX_GROUP_SIZE {
            return Err(ServeError::BadRequest(format!(
                "group_size must be in 2..={MAX_GROUP_SIZE}, got {}",
                knobs.group_size
            )));
        }
        Ok(NormalizedRequest {
            key: EvaluationKey {
                schema: DIGEST_SCHEMA_VERSION,
                model: spec.name.clone(),
                accelerator: accelerator.label.clone(),
                bitflip: self.bitflip.unwrap_or(false),
                knobs,
            },
            spec,
            accelerator,
        })
    }

    /// Normalises the request for `POST /v1/search`.  The endpoint *is* the
    /// search, so the `mapping` knob is rejected and the key's policy is
    /// pinned to `searched` — logically identical search requests share one
    /// digest with no way to alias an evaluation digest (the key carries an
    /// `op` discriminator).
    ///
    /// # Errors
    ///
    /// Everything [`EvaluateRequest::normalize`] rejects, plus an explicit
    /// `mapping` field.
    pub fn normalize_search(&self) -> Result<NormalizedSearch, ServeError> {
        if self.mapping.is_some() {
            return Err(ServeError::BadRequest(
                "`mapping` is not a /v1/search knob; the endpoint always searches".to_string(),
            ));
        }
        let normalized = self.normalize()?;
        let mut knobs = normalized.key.knobs;
        knobs.mapping = MappingPolicy::Searched;
        Ok(NormalizedSearch {
            key: SearchKey {
                schema: DIGEST_SCHEMA_VERSION,
                op: "search".to_string(),
                model: normalized.key.model,
                accelerator: normalized.key.accelerator,
                bitflip: normalized.key.bitflip,
                knobs,
            },
            spec: normalized.spec,
            accelerator: normalized.accelerator,
        })
    }
}

/// The canonical, digestible identity of one evaluation: every field that
/// influences the resulting [`ModelReport`], after name resolution and
/// defaulting.  Its [`Digest`] is the cache address of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationKey {
    /// [`DIGEST_SCHEMA_VERSION`] stamp.
    pub schema: u32,
    /// Canonical model name (e.g. `ResNet18`).
    pub model: String,
    /// Canonical accelerator label (e.g. `BitWave+DF+SM+BF`).
    pub accelerator: String,
    /// Whether the default Bit-Flip strategy is applied.
    pub bitflip: bool,
    /// Context knobs (seed, sampling cap, group size).
    pub knobs: ContextKnobs,
}

impl EvaluationKey {
    /// The stable content digest addressing this evaluation's report.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure as [`ServeError::Internal`].
    pub fn digest(&self) -> Result<Digest, ServeError> {
        Digest::of_value(self).map_err(|e| ServeError::Internal(e.to_string()))
    }
}

/// A fully resolved evaluation request, ready to run.
#[derive(Debug, Clone)]
pub struct NormalizedRequest {
    /// The digestible identity (also echoed in the response envelope).
    pub key: EvaluationKey,
    /// The resolved network specification.
    pub spec: NetworkSpec,
    /// The resolved accelerator configuration.
    pub accelerator: AcceleratorSpec,
}

impl NormalizedRequest {
    /// Runs the evaluation on shared `weights` (planned by handle — zero
    /// tensor deep copies) across all cores.
    ///
    /// # Errors
    ///
    /// Propagates pipeline planning/stage errors.
    pub fn evaluate(&self, weights: &NetworkWeights) -> Result<ModelReport, BitwaveError> {
        let mut pipeline =
            Pipeline::new(self.key.knobs.to_context()).with_accelerator(self.accelerator.clone());
        if self.key.bitflip {
            pipeline = pipeline.with_default_bitflip(&self.spec);
        }
        pipeline.run(&self.spec, weights)
    }

    /// Serializes the response envelope (`digest` + `report`) exactly as the
    /// cache stores and replays it.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure as [`ServeError::Internal`].
    pub fn envelope(&self, digest: &Digest, report: &ModelReport) -> Result<String, ServeError> {
        let report_digest = report
            .content_digest()
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        let envelope = EvaluateResponse {
            digest: digest.to_hex(),
            report_digest: report_digest.to_hex(),
            key: self.key.clone(),
            report: report.clone(),
        };
        serde_json::to_string(&envelope).map_err(|e| ServeError::Internal(e.to_string()))
    }
}

/// The canonical, digestible identity of one dataflow search: the
/// [`EvaluationKey`] fields plus an `op` discriminator so a search digest can
/// never alias an evaluation digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchKey {
    /// [`DIGEST_SCHEMA_VERSION`] stamp.
    pub schema: u32,
    /// Operation discriminator; always `"search"`.
    pub op: String,
    /// Canonical model name.
    pub model: String,
    /// Canonical accelerator label.
    pub accelerator: String,
    /// Whether the default Bit-Flip strategy is applied before profiling.
    pub bitflip: bool,
    /// Context knobs; `mapping` is pinned to `searched`.
    pub knobs: ContextKnobs,
}

impl SearchKey {
    /// The stable content digest addressing this search's response.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure as [`ServeError::Internal`].
    pub fn digest(&self) -> Result<Digest, ServeError> {
        Digest::of_value(self).map_err(|e| ServeError::Internal(e.to_string()))
    }
}

/// A fully resolved search request, ready to run.
#[derive(Debug, Clone)]
pub struct NormalizedSearch {
    /// The digestible identity (also echoed in the response envelope).
    pub key: SearchKey,
    /// The resolved network specification.
    pub spec: NetworkSpec,
    /// The resolved accelerator configuration.
    pub accelerator: AcceleratorSpec,
}

impl NormalizedSearch {
    /// Runs the per-layer design-space search on shared `weights`.
    ///
    /// # Errors
    ///
    /// Propagates pipeline planning/stage and search errors.
    pub fn run(&self, weights: &NetworkWeights) -> Result<NetworkSearch, BitwaveError> {
        let mut pipeline =
            Pipeline::new(self.key.knobs.to_context()).with_accelerator(self.accelerator.clone());
        if self.key.bitflip {
            pipeline = pipeline.with_default_bitflip(&self.spec);
        }
        pipeline.search_model_weights(&self.spec, weights)
    }

    /// Serializes the response envelope exactly as the cache stores and
    /// replays it.
    ///
    /// # Errors
    ///
    /// Propagates serialization failure as [`ServeError::Internal`].
    pub fn envelope(&self, digest: &Digest, search: &NetworkSearch) -> Result<String, ServeError> {
        let envelope = SearchResponse {
            digest: digest.to_hex(),
            key: self.key.clone(),
            search: search.clone(),
        };
        serde_json::to_string(&envelope).map_err(|e| ServeError::Internal(e.to_string()))
    }
}

/// The body of a `POST /v1/search` response: per-layer winning mappings,
/// Pareto fronts and the heuristic-vs-searched comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SearchResponse {
    /// Request digest addressing this search in the cache.
    pub digest: String,
    /// The normalised search key the digest covers.
    pub key: SearchKey,
    /// The full network search outcome.
    pub search: NetworkSearch,
}

/// The body of a `POST /v1/evaluate` / `GET /v1/reports/{digest}` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateResponse {
    /// Request digest addressing this report in the cache
    /// (`GET /v1/reports/{digest}`).
    pub digest: String,
    /// Digest of the report's own canonical JSON
    /// ([`ModelReport::content_digest`]) — lets clients verify a replay is
    /// byte-faithful without refetching.
    pub report_digest: String,
    /// The normalised evaluation key the digest covers.
    pub key: EvaluationKey,
    /// The full model report.
    pub report: ModelReport,
}

/// One row of `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelListing {
    /// Registry name to use in `POST /v1/evaluate`.
    pub name: String,
    /// Display name as used in the paper's figures.
    pub display_name: String,
    /// Number of weight layers.
    pub layers: usize,
    /// GFLOPs per inference.
    pub gflops: f64,
    /// Parameter count in millions.
    pub params_millions: f64,
}

/// The rows of `GET /v1/models`, straight from the registry.
pub fn list_models() -> Vec<ModelListing> {
    bitwave_dnn::models::MODEL_NAMES
        .iter()
        .filter_map(|name| {
            bitwave_dnn::models::by_name(name)
                .ok()
                .map(|spec| (spec, name))
        })
        .map(|(spec, name)| {
            let summary = spec.summary();
            ModelListing {
                name: name.to_string(),
                display_name: summary.name,
                layers: summary.layers,
                gflops: summary.gflops,
                params_millions: summary.params_millions,
            }
        })
        .collect()
}

/// One row of `GET /v1/accelerators`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorListing {
    /// Registry name to use in `POST /v1/evaluate`.
    pub name: String,
    /// Display label (e.g. `BitWave+DF+SM+BF`).
    pub label: String,
}

/// The rows of `GET /v1/accelerators`, straight from the registry.
pub fn list_accelerators() -> Vec<AcceleratorListing> {
    AcceleratorSpec::REGISTRY_NAMES
        .iter()
        .filter_map(|name| AcceleratorSpec::by_name(name).ok().map(|spec| (name, spec)))
        .map(|(name, spec)| AcceleratorListing {
            name: (*name).to_string(),
            label: spec.label,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(json: &str) -> EvaluateRequest {
        EvaluateRequest::from_json(json.as_bytes()).unwrap()
    }

    #[test]
    fn defaults_are_applied_and_digested_canonically() {
        let explicit = request(
            r#"{"model":"ResNet18","accelerator":"BitWave","bitflip":false,
                "seed":42,"sample_cap":60000,"group_size":16}"#,
        )
        .normalize()
        .unwrap();
        let implicit = request(r#"{"model":"resnet18"}"#).normalize().unwrap();
        assert_eq!(explicit.key, implicit.key);
        assert_eq!(
            explicit.key.digest().unwrap(),
            implicit.key.digest().unwrap()
        );
        assert_eq!(implicit.key.model, "ResNet18");
        assert_eq!(implicit.key.accelerator, "BitWave+DF+SM+BF");
        assert!(!implicit.key.bitflip);
    }

    #[test]
    fn distinct_knobs_produce_distinct_digests() {
        let base = request(r#"{"model":"resnet18","sample_cap":4000}"#)
            .normalize()
            .unwrap();
        for other in [
            r#"{"model":"resnet18","sample_cap":4001}"#,
            r#"{"model":"resnet18","sample_cap":4000,"seed":7}"#,
            r#"{"model":"resnet18","sample_cap":4000,"bitflip":true}"#,
            r#"{"model":"resnet18","sample_cap":4000,"accelerator":"scnn"}"#,
            r#"{"model":"mobilenet-v2","sample_cap":4000}"#,
        ] {
            let normalized = request(other).normalize().unwrap();
            assert_ne!(
                base.key.digest().unwrap(),
                normalized.key.digest().unwrap(),
                "{other} must not alias the base request"
            );
        }
    }

    #[test]
    fn malformed_bodies_are_rejected_with_400() {
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (b"[1,2]", "JSON object"),
            (b"{}", "model"),
            (b"{\"model\":\"\"}", "model"),
            (b"{\"model\":\"alexnet\"}", "unknown model"),
            (
                b"{\"model\":\"resnet18\",\"accelerator\":\"tpu\"}",
                "unknown accelerator",
            ),
            (b"{\"model\":\"resnet18\",\"sample_cap\":0}", "sample_cap"),
            (b"{\"model\":\"resnet18\",\"group_size\":1}", "group_size"),
            (b"{\"model\":\"resnet18\",\"group_size\":65}", "group_size"),
        ] {
            let err = EvaluateRequest::from_json(body)
                .and_then(|r| r.normalize().map(|_| ()))
                .unwrap_err();
            let ServeError::BadRequest(msg) = &err else {
                panic!("expected BadRequest for {body:?}, got {err:?}");
            };
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
    }

    #[test]
    fn mapping_knob_is_parsed_and_digest_relevant() {
        let heuristic = request(r#"{"model":"resnet18","sample_cap":4000}"#)
            .normalize()
            .unwrap();
        assert_eq!(heuristic.key.knobs.mapping, MappingPolicy::Heuristic);
        let explicit = request(r#"{"model":"resnet18","sample_cap":4000,"mapping":"Heuristic"}"#)
            .normalize()
            .unwrap();
        assert_eq!(
            heuristic.key.digest().unwrap(),
            explicit.key.digest().unwrap(),
            "explicit default must alias the implicit default"
        );
        let searched = request(r#"{"model":"resnet18","sample_cap":4000,"mapping":"searched"}"#)
            .normalize()
            .unwrap();
        assert_eq!(searched.key.knobs.mapping, MappingPolicy::Searched);
        assert_ne!(
            heuristic.key.digest().unwrap(),
            searched.key.digest().unwrap()
        );
        let err = request(r#"{"model":"resnet18","mapping":"random"}"#)
            .normalize()
            .unwrap_err();
        let ServeError::BadRequest(msg) = err else {
            panic!("expected BadRequest");
        };
        assert!(msg.contains("mapping policy"));
    }

    #[test]
    fn dram_throttle_knob_is_validated_and_digest_relevant() {
        let base = request(r#"{"model":"resnet18","sample_cap":4000}"#)
            .normalize()
            .unwrap();
        assert!(!base.accelerator.dram.is_constrained());
        let throttled =
            request(r#"{"model":"resnet18","sample_cap":4000,"dram_bandwidth_bits":32}"#)
                .normalize()
                .unwrap();
        assert!(throttled.accelerator.dram.is_constrained());
        assert_ne!(
            base.key.digest().unwrap(),
            throttled.key.digest().unwrap(),
            "a throttled request must address its own cache entry"
        );
        // The default burst spelled explicitly aliases the implicit default.
        let explicit_burst = request(
            r#"{"model":"resnet18","sample_cap":4000,
                "dram_bandwidth_bits":32,"dram_burst_bytes":64}"#,
        )
        .normalize()
        .unwrap();
        assert_eq!(
            throttled.key.digest().unwrap(),
            explicit_burst.key.digest().unwrap()
        );
        // A different burst does not.
        let wide_burst = request(
            r#"{"model":"resnet18","sample_cap":4000,
                "dram_bandwidth_bits":32,"dram_burst_bytes":128}"#,
        )
        .normalize()
        .unwrap();
        assert_ne!(
            throttled.key.digest().unwrap(),
            wide_burst.key.digest().unwrap()
        );
        for (body, needle) in [
            (
                r#"{"model":"resnet18","dram_burst_bytes":64}"#,
                "requires dram_bandwidth_bits",
            ),
            (
                r#"{"model":"resnet18","dram_bandwidth_bits":0}"#,
                "dram_bandwidth_bits",
            ),
            (
                r#"{"model":"resnet18","dram_bandwidth_bits":2097152}"#,
                "dram_bandwidth_bits",
            ),
            (
                r#"{"model":"resnet18","dram_bandwidth_bits":32,"dram_burst_bytes":0}"#,
                "dram_burst_bytes",
            ),
            (
                r#"{"model":"resnet18","dram_bandwidth_bits":32,"dram_burst_bytes":8192}"#,
                "dram_burst_bytes",
            ),
        ] {
            let err = request(body).normalize().unwrap_err();
            let ServeError::BadRequest(msg) = &err else {
                panic!("expected BadRequest for {body}, got {err:?}");
            };
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
    }

    #[test]
    fn throttled_evaluation_reports_memory_bound_layers() {
        let normalized =
            request(r#"{"model":"resnet18","sample_cap":1500,"dram_bandwidth_bits":1}"#)
                .normalize()
                .unwrap();
        let weights = normalized.key.knobs.to_context().weights(&normalized.spec);
        let report = normalized.evaluate(&weights).unwrap();
        assert!(
            report.memory_bound_layers > 0,
            "a 1 bit/cycle DRAM tier must leave layers memory-bound"
        );
        let layer = &report.layers[0].simulation;
        let boundedness = layer.boundedness.expect("throttled layers carry a verdict");
        assert!(boundedness.memory_bound);
        let envelope = normalized
            .envelope(&normalized.key.digest().unwrap(), &report)
            .unwrap();
        assert!(envelope.contains("\"memory_bound_layers\""));
        assert!(envelope.contains("\"boundedness\""));
        assert!(envelope.contains("\"dram_stall_fraction\""));
        let parsed: EvaluateResponse = serde_json::from_str(&envelope).unwrap();
        assert_eq!(parsed.report, report, "boundedness must roundtrip");
    }

    #[test]
    fn search_requests_normalize_with_their_own_namespace() {
        let body = r#"{"model":"ResNet18","sample_cap":4000}"#;
        let search = request(body).normalize_search().unwrap();
        assert_eq!(search.key.op, "search");
        assert_eq!(search.key.model, "ResNet18");
        assert_eq!(search.key.knobs.mapping, MappingPolicy::Searched);
        let evaluate = request(body).normalize().unwrap();
        assert_ne!(
            search.key.digest().unwrap(),
            evaluate.key.digest().unwrap(),
            "search digests must never alias evaluation digests"
        );
        // Logically identical search requests share one digest.
        let aliased = request(r#"{"model":"resnet18","sample_cap":4000,"bitflip":false}"#)
            .normalize_search()
            .unwrap();
        assert_eq!(search.key.digest().unwrap(), aliased.key.digest().unwrap());
        // The mapping knob is meaningless on the search endpoint.
        let err = request(r#"{"model":"resnet18","mapping":"searched"}"#)
            .normalize_search()
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn search_runs_and_envelope_replays_deterministically() {
        let normalized = request(r#"{"model":"resnet18","sample_cap":1500}"#)
            .normalize_search()
            .unwrap();
        let weights = normalized.key.knobs.to_context().weights(&normalized.spec);
        let search = normalized.run(&weights).unwrap();
        assert_eq!(search.layers.len(), normalized.spec.layers.len());
        assert!(search.edp_gain() >= 1.0);
        let digest = normalized.key.digest().unwrap();
        let a = normalized.envelope(&digest, &search).unwrap();
        let b = normalized.envelope(&digest, &search).unwrap();
        assert_eq!(a, b, "envelope serialization must be deterministic");
        let value: Value = serde_json::from_str(&a).unwrap();
        assert_eq!(
            value.get("digest").and_then(Value::as_str),
            Some(digest.to_hex().as_str())
        );
        assert!(value.get("search").is_some());
    }

    #[test]
    fn listings_cover_the_registries() {
        let models = list_models();
        assert_eq!(models.len(), bitwave_dnn::models::MODEL_NAMES.len());
        assert!(models
            .iter()
            .any(|m| m.name == "resnet18" && m.layers == 21));
        let accels = list_accelerators();
        assert_eq!(accels.len(), AcceleratorSpec::REGISTRY_NAMES.len());
        assert!(accels
            .iter()
            .any(|a| a.name == "bitwave" && a.label == "BitWave+DF+SM+BF"));
    }

    #[test]
    fn evaluation_runs_and_envelope_embeds_the_digest() {
        let normalized = request(r#"{"model":"resnet18","sample_cap":2000}"#)
            .normalize()
            .unwrap();
        let weights = normalized.key.knobs.to_context().weights(&normalized.spec);
        let report = normalized.evaluate(&weights).unwrap();
        assert_eq!(report.layers.len(), normalized.spec.layers.len());
        let digest = normalized.key.digest().unwrap();
        let envelope = normalized.envelope(&digest, &report).unwrap();
        let parsed: EvaluateResponse = serde_json::from_str(&envelope).unwrap();
        assert_eq!(parsed.digest, digest.to_hex());
        assert_eq!(
            parsed.report_digest,
            report.content_digest().unwrap().to_hex(),
            "the envelope must self-describe the report bytes"
        );
        assert_ne!(parsed.digest, parsed.report_digest);
        assert_eq!(parsed.key, normalized.key);
        assert_eq!(parsed.report, report);
    }
}
