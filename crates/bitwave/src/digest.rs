//! Stable content digests over serializable values.
//!
//! The digest primitives — [`Digest`], [`fnv1a128`] — live in
//! [`bitwave_core::digest`] so that substrate crates (notably the
//! `bitwave-dse` search keys) can address content without depending on
//! this facade; they are re-exported here unchanged.  The evaluation service
//! (`bitwave-serve`) addresses cached [`crate::pipeline::ModelReport`]s by a
//! digest of the request that produced them: the model id, the accelerator
//! name and the [`crate::context::ExperimentContext`] knobs captured by
//! [`ContextKnobs`].
//!
//! Digests are formatted as 32 lowercase hex characters, e.g.
//! `"5e1b40b4a3fe5bd0a35b1a2f2f9e5a6c"`.

pub use bitwave_core::digest::{fnv1a128, Digest};

use bitwave_dataflow::mapping::MappingPolicy;
use bitwave_dataflow::DramSpec;
use serde::{Deserialize, Error, Serialize, Value};

/// Version stamp mixed into every `EvaluationKey` digest.  Bump when the
/// meaning of a key field changes so stale cache entries can never alias new
/// requests.  Version 2: [`ContextKnobs`] gained the `mapping` policy knob.
/// (The `dram` knob added later is omitted at its unconstrained default, so
/// it did not need a bump: unthrottled requests keep their version-2 keys.)
pub const DIGEST_SCHEMA_VERSION: u32 = 2;

/// The digestible knobs of an [`crate::context::ExperimentContext`]: the
/// subset of the context that influences a pipeline evaluation and can be set
/// per request.  The memory hierarchy and unit-energy model are fixed
/// paper-default tables and are covered by [`DIGEST_SCHEMA_VERSION`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextKnobs {
    /// RNG seed for the synthetic weights.
    pub seed: u64,
    /// Per-layer weight sampling cap.
    pub sample_cap: usize,
    /// BCS group size (weights per group).
    pub group_size: usize,
    /// How the map stage picks each layer's spatial unrolling.
    pub mapping: MappingPolicy,
    /// DRAM tier override applied to the accelerator.  The accelerator
    /// *name* does not change when a request throttles its bandwidth, so
    /// the knob must be part of the digest for throttled evaluations to get
    /// their own cache entries.
    pub dram: DramSpec,
}

/// Hand-written so the `dram` knob is omitted while unconstrained — the
/// default for every request that predates the DRAM tier — keeping those
/// requests' digests (and therefore their cached report bytes) unchanged.
impl Serialize for ContextKnobs {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("seed".to_string(), self.seed.to_value()),
            ("sample_cap".to_string(), self.sample_cap.to_value()),
            ("group_size".to_string(), self.group_size.to_value()),
            ("mapping".to_string(), self.mapping.to_value()),
        ];
        if self.dram.is_constrained() {
            fields.push(("dram".to_string(), self.dram.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ContextKnobs {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |name: &str| value.get(name).unwrap_or(&Value::Null);
        Ok(Self {
            seed: u64::from_value(field("seed")).map_err(|e| e.at("seed"))?,
            sample_cap: usize::from_value(field("sample_cap")).map_err(|e| e.at("sample_cap"))?,
            group_size: usize::from_value(field("group_size")).map_err(|e| e.at("group_size"))?,
            mapping: MappingPolicy::from_value(field("mapping")).map_err(|e| e.at("mapping"))?,
            dram: match value.get("dram") {
                None => DramSpec::unconstrained(),
                Some(v) => DramSpec::from_value(v).map_err(|e| e.at("dram"))?,
            },
        })
    }
}

impl ContextKnobs {
    /// Extracts the digestible knobs of a context (unconstrained DRAM; the
    /// serve layer overrides `dram` when a request throttles the tier).
    pub fn of(ctx: &crate::context::ExperimentContext) -> Self {
        Self {
            seed: ctx.seed,
            sample_cap: ctx.sample_cap,
            group_size: ctx.group_size.len(),
            mapping: ctx.mapping_policy,
            dram: DramSpec::unconstrained(),
        }
    }

    /// Builds a context (paper-default memory/energy tables) from the knobs.
    pub fn to_context(self) -> crate::context::ExperimentContext {
        crate::context::ExperimentContext::default()
            .with_seed(self.seed)
            .with_sample_cap(self.sample_cap)
            .with_group_size(bitwave_core::group::GroupSize::from_len(self.group_size))
            .with_mapping_policy(self.mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentContext;
    use bitwave_core::group::GroupSize;

    fn knobs() -> ContextKnobs {
        ContextKnobs {
            seed: 42,
            sample_cap: 1000,
            group_size: 16,
            mapping: MappingPolicy::Heuristic,
            dram: DramSpec::unconstrained(),
        }
    }

    #[test]
    fn value_digest_tracks_field_changes() {
        let a = knobs();
        let mut b = a;
        assert_eq!(Digest::of_value(&a).unwrap(), Digest::of_value(&b).unwrap());
        b.seed = 43;
        assert_ne!(Digest::of_value(&a).unwrap(), Digest::of_value(&b).unwrap());
        let mut c = a;
        c.mapping = MappingPolicy::Searched;
        assert_ne!(
            Digest::of_value(&a).unwrap(),
            Digest::of_value(&c).unwrap(),
            "the mapping policy must be digest-relevant"
        );
    }

    #[test]
    fn knobs_roundtrip_through_a_context() {
        let ctx = ExperimentContext::default()
            .with_seed(7)
            .with_sample_cap(2_000)
            .with_group_size(GroupSize::G8)
            .with_mapping_policy(MappingPolicy::Searched);
        let knobs = ContextKnobs::of(&ctx);
        assert_eq!(knobs.seed, 7);
        assert_eq!(knobs.sample_cap, 2_000);
        assert_eq!(knobs.group_size, 8);
        assert_eq!(knobs.mapping, MappingPolicy::Searched);
        let rebuilt = knobs.to_context();
        assert_eq!(rebuilt.seed, ctx.seed);
        assert_eq!(rebuilt.sample_cap, ctx.sample_cap);
        assert_eq!(rebuilt.group_size, ctx.group_size);
        assert_eq!(rebuilt.mapping_policy, ctx.mapping_policy);
    }

    #[test]
    fn knobs_deserialize_from_canonical_json() {
        let json = serde_json::to_string(&knobs()).unwrap();
        assert!(json.contains("\"Heuristic\""));
        assert!(
            !json.contains("\"dram\""),
            "unconstrained knobs must serialize without a dram key: {json}"
        );
        let parsed: ContextKnobs = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, knobs());
    }

    #[test]
    fn throttled_dram_knob_changes_the_digest_and_roundtrips() {
        let base = knobs();
        let mut throttled = base;
        throttled.dram = DramSpec::constrained(32);
        assert_ne!(
            Digest::of_value(&base).unwrap(),
            Digest::of_value(&throttled).unwrap(),
            "a throttled DRAM tier must address its own cache entry"
        );
        let json = serde_json::to_string(&throttled).unwrap();
        assert!(json.contains("\"dram\""));
        let parsed: ContextKnobs = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, throttled);
    }
}
