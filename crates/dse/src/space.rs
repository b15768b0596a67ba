//! Candidate enumeration: the mapping space searched per layer.
//!
//! A candidate is a **spatial unrolling** (a factorization of the layer's
//! loop dimensions over the PE array, within the accelerator's lane budget)
//! combined with a **temporal mapping** (a tiling loop order and a tile-size
//! factor).  The enumeration covers:
//!
//! * every `Cu × OXu × Ku` power-of-two factorization whose parallelism
//!   lands within `[budget / min_fill, budget]` of the accelerator's peak
//!   lane count — the shape class of Table I's SU1–SU6 at a much finer
//!   granularity than the hardware's fixed menu;
//! * for depthwise layers, `Gu × OXu` channel-parallel factorizations (the
//!   shape class of the dedicated SU7);
//! * the accelerator's own SU set (so the search can never do worse than
//!   the Fig. 9 heuristic that picks from it);
//! * both tiling orders and every configured tile-size factor for each
//!   spatial shape.  Dominated tilings are evaluated and rejected by the
//!   Pareto prune rather than skipped a priori.
//!
//! The walk depends only on the space, the SU menu, the lane budget and
//! depthwise-ness, so [`SearchSpace::enumerate_shared`] memoises it in a
//! process-wide, single-flight `bitwave_store::MemoryTier` LRU.  The digest
//! of that key also keys the factored search's cached shape stage (see
//! [`crate::factored`]), which adds the layer's loop dimensions: of the
//! 40 824 SU parts a `small` sweep enumerates, 8 489 survive it.
//! The key is hashed from its fixed-width fields, once per
//! [`crate::factor_network`] call, which derives each per-layer key from it.

use bitwave_accel::spec::AcceleratorSpec;
use bitwave_core::digest::Digest;
use bitwave_dataflow::activity::{TemporalMapping, TilingOrder};
use bitwave_dataflow::su::{SpatialUnrolling, SuSet};
use bitwave_dnn::layer::LayerSpec;
use bitwave_store::{FillOrigin, MemoryTier, MemoryTierConfig, StoreStats};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, LazyLock};

/// Placeholder `SpatialUnrolling::name` of generated candidates; the
/// human-readable shape lives in [`Candidate::label`].
pub const GENERATED_SU_NAME: &str = "DSE";

/// Configuration of the enumerated space.  Part of the search key: two
/// searches agree only if they explored the same space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Lowest admitted parallelism as a fraction of the accelerator's peak
    /// lane count (shapes below it waste the array and only widen the
    /// space).
    pub min_fill: f64,
    /// Tile-size factors enumerated per spatial shape (1 = the natural,
    /// capacity-forced tiling).
    pub tile_factors: Vec<usize>,
    /// Also enumerate the accelerator's own SU set (guarantees the searched
    /// winner is never worse than the heuristic pick).
    pub include_su_set: bool,
    /// Cap on the number of Pareto-front entries retained per layer (the
    /// full front size is still reported).
    pub max_front: usize,
    /// Overrides the lane budget (defaults to the SU set's peak
    /// parallelism).
    pub max_parallelism: Option<usize>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            min_fill: 0.125,
            tile_factors: vec![1, 2, 4],
            include_su_set: true,
            max_front: 16,
            max_parallelism: None,
        }
    }
}

/// One enumerated mapping candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The spatial unrolling.
    pub su: SpatialUnrolling,
    /// Human-readable shape descriptor (`"SU1"` for set members,
    /// `"DSE[C8 X16 K32]"` for generated factorizations).
    pub label: String,
    /// The explicit temporal mapping.
    pub temporal: TemporalMapping,
}

/// The digest of everything [`SearchSpace::enumerate`] depends on besides
/// the layer — the space, the SU menu and the lane budget — and what every
/// process-wide cache of this space's enumerations and their
/// per-layer-shape prunes is keyed by.  The layer enters only through its
/// depthwise-ness (the walk is over the *lane budget*, not the layer's
/// extents), so every non-depthwise layer of every model shares one cached
/// enumeration per key.
#[derive(Clone, Copy)]
pub(crate) struct SpaceDigest(Digest);

impl SpaceDigest {
    /// The cache key of `fixed` (little-endian fixed-width fields) under
    /// this space and `depthwise`.
    pub(crate) fn with(self, depthwise: bool, fixed: &[u64]) -> Digest {
        let mut bytes = Vec::with_capacity(17 + 8 * fixed.len());
        bytes.extend_from_slice(&self.0.raw().to_le_bytes());
        bytes.push(u8::from(depthwise));
        for field in fixed {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        Digest::of_bytes(&bytes)
    }
}

/// Appends `value` to a key as 8 little-endian bytes.
fn push_word(key: &mut Vec<u8>, value: u64) {
    key.extend_from_slice(&value.to_le_bytes());
}

/// Appends `text` to a key, length first.
fn push_text(key: &mut Vec<u8>, text: &str) {
    push_word(key, text.len() as u64);
    key.extend_from_slice(text.as_bytes());
}

/// Process-wide LRU of enumerated candidate spaces, keyed by the
/// [`SpaceDigest`] and depthwise-ness (sweeps cycle through a small menu of
/// SU families).
static SPACES: LazyLock<MemoryTier<Vec<Candidate>>> =
    LazyLock::new(|| MemoryTier::new(MemoryTierConfig::entries(512)));

/// The space cache's counters; its hits plus coalesced lookups are the
/// `bitwave_sweep_space_reuse_total` metric.
pub fn space_cache_stats() -> &'static StoreStats {
    SPACES.stats()
}

/// Power-of-two values `1, 2, 4, … ≤ cap`.
fn powers_of_two(cap: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut v = 1usize;
    while v <= cap {
        out.push(v);
        match v.checked_mul(2) {
            Some(next) => v = next,
            None => break,
        }
    }
    out
}

impl SearchSpace {
    /// The lane budget for an accelerator.
    pub fn budget(&self, accel: &AcceleratorSpec) -> usize {
        self.max_parallelism
            .unwrap_or_else(|| accel.su_set.peak_parallelism())
    }

    /// Enumerates the candidate mappings for `layer` on `accel`, in a
    /// deterministic order: SU-set seeds first, then generated `C×OX×K`
    /// factorizations (ascending `Cu`, `OXu`, `Ku`), then — for depthwise
    /// layers — generated `G×OX` factorizations; each spatial shape is
    /// crossed with both tiling orders and every tile factor.
    pub fn enumerate(&self, accel: &AcceleratorSpec, layer: &LayerSpec) -> Vec<Candidate> {
        let budget = self.budget(accel);
        let mut spatial: Vec<(SpatialUnrolling, String)> = Vec::new();
        if self.include_su_set {
            for su in &accel.su_set.options {
                spatial.push((*su, su.name.to_string()));
            }
        }
        if budget > 0 {
            let floor = ((budget as f64 * self.min_fill).ceil() as usize).max(1);
            let options = powers_of_two(budget);
            for &c in &options {
                for &ox in &options {
                    if c * ox > budget {
                        break;
                    }
                    for &k in &options {
                        let lanes = c * ox * k;
                        if lanes > budget {
                            break;
                        }
                        if lanes < floor {
                            continue;
                        }
                        spatial.push((
                            SpatialUnrolling {
                                name: GENERATED_SU_NAME,
                                c,
                                k,
                                ox,
                                oy: 1,
                                fx: 1,
                                fy: 1,
                                g: 1,
                            },
                            format!("DSE[C{c} X{ox} K{k}]"),
                        ));
                    }
                }
            }
            if layer.kind.is_depthwise() {
                for &g in &options {
                    if g < 2 {
                        continue;
                    }
                    for &ox in &options {
                        let lanes = g * ox;
                        if lanes > budget {
                            break;
                        }
                        if lanes < floor {
                            continue;
                        }
                        spatial.push((
                            SpatialUnrolling {
                                name: GENERATED_SU_NAME,
                                c: 1,
                                k: 1,
                                ox,
                                oy: 1,
                                fx: 1,
                                fy: 1,
                                g,
                            },
                            format!("DSE[G{g} X{ox}]"),
                        ));
                    }
                }
            }
        }

        let tilings = self.tilings();
        let mut out = Vec::with_capacity(spatial.len() * tilings.len());
        for (su, label) in spatial {
            for &temporal in &tilings {
                out.push(Candidate {
                    su,
                    label: label.clone(),
                    temporal,
                });
            }
        }
        out
    }

    /// The temporal mappings every spatial shape is crossed with, in
    /// enumeration order: both tiling orders, each with every tile factor
    /// (the natural tiling alone when no factor is configured).  The
    /// enumeration is therefore a sequence of blocks of `tilings().len()`
    /// candidates sharing one spatial unrolling.
    pub fn tilings(&self) -> Vec<TemporalMapping> {
        let factors: &[usize] = if self.tile_factors.is_empty() {
            &[1]
        } else {
            &self.tile_factors
        };
        [TilingOrder::WeightOuter, TilingOrder::ActivationOuter]
            .into_iter()
            .flat_map(|order| {
                factors.iter().map(move |&factor| TemporalMapping {
                    order,
                    tile_factor: factor.max(1),
                })
            })
            .collect()
    }

    /// [`SearchSpace::enumerate`] behind the process-wide space cache: the
    /// `Cu × OXu × Ku` factorization walk runs once per distinct
    /// `(space, SU menu, lane budget, depthwise)` key and every later caller
    /// shares the same `Arc` until the key ages out of the 512-entry LRU.
    pub fn enumerate_shared(
        &self,
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
    ) -> Arc<Vec<Candidate>> {
        self.enumerate_keyed(self.digest(accel), accel, layer)
    }

    /// The digest of this space's key on `accel`: every field of the space
    /// and of the SU menu, then the lane budget, as little-endian words
    /// (strings and lists length first).  The destructures are exhaustive,
    /// so a field added to either type cannot be left out of the key.
    pub(crate) fn digest(&self, accel: &AcceleratorSpec) -> SpaceDigest {
        let SearchSpace {
            min_fill,
            tile_factors,
            include_su_set,
            max_front,
            max_parallelism,
        } = self;
        let SuSet { name, options } = &accel.su_set;
        let mut key = Vec::with_capacity(128 + 72 * options.len());
        push_word(&mut key, min_fill.to_bits());
        push_word(&mut key, tile_factors.len() as u64);
        for &factor in tile_factors {
            push_word(&mut key, factor as u64);
        }
        push_word(&mut key, u64::from(*include_su_set));
        push_word(&mut key, *max_front as u64);
        push_word(&mut key, u64::from(max_parallelism.is_some()));
        push_word(&mut key, max_parallelism.unwrap_or(0) as u64);
        push_text(&mut key, name);
        push_word(&mut key, options.len() as u64);
        for su in options {
            let SpatialUnrolling {
                name,
                c,
                k,
                ox,
                oy,
                fx,
                fy,
                g,
            } = su;
            push_text(&mut key, name);
            for extent in [c, k, ox, oy, fx, fy, g] {
                push_word(&mut key, *extent as u64);
            }
        }
        push_word(&mut key, self.budget(accel) as u64);
        SpaceDigest(Digest::of_bytes(&key))
    }

    /// [`Self::enumerate_shared`] under an already computed
    /// [`Self::digest`].
    pub(crate) fn enumerate_keyed(
        &self,
        digest: SpaceDigest,
        accel: &AcceleratorSpec,
        layer: &LayerSpec,
    ) -> Arc<Vec<Candidate>> {
        let walk = || self.enumerate(accel, layer);
        // Single-flight: racing callers of a cold key share one walk; a
        // caller whose filler panicked walks uncached.
        SPACES
            .get_or_fill(
                digest.with(layer.kind.is_depthwise(), &[]),
                || Ok::<_, String>((walk(), 0, FillOrigin::Computed)),
                |e| e,
            )
            .map_or_else(|_| Arc::new(walk()), |(space, _)| space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_accel::spec::BitwaveOptimizations;
    use bitwave_dnn::models::{mobilenet_v2, resnet18};

    fn bitwave() -> AcceleratorSpec {
        AcceleratorSpec::bitwave(BitwaveOptimizations::all())
    }

    #[test]
    fn powers_enumerate_up_to_cap() {
        assert_eq!(powers_of_two(8), vec![1, 2, 4, 8]);
        assert_eq!(powers_of_two(7), vec![1, 2, 4]);
        assert!(powers_of_two(0).is_empty());
    }

    #[test]
    fn candidates_respect_the_lane_budget_and_floor() {
        let space = SearchSpace::default();
        let net = resnet18();
        let accel = bitwave();
        let budget = space.budget(&accel);
        assert_eq!(budget, 4096);
        let candidates = space.enumerate(&accel, &net.layers[0]);
        assert!(!candidates.is_empty());
        let floor = (budget as f64 * space.min_fill).ceil() as usize;
        for cand in &candidates {
            assert!(cand.su.parallelism() <= budget, "{}", cand.label);
            if cand.su.name == GENERATED_SU_NAME {
                assert!(cand.su.parallelism() >= floor, "{}", cand.label);
            }
        }
        // The accelerator's own SUs seed the space (both orders, all tiles).
        let su1_seeds = candidates.iter().filter(|c| c.label == "SU1").count();
        assert_eq!(su1_seeds, 2 * space.tile_factors.len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let space = SearchSpace::default();
        let net = resnet18();
        let accel = bitwave();
        let a = space.enumerate(&accel, &net.layers[0]);
        let b = space.enumerate(&accel, &net.layers[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn depthwise_layers_get_group_parallel_candidates() {
        let space = SearchSpace::default();
        let net = mobilenet_v2();
        let accel = bitwave();
        let dw = net.layers.iter().find(|l| l.kind.is_depthwise()).unwrap();
        let conv = net.layers.iter().find(|l| !l.kind.is_depthwise()).unwrap();
        let dw_cands = space.enumerate(&accel, dw);
        assert!(dw_cands.iter().any(|c| c.su.g > 1));
        let conv_cands = space.enumerate(&accel, conv);
        assert!(conv_cands
            .iter()
            .all(|c| c.su.g <= 1 || c.su.name != GENERATED_SU_NAME));
    }

    #[test]
    fn shared_enumeration_reuses_one_arc_across_shape_siblings() {
        let space = SearchSpace::default();
        let net = resnet18();
        let accel = bitwave();
        // Warm the process-wide cache, then two differently shaped (but both
        // non-depthwise) layers must share one Arc'd enumeration.
        let _warm = space.enumerate_shared(&accel, &net.layers[0]);
        let reuse = || space_cache_stats().hits() + space_cache_stats().coalesced();
        let before = reuse();
        let a = space.enumerate_shared(&accel, &net.layers[0]);
        let b = space.enumerate_shared(&accel, &net.layers[3]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(reuse() >= before + 2);
        assert_eq!(*a, space.enumerate(&accel, &net.layers[0]));
    }

    #[test]
    fn a_full_space_cache_still_caches_new_keys() {
        let net = resnet18();
        let accel = bitwave();
        // Each lane budget is its own key; the tiny budgets walk quickly.
        let space_with = |budget: usize| SearchSpace {
            max_parallelism: Some(budget),
            include_su_set: false,
            tile_factors: vec![],
            ..SearchSpace::default()
        };
        for budget in 1000..1600 {
            space_with(budget).enumerate_shared(&accel, &net.layers[0]);
        }
        let fresh = space_with(7);
        let first = fresh.enumerate_shared(&accel, &net.layers[0]);
        let second = fresh.enumerate_shared(&accel, &net.layers[0]);
        assert!(Arc::ptr_eq(&first, &second), "a fresh key must be a hit");
    }

    #[test]
    fn enumeration_is_spatial_shapes_crossed_with_the_tilings() {
        let net = mobilenet_v2();
        let accel = bitwave();
        for tile_factors in [vec![], vec![1], vec![4, 1, 2]] {
            let space = SearchSpace {
                tile_factors,
                ..SearchSpace::default()
            };
            let tilings = space.tilings();
            for layer in &net.layers {
                let candidates = space.enumerate(&accel, layer);
                assert_eq!(candidates.len() % tilings.len(), 0);
                for block in candidates.chunks(tilings.len()) {
                    assert!(block.iter().all(|c| c.su == block[0].su));
                    assert!(block.iter().all(|c| c.label == block[0].label));
                    let temporals: Vec<TemporalMapping> =
                        block.iter().map(|c| c.temporal).collect();
                    assert_eq!(temporals, tilings);
                }
            }
        }
    }

    #[test]
    fn empty_tile_factors_fall_back_to_natural_tiling() {
        let space = SearchSpace {
            tile_factors: Vec::new(),
            ..SearchSpace::default()
        };
        let net = resnet18();
        let candidates = space.enumerate(&bitwave(), &net.layers[0]);
        assert!(candidates.iter().all(|c| c.temporal.tile_factor == 1));
    }
}
