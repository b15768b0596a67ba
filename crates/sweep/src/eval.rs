//! Candidate evaluation: one hardware point against the whole workload
//! portfolio, through the per-layer design-space search's factored unit
//! and the Eq. 1–5 cost stack.
//!
//! Two amortization layers make the sweep cheap:
//!
//! * **Portfolio sharing** — sparsity profiles and synthetic weights depend
//!   only on `(model, seed, sample_cap)`, so [`build_portfolio`] serves
//!   each model from a process-wide `Arc` store: every candidate, worker
//!   thread and serve request prices the same profiled portfolio.  The
//!   profiles are **core-only** ([`bitwave_accel::LayerAnalysis::core_profile`]):
//!   every sweep point is a BCS BitWave spec, so the ZRE/CSR value-codec
//!   passes never run and their ratios hold the `1.0` placeholder.
//! * **Factored groups** — candidates that differ only along the
//!   SRAM-size / DRAM-bandwidth axes share identical compute-side costs,
//!   so [`evaluate_point_factored`] factors each portfolio model once per
//!   `(lanes, menu, bandwidth, bit-class)` group
//!   ([`bitwave_dse::factor_network`]: one SU part per spatial unrolling
//!   of each layer shape) and per point prices only what a
//!   [`PointResult`] keeps — each model's searched cycles, energy and EDP
//!   ([`bitwave_dse::FactoredNetworkSearch::price`]), bit-identical to the
//!   searched totals of a [`bitwave_dse::DseEngine`] network search at the
//!   point.

use crate::config::SweepConfig;
use crate::menu::{menu_rows, MenuRow};
use crate::space::CandidatePoint;
use bitwave::context::ExperimentContext;
use bitwave::BitwaveError;
use bitwave_accel::sparsity::{LayerAnalysis, LayerSparsityProfile};
use bitwave_accel::{bits_per_mac_class, EnergyModel};
use bitwave_core::digest::Digest;
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dnn::models::{by_name, NetworkSpec};
use bitwave_dse::{factor_network, DseError, FactoredNetworkSearch};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The pre-computed, hardware-independent inputs of one portfolio model:
/// the network shape and its per-layer sparsity profiles.  Profiles depend
/// only on (model, seed, sample cap), so one portfolio serves every
/// candidate a worker evaluates.
#[derive(Debug)]
pub struct PortfolioModel {
    /// The network.
    pub network: NetworkSpec,
    /// Per-layer core sparsity profiles aligned with `network.layers`
    /// ([`LayerAnalysis::core_profile`]): `zre_compression_ratio` and
    /// `csr_compression_ratio` hold the dense placeholder `1.0`, because no
    /// sweep point (a BCS BitWave spec) reads the value-codec ratios.
    pub profiles: Vec<LayerSparsityProfile>,
}

/// Process-wide portfolio store keyed by `(model, seed, sample_cap)`.
/// Bounded: on overflow the whole map is dropped (entries are rebuildable
/// and real sweeps cycle through a handful of models).
static PORTFOLIO_STORE: OnceLock<Mutex<HashMap<String, Arc<PortfolioModel>>>> = OnceLock::new();
static PROFILE_REUSE: AtomicU64 = AtomicU64::new(0);
const PORTFOLIO_CACHE_CAP: usize = 32;

/// Number of portfolio models served from the process-wide profile store
/// instead of being re-generated and re-profiled (the
/// `bitwave_sweep_profile_reuse_total` metric).
pub fn profile_reuse_total() -> u64 {
    PROFILE_REUSE.load(Ordering::Relaxed)
}

fn portfolio_model(
    name: &str,
    seed: u64,
    sample_cap: usize,
) -> Result<Arc<PortfolioModel>, String> {
    let key = format!("{name}|{seed}|{sample_cap}");
    let store = PORTFOLIO_STORE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = store.lock().ok().and_then(|g| g.get(&key).cloned()) {
        PROFILE_REUSE.fetch_add(1, Ordering::Relaxed);
        return Ok(hit);
    }
    // Build outside the lock; a racing duplicate build produces identical
    // content and the first insert wins.
    let ctx = ExperimentContext::default()
        .with_seed(seed)
        .with_sample_cap(sample_cap);
    let network = by_name(name).map_err(|e| format!("unknown portfolio model `{name}`: {e}"))?;
    let weights = ctx.weights(&network);
    let profiles = network
        .layers
        .iter()
        .map(|layer| {
            let handle = ctx.layer_weight_handle(&network, &weights, &layer.name)?;
            let analysis = LayerAnalysis::from_weights(
                handle.clone(),
                layer.expected_activation_sparsity(),
                ctx.group_size,
            )?;
            Ok(*analysis.core_profile())
        })
        .collect::<Result<Vec<_>, BitwaveError>>()
        .map_err(|e| format!("profiling {name}: {e}"))?;
    let model = Arc::new(PortfolioModel { network, profiles });
    if let Ok(mut guard) = store.lock() {
        if guard.len() >= PORTFOLIO_CACHE_CAP {
            guard.clear();
        }
        return Ok(Arc::clone(guard.entry(key).or_insert(model)));
    }
    Ok(model)
}

/// Builds the portfolio, sharing each model's profiles through the
/// process-wide store — weight generation and profiling run once per
/// `(model, seed, sample_cap)` no matter how many candidates, worker
/// threads or serve requests price against it.
///
/// # Errors
///
/// Returns a message naming the unknown model or the profiling failure.
pub fn build_portfolio(config: &SweepConfig) -> Result<Vec<Arc<PortfolioModel>>, String> {
    config
        .portfolio
        .iter()
        .map(|name| portfolio_model(name, config.seed, config.sample_cap))
        .collect()
}

/// One factored compute group: each portfolio model's outcome of
/// [`factor_network`] under the group's representative accelerator spec.
struct GroupEntry {
    models: Vec<Result<FactoredNetworkSearch, DseError>>,
}

struct GroupState {
    map: HashMap<String, Arc<OnceLock<Arc<GroupEntry>>>>,
    order: VecDeque<String>,
}

/// FIFO-bounded, single-flight cache of factored compute groups.  A sweep
/// visits its `(lanes, menu, bandwidth, bit-class)` sub-grids in
/// enumeration order, so a small window holds every live group.
pub struct EvalEngine {
    groups: Mutex<GroupState>,
}

const GROUP_CACHE_CAP: usize = 8;

impl EvalEngine {
    fn new() -> Self {
        Self {
            groups: Mutex::new(GroupState {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Drops every cached group — benches use this to measure cold
    /// factoring without a fresh process.
    pub fn clear(&self) {
        let mut state = self
            .groups
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.map.clear();
        state.order.clear();
    }

    /// Cached groups currently held.
    pub fn groups_held(&self) -> usize {
        self.groups.lock().map(|state| state.map.len()).unwrap_or(0)
    }

    fn group(&self, key: String, build: impl FnOnce() -> GroupEntry) -> Arc<GroupEntry> {
        let slot = {
            let mut state = self
                .groups
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match state.map.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    if state.order.len() >= GROUP_CACHE_CAP {
                        if let Some(evicted) = state.order.pop_front() {
                            state.map.remove(&evicted);
                        }
                    }
                    let slot = Arc::new(OnceLock::new());
                    state.map.insert(key.clone(), Arc::clone(&slot));
                    state.order.push_back(key);
                    slot
                }
            }
        };
        // Single-flight: concurrent worker threads hitting one cold group
        // block here while the first caller factors it.
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// The process-wide [`EvalEngine`].
pub fn global_eval_engine() -> &'static EvalEngine {
    static ENGINE: OnceLock<EvalEngine> = OnceLock::new();
    ENGINE.get_or_init(EvalEngine::new)
}

/// One model's outcome on one candidate (searched mappings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOutcome {
    /// Model name.
    pub model: String,
    /// Σ total cycles under the searched mappings.
    pub cycles: f64,
    /// Σ energy (pJ) under the searched mappings.
    pub energy_pj: f64,
    /// Network EDP (`cycles × energy`).
    pub edp: f64,
}

/// The persisted result of evaluating one candidate point — the store
/// entry the sharded sweep coordinates on, so it carries everything the
/// final report needs (no re-evaluation on assembly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// Enumeration index within the sweep.
    pub index: usize,
    /// Candidate label.
    pub label: String,
    /// The hardware point.
    pub point: CandidatePoint,
    /// Extrapolated area (mm²).
    pub area_mm2: f64,
    /// Whether every portfolio model mapped onto this hardware.  An
    /// infeasible point records its first error and stays off the front.
    pub feasible: bool,
    /// First mapping error for infeasible points.
    pub error: Option<String>,
    /// Per-model outcomes in portfolio order (empty when infeasible).
    pub models: Vec<ModelOutcome>,
    /// Σ cycles across the portfolio.
    pub total_cycles: f64,
    /// Σ energy across the portfolio (pJ).
    pub total_energy_pj: f64,
    /// Portfolio EDP: Σ per-model EDP (each model runs as its own
    /// workload, so EDPs add rather than multiply).
    pub edp: f64,
    /// Table-I-style instruction-memory menu of this candidate.
    pub menu: Vec<MenuRow>,
}

impl PointResult {
    /// The sweep's objective vector: `[EDP, energy, cycles, area]`, all
    /// minimised.
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.edp,
            self.total_energy_pj,
            self.total_cycles,
            self.area_mm2,
        ]
    }
}

/// The point's memory hierarchy (its SRAM axes over the shared defaults).
fn point_memory(point: &CandidatePoint) -> MemoryHierarchy {
    MemoryHierarchy {
        weight_sram_bytes: point.weight_sram_kb * 1024,
        activation_sram_bytes: point.activation_sram_kb * 1024,
        ..MemoryHierarchy::bitwave_default()
    }
}

/// Assembles a point's result from its per-model outcomes.
fn assemble_result(
    point: &CandidatePoint,
    spec: &bitwave_accel::AcceleratorSpec,
    mut models: Vec<ModelOutcome>,
    error: Option<String>,
) -> PointResult {
    let feasible = error.is_none();
    if !feasible {
        models.clear();
    }
    let total_cycles: f64 = models.iter().map(|m| m.cycles).sum();
    let total_energy_pj: f64 = models.iter().map(|m| m.energy_pj).sum();
    let edp: f64 = models.iter().map(|m| m.edp).sum();
    PointResult {
        index: point.index,
        label: point.label(),
        point: *point,
        area_mm2: point.area_mm2(),
        feasible,
        error,
        models,
        total_cycles,
        total_energy_pj,
        edp,
        menu: menu_rows(&spec.su_set),
    }
}

/// The compute-group key: everything the factoring depends on, nothing the
/// per-point re-pricing covers (SRAM sizes, DRAM axes).  `bits_per_mac_class`
/// folds sync granularities that share one bits-per-MAC statistic, so e.g.
/// the `small` preset's 24 points collapse into 6 factored groups.
fn group_key(
    point: &CandidatePoint,
    config: &SweepConfig,
    spec: &bitwave_accel::AcceleratorSpec,
) -> String {
    let space_hex = Digest::of_value(&config.space)
        .map(|d| d.to_hex())
        .unwrap_or_else(|_| format!("{:?}", config.space));
    format!(
        "{}|{:?}|{}|{}|{}|{}|{}",
        point.lanes,
        point.menu,
        point.sram_bandwidth_bits,
        bits_per_mac_class(spec),
        config.seed,
        config.sample_cap,
        space_hex,
    ) + "|"
        + &config.portfolio.join(",")
}

/// Evaluates one candidate against the portfolio: the portfolio's compute
/// parts are factored once per compute group (shared process-wide) and only
/// the cheap pricing of the searched totals runs per point.  Deterministic:
/// same point + same config ⇒ identical result, on any worker.
pub fn evaluate_point_factored(
    point: &CandidatePoint,
    config: &SweepConfig,
    portfolio: &[Arc<PortfolioModel>],
) -> PointResult {
    let spec = point.spec();
    // The portfolio carries core profiles only (see `PortfolioModel`).
    debug_assert!(!spec.needs_value_codec_ratios());
    let memory = point_memory(point);
    let energy = EnergyModel::finfet_16nm();
    let entry = global_eval_engine().group(group_key(point, config, &spec), || GroupEntry {
        models: portfolio
            .iter()
            .map(|m| factor_network(&spec, &m.network, &m.profiles, &energy, &config.space))
            .collect(),
    });

    let mut models = Vec::with_capacity(portfolio.len());
    let mut error = None;
    for (model, factored) in portfolio.iter().zip(&entry.models) {
        match factored {
            Ok(factored) => {
                let totals = factored.price(&spec, &memory, &energy);
                models.push(ModelOutcome {
                    model: model.network.name.clone(),
                    cycles: totals.cycles,
                    energy_pj: totals.energy_pj,
                    edp: totals.edp,
                });
            }
            Err(e) => {
                error = Some(format!("{}: {e}", model.network.name));
                break;
            }
        }
    }
    assemble_result(point, &spec, models, error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MenuKind;
    use crate::space::enumerate;

    #[test]
    fn unknown_models_fail_portfolio_construction() {
        let mut config = SweepConfig::tiny();
        config.portfolio = vec!["not-a-model".to_string()];
        let err = build_portfolio(&config).unwrap_err();
        assert!(err.contains("not-a-model"));
    }

    #[test]
    fn portfolio_models_are_shared_across_builds() {
        let config = SweepConfig::tiny();
        let first = build_portfolio(&config).unwrap();
        let before = profile_reuse_total();
        let second = build_portfolio(&config).unwrap();
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        assert!(profile_reuse_total() > before);
        // A different seed is a different portfolio entry.
        let mut other = config.clone();
        other.seed += 1;
        let third = build_portfolio(&other).unwrap();
        assert!(!Arc::ptr_eq(&first[0], &third[0]));
    }

    #[test]
    fn sweep_points_never_need_value_codec_ratios() {
        for kind in [MenuKind::TableI, MenuKind::BitSim] {
            // Exhaustive: a new menu family must be added to the list above.
            match kind {
                MenuKind::TableI | MenuKind::BitSim => {}
            }
            let mut config = SweepConfig::small();
            config.menus = vec![kind];
            for point in enumerate(&config) {
                assert!(
                    !point.spec().needs_value_codec_ratios(),
                    "{} reads value-codec ratios",
                    point.label()
                );
            }
        }
    }

    #[test]
    fn portfolio_profiles_are_the_core_profiles() {
        let config = SweepConfig::tiny();
        let ctx = ExperimentContext::default()
            .with_seed(config.seed)
            .with_sample_cap(config.sample_cap);
        for model in build_portfolio(&config).unwrap() {
            let weights = ctx.weights(&model.network);
            let full: Vec<LayerSparsityProfile> = model
                .network
                .layers
                .iter()
                .map(|layer| {
                    LayerSparsityProfile::from_weights(
                        weights.layer(&layer.name).unwrap(),
                        layer.expected_activation_sparsity(),
                        ctx.group_size,
                    )
                    .unwrap()
                })
                .collect();
            assert_eq!(model.profiles.len(), full.len());
            for (core, full) in model.profiles.iter().zip(full) {
                assert_eq!(core.zre_compression_ratio, 1.0);
                assert_eq!(core.csr_compression_ratio, 1.0);
                let resolved = LayerSparsityProfile {
                    zre_compression_ratio: full.zre_compression_ratio,
                    csr_compression_ratio: full.csr_compression_ratio,
                    ..*core
                };
                assert_eq!(resolved, full);
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_feasible_on_the_tiny_space() {
        let config = SweepConfig::tiny();
        let portfolio = build_portfolio(&config).unwrap();
        let point = enumerate(&config)[0];
        let a = evaluate_point_factored(&point, &config, &portfolio);
        let b = evaluate_point_factored(&point, &config, &portfolio);
        assert_eq!(a, b);
        assert!(a.feasible, "paper-scale point must map: {:?}", a.error);
        assert_eq!(a.models.len(), config.portfolio.len());
        assert!(a.edp > 0.0);
        assert_eq!(a.menu.len(), 7);
        let json = serde_json::to_string(&a).unwrap();
        let back: PointResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn factored_evaluation_reproduces_the_full_path_byte_for_byte() {
        // The full path: one engine network search per portfolio model.
        let config = SweepConfig::tiny();
        let portfolio = build_portfolio(&config).unwrap();
        for point in enumerate(&config) {
            let engine =
                bitwave_dse::DseEngine::new(point_memory(&point), EnergyModel::finfet_16nm())
                    .with_space(config.space.clone());
            let factored = evaluate_point_factored(&point, &config, &portfolio);
            assert!(factored.feasible, "{:?}", factored.error);
            for (model, outcome) in portfolio.iter().zip(&factored.models) {
                let full = engine
                    .search_network(&point.spec(), &model.network, &model.profiles)
                    .unwrap();
                assert_eq!(outcome.model, model.network.name);
                assert_eq!(
                    outcome.cycles.to_bits(),
                    full.searched_total_cycles.to_bits()
                );
                assert_eq!(
                    outcome.energy_pj.to_bits(),
                    full.searched_energy_pj.to_bits()
                );
                assert_eq!(outcome.edp.to_bits(), full.searched_edp.to_bits());
            }
        }
        // The tiny preset's 8 points share (lanes × menu) compute groups.
        assert!(global_eval_engine().groups_held() >= 1);
    }
}
