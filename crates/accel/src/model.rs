//! STEP 3 + STEP 4: the sparsity-aware performance and energy model
//! (Eqs. 1–5 of the paper).
//!
//! For every layer the model
//!
//! 1. picks the accelerator's spatial unrolling (fixed, or per-layer for the
//!    dynamic-dataflow machines) and derives dense activity counts
//!    (`bitwave-dataflow`),
//! 2. applies value-sparsity skipping (Eq. 1, SCNN only), bit-level or
//!    bit-column-level cycle reduction (the `Bw` loop shrinks to the
//!    imbalance-adjusted non-zero bit/column count), and weight-compression
//!    scaling of the memory traffic (Eq. 3),
//! 3. converts memory traffic into cycles using each interface's bandwidth
//!    and combines them with the compute cycles following Eq. 5 (compute and
//!    on-chip transfers overlap; DRAM traffic and output write-back add on
//!    top),
//! 4. prices every remaining operation with the unit energies of Eq. 4.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::sparsity::LayerSparsityProfile;
use crate::spec::{AcceleratorSpec, PeStyle, WeightCompression};
use bitwave_dataflow::mapping::{select_spatial_unrolling, MappingError};
use bitwave_dataflow::{
    dram_reads, dram_reads_auto, ActivityCounts, MemoryBoundedness, MemoryHierarchy,
    SpatialUnrolling, TemporalMapping,
};
use bitwave_dnn::layer::LayerSpec;
use bitwave_dnn::models::NetworkSpec;
use serde::{Serialize, Value};

/// Performance and energy of one layer on one accelerator.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// Layer name.
    pub layer: String,
    /// Chosen spatial unrolling.
    pub su: String,
    /// PE-array utilisation under that SU.
    pub utilization: f64,
    /// Effective MAC operations after value-sparsity skipping (Eq. 1).
    pub effective_macs: f64,
    /// Compute cycles (Eq. 2, including bit-serial cycle expansion and
    /// bit/column skipping).
    pub compute_cycles: f64,
    /// Cycles spent on DRAM traffic: burst-quantised roofline cycles under a
    /// constrained DRAM tier, the legacy additive Eq. 5 term otherwise.
    pub dram_cycles: f64,
    /// Total latency in cycles (Eq. 5, or `max(compute, dram)` under a
    /// constrained DRAM tier).
    pub total_cycles: f64,
    /// Energy breakdown (Eq. 4).
    pub energy: EnergyBreakdown,
    /// Compute-vs-memory verdict; present only under a constrained DRAM
    /// tier (the unconstrained default reports `None` and serializes
    /// without the field, keeping existing outputs byte-identical).
    pub boundedness: Option<MemoryBoundedness>,
}

/// Hand-written so the `boundedness` field is omitted (not `null`) while
/// the DRAM tier is unconstrained — figure/table exports of existing
/// configurations keep their exact bytes.
impl Serialize for LayerResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("layer".to_string(), self.layer.to_value()),
            ("su".to_string(), self.su.to_value()),
            ("utilization".to_string(), self.utilization.to_value()),
            ("effective_macs".to_string(), self.effective_macs.to_value()),
            ("compute_cycles".to_string(), self.compute_cycles.to_value()),
            ("dram_cycles".to_string(), self.dram_cycles.to_value()),
            ("total_cycles".to_string(), self.total_cycles.to_value()),
            ("energy".to_string(), self.energy.to_value()),
        ];
        if let Some(boundedness) = &self.boundedness {
            fields.push(("boundedness".to_string(), boundedness.to_value()));
        }
        Value::Object(fields)
    }
}

/// Aggregated performance and energy of a whole network on one accelerator.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkResult {
    /// Accelerator label (e.g. "BitWave+DF+SM+BF").
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerResult>,
    /// Total latency in cycles.
    pub total_cycles: f64,
    /// Total energy breakdown.
    pub energy: EnergyBreakdown,
    /// Total effective MAC operations.
    pub effective_macs: f64,
    /// Total dense MAC operations of the workload.
    pub total_macs: u64,
}

impl NetworkResult {
    /// Speedup of `self` relative to `baseline` (higher is better).
    pub fn speedup_over(&self, baseline: &NetworkResult) -> f64 {
        baseline.total_cycles / self.total_cycles
    }

    /// Energy of `self` relative to `baseline` (lower is better).
    pub fn relative_energy(&self, baseline: &NetworkResult) -> f64 {
        self.energy.total_pj() / baseline.energy.total_pj()
    }

    /// Energy efficiency in useful operations per picojoule (2 ops per
    /// effective MAC, as the paper counts "actual useful operations").
    pub fn energy_efficiency_ops_per_pj(&self) -> f64 {
        2.0 * self.effective_macs / self.energy.total_pj()
    }

    /// Energy-efficiency ratio relative to `baseline` (higher is better).
    pub fn efficiency_over(&self, baseline: &NetworkResult) -> f64 {
        self.energy_efficiency_ops_per_pj() / baseline.energy_efficiency_ops_per_pj()
    }
}

/// Evaluates one layer on one accelerator (Eqs. 1–5), selecting the spatial
/// unrolling from the accelerator's SU set with the Fig. 9 heuristic.
///
/// # Errors
///
/// Propagates [`MappingError`] when the SU set is empty or the layer has a
/// zero-sized loop dimension.
pub fn evaluate_layer(
    spec: &AcceleratorSpec,
    layer: &LayerSpec,
    profile: &LayerSparsityProfile,
    memory: &MemoryHierarchy,
    energy_model: &EnergyModel,
) -> Result<LayerResult, MappingError> {
    let decision = select_spatial_unrolling(layer, &spec.su_set)?;
    Ok(evaluate_layer_with_mapping(
        spec,
        layer,
        &decision,
        profile,
        memory,
        energy_model,
    ))
}

/// Load-imbalance realisation factor for value-sparsity skipping (STEP 2):
/// the PEs of a value-sparse machine intersect irregular non-zero patterns
/// and stay in lockstep per tile, so only part of the skipped work turns
/// into cycle savings (the paper adjusts the sparsity statistics for this
/// imbalance; SCNN's own evaluation realises roughly half of the ideal
/// intersection speedup).  Energy still benefits from every skipped MAC.
const VALUE_SKIP_REALISATION: f64 = 0.5;

/// The **SU part** of one layer's Eq. 1–5 evaluation: everything that
/// depends only on the layer, the spatial unrolling, the sparsity profile
/// and the accelerator's compute-side parameters (PE style, sync
/// granularity, SRAM port widths) — Eqs. 1, 2, the memory-invariant Eq. 4
/// terms and the compute side of Eq. 5.  Neither the temporal mapping nor
/// the memory hierarchy nor the DRAM axes enter, so every tiling of one SU
/// and every memory/DRAM point share one `SuCost`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuCost {
    effective_macs: f64,
    compute_cycles: f64,
    compute_side_cycles: f64,
    compute_pj: f64,
    register_pj: f64,
    sram_read_pj: f64,
}

/// The **traffic part** of one layer's evaluation, before pricing: the
/// operand footprints and the weight compression ratio (Eq. 3).  Independent
/// of the spatial unrolling; [`LayerTraffic::price`] turns it into DRAM
/// traffic under one temporal mapping, memory hierarchy and DRAM tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTraffic {
    weight_count: u64,
    input_count: u64,
    output_count: u64,
    weight_cr: f64,
}

/// One layer's DRAM traffic priced under one temporal mapping, memory
/// hierarchy and DRAM tier: the DRAM side of Eq. 5 and the
/// traffic-dependent Eq. 4 terms.  Composed with an [`SuCost`] by
/// [`SuCost::reprice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedTraffic {
    dram_bytes: f64,
    dram_cycles: f64,
    /// `(weight, activation)` DRAM fetch multipliers under a constrained
    /// tier (the roofline verdict needs them); `None` when unconstrained.
    fetches: Option<(u64, u64)>,
    sram_fill_pj: f64,
    dram_pj: f64,
}

/// One layer's Eq. 1–5 outcome: an [`SuCost`] composed with its
/// [`PricedTraffic`] — the fields of [`LayerResult`] the model computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepricedLayerCost {
    /// Effective MAC operations after value-sparsity skipping (Eq. 1).
    pub effective_macs: f64,
    /// Compute cycles (Eq. 2; memory-invariant, carried through).
    pub compute_cycles: f64,
    /// Cycles spent on DRAM traffic.
    pub dram_cycles: f64,
    /// Total latency in cycles (Eq. 5 / roofline).
    pub total_cycles: f64,
    /// Energy breakdown (Eq. 4).
    pub energy: EnergyBreakdown,
    /// Compute-vs-memory verdict under a constrained DRAM tier.
    pub boundedness: Option<MemoryBoundedness>,
}

/// Eq. 3: the weight compression ratio of memory traffic (weights only;
/// activations stay uncompressed in all modelled machines).
fn weight_compression_ratio(spec: &AcceleratorSpec, profile: &LayerSparsityProfile) -> f64 {
    match spec.compression {
        WeightCompression::None => 1.0,
        WeightCompression::Zre => profile.zre_compression_ratio.max(f64::MIN_POSITIVE),
        // BitWave decides per layer whether to store BCS-compressed or dense
        // weights (the ZCIP has a dense mode exactly for this), so a layer
        // whose index overhead exceeds its savings falls back to CR = 1.
        WeightCompression::Bcs => profile.bcs_compression_ratio.max(1.0),
    }
}

impl SuCost {
    /// Computes the SU part of `layer` under spatial unrolling `su` with
    /// `effective_macs_per_cycle` lanes (a mapping decision's utilisation
    /// times the SU's parallelism).  Only `spec`'s compute-side fields are
    /// read.
    pub fn of(
        spec: &AcceleratorSpec,
        layer: &LayerSpec,
        su: &SpatialUnrolling,
        effective_macs_per_cycle: f64,
        profile: &LayerSparsityProfile,
        energy_model: &EnergyModel,
    ) -> Self {
        let activity = ActivityCounts::analyze_spatial(layer, su);

        // Eq. 1: value-sparsity skipping (only machines that support it).
        let keep_w = if spec.sparsity.weight_value {
            1.0 - profile.weight_value_sparsity
        } else {
            1.0
        };
        let keep_a = if spec.sparsity.activation_value {
            1.0 - profile.activation_value_sparsity
        } else {
            1.0
        };
        let effective_macs = activity.macs as f64 * keep_w * keep_a;

        let keep_w_cycles = if spec.sparsity.weight_value {
            1.0 - VALUE_SKIP_REALISATION * profile.weight_value_sparsity
        } else {
            1.0
        };
        let keep_a_cycles = if spec.sparsity.activation_value {
            1.0 - VALUE_SKIP_REALISATION * profile.activation_value_sparsity
        } else {
            1.0
        };
        let cycle_macs = activity.macs as f64 * keep_w_cycles * keep_a_cycles;

        // Eq. 2: compute cycles.  Bit-serial datapaths expand each MAC into
        // the (possibly skipped, imbalance-adjusted) number of weight-bit
        // cycles.
        let lanes = effective_macs_per_cycle.max(1.0);
        let bits_per_mac = match spec.pe_style {
            PeStyle::BitParallel => 1.0,
            PeStyle::BitSerial => {
                if spec.sparsity.weight_bit {
                    match spec.sync_lanes {
                        n if n >= 64 => profile.max_nonzero_bits_sync64,
                        n if n > 1 => profile.max_nonzero_bits_sync16,
                        _ => profile.mean_nonzero_bits_tc,
                    }
                } else {
                    8.0
                }
            }
            PeStyle::BitColumnSerial => {
                if spec.sparsity.weight_bit_column {
                    if spec.sync_lanes > 1 {
                        profile.max_nonzero_columns_synced
                    } else {
                        profile.mean_nonzero_columns
                    }
                } else {
                    8.0
                }
            }
        };
        let compute_cycles = cycle_macs * bits_per_mac / lanes;

        // Compressed weights are also held compressed on chip: BitWave
        // streams BCS columns straight into the PE array, SCNN stores ZRE
        // symbols whose index overhead *increases* on-chip traffic when
        // value sparsity is low (CR < 1), which is the paper's explanation
        // of SCNN's energy loss.
        let sram_read_weight_e = if spec.compression == WeightCompression::None {
            activity.sram_read_weight as f64
        } else {
            activity.sram_read_weight as f64 / weight_compression_ratio(spec, profile)
        };
        // Value-sparsity machines also skip the corresponding operand
        // fetches.
        let sram_read_input_e = activity.sram_read_input as f64 * keep_a;
        let reg_read_e = activity.reg_read as f64 * keep_w * keep_a;
        let reg_write_e = activity.reg_write as f64 * keep_w * keep_a;

        // The compute side of Eq. 5: on-chip reads and register traffic
        // overlap with compute; the output write-back does not.
        let sram_read_input_cycles = sram_read_input_e * 8.0 / spec.act_sram_bandwidth_bits as f64;
        let sram_read_weight_cycles =
            sram_read_weight_e * 8.0 / spec.weight_sram_bandwidth_bits as f64;
        let sram_write_output_cycles =
            activity.sram_write_output as f64 * 8.0 / spec.act_sram_bandwidth_bits as f64;
        let reg_cycles = reg_read_e / su.parallelism().max(1) as f64;
        let compute_side_cycles = sram_write_output_cycles
            + compute_cycles
                .max(sram_read_input_cycles)
                .max(sram_read_weight_cycles)
                .max(reg_cycles);

        // The memory-invariant Eq. 4 terms.
        let compute_pj = match spec.pe_style {
            PeStyle::BitParallel => effective_macs * energy_model.mac_8x8_pj,
            PeStyle::BitSerial => effective_macs * bits_per_mac * energy_model.mac_bit_serial_pj,
            PeStyle::BitColumnSerial => {
                effective_macs * bits_per_mac * energy_model.mac_bit_column_pj
            }
        };
        let register_pj = (reg_read_e + reg_write_e) * energy_model.reg_access_pj;
        let sram_read_pj =
            (sram_read_input_e + sram_read_weight_e) * energy_model.sram_read_pj_per_byte;

        Self {
            effective_macs,
            compute_cycles,
            compute_side_cycles,
            compute_pj,
            register_pj,
            sram_read_pj,
        }
    }

    /// Eq. 5: the layer latency — additive at the unconstrained default
    /// (the legacy behaviour), the per-layer roofline
    /// `max(cycle_compute, cycle_dram)` under a constrained tier, where DRAM
    /// transfers overlap with compute through double buffering.
    pub fn total_cycles(&self, traffic: &PricedTraffic) -> f64 {
        match traffic.fetches {
            Some(_) => self.compute_side_cycles.max(traffic.dram_cycles),
            None => traffic.dram_cycles + self.compute_side_cycles,
        }
    }

    /// Eq. 4: the layer's energy breakdown.
    pub fn energy(&self, traffic: &PricedTraffic) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: self.compute_pj,
            sram_pj: self.sram_read_pj + traffic.sram_fill_pj,
            register_pj: self.register_pj,
            dram_pj: traffic.dram_pj,
        }
    }

    /// Composes the SU part with one priced traffic part into the layer's
    /// full Eq. 1–5 outcome (including the roofline verdict under a
    /// constrained DRAM tier).
    pub fn reprice(&self, traffic: &PricedTraffic) -> RepricedLayerCost {
        RepricedLayerCost {
            effective_macs: self.effective_macs,
            compute_cycles: self.compute_cycles,
            dram_cycles: traffic.dram_cycles,
            total_cycles: self.total_cycles(traffic),
            energy: self.energy(traffic),
            boundedness: traffic.fetches.map(|(weight_fetches, act_fetches)| {
                MemoryBoundedness::from_roofline(
                    self.compute_side_cycles,
                    traffic.dram_cycles,
                    traffic.dram_bytes,
                    weight_fetches,
                    act_fetches,
                )
            }),
        }
    }
}

impl LayerTraffic {
    /// The traffic inputs of `layer` on `spec` (its compression scheme
    /// applied to `profile`).
    pub fn of(spec: &AcceleratorSpec, layer: &LayerSpec, profile: &LayerSparsityProfile) -> Self {
        let dims = &layer.dims;
        Self {
            weight_count: dims.weight_count(),
            input_count: dims.input_count(),
            output_count: dims.output_count(),
            weight_cr: weight_compression_ratio(spec, profile),
        }
    }

    /// Prices the layer's traffic under `temporal` (`None`: the activity
    /// model's automatic cheapest order), a concrete memory hierarchy and
    /// the DRAM axes of `spec` (`spec.dram`, `spec.dram_bandwidth_bits`):
    /// the SRAM fit check / DRAM reads, the DRAM cycles and the
    /// traffic-dependent energy terms.
    pub fn price(
        &self,
        spec: &AcceleratorSpec,
        temporal: Option<TemporalMapping>,
        memory: &MemoryHierarchy,
        energy_model: &EnergyModel,
    ) -> PricedTraffic {
        let (dram_read_weight, dram_read_act) = match temporal {
            Some(temporal) => dram_reads(
                self.weight_count,
                self.input_count,
                self.output_count,
                memory,
                temporal,
            ),
            None => dram_reads_auto(
                self.weight_count,
                self.input_count,
                self.output_count,
                memory,
            ),
        };
        let dram_read_weight_e = dram_read_weight as f64 / self.weight_cr;
        // The weight SRAM is filled once per DRAM read, compressed.
        let sram_write_weight_e = dram_read_weight as f64 / self.weight_cr;

        let dram_bytes = dram_read_act as f64 + dram_read_weight_e + self.output_count as f64;
        let (dram_cycles, fetches) = if spec.dram.is_constrained() {
            // The DRAM reads scale with the refetch multipliers, so dividing
            // by the per-operand footprint recovers them exactly.
            let weight_fetches = match self.weight_count {
                0 => 0,
                count => dram_read_weight / count,
            };
            let act_fetches = match self.input_count {
                0 => 0,
                count => dram_read_act / count,
            };
            (
                spec.dram.cycles_for_bytes(dram_bytes),
                Some((weight_fetches, act_fetches)),
            )
        } else {
            (dram_bytes * 8.0 / spec.dram_bandwidth_bits as f64, None)
        };

        // The input-SRAM fill mirrors the activation DRAM reads, the
        // weight-SRAM fill the compressed weight reads, and the output
        // write-back is invariant.
        PricedTraffic {
            dram_bytes,
            dram_cycles,
            fetches,
            sram_fill_pj: (dram_read_act as f64 + sram_write_weight_e + self.output_count as f64)
                * energy_model.sram_write_pj_per_byte,
            dram_pj: dram_bytes * energy_model.dram_pj_per_byte,
        }
    }
}

/// The equivalence class of [`SuCost::of`]'s `bits_per_mac`
/// branch: two accelerator specs in the same class read the same sparsity
/// statistic, so (with equal lanes, menu and SRAM port widths) they share
/// factored compute parts.  The sweep's group cache keys on this.
pub fn bits_per_mac_class(spec: &AcceleratorSpec) -> &'static str {
    match spec.pe_style {
        PeStyle::BitParallel => "bit-parallel",
        PeStyle::BitSerial => {
            if spec.sparsity.weight_bit {
                match spec.sync_lanes {
                    n if n >= 64 => "bit-serial/sync64",
                    n if n > 1 => "bit-serial/sync16",
                    _ => "bit-serial/tc",
                }
            } else {
                "bit-serial/dense"
            }
        }
        PeStyle::BitColumnSerial => {
            if spec.sparsity.weight_bit_column {
                if spec.sync_lanes > 1 {
                    "bit-column/synced"
                } else {
                    "bit-column/mean"
                }
            } else {
                "bit-column/dense"
            }
        }
    }
}

/// Evaluates one layer on one accelerator (Eqs. 1–5) under an already chosen
/// mapping decision — the entry point of the pipeline's simulate stage and
/// the DSE cost model, which receive the decision instead of re-deriving it.
/// When the decision carries an explicit [`bitwave_dataflow::TemporalMapping`]
/// (a searched loop order + tiling), the DRAM traffic honours it; otherwise
/// the model's automatic cheapest-order choice applies.
///
/// Implemented as the composition [`SuCost::reprice`] of the SU part and the
/// priced traffic part, so the factored sweep path, which shares one
/// [`SuCost`] across tilings and memory points, is byte-identical by
/// construction.
pub fn evaluate_layer_with_mapping(
    spec: &AcceleratorSpec,
    layer: &LayerSpec,
    decision: &bitwave_dataflow::MappingDecision,
    profile: &LayerSparsityProfile,
    memory: &MemoryHierarchy,
    energy_model: &EnergyModel,
) -> LayerResult {
    let su = SuCost::of(
        spec,
        layer,
        &decision.su,
        decision.effective_macs_per_cycle,
        profile,
        energy_model,
    );
    let traffic =
        LayerTraffic::of(spec, layer, profile).price(spec, decision.temporal, memory, energy_model);
    let repriced = su.reprice(&traffic);
    LayerResult {
        layer: layer.name.clone(),
        su: decision.label.clone(),
        utilization: decision.utilization,
        effective_macs: repriced.effective_macs,
        compute_cycles: repriced.compute_cycles,
        dram_cycles: repriced.dram_cycles,
        total_cycles: repriced.total_cycles,
        energy: repriced.energy,
        boundedness: repriced.boundedness,
    }
}

/// Why a whole-network evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// A layer's SU selection failed (empty SU set, degenerate layer).
    Mapping(
        /// The propagated mapping error.
        MappingError,
    ),
    /// `profiles` was not aligned with the network's layers.
    MisalignedProfiles {
        /// Number of layers.
        layers: usize,
        /// Number of profiles.
        profiles: usize,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Mapping(e) => write!(f, "mapping error: {e}"),
            NetworkError::MisalignedProfiles { layers, profiles } => write!(
                f,
                "network evaluation needs one profile per layer ({layers} layers, {profiles} profiles)"
            ),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Mapping(e) => Some(e),
            NetworkError::MisalignedProfiles { .. } => None,
        }
    }
}

impl From<MappingError> for NetworkError {
    fn from(e: MappingError) -> Self {
        NetworkError::Mapping(e)
    }
}

/// Evaluates a whole network on one accelerator.  `profiles` must be aligned
/// with `network.layers` (one sparsity profile per layer, in order).
///
/// # Errors
///
/// Returns [`NetworkError::MisalignedProfiles`] unless `profiles` has one
/// entry per layer, and propagates [`MappingError`] from the per-layer SU
/// selection as [`NetworkError::Mapping`].
pub fn evaluate_network(
    spec: &AcceleratorSpec,
    network: &NetworkSpec,
    profiles: &[LayerSparsityProfile],
    memory: &MemoryHierarchy,
    energy_model: &EnergyModel,
) -> Result<NetworkResult, NetworkError> {
    if profiles.len() != network.layers.len() {
        return Err(NetworkError::MisalignedProfiles {
            layers: network.layers.len(),
            profiles: profiles.len(),
        });
    }
    let mut layers = Vec::with_capacity(network.layers.len());
    let mut total_cycles = 0.0f64;
    let mut energy = EnergyBreakdown::default();
    let mut effective_macs = 0.0f64;
    for (layer, profile) in network.layers.iter().zip(profiles) {
        let result = evaluate_layer(spec, layer, profile, memory, energy_model)?;
        total_cycles += result.total_cycles;
        energy = energy.accumulate(&result.energy);
        effective_macs += result.effective_macs;
        layers.push(result);
    }
    Ok(NetworkResult {
        accelerator: spec.label.clone(),
        network: network.name.clone(),
        layers,
        total_cycles,
        energy,
        effective_macs,
        total_macs: network.total_macs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dnn::models::resnet18;
    use bitwave_dnn::weights::generate_layer_sample;

    fn layer_profile(layer: &LayerSpec) -> LayerSparsityProfile {
        let w = generate_layer_sample(layer, 3, 40_000);
        LayerSparsityProfile::from_weights(&w, layer.expected_activation_sparsity(), GroupSize::G8)
            .unwrap()
    }

    fn resnet_profiles(net: &NetworkSpec) -> Vec<LayerSparsityProfile> {
        net.layers.iter().map(layer_profile).collect()
    }

    #[test]
    fn bitwave_sm_beats_dense_on_sparse_layers() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let dense =
            evaluate_layer(&AcceleratorSpec::dense(), layer, &profile, &mem, &energy).unwrap();
        let bitwave = evaluate_layer(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            layer,
            &profile,
            &mem,
            &energy,
        )
        .unwrap();
        assert!(bitwave.total_cycles < dense.total_cycles);
        assert!(bitwave.energy.total_pj() < dense.energy.total_pj());
    }

    #[test]
    fn dense_profile_neutralises_sparsity_advantages() {
        let net = resnet18();
        let layer = net.layer("layer2.0.conv1").unwrap();
        let dense_profile = LayerSparsityProfile::dense(8);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let stripes = evaluate_layer(
            &AcceleratorSpec::stripes(),
            layer,
            &dense_profile,
            &mem,
            &energy,
        )
        .unwrap();
        let pragmatic = evaluate_layer(
            &AcceleratorSpec::pragmatic(),
            layer,
            &dense_profile,
            &mem,
            &energy,
        )
        .unwrap();
        // With zero bit sparsity Pragmatic degenerates to Stripes.
        assert!((stripes.compute_cycles - pragmatic.compute_cycles).abs() < 1e-6);
    }

    #[test]
    fn network_evaluation_aggregates_layers() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let result = evaluate_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &profiles,
            &mem,
            &energy,
        )
        .unwrap();
        assert_eq!(result.layers.len(), net.layers.len());
        let sum: f64 = result.layers.iter().map(|l| l.total_cycles).sum();
        assert!((sum - result.total_cycles).abs() / sum < 1e-9);
        assert_eq!(result.total_macs, net.total_macs());
        assert!(result.energy_efficiency_ops_per_pj() > 0.0);
    }

    #[test]
    fn figure13_breakdown_is_monotonic_for_resnet() {
        // Dense -> +DF -> +SM must be monotonically faster (BF is exercised in
        // the facade where flipped weights are available).
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let dense =
            evaluate_network(&AcceleratorSpec::dense(), &net, &profiles, &mem, &energy).unwrap();
        let df = evaluate_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_only()),
            &net,
            &profiles,
            &mem,
            &energy,
        )
        .unwrap();
        let df_sm = evaluate_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_sm()),
            &net,
            &profiles,
            &mem,
            &energy,
        )
        .unwrap();
        assert!(df.speedup_over(&dense) >= 1.0);
        assert!(df_sm.speedup_over(&dense) > df.speedup_over(&dense));
        assert!(df_sm.speedup_over(&dense) > 1.2);
    }

    #[test]
    fn bitwave_outperforms_sota_set_on_resnet() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let results: Vec<NetworkResult> = AcceleratorSpec::sota_comparison_set()
            .iter()
            .map(|spec| evaluate_network(spec, &net, &profiles, &mem, &energy).unwrap())
            .collect();
        let bitwave = results.last().unwrap();
        assert_eq!(bitwave.accelerator, "BitWave+DF+SM+BF");
        for other in &results[..results.len() - 1] {
            assert!(
                bitwave.total_cycles <= other.total_cycles * 1.001,
                "BitWave ({:.3e} cycles) should not lose to {} ({:.3e})",
                bitwave.total_cycles,
                other.accelerator,
                other.total_cycles
            );
            assert!(
                bitwave.energy.total_pj() <= other.energy.total_pj(),
                "BitWave should not use more energy than {}",
                other.accelerator
            );
        }
    }

    #[test]
    fn speedup_and_efficiency_helpers_are_reciprocal() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let a = evaluate_network(&AcceleratorSpec::scnn(), &net, &profiles, &mem, &energy).unwrap();
        let b = evaluate_network(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &profiles,
            &mem,
            &energy,
        )
        .unwrap();
        let s = b.speedup_over(&a);
        assert!((a.speedup_over(&b) - 1.0 / s).abs() < 1e-12);
        assert!(b.relative_energy(&a) <= 1.0);
        assert!(b.efficiency_over(&a) >= 1.0);
    }

    #[test]
    fn unconstrained_dram_totals_are_additive_and_unreported() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let result = evaluate_layer(&spec, layer, &profile, &mem, &energy).unwrap();
        assert!(result.boundedness.is_none());
        assert!(result.total_cycles > result.dram_cycles);
        assert!(result.total_cycles > result.compute_cycles);
        let json = serde_json::to_string(&result).unwrap();
        assert!(
            !json.contains("boundedness"),
            "unconstrained layers must serialize without the boundedness key: {json}"
        );
    }

    #[test]
    fn generous_constrained_dram_reduces_to_compute_side() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.dram = bitwave_dataflow::DramSpec::constrained(1 << 30);
        let result = evaluate_layer(&spec, layer, &profile, &mem, &energy).unwrap();
        let boundedness = result
            .boundedness
            .expect("constrained tier reports verdict");
        assert!(!boundedness.memory_bound);
        assert!((result.total_cycles - boundedness.compute_side_cycles).abs() < 1e-9);
        assert_eq!(boundedness.dram_stall_cycles, 0.0);
        assert_eq!(boundedness.dram_stall_fraction, 0.0);
        // The roofline's compute side equals the legacy total minus its
        // additive DRAM term.
        let legacy = evaluate_layer(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            layer,
            &profile,
            &mem,
            &energy,
        )
        .unwrap();
        let legacy_compute_side = legacy.total_cycles - legacy.dram_cycles;
        assert!((boundedness.compute_side_cycles - legacy_compute_side).abs() < 1e-6);
    }

    #[test]
    fn starved_dram_makes_the_layer_memory_bound() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mem = MemoryHierarchy::bitwave_default();
        let energy = EnergyModel::finfet_16nm();
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.dram = bitwave_dataflow::DramSpec::constrained(1);
        let result = evaluate_layer(&spec, layer, &profile, &mem, &energy).unwrap();
        let boundedness = result
            .boundedness
            .expect("constrained tier reports verdict");
        assert!(boundedness.memory_bound);
        assert!((result.total_cycles - boundedness.dram_cycles).abs() < 1e-9);
        assert!(boundedness.dram_stall_fraction > 0.5);
        assert!(boundedness.weight_fetches >= 1);
        assert!(boundedness.act_fetches >= 1);
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("\"boundedness\""));
        assert!(json.contains("\"memory_bound\":true"));
    }

    #[test]
    fn factored_reprice_reproduces_the_full_evaluation_bitwise() {
        use bitwave_dataflow::TilingOrder;
        let net = resnet18();
        let energy = EnergyModel::finfet_16nm();
        // Both SRAM-fit regimes (a roomy hierarchy and a starved one that
        // forces refetch tiling) × unconstrained and constrained DRAM tiers.
        let roomy = MemoryHierarchy::bitwave_default();
        let starved = MemoryHierarchy {
            weight_sram_bytes: 16 * 1024,
            activation_sram_bytes: 16 * 1024,
            ..MemoryHierarchy::bitwave_default()
        };
        let mut throttled = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        throttled.dram = bitwave_dataflow::DramSpec::constrained(32);
        let specs = [
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            AcceleratorSpec::scnn(),
            throttled,
        ];
        let tilings = [
            None,
            Some(TemporalMapping::natural(TilingOrder::WeightOuter)),
            Some(TemporalMapping {
                order: TilingOrder::ActivationOuter,
                tile_factor: 4,
            }),
        ];
        for spec in &specs {
            for layer in net.layers.iter().take(6) {
                let profile = layer_profile(layer);
                let heuristic = select_spatial_unrolling(layer, &spec.su_set).unwrap();
                // One SU part and one traffic part serve every tiling and
                // memory point.
                let su = SuCost::of(
                    spec,
                    layer,
                    &heuristic.su,
                    heuristic.effective_macs_per_cycle,
                    &profile,
                    &energy,
                );
                let traffic = LayerTraffic::of(spec, layer, &profile);
                for temporal in tilings {
                    let decision = bitwave_dataflow::MappingDecision {
                        temporal,
                        ..heuristic.clone()
                    };
                    for mem in [&roomy, &starved] {
                        let full = evaluate_layer_with_mapping(
                            spec, layer, &decision, &profile, mem, &energy,
                        );
                        let priced = traffic.price(spec, temporal, mem, &energy);
                        let repriced = su.reprice(&priced);
                        assert_eq!(
                            full.total_cycles.to_bits(),
                            su.total_cycles(&priced).to_bits(),
                            "{} / {}",
                            spec.label,
                            layer.name
                        );
                        assert_eq!(full.dram_cycles.to_bits(), repriced.dram_cycles.to_bits());
                        assert_eq!(
                            full.energy.total_pj().to_bits(),
                            su.energy(&priced).total_pj().to_bits()
                        );
                        assert_eq!(full.boundedness, repriced.boundedness);
                    }
                }
            }
        }
    }

    #[test]
    fn bits_per_mac_class_tracks_the_statistic_branch() {
        let bitwave = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        assert_eq!(bits_per_mac_class(&bitwave), "bit-column/synced");
        let mut unsynced = bitwave.clone();
        unsynced.sync_lanes = 1;
        assert_eq!(bits_per_mac_class(&unsynced), "bit-column/mean");
        assert_eq!(
            bits_per_mac_class(&AcceleratorSpec::dense()),
            "bit-column/dense"
        );
        // Two sync granularities above 1 share one class: the compute part
        // reads the same profile statistic either way.
        let mut s8 = bitwave.clone();
        s8.sync_lanes = 8;
        let mut s16 = bitwave;
        s16.sync_lanes = 16;
        assert_eq!(bits_per_mac_class(&s8), bits_per_mac_class(&s16));
    }

    #[test]
    fn mismatched_profile_count_is_a_typed_error() {
        use std::error::Error;
        let net = resnet18();
        let err = evaluate_network(
            &AcceleratorSpec::dense(),
            &net,
            &[],
            &MemoryHierarchy::bitwave_default(),
            &EnergyModel::finfet_16nm(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            NetworkError::MisalignedProfiles {
                layers: net.layers.len(),
                profiles: 0,
            }
        );
        assert!(err.to_string().contains("0 profiles"));
        assert!(err.source().is_none());
        let mapping: NetworkError = MappingError::EmptySuSet {
            set: "X".to_string(),
        }
        .into();
        assert!(mapping.to_string().contains("mapping error"));
        assert!(mapping.source().is_some());
    }
}
