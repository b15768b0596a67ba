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
//!    and combines them with the compute cycles following Eq. 5: compute and
//!    on-chip transfers overlap and the output write-back adds on top; the
//!    DRAM traffic ([`bitwave_dataflow::DramFetches`] per operand) adds
//!    `bytes × 8 / dram_word_bits` cycles under the unconstrained tier, or
//!    sets the per-layer roofline `max(compute, dram)` under a constrained
//!    one,
//! 4. prices every remaining operation with the unit energies of Eq. 4.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::sparsity::LayerSparsityProfile;
use crate::spec::{AcceleratorSpec, PeStyle, WeightCompression};
use bitwave_dataflow::{
    ActivityCounts, DramFetches, MemoryBoundedness, MemoryHierarchy, SpatialUnrolling,
    TemporalMapping,
};
use bitwave_dnn::layer::LayerSpec;

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
    /// The DRAM fetch counts under a constrained tier (the roofline verdict
    /// reports them); `None` when unconstrained.
    fetches: Option<DramFetches>,
    sram_fill_pj: f64,
    dram_pj: f64,
}

/// One layer's Eq. 1–5 outcome: an [`SuCost`] composed with its
/// [`PricedTraffic`].
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
        let activity = ActivityCounts::of(layer, su);

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
            boundedness: traffic.fetches.map(|fetches| {
                MemoryBoundedness::from_roofline(
                    self.compute_side_cycles,
                    traffic.dram_cycles,
                    traffic.dram_bytes,
                    fetches.weight,
                    fetches.act,
                )
            }),
        }
    }

    /// Whether this SU part at `utilization` **covers** `other` at
    /// `other_utilization`: it is no worse on every field a candidate's
    /// total cycles and energy read (`compute_side_cycles`, `compute_pj`,
    /// `sram_read_pj`, `register_pj`), at least as well utilised, and
    /// finite.  [`Self::total_cycles`] is a `max` or `+` of
    /// `compute_side_cycles` with the DRAM cycles, [`Self::energy`] a
    /// fixed-order sum of the other three with the traffic terms, and EDP
    /// their product; under IEEE round-to-nearest each is monotone
    /// non-decreasing in non-negative operands.  So under every
    /// [`PricedTraffic`] the covering part's EDP is at most `other`'s at no
    /// lower utilisation, and `other` can never be the *first* row with the
    /// minimum `(EDP, −utilisation)` when the covering part is enumerated
    /// before it.  A part with a NaN field covers nothing and is covered by
    /// nothing (every comparison with NaN fails).
    pub fn covers(&self, utilization: f64, other: &SuCost, other_utilization: f64) -> bool {
        let (mine, theirs) = (self.covered_fields(), other.covered_fields());
        utilization >= other_utilization
            && self.can_cover()
            && mine.iter().zip(&theirs).all(|(a, b)| a <= b)
    }

    /// Whether every field [`Self::covers`] compares is finite: only such a
    /// part covers anything.
    pub fn can_cover(&self) -> bool {
        self.covered_fields().iter().all(|v| v.is_finite())
    }

    fn covered_fields(&self) -> [f64; 4] {
        [
            self.compute_side_cycles,
            self.compute_pj,
            self.sram_read_pj,
            self.register_pj,
        ]
    }

    /// The bit patterns of every field, in declaration order: two parts
    /// with equal bits price every traffic identically, NaN fields
    /// included.
    pub fn to_bits(&self) -> [u64; 6] {
        [
            self.effective_macs,
            self.compute_cycles,
            self.compute_side_cycles,
            self.compute_pj,
            self.register_pj,
            self.sram_read_pj,
        ]
        .map(f64::to_bits)
    }
}

/// What [`SuCost::of`] reads from one spatial unrolling of a layer, beyond
/// the layer itself, when its lanes are the SU's parallelism times its
/// utilisation (as the design-space search prices every SU part): that
/// utilisation, the parallelism, and the spatial reuse of input and weight
/// SRAM reads ([`SpatialUnrolling::input_reuse`] and
/// [`SpatialUnrolling::weight_reuse`], which [`ActivityCounts::of`]
/// divides by).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuShape {
    utilization: f64,
    parallelism: usize,
    input_reuse: u64,
    weight_reuse: u64,
}

impl SuShape {
    /// The shape of `su` at `utilization` (its utilisation on the layer).
    pub fn of(su: &SpatialUnrolling, utilization: f64) -> Self {
        Self {
            utilization,
            parallelism: su.parallelism(),
            input_reuse: su.input_reuse(),
            weight_reuse: su.weight_reuse(),
        }
    }

    /// Whether this shape is at least as well utilised, as parallel and as
    /// reusing on both SRAM reads as `other`.  Then, for one layer, its
    /// [`SuCost`] is no worse than `other`'s on every field
    /// [`SuCost::covers`] compares, under every accelerator spec, every
    /// non-negative energy table and every profile whose statistics are
    /// non-negative with value sparsities at most 1 (every profile built
    /// from weights):
    ///
    /// * the compute cycles are `macs × bits ÷ max(lanes, 1)` with lanes
    ///   `parallelism × utilisation`, the SRAM reads `macs ÷ reuse` scaled
    ///   by non-negative factors and the register cycles
    ///   `reads ÷ parallelism`, each non-increasing in these four values
    ///   under IEEE rounding, and the compute-side cycles and SRAM-read
    ///   energy are sums and maxima of them;
    /// * the compute and register energies are the same expression for
    ///   every SU of the layer.
    ///
    /// So this shape's part [covers](SuCost::covers) `other`'s whenever its
    /// own fields are finite ([`SuCost::can_cover`]), and a covering prune
    /// can drop `other` before pricing it.
    pub fn covers(&self, other: &SuShape) -> bool {
        self.utilization >= other.utilization
            && self.parallelism >= other.parallelism
            && self.input_reuse >= other.input_reuse
            && self.weight_reuse >= other.weight_reuse
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

    /// Prices the layer's traffic under `temporal` (`None`: the cheapest
    /// natural order), a concrete memory hierarchy and `spec.dram`: the
    /// per-operand DRAM fetches, the DRAM cycles and the traffic-dependent
    /// energy terms.
    pub fn price(
        &self,
        spec: &AcceleratorSpec,
        temporal: Option<TemporalMapping>,
        memory: &MemoryHierarchy,
        energy_model: &EnergyModel,
    ) -> PricedTraffic {
        let fetches = DramFetches::of(
            self.weight_count,
            self.input_count,
            self.output_count,
            memory,
            temporal,
        );
        let dram_read_act = self.input_count * fetches.act;
        // The weight stream and the weight-SRAM fill it feeds are both
        // compressed.
        let dram_read_weight_e = (self.weight_count * fetches.weight) as f64 / self.weight_cr;

        let dram_bytes = dram_read_act as f64 + dram_read_weight_e + self.output_count as f64;
        let dram_cycles = if spec.dram.is_constrained() {
            spec.dram.cycles_for_bytes(dram_bytes)
        } else {
            dram_bytes * 8.0 / memory.dram_word_bits as f64
        };

        // The input-SRAM fill mirrors the activation DRAM reads, the
        // weight-SRAM fill the compressed weight reads, and the output
        // write-back is invariant.
        PricedTraffic {
            dram_bytes,
            dram_cycles,
            fetches: spec.dram.is_constrained().then_some(fetches),
            sram_fill_pj: (dram_read_act as f64 + dram_read_weight_e + self.output_count as f64)
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
) -> RepricedLayerCost {
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
    su.reprice(&traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BitwaveOptimizations;
    use bitwave_core::group::GroupSize;
    use bitwave_dataflow::mapping::select_spatial_unrolling;
    use bitwave_dnn::models::{resnet18, NetworkSpec};
    use bitwave_dnn::weights::generate_layer_sample;

    fn layer_profile(layer: &LayerSpec) -> LayerSparsityProfile {
        let w = generate_layer_sample(layer, 3, 40_000);
        LayerSparsityProfile::from_weights(&w, layer.expected_activation_sparsity(), GroupSize::G8)
            .unwrap()
    }

    fn resnet_profiles(net: &NetworkSpec) -> Vec<LayerSparsityProfile> {
        net.layers.iter().map(layer_profile).collect()
    }

    /// One layer under the Fig. 9 heuristic's pick from `spec`'s SU set.
    fn heuristic_layer(
        spec: &AcceleratorSpec,
        layer: &LayerSpec,
        profile: &LayerSparsityProfile,
    ) -> RepricedLayerCost {
        let decision = select_spatial_unrolling(layer, &spec.su_set).unwrap();
        evaluate_layer_with_mapping(
            spec,
            layer,
            &decision,
            profile,
            &MemoryHierarchy::bitwave_default(),
            &EnergyModel::finfet_16nm(),
        )
    }

    /// Every layer of a network under the heuristic, summed in layer order.
    struct NetworkTotals {
        layers: Vec<RepricedLayerCost>,
        total_cycles: f64,
        energy: EnergyBreakdown,
        effective_macs: f64,
    }

    impl NetworkTotals {
        fn of(
            spec: &AcceleratorSpec,
            net: &NetworkSpec,
            profiles: &[LayerSparsityProfile],
        ) -> Self {
            let layers: Vec<RepricedLayerCost> = net
                .layers
                .iter()
                .zip(profiles)
                .map(|(layer, profile)| heuristic_layer(spec, layer, profile))
                .collect();
            Self {
                total_cycles: layers.iter().map(|l| l.total_cycles).sum(),
                energy: layers.iter().fold(EnergyBreakdown::default(), |acc, l| {
                    acc.accumulate(&l.energy)
                }),
                effective_macs: layers.iter().map(|l| l.effective_macs).sum(),
                layers,
            }
        }

        /// Useful operations (2 per effective MAC) per picojoule.
        fn ops_per_pj(&self) -> f64 {
            2.0 * self.effective_macs / self.energy.total_pj()
        }
    }

    #[test]
    fn bitwave_sm_beats_dense_on_sparse_layers() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let dense = heuristic_layer(&AcceleratorSpec::dense(), layer, &profile);
        let bitwave = heuristic_layer(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            layer,
            &profile,
        );
        assert!(bitwave.total_cycles < dense.total_cycles);
        assert!(bitwave.energy.total_pj() < dense.energy.total_pj());
    }

    #[test]
    fn dense_profile_neutralises_sparsity_advantages() {
        let net = resnet18();
        let layer = net.layer("layer2.0.conv1").unwrap();
        let dense_profile = LayerSparsityProfile::dense(8);
        let stripes = heuristic_layer(&AcceleratorSpec::stripes(), layer, &dense_profile);
        let pragmatic = heuristic_layer(&AcceleratorSpec::pragmatic(), layer, &dense_profile);
        // With zero bit sparsity Pragmatic degenerates to Stripes.
        assert!((stripes.compute_cycles - pragmatic.compute_cycles).abs() < 1e-6);
    }

    #[test]
    fn network_evaluation_aggregates_layers() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let result = NetworkTotals::of(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &profiles,
        );
        assert_eq!(result.layers.len(), net.layers.len());
        assert!(result.layers.iter().all(|l| l.total_cycles > 0.0));
        // Value-sparsity skipping is off on BitWave: every MAC is effective.
        assert_eq!(result.effective_macs, net.total_macs() as f64);
        assert!(result.ops_per_pj() > 0.0);
    }

    #[test]
    fn figure13_breakdown_is_monotonic_for_resnet() {
        // Dense -> +DF -> +SM must be monotonically faster (BF is exercised in
        // the facade where flipped weights are available).
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let cycles = |spec: AcceleratorSpec| NetworkTotals::of(&spec, &net, &profiles).total_cycles;
        let dense = cycles(AcceleratorSpec::dense());
        let df = cycles(AcceleratorSpec::bitwave(
            BitwaveOptimizations::dataflow_only(),
        ));
        let df_sm = cycles(AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_sm()));
        assert!(dense / df >= 1.0);
        assert!(dense / df_sm > dense / df);
        assert!(dense / df_sm > 1.2);
    }

    #[test]
    fn bitwave_outperforms_sota_set_on_resnet() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let specs = AcceleratorSpec::sota_comparison_set();
        let results: Vec<NetworkTotals> = specs
            .iter()
            .map(|spec| NetworkTotals::of(spec, &net, &profiles))
            .collect();
        let bitwave = results.last().unwrap();
        assert_eq!(specs.last().unwrap().label, "BitWave+DF+SM+BF");
        for (other, spec) in results.iter().zip(&specs).take(results.len() - 1) {
            assert!(
                bitwave.total_cycles <= other.total_cycles * 1.001,
                "BitWave ({:.3e} cycles) should not lose to {} ({:.3e})",
                bitwave.total_cycles,
                spec.label,
                other.total_cycles
            );
            assert!(
                bitwave.energy.total_pj() <= other.energy.total_pj(),
                "BitWave should not use more energy than {}",
                spec.label
            );
        }
    }

    #[test]
    fn speedup_and_efficiency_helpers_are_reciprocal() {
        let net = resnet18();
        let profiles = resnet_profiles(&net);
        let a = NetworkTotals::of(&AcceleratorSpec::scnn(), &net, &profiles);
        let b = NetworkTotals::of(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            &net,
            &profiles,
        );
        let speedup = a.total_cycles / b.total_cycles;
        assert!((b.total_cycles / a.total_cycles - 1.0 / speedup).abs() < 1e-12);
        assert!(b.energy.total_pj() / a.energy.total_pj() <= 1.0);
        assert!(b.ops_per_pj() / a.ops_per_pj() >= 1.0);
    }

    #[test]
    fn unconstrained_dram_totals_are_additive_and_unreported() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let result = heuristic_layer(&spec, layer, &profile);
        assert!(result.boundedness.is_none());
        assert!(result.total_cycles > result.dram_cycles);
        assert!(result.total_cycles > result.compute_cycles);
    }

    #[test]
    fn unconstrained_dram_cycles_follow_the_dram_word_width() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let decision = select_spatial_unrolling(layer, &spec.su_set).unwrap();
        let energy = EnergyModel::finfet_16nm();
        let run = |dram_word_bits| {
            let memory = MemoryHierarchy {
                dram_word_bits,
                ..MemoryHierarchy::bitwave_default()
            };
            evaluate_layer_with_mapping(&spec, layer, &decision, &profile, &memory, &energy)
        };
        let narrow = run(64);
        let wide = run(128);
        assert!(narrow.dram_cycles > 0.0);
        // A 128-bit word moves the same bytes in half the cycles, and the
        // additive Eq. 5 total drops by exactly that much.
        assert_eq!(wide.dram_cycles, narrow.dram_cycles / 2.0);
        let saved = narrow.total_cycles - wide.total_cycles;
        assert!((saved - narrow.dram_cycles / 2.0).abs() < 1e-6 * narrow.total_cycles);
        assert_eq!(wide.energy, narrow.energy);
    }

    #[test]
    fn constrained_boundedness_reports_the_fetch_counts() {
        let energy = EnergyModel::finfet_16nm();
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.dram = bitwave_dataflow::DramSpec::constrained(64);
        let roomy = MemoryHierarchy::bitwave_default();
        let starved = MemoryHierarchy {
            weight_sram_bytes: 16 * 1024,
            activation_sram_bytes: 16 * 1024,
            ..roomy
        };
        let mut refetched = 0;
        for net in [resnet18(), bitwave_dnn::models::bert_base()] {
            for layer in &net.layers {
                let w = generate_layer_sample(layer, 3, 4_000);
                let profile = LayerSparsityProfile::from_weights(&w, 0.5, GroupSize::G8).unwrap();
                let cr = weight_compression_ratio(&spec, &profile);
                let decision = select_spatial_unrolling(layer, &spec.su_set).unwrap();
                let d = &layer.dims;
                let (wc, ic, oc) = (d.weight_count(), d.input_count(), d.output_count());
                for memory in [&roomy, &starved] {
                    let fetches = DramFetches::of(wc, ic, oc, memory, decision.temporal);
                    let result = evaluate_layer_with_mapping(
                        &spec, layer, &decision, &profile, memory, &energy,
                    );
                    let b = result.boundedness.expect("constrained tier reports");
                    assert_eq!(
                        (b.weight_fetches, b.act_fetches),
                        (fetches.weight, fetches.act),
                        "{}",
                        layer.name
                    );
                    let bytes =
                        (ic * fetches.act) as f64 + (wc * fetches.weight) as f64 / cr + oc as f64;
                    assert_eq!(b.dram_bytes.to_bits(), bytes.to_bits(), "{}", layer.name);
                    refetched += usize::from(fetches.weight > 1 || fetches.act > 1);
                }
            }
        }
        assert!(refetched > 0, "the 16 KiB SRAM forces refetches");
    }

    #[test]
    fn generous_constrained_dram_reduces_to_compute_side() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.dram = bitwave_dataflow::DramSpec::constrained(1 << 30);
        let result = heuristic_layer(&spec, layer, &profile);
        let boundedness = result
            .boundedness
            .expect("constrained tier reports verdict");
        assert!(!boundedness.memory_bound);
        assert!((result.total_cycles - boundedness.compute_side_cycles).abs() < 1e-9);
        assert_eq!(boundedness.dram_stall_cycles, 0.0);
        assert_eq!(boundedness.dram_stall_fraction, 0.0);
        // The roofline's compute side equals the legacy total minus its
        // additive DRAM term.
        let legacy = heuristic_layer(
            &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            layer,
            &profile,
        );
        let legacy_compute_side = legacy.total_cycles - legacy.dram_cycles;
        assert!((boundedness.compute_side_cycles - legacy_compute_side).abs() < 1e-6);
    }

    #[test]
    fn starved_dram_makes_the_layer_memory_bound() {
        let net = resnet18();
        let layer = net.layer("layer3.0.conv1").unwrap();
        let profile = layer_profile(layer);
        let mut spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        spec.dram = bitwave_dataflow::DramSpec::constrained(1);
        let result = heuristic_layer(&spec, layer, &profile);
        let boundedness = result
            .boundedness
            .expect("constrained tier reports verdict");
        assert!(boundedness.memory_bound);
        assert!((result.total_cycles - boundedness.dram_cycles).abs() < 1e-9);
        assert!(boundedness.dram_stall_fraction > 0.5);
        assert!(boundedness.weight_fetches >= 1);
        assert!(boundedness.act_fetches >= 1);
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

    /// An SU part with the given `[compute_side_cycles, compute_pj,
    /// sram_read_pj, register_pj]`.
    fn su_part([cycles, compute_pj, sram_read_pj, register_pj]: [f64; 4]) -> SuCost {
        SuCost {
            effective_macs: 1.0,
            compute_cycles: cycles,
            compute_side_cycles: cycles,
            compute_pj,
            register_pj,
            sram_read_pj,
        }
    }

    /// One resnet18 layer's traffic priced under the unconstrained and a
    /// constrained DRAM tier.
    fn priced_traffics() -> [PricedTraffic; 2] {
        let layer = &resnet18().layers[1];
        let profile = layer_profile(layer);
        let energy = EnergyModel::finfet_16nm();
        let memory = MemoryHierarchy::bitwave_default();
        let mut throttled = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        throttled.dram = bitwave_dataflow::DramSpec::constrained(32);
        [
            AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            throttled,
        ]
        .map(|spec| LayerTraffic::of(&spec, layer, &profile).price(&spec, None, &memory, &energy))
    }

    fn edp(su: &SuCost, traffic: &PricedTraffic) -> f64 {
        su.total_cycles(traffic) * su.energy(traffic).total_pj()
    }

    #[test]
    fn equal_su_parts_cover_each_other() {
        let a = su_part([100.0, 5.0, 3.0, 2.0]);
        assert!(a.covers(0.5, &a, 0.5));
        assert!(a.covers(0.75, &a, 0.5), "higher utilisation still covers");
        // Any one field worse is enough to stop covering.
        for field in 0..4 {
            let mut fields = [100.0, 5.0, 3.0, 2.0];
            fields[field] *= 1.5;
            let worse = su_part(fields);
            assert!(a.covers(0.5, &worse, 0.5), "field {field}");
            assert!(!worse.covers(0.5, &a, 0.5), "field {field}");
        }
    }

    #[test]
    fn a_better_utilised_equal_part_is_not_covered_and_wins_the_edp_tie() {
        let earlier = su_part([100.0, 5.0, 3.0, 2.0]);
        let later = earlier;
        assert!(!earlier.covers(0.5, &later, 1.0));
        assert!(later.covers(1.0, &earlier, 0.5));
        // Same EDP under every traffic, so the min-EDP order breaks the tie
        // on utilisation: the later part must stay to win it.
        for traffic in priced_traffics() {
            assert_eq!(
                edp(&earlier, &traffic).to_bits(),
                edp(&later, &traffic).to_bits()
            );
        }
    }

    #[test]
    fn a_part_with_a_nan_field_covers_nothing_and_is_never_covered() {
        let good = su_part([100.0, 5.0, 3.0, 2.0]);
        for field in 0..4 {
            let mut fields = [100.0, 5.0, 3.0, 2.0];
            fields[field] = f64::NAN;
            let nan = su_part(fields);
            assert!(!nan.covers(0.5, &good, 0.5), "field {field}");
            assert!(!good.covers(0.5, &nan, 0.5), "field {field}");
            assert!(!nan.covers(0.5, &nan, 0.5), "field {field}");
        }
        assert!(!good.covers(f64::NAN, &good, 0.5));
        assert!(!good.covers(0.5, &good, f64::NAN));
        // An infinite field cannot cover either: `inf × 0` would be NaN.
        let infinite = su_part([f64::INFINITY, 5.0, 3.0, 2.0]);
        assert!(!infinite.covers(0.5, &infinite, 0.5));
        assert!(good.covers(0.5, &infinite, 0.5));
    }

    #[test]
    fn a_covering_part_is_never_worse_under_real_traffic() {
        // Every pair of Table I SU parts on the first resnet18 layers: when
        // one covers the other, its cycles, energy and EDP are no higher
        // under both DRAM tiers.
        let spec = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
        let energy = EnergyModel::finfet_16nm();
        let traffics = priced_traffics();
        let mut covered = 0;
        for layer in resnet18().layers.iter().take(8) {
            let profile = layer_profile(layer);
            let parts: Vec<(SuCost, f64)> = spec
                .su_set
                .options
                .iter()
                .map(|su| {
                    let utilization = su.utilization_for(layer);
                    let lanes = su.parallelism() as f64 * utilization;
                    (
                        SuCost::of(&spec, layer, su, lanes, &profile, &energy),
                        utilization,
                    )
                })
                .collect();
            for (i, (a, ua)) in parts.iter().enumerate() {
                for (j, (b, ub)) in parts.iter().enumerate() {
                    if !a.covers(*ua, b, *ub) {
                        continue;
                    }
                    covered += usize::from(i != j);
                    for traffic in &traffics {
                        assert!(a.total_cycles(traffic) <= b.total_cycles(traffic));
                        assert!(a.energy(traffic).total_pj() <= b.energy(traffic).total_pj());
                        assert!(edp(a, traffic) <= edp(b, traffic));
                    }
                }
            }
        }
        assert!(covered > 0);
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
}
