//! The four typed stages of the layer pipeline.
//!
//! Each stage is a plain struct implementing [`PipelineStage`]: it consumes
//! the previous stage's typed output and produces its own, so the
//! compress → bit-flip → map → simulate chain is checked by the type system
//! and every intermediate is inspectable by experiment drivers that only
//! need a prefix of the chain (e.g. the Fig. 5 compression sweeps stop after
//! [`CompressStage`]).
//!
//! The chain performs its per-tensor analysis **once**: the compress stage
//! extracts the weight groups a single time and packs them into a
//! [`BitplaneTensor`], reducing every count the statistics, the BCS
//! accounting and the accelerator profile read in that same pass over the
//! plane words.  It hands the planes forward so the bit-flip stage can build
//! the accelerator-facing [`bitwave_accel::LayerAnalysis`] without
//! re-grouping, re-packing or re-compressing the unflipped tensor.  For a
//! layer with a Bit-Flip target it also hands forward the extracted groups:
//! the bit-flip stage flips them in place, packs the flipped groups straight
//! into the planes of the post-flip analysis, and reassembles the tensor
//! only for the weight handle it passes on.
//!
//! Two passes only baselines read stay deferred inside the analysis until a
//! simulation of such a machine asks for them: the two's-complement bit
//! counts (Pragmatic and Bitlet price their bit-serial cycles with them) and
//! the ZRE/CSR value-codec ratios (SCNN).  A BitWave run resolves neither.

use crate::error::Result;
use crate::pipeline::job::LayerJob;
use crate::pipeline::report::{
    BitFlipSummary, CompressionSummary, LayerReport, MappingSummary, SimulationSummary,
};
use bitwave_accel::model::evaluate_layer_with_mapping;
use bitwave_accel::{AcceleratorSpec, EnergyModel, LayerAnalysis};
use bitwave_core::bitflip::flip_groups;
use bitwave_core::group::{extract_groups, reassemble_tensor, Groups};
use bitwave_core::stats::{LayerSparsityStats, PackedAnalysis};
use bitwave_dataflow::mapping::{select_spatial_unrolling, MappingDecision, MappingPolicy};
use bitwave_dataflow::MemoryHierarchy;
use bitwave_dse::DseEngine;
use bitwave_tensor::bitplane::BitplaneTensor;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::handle::WeightHandle;

/// One typed stage of the pipeline.
pub trait PipelineStage {
    /// The stage's input.
    type Input;
    /// The stage's output.
    type Output;

    /// Short stage name for diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Propagates any substrate error as [`crate::BitwaveError`].
    fn run(&self, input: Self::Input) -> Result<Self::Output>;
}

/// Compresses a layer's weights with sign-magnitude BCS and records its
/// sparsity statistics.
#[derive(Debug, Clone, Copy)]
pub struct CompressStage {
    /// Bit encoding used for column statistics and compression.
    pub encoding: Encoding,
}

impl CompressStage {
    /// Creates the stage with the given encoding.
    pub fn new(encoding: Encoding) -> Self {
        Self { encoding }
    }
}

/// Output of [`CompressStage`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedLayer {
    /// The job being processed (weights still unmodified).
    pub job: LayerJob,
    /// Sparsity statistics of the weights.
    pub sparsity: LayerSparsityStats,
    /// Lossless BCS size accounting under the stage's encoding.
    pub compression: CompressionSummary,
    /// The bitplane-packed weight groups, packed (once) by the compress
    /// stage; the bit-flip stage reuses them to build the accelerator
    /// analysis instead of re-grouping or re-packing the tensor.
    pub planes: BitplaneTensor,
    /// The extracted (unflipped) weight groups, kept only for a job with a
    /// Bit-Flip target: the bit-flip stage flips them in place instead of
    /// extracting the tensor a second time.
    pub groups: Option<Groups>,
}

impl PipelineStage for CompressStage {
    type Input = LayerJob;
    type Output = CompressedLayer;

    fn name(&self) -> &'static str {
        "compress"
    }

    fn run(&self, job: LayerJob) -> Result<CompressedLayer> {
        // The single group-extraction and bitplane-packing pass of the
        // chain: statistics and BCS accounting both read the counts reduced
        // while packing, and the planes travel downstream.  The payload
        // never materialises: the BCS sizes count stored columns.
        let groups = extract_groups(&job.weights, job.group_size)?;
        let PackedAnalysis {
            planes,
            stats: sparsity,
            bcs,
        } = PackedAnalysis::from_groups(&groups, self.encoding);
        let compression = CompressionSummary::from_sizes(&bcs, job.group_size.len());
        let groups = (job.zero_column_target != 0).then_some(groups);
        Ok(CompressedLayer {
            job,
            sparsity,
            compression,
            planes,
            groups,
        })
    }
}

/// Applies the job's zero-column Bit-Flip target (no-op at target 0): flips
/// the layer's weight groups in place and packs the flipped groups once for
/// the post-flip BCS accounting, statistics and accelerator analysis.
#[derive(Debug, Clone, Copy)]
pub struct BitFlipStage {
    /// Bit encoding the flip optimises for.
    pub encoding: Encoding,
}

impl BitFlipStage {
    /// Creates the stage with the given encoding.
    pub fn new(encoding: Encoding) -> Self {
        Self { encoding }
    }
}

/// Output of [`BitFlipStage`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlippedLayer {
    /// The job, with `weights` replaced by the flipped tensor when a flip
    /// was applied.
    pub job: LayerJob,
    /// Sparsity statistics of the pre-flip weights.
    pub sparsity: LayerSparsityStats,
    /// Lossless (pre-flip) compression accounting.
    pub compression: CompressionSummary,
    /// Flip outcome, `None` when the target was 0.
    pub bitflip: Option<BitFlipSummary>,
    /// Shared sparsity analysis of the *final* (possibly flipped) weights,
    /// built once from the stages' own group extraction so the simulate
    /// stage can be re-run for many accelerators without re-analysing the
    /// same tensor; its ZRE/CSR value-codec ratios stay lazy until a
    /// value-sparsity baseline reads them.
    pub analysis: LayerAnalysis,
}

impl PipelineStage for BitFlipStage {
    type Input = CompressedLayer;
    type Output = FlippedLayer;

    fn name(&self) -> &'static str {
        "bit-flip"
    }

    fn run(&self, input: CompressedLayer) -> Result<FlippedLayer> {
        let CompressedLayer {
            mut job,
            sparsity,
            compression,
            planes,
            groups,
        } = input;
        let act = job.layer.expected_activation_sparsity();
        let (bitflip, analysis) = if job.zero_column_target == 0 {
            // Unflipped path: everything the analysis needs — statistics
            // and the planes with their counts — was already computed by
            // the compress stage, so nothing is re-derived here.
            let analysis =
                LayerAnalysis::from_shared_parts(job.weights.clone(), act, &sparsity, &planes);
            (None, analysis)
        } else {
            // One pass in the group layout: the compress stage's groups are
            // flipped in place and packed as they are (under this stage's
            // own encoding), and the tensor is reassembled only for the
            // job's weight handle.
            let mut groups = match groups {
                Some(groups) => groups,
                None => extract_groups(&job.weights, job.group_size)?,
            };
            let stats = flip_groups(&mut groups, job.zero_column_target, self.encoding)?;
            let packed = PackedAnalysis::from_groups(&groups, self.encoding);
            let flipped = reassemble_tensor(&job.weights, &groups)?;
            let compression_after =
                CompressionSummary::from_sizes(&packed.bcs, job.group_size.len());
            let handle = WeightHandle::new(flipped);
            job.weights = handle.clone();
            let analysis =
                LayerAnalysis::from_shared_parts(handle, act, &packed.stats, &packed.planes);
            (
                Some(BitFlipSummary {
                    zero_column_target: job.zero_column_target,
                    groups: stats.groups,
                    groups_modified: stats.groups_modified,
                    rms_perturbation: stats.rms_perturbation,
                    mean_zero_columns: stats.mean_zero_columns,
                    compression_after,
                }),
                analysis,
            )
        };
        Ok(FlippedLayer {
            job,
            sparsity,
            compression,
            bitflip,
            analysis,
        })
    }
}

/// Selects the spatial unrolling for the layer: the Fig. 9 heuristic over
/// the accelerator's SU set ([`MappingPolicy::Heuristic`], the default) or
/// the `bitwave-dse` design-space search
/// ([`MappingPolicy::Searched`]), which enumerates SU factorizations, loop
/// orders and tile sizes and picks the minimum-EDP mapping for the layer's
/// sparsity profile.
#[derive(Debug, Clone)]
pub struct MapStage {
    /// The accelerator whose SU set / lane budget is searched.
    pub accelerator: AcceleratorSpec,
    /// The selection policy.
    pub policy: MappingPolicy,
    /// Memory hierarchy the searched cost model evaluates against.
    pub memory: MemoryHierarchy,
    /// Unit-energy model the searched cost model evaluates against.
    pub energy: EnergyModel,
}

impl MapStage {
    /// Creates the stage for an accelerator with the heuristic policy and
    /// the paper-default cost tables.
    pub fn new(accelerator: AcceleratorSpec) -> Self {
        Self {
            accelerator,
            policy: MappingPolicy::default(),
            memory: MemoryHierarchy::bitwave_default(),
            energy: EnergyModel::finfet_16nm(),
        }
    }

    /// Overrides the selection policy (builder style).
    pub fn with_policy(mut self, policy: MappingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the cost tables the searched policy evaluates against
    /// (builder style).
    pub fn with_cost_tables(mut self, memory: MemoryHierarchy, energy: EnergyModel) -> Self {
        self.memory = memory;
        self.energy = energy;
        self
    }

    /// The mapping decision for one analysed layer.  The heuristic reads only
    /// the loop nest; the searched policy is sparsity-adaptive and keys its
    /// search on [`LayerAnalysis::keyed_profile`], so a heuristic run
    /// resolves none of the analysis' lazy passes.
    ///
    /// # Errors
    ///
    /// [`crate::BitwaveError::Mapping`] for an empty SU set or degenerate
    /// layer, [`crate::BitwaveError::Dse`] when the search itself fails.
    pub fn decide_for(
        &self,
        layer: &bitwave_dnn::layer::LayerSpec,
        analysis: &LayerAnalysis,
    ) -> Result<MappingDecision> {
        self.decide_with(layer, || analysis.keyed_profile(&self.accelerator))
    }

    /// The mapping decision for one layer without weights.  The heuristic
    /// needs only the loop nest; the searched policy falls back to a dense
    /// (sparsity-free) profile, so weight-free mapping sweeps stay possible.
    ///
    /// # Errors
    ///
    /// See [`MapStage::decide_for`].
    pub fn decide(&self, layer: &bitwave_dnn::layer::LayerSpec) -> Result<MappingDecision> {
        self.decide_with(layer, || bitwave_accel::LayerSparsityProfile::dense(8))
    }

    fn decide_with(
        &self,
        layer: &bitwave_dnn::layer::LayerSpec,
        profile: impl FnOnce() -> bitwave_accel::LayerSparsityProfile,
    ) -> Result<MappingDecision> {
        match self.policy {
            MappingPolicy::Heuristic => {
                Ok(select_spatial_unrolling(layer, &self.accelerator.su_set)?)
            }
            MappingPolicy::Searched => {
                let result = DseEngine::new(self.memory, self.energy).search_layer(
                    &self.accelerator,
                    layer,
                    &profile(),
                )?;
                Ok(result.winner.to_decision(&layer.name))
            }
        }
    }
}

/// Output of [`MapStage`].
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// The (possibly flipped) job.
    pub job: LayerJob,
    /// Sparsity statistics of the pre-flip weights.
    pub sparsity: LayerSparsityStats,
    /// Lossless (pre-flip) compression accounting.
    pub compression: CompressionSummary,
    /// Flip outcome, `None` when the target was 0.
    pub bitflip: Option<BitFlipSummary>,
    /// Shared sparsity analysis of the final weights (from the bit-flip
    /// stage).
    pub analysis: LayerAnalysis,
    /// The full mapping decision, consumed by the simulate stage.
    pub decision: MappingDecision,
}

impl PipelineStage for MapStage {
    type Input = FlippedLayer;
    type Output = MappedLayer;

    fn name(&self) -> &'static str {
        "map"
    }

    fn run(&self, input: FlippedLayer) -> Result<MappedLayer> {
        let decision = self.decide_for(&input.job.layer, &input.analysis)?;
        Ok(MappedLayer {
            job: input.job,
            sparsity: input.sparsity,
            compression: input.compression,
            bitflip: input.bitflip,
            analysis: input.analysis,
            decision,
        })
    }
}

/// Evaluates the mapped layer on the accelerator's analytical performance and
/// energy model (Eqs. 1–5 of the paper).
#[derive(Debug, Clone)]
pub struct SimulateStage {
    /// The accelerator model to evaluate on.
    pub accelerator: AcceleratorSpec,
    /// Memory hierarchy shared by all modelled accelerators.
    pub memory: MemoryHierarchy,
    /// Unit-energy model.
    pub energy: EnergyModel,
}

impl SimulateStage {
    /// Creates the stage.
    pub fn new(accelerator: AcceleratorSpec, memory: MemoryHierarchy, energy: EnergyModel) -> Self {
        Self {
            accelerator,
            memory,
            energy,
        }
    }

    /// Evaluates a prepared layer under a mapping decision **by reference** —
    /// neither stage reads the weight tensor, so multi-accelerator sweeps can
    /// share one prepared layer set without cloning tensors.  The profile is
    /// picked per accelerator ([`LayerAnalysis::profile_for`]): only the
    /// machines that read a lazy pass trigger it.
    pub fn evaluate(&self, input: &FlippedLayer, decision: &MappingDecision) -> LayerReport {
        let job = &input.job;
        let result = evaluate_layer_with_mapping(
            &self.accelerator,
            &job.layer,
            decision,
            &input.analysis.profile_for(&self.accelerator),
            &self.memory,
            &self.energy,
        );
        LayerReport {
            network: job.network.clone(),
            layer: job.layer.name.clone(),
            weight_elements: job.weight_elements(),
            macs: job.layer.macs(),
            sparsity: input.sparsity,
            compression: input.compression,
            bitflip: input.bitflip,
            mapping: MappingSummary {
                su: decision.label.clone(),
                utilization: decision.utilization,
                effective_macs_per_cycle: decision.effective_macs_per_cycle,
            },
            simulation: SimulationSummary {
                accelerator: self.accelerator.label.clone(),
                effective_macs: result.effective_macs,
                compute_cycles: result.compute_cycles,
                dram_cycles: result.dram_cycles,
                total_cycles: result.total_cycles,
                energy: result.energy,
                boundedness: result.boundedness,
            },
        }
    }
}

impl PipelineStage for SimulateStage {
    type Input = MappedLayer;
    type Output = LayerReport;

    fn name(&self) -> &'static str {
        "simulate"
    }

    fn run(&self, input: MappedLayer) -> Result<LayerReport> {
        let MappedLayer {
            job,
            sparsity,
            compression,
            bitflip,
            analysis,
            decision,
        } = input;
        let view = FlippedLayer {
            job,
            sparsity,
            compression,
            bitflip,
            analysis,
        };
        Ok(self.evaluate(&view, &decision))
    }
}
