//! The unified per-layer experiment pipeline.
//!
//! Every result in the BitWave paper flows through the same per-layer chain:
//! **compress** (sign-magnitude BCS, Section III-C) → **bit-flip** (the
//! one-shot zero-column perturbation, Section III-D) → **map** (spatial
//! unrolling selection, Section IV-C) → **simulate** (the Eq. 1–5 analytical
//! performance/energy model).  The seed of this repository re-implemented
//! that chain ad hoc in every experiment driver; this module expresses it
//! once, as typed stages over a [`LayerJob`], so that drivers, tests and
//! benches all share one code path.
//!
//! [`Pipeline::run`] is the one whole-model entry point: it plans one job per
//! model layer of a weight set and runs the chain with one rayon task per
//! layer, collecting the reports in layer order.  Jobs are independent, so
//! its [`ModelReport`] is **bit-identical** to the stage-by-stage fold
//! [`Pipeline::jobs_with_weights`] → [`Pipeline::run_job`] →
//! [`ModelReport::from_layers`], which the tests use as the sequential
//! reference.  [`Pipeline::prepare_with_weights`] and
//! [`Pipeline::simulate_prepared`] split the same chain after the Bit-Flip
//! stage, so many accelerators can share one analysed weight set.
//!
//! The map stage honours the context's
//! [`bitwave_dataflow::mapping::MappingPolicy`]: `Heuristic` (default)
//! reproduces the paper's one-shot Fig. 9 selection over the accelerator's
//! SU set, `Searched` routes every layer through the `bitwave-dse`
//! design-space exploration ([`Pipeline::search_model_weights`] exposes the
//! full per-layer comparison).  All goldens are pinned to the default
//! policy.
//!
//! # Zero-copy, single-analysis execution
//!
//! A [`LayerJob`] carries its weights behind a shared
//! [`bitwave_tensor::handle::WeightHandle`]: planning jobs from a
//! [`NetworkWeights`] set and cloning jobs for parallel dispatch bump
//! reference counts instead of deep-copying tensors (`bench_pipeline` gates
//! on a copy count of **zero** via [`bitwave_tensor::copy_metrics`]).  The
//! expensive per-tensor analysis happens **once per layer**: the compress
//! stage extracts the weight groups a single time, packs them into a
//! word-parallel [`bitwave_tensor::bitplane::BitplaneTensor`] and derives
//! statistics and BCS accounting from the packed planes, the bit-flip stage
//! reuses those parts to build
//! the accelerator-facing [`bitwave_accel::LayerAnalysis`], and the ZRE/CSR
//! value-codec passes that only the SCNN baseline reads stay **lazy** until
//! a value-sparsity simulation asks for them.
//!
//! The refactor that introduced this is pinned by golden snapshots
//! (`tests/golden/`, byte-compared in `tests/golden_reports.rs`; regenerate
//! intentionally with `UPDATE_GOLDEN=1 cargo test -q --test golden_reports`)
//! and by property tests (`tests/pipeline_properties.rs`).
//!
//! ```
//! use bitwave::context::ExperimentContext;
//! use bitwave::pipeline::Pipeline;
//! use bitwave::dnn::models::resnet18;
//!
//! let ctx = ExperimentContext::default().with_sample_cap(2_000);
//! let net = resnet18();
//! let weights = ctx.weights(&net);
//! let report = Pipeline::new(ctx).run(&net, &weights).unwrap();
//! assert_eq!(report.layers.len(), net.layers.len());
//! assert!(report.weight_compression_ratio > 1.0);
//! ```

pub mod job;
pub mod report;
pub mod stage;

pub use job::LayerJob;
pub use report::{
    BitFlipSummary, CompressionSummary, LayerReport, MappingSummary, ModelReport, SimulationSummary,
};
pub use stage::{
    BitFlipStage, CompressStage, CompressedLayer, FlippedLayer, MapStage, MappedLayer,
    PipelineStage, SimulateStage,
};

use crate::context::ExperimentContext;
use crate::error::Result;
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_core::prelude::FlipStrategy;
use bitwave_dnn::models::NetworkSpec;
use bitwave_dnn::weights::NetworkWeights;
use bitwave_tensor::bits::Encoding;
use rayon::prelude::*;

/// The configured compress → bit-flip → map → simulate pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    ctx: ExperimentContext,
    accelerator: AcceleratorSpec,
    strategy: FlipStrategy,
    encoding: Encoding,
}

impl Pipeline {
    /// Creates a pipeline targeting the fully optimised BitWave accelerator
    /// with no Bit-Flip (lossless) and sign-magnitude encoding.
    pub fn new(ctx: ExperimentContext) -> Self {
        Self {
            ctx,
            accelerator: AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
            strategy: FlipStrategy::new(),
            encoding: Encoding::SignMagnitude,
        }
    }

    /// Targets a different accelerator model (builder style).
    pub fn with_accelerator(mut self, accelerator: AcceleratorSpec) -> Self {
        self.accelerator = accelerator;
        self
    }

    /// Applies an explicit Bit-Flip strategy (builder style).
    pub fn with_strategy(mut self, strategy: FlipStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Applies the context's default one-shot Bit-Flip strategy for `spec`
    /// (builder style).
    pub fn with_default_bitflip(mut self, spec: &NetworkSpec) -> Self {
        self.strategy = self.ctx.default_bitflip_strategy(spec);
        self
    }

    /// Overrides the bit encoding (builder style); the default sign-magnitude
    /// encoding is what the BitWave hardware uses.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// The experiment context this pipeline slices its jobs from.
    pub fn context(&self) -> &ExperimentContext {
        &self.ctx
    }

    /// The accelerator the simulate stage targets.
    pub fn accelerator(&self) -> &AcceleratorSpec {
        &self.accelerator
    }

    /// Plans one [`LayerJob`] per layer of `spec` over `weights`, reading
    /// each layer's Bit-Flip target from the pipeline's strategy.
    ///
    /// # Errors
    ///
    /// See [`LayerJob::plan_with_weights`].
    pub fn jobs_with_weights(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<Vec<LayerJob>> {
        LayerJob::plan_with_weights(&self.ctx, spec, weights, &self.strategy)
    }

    /// The map stage configured from this pipeline's context: the heuristic
    /// by default, the DSE search under
    /// [`bitwave_dataflow::mapping::MappingPolicy::Searched`].
    fn map_stage(&self) -> MapStage {
        MapStage::new(self.accelerator.clone())
            .with_policy(self.ctx.mapping_policy)
            .with_cost_tables(self.ctx.memory, self.ctx.energy)
    }

    /// Runs one job through all four stages.
    ///
    /// # Errors
    ///
    /// Propagates the first stage error.
    pub fn run_job(&self, job: LayerJob) -> Result<LayerReport> {
        let compressed = CompressStage::new(self.encoding).run(job)?;
        let flipped = BitFlipStage::new(self.encoding).run(compressed)?;
        let mapped = self.map_stage().run(flipped)?;
        SimulateStage::new(self.accelerator.clone(), self.ctx.memory, self.ctx.energy).run(mapped)
    }

    /// Runs the map stage for every layer of `spec` (the Fig. 9 view of the
    /// dynamic dataflow choice).  The heuristic needs only the loop nest, so
    /// no weights are generated and no compression runs; under the searched
    /// policy a dense (sparsity-free) profile drives the search.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BitwaveError::EmptyModel`] for a layerless network
    /// and propagates mapping/search errors.
    pub fn map_model(&self, spec: &NetworkSpec) -> Result<Vec<MappingSummary>> {
        if spec.layers.is_empty() {
            return Err(crate::error::BitwaveError::EmptyModel {
                network: spec.name.clone(),
            });
        }
        let map = self.map_stage();
        spec.layers
            .iter()
            .map(|layer| {
                let decision = map.decide(layer)?;
                Ok(MappingSummary {
                    su: decision.label.clone(),
                    utilization: decision.utilization,
                    effective_macs_per_cycle: decision.effective_macs_per_cycle,
                })
            })
            .collect()
    }

    /// Runs the compress + bit-flip prefix over every layer of `spec` with an
    /// existing weight set, yielding accelerator-independent [`FlippedLayer`]s
    /// (including each layer's shared sparsity analysis, whose ZRE/CSR codec
    /// ratios stay lazy).  Feed the result to [`Pipeline::simulate_prepared`]
    /// once per accelerator to evaluate many machines without re-analysing
    /// the same tensors.
    ///
    /// # Errors
    ///
    /// Propagates planning and stage errors.
    pub fn prepare_with_weights(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<Vec<FlippedLayer>> {
        let compress = CompressStage::new(self.encoding);
        let flip = BitFlipStage::new(self.encoding);
        self.jobs_with_weights(spec, weights)?
            .into_iter()
            .map(|job| flip.run(compress.run(job)?))
            .collect()
    }

    /// Runs the map + simulate suffix over already prepared layers on this
    /// pipeline's accelerator.
    ///
    /// # Errors
    ///
    /// Propagates stage errors.
    pub fn simulate_prepared(
        &self,
        spec: &NetworkSpec,
        prepared: &[FlippedLayer],
    ) -> Result<ModelReport> {
        let map = self.map_stage();
        let simulate =
            SimulateStage::new(self.accelerator.clone(), self.ctx.memory, self.ctx.energy);
        // By-reference evaluation: the map/simulate suffix never reads the
        // weight tensors, so nothing is cloned per accelerator.
        let layers: Vec<LayerReport> = prepared
            .iter()
            .map(|layer| {
                let decision = map.decide_with_profile(
                    &layer.job.layer,
                    layer.analysis.profile_for(&self.accelerator),
                )?;
                Ok(simulate.evaluate(layer, &decision))
            })
            .collect::<Result<_>>()?;
        Ok(self.aggregate(spec, layers))
    }

    /// Runs the compress + bit-flip prefix over `spec` and then the full
    /// design-space exploration per layer, returning the per-layer
    /// heuristic-vs-searched comparison with Pareto fronts — the payload of
    /// `bitwave-serve`'s `POST /v1/search`.  Independent of the pipeline's
    /// own [`bitwave_dataflow::mapping::MappingPolicy`]: the comparison
    /// always evaluates both policies.
    ///
    /// # Errors
    ///
    /// Propagates planning, stage and search errors.
    pub fn search_model_weights(
        &self,
        spec: &NetworkSpec,
        weights: &NetworkWeights,
    ) -> Result<bitwave_dse::NetworkSearch> {
        let prepared = self.prepare_with_weights(spec, weights)?;
        let profiles: Vec<bitwave_accel::LayerSparsityProfile> = prepared
            .iter()
            .map(|layer| *layer.analysis.profile_for(&self.accelerator))
            .collect();
        let engine = bitwave_dse::DseEngine::new(self.ctx.memory, self.ctx.energy);
        Ok(engine.search_network(&self.accelerator, spec, &profiles)?)
    }

    /// Runs the full chain over every layer of `spec` with `weights`, one
    /// rayon task per layer, collecting the reports in layer order.  The
    /// result is bit-identical to running [`Pipeline::run_job`] over
    /// [`Pipeline::jobs_with_weights`] in sequence and aggregating with
    /// [`ModelReport::from_layers`]: jobs are independent.
    ///
    /// # Errors
    ///
    /// Propagates planning and stage errors.
    pub fn run(&self, spec: &NetworkSpec, weights: &NetworkWeights) -> Result<ModelReport> {
        let jobs = self.jobs_with_weights(spec, weights)?;
        let layers: Vec<LayerReport> = jobs
            .par_iter()
            .map(|job| self.run_job(job.clone()))
            .collect::<Result<_>>()?;
        Ok(self.aggregate(spec, layers))
    }

    fn aggregate(&self, spec: &NetworkSpec, layers: Vec<LayerReport>) -> ModelReport {
        ModelReport::from_layers(spec.name.clone(), self.accelerator.label.clone(), layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_dnn::models::{mobilenet_v2, resnet18};

    fn ctx() -> ExperimentContext {
        ExperimentContext::default().with_sample_cap(2_000)
    }

    /// [`Pipeline::run`] over the context's generated weights for `net`.
    fn run(pipeline: &Pipeline, net: &NetworkSpec) -> ModelReport {
        pipeline.run(net, &pipeline.context().weights(net)).unwrap()
    }

    /// The sequential reference: every job through [`Pipeline::run_job`] in
    /// layer order, aggregated with [`ModelReport::from_layers`].
    fn run_sequentially(pipeline: &Pipeline, net: &NetworkSpec) -> ModelReport {
        let weights = pipeline.context().weights(net);
        let layers = pipeline
            .jobs_with_weights(net, &weights)
            .unwrap()
            .into_iter()
            .map(|job| pipeline.run_job(job).unwrap())
            .collect();
        ModelReport::from_layers(
            net.name.clone(),
            pipeline.accelerator().label.clone(),
            layers,
        )
    }

    #[test]
    fn sequential_and_parallel_runs_are_bit_identical() {
        let pipeline = Pipeline::new(ctx()).with_default_bitflip(&resnet18());
        let net = resnet18();
        let sequential = run_sequentially(&pipeline, &net);
        let parallel = run(&pipeline, &net);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn compression_accounting_uses_unpadded_original_size() {
        // conv1 has C = 3 input channels, far from a multiple of G16: the
        // hardware pads each group, but the compression *ratio* must be
        // measured against the real (unpadded) weight storage.
        let net = resnet18();
        let report = run(&Pipeline::new(ctx()), &net);
        for layer in &report.layers {
            assert_eq!(
                layer.compression.original_bits,
                layer.weight_elements * 8,
                "{}: original_bits must not count padding",
                layer.layer
            );
        }
        // Heavily padded grouping genuinely stores more than dense: conv1's
        // honest CR is below 1 (the accelerator model's dense fallback case).
        let conv1 = report.layers.iter().find(|l| l.layer == "conv1").unwrap();
        assert!(conv1.compression.cr_with_index < 1.0);
    }

    #[test]
    fn prepared_suffix_matches_full_runs() {
        // prepare_with_weights + simulate_prepared must reproduce run
        // exactly — the multi-accelerator fast path is not allowed to drift.
        let context = ctx();
        let net = resnet18();
        let weights = context.weights(&net);
        let pipeline = Pipeline::new(context).with_default_bitflip(&net);
        let prepared = pipeline.prepare_with_weights(&net, &weights).unwrap();
        let via_suffix = pipeline.simulate_prepared(&net, &prepared).unwrap();
        let full = pipeline.run(&net, &weights).unwrap();
        assert_eq!(via_suffix, full);
    }

    #[test]
    fn reports_cover_every_layer_in_order() {
        let net = resnet18();
        let report = run(&Pipeline::new(ctx()), &net);
        assert_eq!(report.layers.len(), net.layers.len());
        for (layer_report, layer) in report.layers.iter().zip(&net.layers) {
            assert_eq!(layer_report.layer, layer.name);
            assert!(layer_report.simulation.total_cycles > 0.0);
            assert!(layer_report.compression.cr_with_index > 0.0);
            assert!(
                layer_report.bitflip.is_none(),
                "lossless pipeline must not flip"
            );
        }
        assert_eq!(report.accelerator, "BitWave+DF+SM+BF");
        assert!(report.weight_compression_ratio > 1.0);
        assert!(report.total_cycles > 0.0);
    }

    #[test]
    fn bitflip_stage_improves_compression_on_targeted_layers() {
        let net = resnet18();
        let context = ctx();
        let strategy = context.default_bitflip_strategy(&net);
        let report = run(&Pipeline::new(context).with_strategy(strategy), &net);
        let flipped: Vec<_> = report
            .layers
            .iter()
            .filter_map(|l| l.bitflip.as_ref().map(|b| (l, b)))
            .collect();
        assert!(!flipped.is_empty());
        for (layer, flip) in flipped {
            assert!(flip.mean_zero_columns >= f64::from(flip.zero_column_target));
            assert!(
                flip.compression_after.cr_with_index >= layer.compression.cr_with_index,
                "{}: flip must not hurt compression",
                layer.layer
            );
        }
    }

    #[test]
    fn stage_analysis_matches_monolithic_profile_constructor() {
        // The single-pass path (groups/stats/BCS extracted once in the
        // compress stage, reused by the bit-flip stage) must agree exactly
        // with `LayerSparsityProfile::from_weights` on the final weights —
        // for both unflipped and flipped layers.
        use bitwave_accel::LayerSparsityProfile;
        let context = ctx();
        let net = resnet18();
        let weights = context.weights(&net);
        let pipeline = Pipeline::new(context).with_default_bitflip(&net);
        let prepared = pipeline.prepare_with_weights(&net, &weights).unwrap();
        assert!(prepared.iter().any(|l| l.bitflip.is_some()));
        assert!(prepared.iter().any(|l| l.bitflip.is_none()));
        for layer in &prepared {
            assert!(
                !layer.analysis.value_codecs_computed(),
                "{}: ZRE/CSR must stay lazy until a SotA simulation asks",
                layer.job.layer.name
            );
            let monolithic = LayerSparsityProfile::from_weights(
                &layer.job.weights,
                layer.job.layer.expected_activation_sparsity(),
                layer.job.group_size,
            )
            .unwrap();
            assert_eq!(*layer.analysis.full_profile(), monolithic);
        }
    }

    #[test]
    fn bitwave_only_runs_never_trigger_value_codec_passes() {
        // A BitWave (BCS) simulation reads only the core profile; the lazy
        // ZRE/CSR passes must fire for SCNN and only for SCNN.
        let context = ctx();
        let net = resnet18();
        let weights = context.weights(&net);
        let pipeline = Pipeline::new(context);
        let prepared = pipeline.prepare_with_weights(&net, &weights).unwrap();
        pipeline.simulate_prepared(&net, &prepared).unwrap();
        assert!(prepared.iter().all(|l| !l.analysis.value_codecs_computed()));
        let scnn = pipeline
            .clone()
            .with_accelerator(AcceleratorSpec::scnn())
            .simulate_prepared(&net, &prepared)
            .unwrap();
        assert!(prepared.iter().all(|l| l.analysis.value_codecs_computed()));
        assert!(scnn.total_cycles > 0.0);
    }

    #[test]
    fn flipped_compression_accounting_matches_a_fresh_compress_stage() {
        // The bit-flip stage reuses its own encoding/compressor for the
        // post-flip accounting; the numbers must equal what the compress
        // stage itself reports on the flipped weights.
        let context = ctx();
        let net = resnet18();
        let strategy = context.default_bitflip_strategy(&net);
        let pipeline = Pipeline::new(context).with_strategy(strategy);
        let compress = CompressStage::new(Encoding::SignMagnitude);
        let flip = BitFlipStage::new(Encoding::SignMagnitude);
        let mut flipped_seen = 0usize;
        let weights = pipeline.context().weights(&net);
        for job in pipeline.jobs_with_weights(&net, &weights).unwrap() {
            let flipped = flip.run(compress.run(job).unwrap()).unwrap();
            let Some(summary) = &flipped.bitflip else {
                continue;
            };
            flipped_seen += 1;
            // Re-run the compress stage on the flipped job from scratch.
            let recompressed = compress.run(flipped.job.clone()).unwrap();
            assert_eq!(summary.compression_after, recompressed.compression);
            assert_eq!(
                summary.compression_after.cr_with_index,
                flipped.analysis.core_profile().bcs_compression_ratio,
                "analysis must reuse the post-flip BCS accounting"
            );
        }
        assert!(flipped_seen > 0, "strategy must flip some layers");
    }

    #[test]
    fn mixed_stage_encodings_still_yield_a_sign_magnitude_profile_ratio() {
        // A two's-complement compress stage feeding a sign-magnitude
        // bit-flip stage (or vice versa) must not mislabel the TC summary as
        // the profile's SM BCS ratio: reuse is keyed on the encoding the
        // summary was computed under.
        use bitwave_accel::LayerSparsityProfile;
        let pipeline = Pipeline::new(ctx());
        let net = resnet18();
        let weights = pipeline.context().weights(&net);
        let job = pipeline
            .jobs_with_weights(&net, &weights)
            .unwrap()
            .into_iter()
            .find(|j| j.layer.name == "layer3.0.conv1")
            .unwrap();
        let reference = LayerSparsityProfile::from_weights(
            &job.weights,
            job.layer.expected_activation_sparsity(),
            job.group_size,
        )
        .unwrap();
        for (compress_enc, flip_enc) in [
            (Encoding::TwosComplement, Encoding::SignMagnitude),
            (Encoding::SignMagnitude, Encoding::TwosComplement),
            (Encoding::TwosComplement, Encoding::TwosComplement),
        ] {
            let compressed = CompressStage::new(compress_enc).run(job.clone()).unwrap();
            assert_eq!(compressed.encoding, compress_enc);
            let flipped = BitFlipStage::new(flip_enc).run(compressed).unwrap();
            assert_eq!(
                flipped.analysis.core_profile().bcs_compression_ratio,
                reference.bcs_compression_ratio,
                "profile BCS ratio must be sign-magnitude for ({compress_enc:?}, {flip_enc:?})"
            );
        }
    }

    #[test]
    fn mapping_summaries_match_full_reports() {
        let net = mobilenet_v2();
        let pipeline = Pipeline::new(ctx());
        let mappings = pipeline.map_model(&net).unwrap();
        let report = run(&pipeline, &net);
        assert_eq!(mappings.len(), report.layers.len());
        for (summary, layer) in mappings.iter().zip(&report.layers) {
            assert_eq!(summary.su, layer.mapping.su);
            assert_eq!(summary.utilization, layer.mapping.utilization);
        }
    }

    #[test]
    fn dense_accelerator_reports_no_compression_gain_in_cycles() {
        let net = resnet18();
        let dense = run(
            &Pipeline::new(ctx()).with_accelerator(AcceleratorSpec::dense()),
            &net,
        );
        let bitwave = run(&Pipeline::new(ctx()), &net);
        assert!(bitwave.total_cycles < dense.total_cycles);
        assert!(bitwave.speedup_over(&dense) > 1.0);
        assert!(dense.speedup_over(&dense) == 1.0);
    }

    #[test]
    fn searched_policy_never_loses_to_the_heuristic_on_edp() {
        use bitwave_dataflow::mapping::MappingPolicy;
        let net = resnet18();
        let heuristic = run(&Pipeline::new(ctx()), &net);
        let searched = run(
            &Pipeline::new(ctx().with_mapping_policy(MappingPolicy::Searched)),
            &net,
        );
        let edp = |r: &ModelReport| r.total_cycles * r.energy.total_pj();
        assert!(
            edp(&searched) <= edp(&heuristic),
            "searched EDP {:.3e} must not exceed heuristic EDP {:.3e}",
            edp(&searched),
            edp(&heuristic)
        );
        // Searched reports surface the mapping descriptors.
        assert!(searched
            .layers
            .iter()
            .all(|l| !l.mapping.su.is_empty() && l.mapping.utilization > 0.0));
    }

    #[test]
    fn searched_policy_keeps_sequential_parallel_bit_identity() {
        use bitwave_dataflow::mapping::MappingPolicy;
        let pipeline = Pipeline::new(ctx().with_mapping_policy(MappingPolicy::Searched));
        let net = mobilenet_v2();
        let sequential = run_sequentially(&pipeline, &net);
        let parallel = run(&pipeline, &net);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn searched_prepared_suffix_matches_full_runs() {
        use bitwave_dataflow::mapping::MappingPolicy;
        let context = ctx().with_mapping_policy(MappingPolicy::Searched);
        let net = resnet18();
        let weights = context.weights(&net);
        let pipeline = Pipeline::new(context).with_default_bitflip(&net);
        let prepared = pipeline.prepare_with_weights(&net, &weights).unwrap();
        let via_suffix = pipeline.simulate_prepared(&net, &prepared).unwrap();
        let full = pipeline.run(&net, &weights).unwrap();
        assert_eq!(via_suffix, full);
    }

    #[test]
    fn search_model_weights_reports_per_layer_fronts() {
        let context = ctx();
        let net = resnet18();
        let weights = context.weights(&net);
        let pipeline = Pipeline::new(context);
        let search = pipeline.search_model_weights(&net, &weights).unwrap();
        assert_eq!(search.layers.len(), net.layers.len());
        assert_eq!(search.accelerator, "BitWave+DF+SM+BF");
        assert!(search.edp_gain() >= 1.0);
        for layer in &search.layers {
            assert!(!layer.search.front.is_empty());
            assert!(layer.search.candidates > 0);
            assert!(
                layer.search.winner.cost.edp <= layer.heuristic.cost.edp,
                "{}: the space seeds the heuristic choice",
                layer.layer
            );
        }
    }

    #[test]
    fn layer_report_serializes_to_json_and_back() {
        let net = resnet18();
        let report = run(&Pipeline::new(ctx()).with_default_bitflip(&net), &net);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: ModelReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }
}
