//! The production Eq. 1–5 pricing held to the cycle-level BCE engine
//! (Section V-B: the model "has been validated against the RTL model of
//! BitWave, demonstrating a deviation of less than 6 %").
//!
//! Each case lowers a `Cu × OXu × Ku` spatial unrolling onto the engine,
//! prices the layer with `evaluate_layer_with_mapping` (the code behind the
//! pipeline, the DSE and the sweep) and runs the same weights through
//! `BitwaveEngine::run_matmul`.  It compares the compute cycles and the BCS
//! compression ratio.  The ratio agrees exactly: both sides count the same
//! groups' non-zero columns and index bits against the layer's real weight
//! bits.  The cycles agree within the paper's 6 % where the model's
//! synchronisation statistic describes the engine ([`Bound::Paper`]).  The
//! engine synchronises the same channel group across the (up to) 8 kernels
//! of a set; the profile instead takes the maximum over chunks of
//! `BITWAVE_SYNC_GROUPS = 8` consecutive groups of the weight tensor, i.e.
//! along `C`.  Three known deviations follow and are bounded separately:
//!
//! * **Passes with fewer than 8 kernels are over-priced.**  The engine
//!   synchronises only the kernels a pass actually holds
//!   (`sync_kernels = min(Ku, 8)`, and a pass over the ragged tail of `K`
//!   holds fewer), while the profile always takes the maximum over 8
//!   groups.
//! * **A ragged `C` is over-priced.**  Its zero-padded tail groups hold
//!   fewer non-zero columns; the engine synchronises them with each other,
//!   while the profile's chunks mix them with full groups.
//! * **Mostly-zero weights on small layers are under-priced.**  Their
//!   per-group column counts spread widely, and two effects the model
//!   ignores then matter: the profile averages the maximum of each chunk
//!   with a short tail chunk weighted like a full one, and a pass takes as
//!   long as its *slowest* synchronisation set, not the mean one.

use bitwave_accel::model::evaluate_layer_with_mapping;
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::{EnergyModel, LayerSparsityProfile};
use bitwave_core::group::GroupSize;
use bitwave_dataflow::su::{bitwave_su, SpatialUnrolling};
use bitwave_dataflow::{MappingDecision, MemoryHierarchy};
use bitwave_dnn::layer::LayerSpec;
use bitwave_sim::bce::BCE_LANES;
use bitwave_sim::engine::{BitwaveEngine, EngineConfig, SimStats};
use bitwave_sim::validate::ValidationReport;
use bitwave_tensor::prelude::*;
use bitwave_tensor::quant::QuantParams;

/// The paper's model-vs-RTL bound.
const PAPER_BOUND: f64 = 0.06;

/// How far the model may under-price mostly-zero weights: the known
/// deviation described in the module docs (worst seen: 22.6 %), bounded so
/// it cannot grow unnoticed.
const MOSTLY_ZERO_UNDERPRICE: f64 = 0.25;

/// The bound a case's cycle deviation `(model − sim) / sim` is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// Within the paper's 6 % either way: every pass holds 8 kernels, `C`
    /// fills whole groups and the weights are not mostly zero.
    Paper,
    /// A known over-pricing (a pass with fewer than 8 kernels or a ragged
    /// `C`): never under-priced by more than 6 %.
    OverPriceOnly,
    /// Mostly-zero weights: never under-priced by more than
    /// [`MOSTLY_ZERO_UNDERPRICE`].
    MostlyZero,
}

impl Bound {
    fn of(layer: &LayerSpec, su: &SpatialUnrolling, spread: Spread) -> Self {
        if spread == Spread::MostlyZero {
            Bound::MostlyZero
        } else if full_sync(layer, su) && layer.dims.c % su.c == 0 {
            Bound::Paper
        } else {
            Bound::OverPriceOnly
        }
    }

    fn holds(self, deviation: f64) -> bool {
        match self {
            Bound::Paper => deviation.abs() < PAPER_BOUND,
            Bound::OverPriceOnly => deviation > -PAPER_BOUND,
            Bound::MostlyZero => deviation > -MOSTLY_ZERO_UNDERPRICE,
        }
    }
}

/// Lowers a `Cu × OXu × Ku` spatial unrolling onto the BCE array: `Ku`
/// kernels × `OXu` output positions of BCEs with `Cu` lanes each, eight
/// kernels (or all `Ku`, if fewer) sharing one column schedule (Fig. 10).
/// Refuses `Gu`, `FX`, `FY` and `OYu` unrolling, a zero dimension, and a
/// `Cu` wider than one BCE.
fn engine_config(su: &SpatialUnrolling) -> Option<EngineConfig> {
    let cxk = su.g == 1 && su.fx == 1 && su.fy == 1 && su.oy == 1;
    let runnable = su.c > 0 && su.ox > 0 && su.k > 0 && su.c <= BCE_LANES;
    (cxk && runnable).then(|| EngineConfig {
        ku: su.k,
        mu: su.ox,
        lanes: su.c,
        sync_kernels: su.k.min(8),
    })
}

/// Runs `layer` (with `weights` in its weight shape) on the engine the way
/// the model counts it.  A linear layer is one matmul over its rows.  A conv
/// layer runs one matmul per output row (`M = OX`) against an im2col weight
/// matrix in `(fy, fx, c)` order, each `(fy, fx)` slice of `C` zero-padded to
/// a multiple of `Cu`, i.e. exactly the model's groups of `Cu` input
/// channels of one kernel position.  The cycles depend only on the weights,
/// so one row is run and counted `B × OY` times.
///
/// The returned dense volume is the layer's real (unpadded) weight storage,
/// the denominator of the model's Eq. 3 ratio: the lowered matrix holds the
/// zero padding of a ragged `C` as real columns.
fn simulate(layer: &LayerSpec, weights: &QuantTensor, config: EngineConfig) -> SimStats {
    let dims = layer.dims;
    let (m, matrix, rows) = if weights.shape().rank() == 2 {
        (dims.b, weights.clone(), 1)
    } else {
        let padded_c = dims.c.div_ceil(config.lanes) * config.lanes;
        let width = dims.fy * dims.fx * padded_c;
        let wshape = weights.shape();
        let mut data = vec![0i8; dims.k * width];
        for k in 0..dims.k {
            for fy in 0..dims.fy {
                for fx in 0..dims.fx {
                    let slice = k * width + (fy * dims.fx + fx) * padded_c;
                    for c in 0..dims.c {
                        data[slice + c] = weights.data()[wshape.offset(&[k, c, fy, fx])];
                    }
                }
            }
        }
        let matrix = QuantTensor::new(Shape::d2(dims.k, width), data, QuantParams::unit())
            .expect("im2col weights");
        (dims.ox, matrix, dims.b * dims.oy)
    };
    let c = matrix.shape().dim(1);
    let acts: Vec<i8> = (0..m * c).map(|i| (i % 11) as i8 - 5).collect();
    let acts = QuantTensor::new(Shape::d2(m, c), acts, QuantParams::unit()).expect("activations");
    let (_, stats) = BitwaveEngine::new(config)
        .run_matmul(&acts, &matrix)
        .expect("lowered matmul runs");
    SimStats {
        compute_cycles: stats.compute_cycles * rows as u64,
        dense_weight_bits: dims.weight_count() * 8,
        ..stats
    }
}

/// Prices `layer` under `su` with the production model on the BitWave spec
/// and compares it with the engine.
fn agreement(layer: &LayerSpec, su: SpatialUnrolling, weights: &QuantTensor) -> ValidationReport {
    let config = engine_config(&su).expect("the case's SU lowers onto the engine");
    let utilization = su.utilization(&layer.dims);
    let decision = MappingDecision {
        layer: layer.name.clone(),
        su,
        label: su.name.to_string(),
        temporal: None,
        utilization,
        effective_macs_per_cycle: su.parallelism() as f64 * utilization,
    };
    let profile = LayerSparsityProfile::from_weights(weights, 0.0, GroupSize::from_len(su.c))
        .expect("weights profile");
    let priced = evaluate_layer_with_mapping(
        &AcceleratorSpec::bitwave(BitwaveOptimizations::all()),
        layer,
        &decision,
        &profile,
        &MemoryHierarchy::bitwave_default(),
        &EnergyModel::finfet_16nm(),
    );
    ValidationReport::new(
        &simulate(layer, weights, config),
        priced.compute_cycles,
        profile.bcs_compression_ratio,
    )
}

/// Whether every pass of `Ku` kernels over the layer's `K` holds at least
/// the eight kernels the profile synchronises.
fn full_sync(layer: &LayerSpec, su: &SpatialUnrolling) -> bool {
    let (k, ku) = (layer.dims.k, su.k);
    ku.min(k) >= 8 && (k % ku == 0 || k % ku >= 8)
}

/// The weight distributions of the generated cases.  Per-tensor
/// quantisation makes a distribution's scale irrelevant, so cases vary its
/// shape and the seed instead.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Spread {
    Laplacian,
    Uniform,
    MostlyZero,
}

impl Spread {
    const ALL: [Spread; 3] = [Spread::Laplacian, Spread::Uniform, Spread::MostlyZero];

    fn weights(self, shape: Shape, seed: u64) -> QuantTensor {
        let distribution = match self {
            Spread::Laplacian => WeightDistribution::Laplacian { scale: 0.05 },
            Spread::Uniform => WeightDistribution::Uniform { range: 1.0 },
            Spread::MostlyZero => WeightDistribution::SpikeAndSlab {
                zero_probability: 0.9,
                std: 0.05,
            },
        };
        quantize_per_tensor(&WeightGenerator::new(distribution, seed).generate(shape), 8)
            .expect("quantised weights")
    }
}

/// `(Cu, OXu, Ku)` shapes: Table I's menu (only SU1 and SU4 lower) and
/// generated `Cu × OXu × Ku` factorizations, `Ku < 8` included.
fn sus() -> Vec<SpatialUnrolling> {
    let generated = [(4, 8, 16), (8, 4, 8), (8, 4, 1), (1, 16, 16), (2, 2, 4)]
        .map(|(c, ox, k)| SpatialUnrolling::cxk("DSE", c, ox, k));
    bitwave_su::ALL
        .into_iter()
        .chain(generated)
        .filter(|su| engine_config(su).is_some())
        .collect()
}

/// Checks cases against their bounds and keeps the lowest and the highest
/// cycle deviation of each bound class.  [`Tally::check`] returns the
/// case's deviation.
#[derive(Default)]
struct Tally {
    cases: usize,
    /// `(bound, lowest, highest)` per class seen.
    ranges: Vec<(Bound, f64, f64)>,
}

impl Tally {
    fn check(
        &mut self,
        label: &str,
        layer: &LayerSpec,
        su: &SpatialUnrolling,
        spread: Spread,
        w: &QuantTensor,
    ) -> f64 {
        let report = agreement(layer, *su, w);
        let sim = report.simulated_cycles as f64;
        assert!(sim > 0.0, "{label}: the engine ran no cycles");
        let deviation = (report.model_cycles - sim) / sim;
        let bound = Bound::of(layer, su, spread);
        assert!(
            bound.holds(deviation),
            "{label} ({spread:?} weights, {bound:?} bound): sim {} cycles, model {:.1}, \
             off by {deviation:+.4}",
            report.simulated_cycles,
            report.model_cycles
        );
        assert_eq!(
            report.model_compression_ratio, report.simulated_compression_ratio,
            "{label}: BCS ratio"
        );
        match self.ranges.iter_mut().find(|(b, ..)| *b == bound) {
            Some((_, low, high)) => {
                *low = low.min(deviation);
                *high = high.max(deviation);
            }
            None => self.ranges.push((bound, deviation, deviation)),
        }
        self.cases += 1;
        deviation
    }

    fn print(&self, what: &str) {
        println!("{what}: {} cases, BCS ratio exact", self.cases);
        for (bound, low, high) in &self.ranges {
            println!(
                "  {bound:?}: cycle deviation {:+.2} % .. {:+.2} %",
                low * 100.0,
                high * 100.0
            );
        }
    }
}

#[test]
fn cxk_mappings_lower_onto_the_engine() {
    let su1 = engine_config(&bitwave_su::SU1).expect("SU1 lowers");
    assert_eq!(su1, EngineConfig::su1());
    let su4 = engine_config(&bitwave_su::SU4).expect("SU4 lowers");
    assert_eq!(
        (su4.ku, su4.mu, su4.lanes, su4.sync_kernels),
        (128, 1, 8, 8)
    );
    let narrow = engine_config(&SpatialUnrolling::cxk("DSE", 4, 2, 3)).unwrap();
    assert_eq!(narrow.sync_kernels, 3, "a pass never syncs more than Ku");
    let lowered: Vec<&str> = sus().iter().map(|su| su.name).collect();
    assert_eq!(&lowered[..2], ["SU1", "SU4"]);
}

#[test]
fn unliftable_mappings_are_refused() {
    // Table I's Cu = 16/32 shapes are wider than one BCE; SU7 unrolls Gu.
    for su in [
        bitwave_su::SU2,
        bitwave_su::SU3,
        bitwave_su::SU5,
        bitwave_su::SU6,
        bitwave_su::SU7,
    ] {
        assert_eq!(engine_config(&su), None, "{}", su.name);
    }
    let base = SpatialUnrolling::cxk("DSE", 8, 4, 8);
    for refused in [
        SpatialUnrolling::cxk("DSE", 8, 4, 0),
        SpatialUnrolling::cxk("DSE", 0, 4, 8),
        SpatialUnrolling::cxk("DSE", 8, 0, 8),
        SpatialUnrolling { fx: 3, ..base },
        SpatialUnrolling { fy: 3, ..base },
        SpatialUnrolling { oy: 2, ..base },
        SpatialUnrolling { g: 2, ..base },
    ] {
        assert_eq!(engine_config(&refused), None, "{refused:?}");
    }
}

#[test]
fn linear_layers_agree_with_the_engine() {
    // (rows M, out features K, in features C): aligned, ragged C/K/M, a
    // K that leaves a pass with one kernel, and a K smaller than 8.
    let shapes = [
        (16, 32, 64),
        (13, 50, 100),
        (16, 8, 24),
        (16, 33, 40),
        (9, 24, 20),
        (12, 5, 36),
    ];
    let mut tally = Tally::default();
    let mut seed = 0xB17;
    for su in sus() {
        for (m, k, c) in shapes {
            let layer = LayerSpec::linear("fc", c, k, m, 1.0);
            for spread in Spread::ALL {
                seed += 1;
                let w = spread.weights(layer.weight_shape(), seed);
                let label = format!("linear M{m} K{k} C{c} on {su:?} (seed {seed})");
                tally.check(&label, &layer, &su, spread, &w);
            }
        }
    }
    tally.print("linear");
}

#[test]
fn conv_layers_agree_with_the_engine() {
    // (C, K, kernel, stride, padding, input size): aligned, ragged C and
    // OX, a strided first layer with C = 3, and a ragged pointwise layer.
    let shapes = [
        (16, 32, 3, 1, 1, 8),
        (12, 24, 3, 1, 1, 7),
        (3, 16, 3, 2, 1, 11),
        (20, 40, 1, 1, 0, 5),
    ];
    let mut tally = Tally::default();
    let mut seed = 0xC0;
    for su in sus() {
        for (c, k, kernel, stride, padding, hw) in shapes {
            let layer = LayerSpec::conv2d("conv", c, k, kernel, stride, padding, hw, 1.0);
            for spread in Spread::ALL {
                seed += 1;
                let w = spread.weights(layer.weight_shape(), seed);
                let label = format!(
                    "conv C{c} K{k} {kernel}x{kernel}/{stride} OX{} on {su:?} (seed {seed})",
                    layer.dims.ox
                );
                tally.check(&label, &layer, &su, spread, &w);
            }
        }
    }
    tally.print("conv");
}

/// Runs one of the model-vs-simulator cases the simulator crate used to
/// check against its own copy of Eq. 2, now against the production model on
/// SU1: a linear layer of `m` rows, `k` outputs and `c` inputs.  Each case
/// stays within the paper's 6 % either way, the ragged one included.
fn su1_case(label: &str, (m, k, c): (usize, usize, usize), spread: Spread, seed: u64) {
    let layer = LayerSpec::linear("fc", c, k, m, 1.0);
    let w = spread.weights(layer.weight_shape(), seed);
    let expected = if c % 8 == 0 {
        Bound::Paper
    } else {
        Bound::OverPriceOnly
    };
    assert_eq!(
        Bound::of(&layer, &bitwave_su::SU1, spread),
        expected,
        "{label}"
    );
    let mut tally = Tally::default();
    let deviation = tally.check(label, &layer, &bitwave_su::SU1, spread, &w);
    assert!(
        deviation.abs() < PAPER_BOUND,
        "{label}: off by {deviation:+.4}"
    );
    tally.print(label);
}

#[test]
fn model_matches_simulator_within_paper_bound() {
    su1_case("SU1 32x64x128", (32, 64, 128), Spread::Laplacian, 2);
}

#[test]
fn compression_ratio_estimates_agree() {
    // The ratio itself is asserted exactly equal by `Tally::check`.
    let layer = LayerSpec::linear("fc", 256, 32, 16, 1.0);
    let w = Spread::Laplacian.weights(layer.weight_shape(), 4);
    assert!(agreement(&layer, bitwave_su::SU1, &w).simulated_compression_ratio > 1.0);
    su1_case(
        "SU1 compression 16x32x256",
        (16, 32, 256),
        Spread::Laplacian,
        4,
    );
}

#[test]
fn ragged_dimensions_stay_reasonably_close() {
    // Dimensions that do not divide the SU exercise the utilisation terms.
    su1_case("SU1 ragged 21x50x100", (21, 50, 100), Spread::Laplacian, 6);
}

#[test]
fn dense_weights_validate_exactly() {
    // Full-range uniform weights: almost no column can be skipped.
    su1_case(
        "SU1 uniform dense 16x32x64",
        (16, 32, 64),
        Spread::Uniform,
        8,
    );
}
